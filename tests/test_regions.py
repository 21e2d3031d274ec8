import numpy as np
import pytest

from approxdiag.errors import DimensionMismatchError, DomainError
from approxdiag.regions import Box, BoxUnion, ball_in_union


def dilate(union: BoxUnion, eps: float) -> BoxUnion:
    """Minkowski sum with the closed eps-ball: every nonempty box inflated
    by eps per axis, closed."""
    if eps < 0:
        raise DomainError("dilation radius must be nonnegative")
    boxes = (b for b in union.boxes if not b.is_empty())
    return BoxUnion(
        tuple(Box(tuple(a - eps for a in b.lower), tuple(c + eps for c in b.upper)) for b in boxes),
        union.dim,
    )


def unit_square():
    return BoxUnion.of(Box((0.0, 0.0), (1.0, 1.0)))


def test_contains_examples():
    assert unit_square().contains((0.5, 0.5))
    assert not unit_square().contains((1.5, 0.0))
    gap = BoxUnion.of(Box((0.0,), (0.4,)), Box((0.6,), (1.0,)))
    assert not gap.contains((0.5,))
    assert gap.contains((0.3,))


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        unit_square().contains((0.5,))


def test_open_flags():
    half_open = Box((0.0,), (1.0,), upper_open=(True,))
    assert half_open.contains((0.0,))
    assert not half_open.contains((1.0,))


def test_dilate_examples():
    square = dilate(unit_square(), 0.2)
    assert square.boxes[0].lower == (-0.2, -0.2)
    assert square.boxes[0].upper == (1.2, 1.2)
    assert dilate(BoxUnion((), 2), 0.5).is_empty()
    touching = dilate(BoxUnion.of(Box((0.0,), (0.1,)), Box((0.3,), (0.4,))), 0.1)
    assert touching.contains((0.2,))  # the two inflated pieces now touch
    assert touching.contains((-0.05,)) and touching.contains((0.45,))
    assert not touching.contains((0.55,))


def test_dilate_monotone_and_composable():
    rng = np.random.default_rng(20)
    boxes = [Box(tuple(lo), tuple(lo + rng.uniform(0.1, 1, size=2))) for lo in rng.uniform(-2, 2, size=(3, 2))]
    union = BoxUnion(tuple(boxes), 2)
    grown = dilate(union, 0.3)
    for _ in range(300):
        x = tuple(rng.uniform(-3, 3, size=2))
        if union.contains(x):
            assert grown.contains(x)
    single = BoxUnion.of(boxes[0])
    twice = dilate(dilate(single, 0.2), 0.1)
    once = dilate(single, 0.3)
    # Equal up to float re-association of the two radii.
    assert twice.boxes[0].lower == pytest.approx(once.boxes[0].lower, abs=1e-12)
    assert twice.boxes[0].upper == pytest.approx(once.boxes[0].upper, abs=1e-12)


def test_ball_in_union_examples():
    assert ball_in_union((0.5, 0.5), 0.2, unit_square())
    assert not ball_in_union((0.9, 0.5), 0.2, unit_square())
    assert ball_in_union((0.25, 0.75), 0.0, unit_square())
    assert not ball_in_union((1.5, 0.5), 0.0, unit_square())


def test_ball_in_union_split_cover():
    # Two abutting boxes exactly cover the ball; no tolerance involved.
    cover = BoxUnion.of(Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 1.0)))
    assert ball_in_union((0.5, 0.5), 0.5, cover)
    # Remove the right half: the same ball sticks out.
    assert not ball_in_union((0.5, 0.5), 0.5, BoxUnion.of(cover.boxes[0]))


def test_ball_in_union_agrees_with_sampling_oracle():
    rng = np.random.default_rng(21)
    for _ in range(40):
        boxes = []
        for _k in range(int(rng.integers(1, 4))):
            lo = rng.uniform(-2, 1.5, size=2)
            boxes.append(Box(tuple(lo), tuple(lo + rng.uniform(0.2, 1.5, size=2))))
        union = BoxUnion(tuple(boxes), 2)
        x = tuple(rng.uniform(-2, 2, size=2))
        eps = float(rng.uniform(0.05, 0.6))
        got = ball_in_union(x, eps, union)
        # Interior grid sampling: one-sided, boundaries avoided by shrinking.
        grid = np.linspace(-eps * 0.999, eps * 0.999, 13)
        sampled_covered = all(
            union.contains((x[0] + dx, x[1] + dy)) for dx in grid for dy in grid
        )
        if got:
            assert sampled_covered
        elif not sampled_covered:
            assert not got


def test_distance_examples():
    assert unit_square().distance_to((0.5, 0.5)) == 0.0
    assert unit_square().distance_to((1.3, 0.5)) == pytest.approx(0.3)
    assert unit_square().distance_to((1.3, 1.4)) == pytest.approx(0.4)


def test_distance_zero_iff_in_closure():
    rng = np.random.default_rng(22)
    union = BoxUnion.of(Box((0.0, 0.0), (1.0, 1.0), upper_open=(True, True)))
    for _ in range(300):
        x = tuple(rng.uniform(-1.5, 2.5, size=2))
        closed = Box((0.0, 0.0), (1.0, 1.0)).contains(x)
        assert (union.distance_to(x) == 0.0) == closed


def test_distance_on_empty_union_rejected():
    with pytest.raises(DomainError):
        BoxUnion((), 2).distance_to((0.0, 0.0))


def test_bad_bounds_rejected():
    with pytest.raises(DomainError):
        Box((1.0,), (0.0,))


def test_public_constructor_validates_shape():
    with pytest.raises(DimensionMismatchError):
        Box((0.0, 0.0), (1.0, 1.0), lower_open=(False,))
    with pytest.raises(DimensionMismatchError):
        Box((0.0, 0.0), (1.0, 1.0), upper_open=(True, True, True))
    with pytest.raises(DimensionMismatchError):
        Box((0.0, 0.0), (1.0,))
    # Integer bounds and truthy flags are normalised to floats and bools.
    box = Box((0, 1), (2, 3), lower_open=(0, 1))
    assert all(type(v) is float for v in box.lower + box.upper)
    assert box.lower_open == (False, True) and box.upper_open == (False, False)


def test_json_round_trip():
    union = BoxUnion.of(
        Box((0.0, 0.0), (1.0, 1.0)),
        Box((2.0, 2.0), (3.0, 3.0), upper_open=(True, False)),
    )
    back = BoxUnion.from_json(union.to_json())
    assert back == union
    empty = BoxUnion.from_json(BoxUnion((), 3).to_json())
    assert empty.is_empty() and empty.dim == 3


def test_intersects():
    a = BoxUnion.of(Box((0.0,), (1.0,)))
    assert a.intersects(BoxUnion.of(Box((1.0,), (2.0,))))  # closed touch
    assert not a.intersects(BoxUnion.of(Box((1.0,), (2.0,), lower_open=(True,))))
    assert not a.intersects(BoxUnion.of(Box((1.5,), (2.0,))))
