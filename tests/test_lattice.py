import itertools
from fractions import Fraction

import numpy as np
import pytest

from approxdiag import lattice
from approxdiag.errors import DomainError, ResourceLimitError, UnboundedRegionError
from approxdiag.lattice import (
    LatticePoint,
    cell_of,
    lattice_image,
    lattice_points_in,
    quantize,
    quantize_index,
    quantize_indices,
)
from approxdiag.rational import to_rational
from approxdiag.regions import Box, BoxUnion


def test_quantize_examples():
    assert quantize((0.3,), 0.5).coords == (0,)
    assert quantize((0.5,), 0.5).coords == (1,)  # boundary goes up
    for theta in (0.05, 0.5, 1.3):
        assert quantize((0.0, 0.0), theta).coords == (0, 0)


def test_quantize_decimal_boundary():
    # 0.3 sits on the cell boundary of the 0.2-grid and belongs upward.
    assert quantize((0.3,), 0.1).coords == (2,)
    assert quantize((1.0,), 0.1).coords == (5,)


def test_quantize_rejects_nonfinite():
    with pytest.raises(DomainError):
        quantize((float("nan"),), 0.5)
    with pytest.raises(DomainError):
        quantize((float("inf"),), 0.5)


def test_partition_membership_and_uniqueness():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        for theta in (0.05, 0.5):
            pts = rng.uniform(-7.0, 7.0, size=(500, n))
            for x in pts:
                x = tuple(float(v) for v in x)
                q = quantize(x, theta)
                assert cell_of(q).contains(x)
                # No neighboring cell also claims the point.
                for axis in range(n):
                    for d in (-1, 1):
                        other = list(q.coords)
                        other[axis] += d
                        assert not cell_of(LatticePoint(tuple(other), theta)).contains(x)


def test_cell_of_matches_validated_box():
    # cell_of builds its Box on the trusted path; the public constructor,
    # which re-validates every field, is the oracle.
    rng = np.random.default_rng(14)
    for n in (1, 2, 3):
        for theta in (0.05, 0.1, 0.5, 0.7):
            for _ in range(100):
                coords = tuple(int(c) for c in rng.integers(-10**6, 10**6, size=n, endpoint=True))
                q = LatticePoint(coords, theta)
                got = cell_of(q)
                emb = q.embed()
                want = Box(
                    tuple(v - theta for v in emb),
                    tuple(v + theta for v in emb),
                    (False,) * n,
                    (True,) * n,
                )
                assert got == want and hash(got) == hash(want)
                for field in (got.lower, got.upper):
                    assert type(field) is tuple and all(type(v) is float for v in field)
                for field in (got.lower_open, got.upper_open):
                    assert type(field) is tuple and all(type(v) is bool for v in field)
    # Non-float theta values still give float bounds equal to the oracle's.
    for theta in (np.float64(0.5), Fraction(1, 4), 1):
        q = LatticePoint((3, -7), theta)
        got = cell_of(q)
        emb = q.embed()
        want = Box(tuple(v - theta for v in emb), tuple(v + theta for v in emb), (False,) * 2, (True,) * 2)
        assert got == want and hash(got) == hash(want)
        assert all(type(v) is float for v in got.lower + got.upper)


def test_lattice_point_normalises_coords():
    plain = LatticePoint((3, -2, 0), 0.5)
    for coords in ([3, -2, 0], tuple(np.int64(c) for c in (3, -2, 0)), np.array([3, -2, 0])):
        q = LatticePoint(coords, 0.5)
        assert type(q.coords) is tuple and all(type(c) is int for c in q.coords)
        assert q == plain and hash(q) == hash(plain)
    for theta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            LatticePoint((3, -2, 0), theta)


def test_quantize_idempotent_on_lattice():
    rng = np.random.default_rng(11)
    for theta in (0.05, 0.5, 0.7):
        for _ in range(200):
            coords = tuple(int(c) for c in rng.integers(-50, 50, size=2))
            q = LatticePoint(coords, theta)
            assert quantize(q.embed(), theta).coords == coords


def test_adjacent_cells_disjoint():
    rng = np.random.default_rng(12)
    theta = 0.3
    for _ in range(200):
        c = int(rng.integers(-20, 20))
        left = cell_of(LatticePoint((c,), theta))
        right = cell_of(LatticePoint((c + 1,), theta))
        x = float(rng.uniform(-7, 7))
        assert not (left.contains((x,)) and right.contains((x,)))


def test_boundary_ties_go_up():
    # Exactly representable boundaries: float probes.
    for k in range(-99, 100, 2):
        assert quantize((0.5 * k,), 0.5).coords == ((k + 1) // 2,)
    # theta = 0.05 boundaries are not float-representable; exact odd
    # multiples are expressed as decimal rationals.
    t = Fraction("0.05")
    for k in range(-99, 100, 2):
        assert quantize((t * k,), 0.05).coords == ((k + 1) // 2,)
    # Float products carry rounding noise; the documented tie snap still
    # classifies them into the upper cell.
    for k in range(-999, 1000, 2):
        assert quantize((0.05 * k,), 0.05).coords == ((k + 1) // 2,)


def enum_oracle(region: BoxUnion, theta: float, span=60):
    """Brute-force enumeration oracle over a wide index window."""
    two = 2 * Fraction(theta)
    n = region.dim
    found = []

    def walk(prefix):
        if len(prefix) == n:
            if region.contains_exact(tuple(two * c for c in prefix)):
                found.append(tuple(prefix))
            return
        for c in range(-span, span + 1):
            walk(prefix + [c])

    walk([])
    return found


def test_lattice_points_in_examples():
    sixteen = lattice_points_in(BoxUnion.of(Box((0.2, 0.2), (0.8, 0.8))), 0.1)
    assert len(sixteen) == 16
    assert {pt.coords for pt in sixteen} == {(a, b) for a in range(1, 5) for b in range(1, 5)}

    point = lattice_points_in(BoxUnion.of(Box((0.0, 0.0), (0.0, 0.0))), 0.7)
    assert [pt.coords for pt in point] == [(0, 0)]

    around = lattice_points_in(BoxUnion.of(Box((-0.4,), (0.4,))), 0.5)
    assert [pt.coords for pt in around] == [(0,)]


def test_lattice_points_in_matches_enumeration_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        lo = rng.uniform(-3, 2, size=2)
        hi = lo + rng.uniform(0.1, 2.5, size=2)
        region = BoxUnion.of(Box(tuple(lo), tuple(hi)))
        theta = float(rng.choice([0.1, 0.25, 0.5]))
        got = {pt.coords for pt in lattice_points_in(region, theta)}
        assert got == set(enum_oracle(region, theta))


def test_lattice_image_of_initial_box():
    image = lattice_image(BoxUnion.of(Box((-1.0, -1.0), (1.0, 1.0))), 0.5)
    assert {pt.coords for pt in image} == {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}


def test_image_and_intersection_semantics_differ():
    # No lattice point of the 0.2-grid embeds inside [0.25, 0.35], but the
    # interval meets two cells, so the quantizer image is nonempty.
    region = BoxUnion.of(Box((0.25,), (0.35,)))
    assert lattice_points_in(region, 0.1) == []
    assert {pt.coords for pt in lattice_image(region, 0.1)} == {(1,), (2,)}


def test_open_upper_bound_on_cell_edge_meets_no_cell_above():
    # [0, 0.05) meets only cell 0 = [-0.05, 0.05); cell 1 starts at 0.05.
    half_open = BoxUnion.of(Box((0.0,), (0.05,), (False,), (True,)))
    assert [pt.coords for pt in lattice_image(half_open, 0.05)] == [(0,)]
    closed = BoxUnion.of(Box((0.0,), (0.05,)))
    assert [pt.coords for pt in lattice_image(closed, 0.05)] == [(0,), (1,)]


def cell_meets_box(coords, theta, box):
    """Exact test: the half-open cell of the coordinates meets the box."""
    t = to_rational(theta)
    for c, a, b, a_open, b_open in zip(
        coords, box.lower, box.upper, box.lower_open, box.upper_open
    ):
        cell_hi = (2 * c + 1) * t
        a, b = to_rational(a), to_rational(b)
        lo, hi = max((2 * c - 1) * t, a), min(cell_hi, b)
        if lo > hi:
            return False
        # A single shared value must lie in the cell and in the interval.
        if lo == hi and not (lo < cell_hi and (lo != a or not a_open) and (lo != b or not b_open)):
            return False
    return True


def random_bound(rng, theta):
    if rng.random() < 0.5:  # on a cell edge, an odd multiple of theta
        return float((2 * int(rng.integers(-6, 6)) + 1) * to_rational(theta))
    return round(float(rng.uniform(-2.0, 2.0)), 4)


def test_lattice_image_matches_cell_oracle():
    rng = np.random.default_rng(41)
    for _ in range(300):
        theta = float(rng.choice([0.05, 0.1, 0.25, 0.5]))
        dim = int(rng.integers(1, 3))
        boxes = []
        for _ in range(int(rng.integers(1, 3))):
            bounds = [
                sorted((random_bound(rng, theta), random_bound(rng, theta))) for _ in range(dim)
            ]
            flags = rng.random((2, dim)) < 0.5
            boxes.append(Box(
                tuple(lo for lo, _ in bounds), tuple(hi for _, hi in bounds),
                tuple(bool(f) for f in flags[0]), tuple(bool(f) for f in flags[1]),
            ))
        region = BoxUnion.of(*boxes)
        image = {pt.coords for pt in lattice_image(region, theta)}
        # Every image cell meets the region, and every met cell is imaged.
        window = [
            range(
                min(quantize_index(b.lower[i], theta) for b in boxes) - 1,
                max(quantize_index(b.upper[i], theta) for b in boxes) + 2,
            )
            for i in range(dim)
        ]
        met = {
            c
            for c in itertools.product(*window)
            if any(cell_meets_box(c, theta, b) for b in boxes if not b.is_empty())
        }
        assert image == met, (region, theta)
        # Quantized region points land in the image.
        for box in boxes:
            if box.is_empty():
                continue
            for _ in range(10):
                x = []
                for a, b, a_open, b_open in zip(
                    box.lower, box.upper, box.lower_open, box.upper_open
                ):
                    picks = [float(rng.uniform(a, b))] if a < b else []
                    picks += [a] * (not a_open) + [b] * (not b_open)
                    x.append(picks[int(rng.integers(len(picks)))])
                if box.contains(x):
                    assert quantize(x, theta).coords in image, (box, x)


def test_unbounded_region_rejected():
    region = BoxUnion.of(Box((0.0,), (float("inf"),)))
    with pytest.raises(UnboundedRegionError):
        lattice_points_in(region, 0.5)
    with pytest.raises(UnboundedRegionError):
        lattice_image(region, 0.5)


def test_embed_exact_matches_embedding():
    q = LatticePoint((3, -2), 0.1)
    exact = q.embed_exact()
    # Decimal-intent rationals: theta = 0.1 means exactly 1/10.
    assert exact == (Fraction(3, 5), Fraction(-2, 5))
    assert all(abs(float(e) - v) < 1e-15 for e, v in zip(exact, q.embed()))


@pytest.mark.parametrize("x", [1.5e308, -1.5e308, 1e308])
def test_quantize_index_overflow_is_a_domain_error(x):
    # Finite x whose index x / (2 theta) is not finite as a double.
    with pytest.raises(DomainError):
        quantize_index(x, 0.05)
    assert not np.isfinite(quantize_indices(np.array([x]), 0.05)).any()


def test_lattice_box_above_the_grid_cap_is_counted_not_enumerated(monkeypatch):
    # 1e300 cells per axis: counted as a Python int, never handed to range().
    with pytest.raises(ResourceLimitError, match="lattice box of more than 67108864 points"):
        lattice_image(BoxUnion.of(Box((-1.0,), (1.0,))), 1e-300)
    # Three boxes of 21 x 21 points: the cap applies to each box alone.
    boxes = BoxUnion.of(*(Box((k, 0.0), (k + 2.0, 2.0)) for k in (0.0, 4.0, 8.0)))
    monkeypatch.setattr(lattice, "_GRID_CAP", 21 * 21)
    assert len(lattice_image(boxes, 0.05)) == 3 * 21 * 21
    assert len(lattice_points_in(boxes, 0.05)) == 3 * 21 * 21
    monkeypatch.setattr(lattice, "_GRID_CAP", 21 * 21 - 1)
    with pytest.raises(ResourceLimitError, match="more than 440 points"):
        lattice_points_in(boxes, 0.05)
