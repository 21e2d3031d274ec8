import itertools

import numpy as np
import pytest

from approxdiag import bridge
from approxdiag.abstraction import AbstractionParams
from approxdiag.bridge import (
    DIAGNOSABLE_ABOVE,
    INCONCLUSIVE,
    NOT_DIAGNOSABLE,
    _fault_lattice_plain,
    conclude,
    falsify_plant,
    fault_lattice_dilated,
    fault_lattice_eroded,
    smallest_refute_k,
)
from approxdiag.errors import EmptyErosionError, FaultSpecError, ParamCheckError
from approxdiag.finsys import FiniteSystem
from approxdiag.fixtures import e1
from approxdiag.lattice import LatticePoint, lattice_points_in
from approxdiag.rational import to_rational
from approxdiag.regions import Box, BoxUnion
from reference import reference_fault_lattice_eroded, reference_fault_lattice_plain

WIDE = Box((-10.0, -10.0), (10.0, 10.0))


def test_dilated_examples():
    region = BoxUnion.of(Box((0.95, 0.95), (1.05, 1.05)))
    assert fault_lattice_dilated(region, 0.1, 0.5, WIDE) == [(1, 1)]
    point = BoxUnion.of(Box((1.0, 1.0), (1.0, 1.0)))
    assert fault_lattice_dilated(point, 0.0, 0.5, WIDE) == [(1, 1)]
    outside = BoxUnion.of(Box((50.0, 50.0), (51.0, 51.0)))
    assert fault_lattice_dilated(outside, 0.1, 0.5, WIDE) == []


def test_eroded_examples():
    square = BoxUnion.of(Box((0.0, 0.0), (1.0, 1.0)))
    pts = fault_lattice_eroded(square, 0.2, 0.1, WIDE)
    assert len(pts) == 16  # the eroded core [0.2, 0.8]^2 on the 0.2-grid
    assert set(pts) == {(a, b) for a in range(1, 5) for b in range(1, 5)}
    assert fault_lattice_eroded(square, 0.6, 0.1, WIDE) == []  # past the inradius
    all_inside = fault_lattice_eroded(square, 0.0, 0.1, WIDE)
    assert set(all_inside) == {pt.coords for pt in lattice_points_in(square, 0.1)}


def test_eroded_respects_union_geometry():
    # Two abutting boxes: erosion may straddle the interior seam.
    union = BoxUnion.of(Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 1.0)))
    pts = fault_lattice_eroded(union, 0.2, 0.1, WIDE)
    assert (3, 3) in pts  # embedding (0.6, 0.6): its ball crosses the seam


def test_smallest_refute_k_examples():
    assert smallest_refute_k(0.5, 0.2, 0.1) == 10
    assert smallest_refute_k(0.0, 0.1, 0.1) == 3  # exact multiple: min h = 2
    assert smallest_refute_k(0.05, 0.3, 0.03) == 23


NARROW = Box((-1.0, -0.5), (0.75, 1.5))


def dilated_oracle(box, eps, eta, bound):
    """Brute force: lattice coordinates whose exact embedding lies in
    [lo - eps, hi + eps] intersected with the bound, axis by axis."""
    e, two_eta = to_rational(eps), 2 * to_rational(eta)
    axes = []
    for i in range(box.dim):
        lo = max(to_rational(box.lower[i]) - e, to_rational(bound.lower[i]))
        hi = min(to_rational(box.upper[i]) + e, to_rational(bound.upper[i]))
        window = range(int(lo / two_eta) - 2, int(hi / two_eta) + 3)
        axes.append([c for c in window if lo <= two_eta * c <= hi])
    return set(itertools.product(*axes))


def test_sandwich_on_random_instances():
    rng = np.random.default_rng(70)
    for _ in range(50):
        lo = rng.uniform(-2, 1, size=2)
        box = Box(tuple(lo), tuple(lo + rng.uniform(0.3, 2.0, size=2)))
        region = BoxUnion.of(box)
        eps = float(rng.uniform(0.01, 0.4))
        eta = float(rng.choice([0.05, 0.1, 0.25]))
        for bound in (WIDE, NARROW):
            dil = fault_lattice_dilated(region, eps, eta, bound)
            assert dil == sorted(dilated_oracle(box, eps, eta, bound))
        dil = set(fault_lattice_dilated(region, eps, eta, WIDE))
        ero = set(fault_lattice_eroded(region, eps, eta, WIDE))
        plain = {pt.coords for pt in lattice_points_in(region, eta)}
        assert ero <= plain <= dil


def random_closed_union(rng, dim):
    """One to three closed boxes on the 0.05 grid: the first anywhere, each
    later one touching, overlapping, nested in or apart from the first.
    Widths run from 0 (a degenerate axis) up, so some erosions are empty."""

    def box(lo, hi):
        return Box(tuple(round(0.05 * v, 2) for v in lo), tuple(round(0.05 * v, 2) for v in hi))

    lo = rng.integers(-20, 10, size=dim)
    hi = lo + rng.integers(0, 16, size=dim)
    boxes = [box(lo, hi)]
    for _ in range(rng.integers(0, 3)):
        kind = rng.choice(["touching", "overlapping", "nested", "apart"])
        if kind == "nested":
            nlo = lo + rng.integers(0, hi - lo + 1)
            nhi = nlo + rng.integers(0, hi - nlo + 1)
        elif kind == "apart":
            nlo = rng.integers(-30, 30, size=dim)
            nhi = nlo + rng.integers(0, 12, size=dim)
        else:
            nlo = lo + rng.integers(-4, hi - lo + 1)
            nhi = nlo + rng.integers(1, 12, size=dim)
            if kind == "touching":  # shares the first box's upper face on one axis
                axis = rng.integers(dim)
                nlo[axis], nhi[axis] = hi[axis], hi[axis] + rng.integers(0, 8)
        boxes.append(box(nlo, nhi))
    return BoxUnion(tuple(boxes), dim)


def dilated_union_oracle(region, eps, eta, bound):
    return sorted(set().union(*(dilated_oracle(b, eps, eta, bound) for b in region.boxes)))


def test_fault_lattices_equal_oracles_on_random_unions():
    rng = np.random.default_rng(16)
    for trial in range(240):
        dim = int(rng.choice([1, 2, 2, 3]))
        region = random_closed_union(rng, dim) if trial else BoxUnion((), 2)
        eta = round(float(rng.uniform(0.05, 0.25)), 2)
        eps = float(rng.choice([0.0, round(rng.uniform(0.0, 0.3), 2), rng.uniform(0.0, 0.3)]))
        # The explore bound is wide, or cuts the region on one axis at a
        # grid value that may fall on a lattice point.
        lo, hi = [-10.0] * region.dim, [10.0] * region.dim
        axis = int(rng.integers(region.dim))
        cut = round(0.05 * int(rng.integers(-16, 12)), 2)
        if rng.integers(2):
            lo[axis] = cut
        else:
            hi[axis] = cut
        for bound in (Box((-10.0,) * region.dim, (10.0,) * region.dim), Box(tuple(lo), tuple(hi))):
            case = (region, eps, eta, bound)
            assert fault_lattice_dilated(*case) == dilated_union_oracle(*case), case
            assert fault_lattice_eroded(*case) == reference_fault_lattice_eroded(*case), case
            plain = _fault_lattice_plain(region, eta, bound)
            assert plain == reference_fault_lattice_plain(region, eta, bound), case


def test_one_box_erosion_needs_no_box_subtraction(monkeypatch):
    sysdef, cert = e1()
    rng = np.random.default_rng(5)
    cases = [(BoxUnion.of(Box((1.02, 0.22), (1.98, 0.98))), 0.3, 0.03, cert.explore_bound)]
    for _ in range(40):
        region = random_closed_union(rng, 2)
        cases.append((BoxUnion.of(region.boxes[0]), float(rng.uniform(0, 0.3)), 0.05, NARROW))
    want = [reference_fault_lattice_eroded(*case) for case in cases]
    assert len(want[0]) == 21

    def forbidden(*args):
        raise AssertionError("a one-box erosion reached a per-point test")

    monkeypatch.setattr(bridge, "ball_in_union", forbidden)
    monkeypatch.setattr(LatticePoint, "embed_exact", forbidden)
    assert [fault_lattice_eroded(*case) for case in cases] == want


def prove_params():
    return AbstractionParams(0.5, 0.05, 0.025)


def refute_params():
    return AbstractionParams(0.3, 0.03, 0.01)


def test_conclude_requires_valid_params():
    sysdef, cert = e1()
    region = BoxUnion.of(Box((1.7, -1.0), (1.9, 1.0)))
    with pytest.raises(ParamCheckError):
        conclude(sysdef, cert, AbstractionParams(0.5, 0.1, 0.1), region, "prove")


def test_conclude_rejects_fault_meeting_initial_set():
    sysdef, cert = e1()
    region = BoxUnion.of(Box((0.0, 0.0), (0.5, 0.5)))
    with pytest.raises(FaultSpecError):
        conclude(sysdef, cert, prove_params(), region, "prove")


def test_conclude_prove_bound_arithmetic():
    # An unreachable fault box exercises the k/bound arithmetic exactly.
    sysdef, cert = e1()
    region = BoxUnion.of(Box((2.1, -1.0), (2.3, 1.0)))
    verdict = conclude(
        sysdef, cert, AbstractionParams(1.0, 0.1, 0.05), region, "prove", k=2
    )
    assert verdict.direction == DIAGNOSABLE_ABOVE
    assert verdict.rho_bound == 2.2  # 2*eps + k*eta, exact float arithmetic


def test_conclude_prove_observable_fault():
    sysdef, cert = e1()
    region = BoxUnion.of(Box((1.7, -1.0), (1.9, 1.0)))
    verdict = conclude(sysdef, cert, prove_params(), region, "prove")
    assert verdict.direction == DIAGNOSABLE_ABOVE
    assert verdict.k == 20 and verdict.rho_bound == 2.0
    assert verdict.finite.diagnosable
    assert verdict.to_json() == {
        "direction": DIAGNOSABLE_ABOVE,
        "epsilon": 0.5, "eta": 0.05, "mu": 0.025,
        "fault_states": 98, "dropped_fault_points": 305,
        "k": 20, "rho_bound": 2.0,
        "finite_verdict": {
            "diagnosable": True, "method": "twin-plant", "delta": 1,
            "region_states": 0, "phase_a_pairs": 6172,
        },
    }


def test_conclude_prove_inconclusive_when_finite_not_diagnosable():
    # Hidden coordinate and k = 0: the dilated set is confusable.
    sysdef, cert = e1()
    region = BoxUnion.of(Box((1.52, 0.22), (1.98, 0.98)))
    verdict = conclude(sysdef, cert, prove_params(), region, "prove", k=0)
    assert verdict.to_json() == {
        "direction": INCONCLUSIVE,
        "epsilon": 0.5, "eta": 0.05, "mu": 0.025,
        "fault_states": 105, "dropped_fault_points": 133,
        "k": 0,
        "reason": "finite system not diagnosable for the dilated fault set; "
        "the proving direction gives nothing",
        "finite_verdict": {
            "diagnosable": False, "method": "twin-plant",
            "witness": [[236, 503, 138, 10, 480, 6, 6, 6], [231, 500, 136, 9, 479, 6, 6, 6]],
            "region_states": 1176, "phase_a_pairs": 10160,
        },
    }


def hidden_fault_initial_model():
    # Lattice model whose one non-origin state, the eroded point (1.5, 0.6)
    # of the hidden fault region, is also initial: e1 itself cannot put a
    # fault state into its quantized initial set.
    return FiniteSystem.from_json({
        "kind": "abstraction-model", "schema": 1, "p": 1,
        "state_theta": 0.03, "input_theta": 0.01,
        "states": [[0, 0], [25, 10]], "inputs": [[0]],
        "initial": [0, 1], "successors": [[0], [1]],
    })


@pytest.mark.parametrize(
    "mode, kwargs, extra",
    [
        ("prove", {}, {"k": 20, "dropped_fault_points": 620}),
        ("refute", {"rho": 0.05}, {"k": 23, "dropped_fault_points": 20, "rho": 0.05}),
    ],
)
def test_conclude_ill_posed_finite_check(mode, kwargs, extra):
    sysdef, cert = e1()
    region = BoxUnion.of(Box((1.02, 0.22), (1.98, 0.98)))
    verdict = conclude(
        sysdef, cert, refute_params(), region, mode,
        system=hidden_fault_initial_model(), **kwargs,
    )
    assert verdict.to_json() == {
        "direction": INCONCLUSIVE,
        "epsilon": 0.3, "eta": 0.03, "mu": 0.01,
        "fault_states": 1,
        "reason": "finite check ill-posed: fault set meets the initial states: [1]",
        **extra,
    }


def test_conclude_rejects_unknown_mode_and_negative_k():
    sysdef, cert = e1()
    region = BoxUnion.of(Box((2.1, -1.0), (2.3, 1.0)))
    params = AbstractionParams(1.0, 0.1, 0.05)
    with pytest.raises(FaultSpecError, match="unknown mode 'guess'"):
        conclude(sysdef, cert, params, region, "guess")
    with pytest.raises(FaultSpecError, match="k must be a natural number"):
        conclude(sysdef, cert, params, region, "prove", k=-1)
    with pytest.raises(FaultSpecError, match="requires a target rho"):
        conclude(sysdef, cert, params, region, "refute")


def test_conclude_refute_empty_erosion():
    sysdef, cert = e1()
    thin = BoxUnion.of(Box((1.7, -1.0), (1.9, 1.0)))  # width 0.2 < 2*eps
    with pytest.raises(EmptyErosionError):
        conclude(sysdef, cert, refute_params(), thin, "refute", rho=0.05)


def test_conclude_refute_inconclusive_when_finite_diagnosable():
    # Fault visible through the observed coordinate: refutation gets nothing.
    sysdef, cert = e1()
    region = BoxUnion.of(Box((1.4, -1.2), (2.1, 1.2)))
    verdict = conclude(sysdef, cert, refute_params(), region, "refute", rho=0.05)
    assert verdict.direction == INCONCLUSIVE
    assert verdict.finite is not None and verdict.finite.diagnosable
    assert verdict.to_json() == {
        "direction": INCONCLUSIVE,
        "epsilon": 0.3, "eta": 0.03, "mu": 0.01,
        "fault_states": 21, "dropped_fault_points": 41,
        "k": 23, "rho": 0.05,
        "reason": "finite system diagnosable for the eroded fault set; "
        "the contrapositive gives nothing",
        "finite_verdict": {
            "diagnosable": True, "method": "twin-plant", "delta": 1,
            "region_states": 0, "phase_a_pairs": 47208,
        },
    }


def test_conclude_refute_hidden_fault():
    sysdef, cert = e1()
    region = BoxUnion.of(Box((1.02, 0.22), (1.98, 0.98)))
    verdict = conclude(sysdef, cert, refute_params(), region, "refute", rho=0.05)
    assert verdict.direction == NOT_DIAGNOSABLE
    assert verdict.k == 23
    assert not verdict.finite.diagnosable
    assert verdict.to_json() == {
        "direction": NOT_DIAGNOSABLE,
        "epsilon": 0.3, "eta": 0.03, "mu": 0.01,
        "fault_states": 21, "dropped_fault_points": 0,
        "k": 23, "rho": 0.05,
        "finite_verdict": {
            "diagnosable": False, "method": "twin-plant",
            "witness": [
                [974, 1488, 482, 1362, 1235, 9, 9, 9],
                [945, 1473, 475, 1359, 1234, 9, 9, 9],
            ],
            "region_states": 2541, "phase_a_pairs": 42876,
        },
    }


def test_falsify_trivial_cases():
    sysdef, _ = e1()
    region = BoxUnion.of(Box((1.02, 0.22), (1.98, 0.98)))
    assert falsify_plant(sysdef, region, 0.05, trials=0, horizon=10) is None
    assert falsify_plant(sysdef, region, 100.0, trials=200, horizon=10) is None


def test_falsify_finds_hidden_fault_pair():
    sysdef, _ = e1()
    region = BoxUnion.of(Box((1.02, 0.22), (1.98, 0.98)))
    cx = falsify_plant(sysdef, region, 0.05, trials=400, horizon=30, seed=0)
    assert cx is not None
    # Re-validate the pair against the definition directly.
    assert region.contains(cx.traj_fault[cx.fault_time])
    assert all(not region.contains(x) for x in cx.traj_fault[: cx.fault_time])
    assert all(region.distance_to(x) > 0.05 for x in cx.traj_safe)
    from approxdiag.system import quantized_output_trace

    tf = quantized_output_trace(sysdef, cx.x0_fault, cx.inputs)
    ts = quantized_output_trace(sysdef, cx.x0_safe, cx.inputs)
    assert [q.coords for q in tf] == [q.coords for q in ts]
    assert cx.fault_time >= 1


def test_falsify_reproducible():
    sysdef, _ = e1()
    region = BoxUnion.of(Box((1.02, 0.22), (1.98, 0.98)))
    a = falsify_plant(sysdef, region, 0.05, trials=400, horizon=30, seed=0)
    b = falsify_plant(sysdef, region, 0.05, trials=400, horizon=30, seed=0)
    assert a == b
