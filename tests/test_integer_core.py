"""The twin plant on integer output classes and the integer lattice ball,
checked against their exact Fraction-valued forms in `reference.py`."""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import approxdiag as ad
from approxdiag import bridge, diagnosis, finsys
from approxdiag.diagnosis import check_diagnosability
from approxdiag.finsys import FiniteSystem
from approxdiag.fixtures import D1_FAULTS, ND1_FAULTS, d1, nd1, random_finite_system
from approxdiag.rational import to_rational
from approxdiag.report import canonical_json
from reference import exact_ball, reference_check

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SUITE_SEED = 20260810

# (mode, fault region file, AbstractionParams, rho) of the e1 refute and
# prove scenarios: 1,775 states at eta 0.03 and 978 states at eta 0.04.
E1_SCENARIOS = {
    "refute": ("fault_x2.json", (0.3, 0.03, 0.01), 0.05),
    "prove": ("fault_x1.json", (0.4, 0.04, 0.005), None),
}


def assert_same_verdict(got, want):
    assert got == want  # diagnosable, delta, witness, method
    assert got.stats == want.stats


@pytest.fixture(scope="module")
def e1_checks():
    """The (system, spec) pairs `conclude` hands the twin-plant check."""
    sysdef, cert = ad.parse_system((CONFIGS / "e1.json").read_text())
    seen = {}
    for mode, (fault_file, params, rho) in E1_SCENARIOS.items():
        region = ad.BoxUnion.from_json(json.loads((CONFIGS / fault_file).read_text()))
        calls = []

        def recording(system, spec):
            calls.append((system, spec))
            return check_diagnosability(system, spec)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bridge, "check_diagnosability", recording)
            ad.conclude(sysdef, cert, ad.AbstractionParams(*params), region, mode, rho=rho)
        (seen[mode],) = calls
    return seen


def test_output_ids_intern_by_exact_equality():
    states = tuple((Fraction(v),) for v in range(5))
    outputs = tuple((Fraction(v),) for v in ("1/2", "0", "1/2", "0.5", "2"))
    succ = tuple(((i,),) for i in range(5))
    s = FiniteSystem(states, (0,), ("u",), succ, outputs, 1)
    assert s.output_ids == (0, 1, 0, 0, 2)


def test_successor_groups_follow_first_appearance():
    states = tuple((Fraction(v),) for v in range(4))
    outputs = ((Fraction(0),), (Fraction(7),), (Fraction(3),), (Fraction(7),))
    succ = (((3, 1), (2,)), ((0,), (0,)), ((0,), (0,)), ((0,), (0,)))
    s = FiniteSystem(states, (0,), ("a", "b"), succ, outputs, 1)
    ptr, cls, flat = s.successor_groups
    assert ptr == [0, 3, 4, 5, 6]
    # State 0's successors 1 and 3 share class 1, which 1 reaches first.
    assert (cls[:3], flat[:3]) == ([1, 1, 2], [1, 3, 2])


def test_replace_rebuilds_derived_tables():
    s = d1()
    spec = ad.FaultSpec.of(D1_FAULTS, 0)
    assert check_diagnosability(s, spec).diagnosable  # fills the ball memo
    assert s.successor_groups == ([0, 2, 3, 4], [1, 2, 1, 2], [1, 2, 1, 2])
    assert s.output_ids == (0, 1, 2)
    # State 1 may now move on to state 2, which shares its output.
    succ = (((1, 2),), ((1, 2),), ((2,),))
    outputs = ((Fraction(0),), (Fraction(2),), (Fraction(2),))
    copy = dataclasses.replace(s, succ=succ, outputs=outputs)
    fresh = FiniteSystem(s.states, s.initial, s.inputs, succ, outputs, s.p)
    groups = ([0, 2, 4, 5], [1, 1, 1, 1, 1], [1, 2, 1, 2, 2])
    assert copy.successor_groups == fresh.successor_groups == groups
    assert copy.output_ids == fresh.output_ids == (0, 1, 1)
    got, want = check_diagnosability(copy, spec), check_diagnosability(fresh, spec)
    assert not got.diagnosable
    assert_same_verdict(got, want)
    # The original keeps its own tables.
    assert s.successor_groups == ([0, 2, 3, 4], [1, 2, 1, 2], [1, 2, 1, 2])
    assert s.output_ids == (0, 1, 2)
    assert check_diagnosability(s, spec).diagnosable


def test_ball_is_computed_once_per_fault_set_and_radius():
    s = d1()
    ball = s.ball_states({1}, 2)
    assert ball == {0, 1, 2}
    assert s.ball_states(frozenset({1}), Fraction(2)) is ball
    assert s.ball_states([1], 2.0) is ball
    assert s.ball_states({1}, 1) == {1}


@pytest.mark.parametrize("lo, hi", [(-(1 << 63), (1 << 63) - 1), (0, 1 << 70)])
def test_lattice_ball_falls_back_beyond_int64(lo, hi):
    # int64 wraps hi - lo to -1 in the first case; 2**70 does not fit at all.
    theta = 0.5
    coords = ((lo,), (hi,), (hi - 1,), (hi - 2,))
    states = tuple(tuple(2 * to_rational(theta) * c for c in row) for row in coords)
    succ = tuple(((i,),) for i in range(len(coords)))
    s = FiniteSystem(
        states, (0,), ("u",), succ, states, 1, state_theta=theta, state_coords=coords
    )
    assert s.ball_states({1}, 1) == exact_ball(s, {1}, 1) == {1, 2}


def test_checker_matches_fraction_reference_on_random_suite():
    rng = np.random.default_rng(SUITE_SEED)
    for _ in range(200):
        system, spec = random_finite_system(rng)
        assert system.ball_states(spec.faults, spec.rho) == exact_ball(
            system, spec.faults, spec.rho
        )
        assert_same_verdict(check_diagnosability(system, spec), reference_check(system, spec))


@pytest.fixture(scope="module")
def e1_references(e1_checks):
    return {mode: reference_check(*check) for mode, check in e1_checks.items()}


@pytest.mark.parametrize("mode", sorted(E1_SCENARIOS))
def test_checker_matches_fraction_reference_on_e1(e1_checks, e1_references, mode):
    system, spec = e1_checks[mode]
    got = check_diagnosability(system, spec)
    assert got.diagnosable == (mode == "prove")
    assert_same_verdict(got, e1_references[mode])


def scalar_check(system, spec):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagnosis, "_JOIN_MIN_PAIRS", math.inf)
        return check_diagnosability(system, spec)


def watched_levels(monkeypatch):
    """Sizes of the levels that run the join, each checked on entry: every
    frontier pair was admitted earlier, by the seeding or a join, so the
    visited bitmap must already hold it."""
    sizes = []
    level = diagnosis._PairJoin.level

    def watched(self, frontier, seen):
        assert seen[frontier].all()
        sizes.append(len(frontier))
        yield from level(self, frontier, seen)

    monkeypatch.setattr(diagnosis._PairJoin, "level", watched)
    return sizes


def widening_system():
    """One output class; both twin-plant phases have levels of 1, 2 or 4
    pairs, and paths of several lengths meet again, so a join skips pairs
    that earlier levels and earlier chunks of its own level reached."""
    succ = [(1, 2), (3,), (3,), (4, 5, 8), (6,), (6,), (9, 10), (7,), (8,), (6,), (6,)]
    states = tuple((Fraction(i),) for i in range(len(succ)))
    outputs = ((Fraction(0),),) * len(succ)
    system = FiniteSystem(states, (0,), ("u",), tuple((t,) for t in succ), outputs, 1)
    return system, ad.FaultSpec.of({8}, 0)


def many_initial_cases(rng, count):
    """Random systems whose initial list repeats states, mixes output
    classes and may hold ball states, so the output-matched initial pairs
    have duplicates and dropped right sides."""
    cases = []
    while len(cases) < count:
        system, spec = random_finite_system(rng)
        free = [i for i in range(system.n_states) if i not in spec.faults]
        initial = tuple(int(i) for i in rng.choice(free, size=int(rng.integers(1, 9))))
        system = dataclasses.replace(system, initial=initial)
        cases.append((system, spec))
    return cases


def desk_cases():
    rng = np.random.default_rng(SUITE_SEED)
    cases = [random_finite_system(rng) for _ in range(200)]
    return cases + many_initial_cases(rng, 50) + [
        (d1(), ad.FaultSpec.of(D1_FAULTS, 0)),
        (nd1(), ad.FaultSpec.of(ND1_FAULTS, 5)),
        widening_system(),
    ]


@pytest.mark.parametrize("path", ["join", "scalar"])
def test_forced_path_matches_reference(monkeypatch, path):
    # A threshold of exactly n*n pairs sends the check down the numpy join,
    # one pair more keeps it on the scalar loop.  Three left rows per chunk
    # put chunk boundaries inside the rows of one pair.
    monkeypatch.setattr(diagnosis, "_JOIN_CHUNK", 3)
    joins = watched_levels(monkeypatch)
    for system, spec in desk_cases():
        threshold = system.n_states**2 + (path == "scalar")
        monkeypatch.setattr(diagnosis, "_JOIN_MIN_PAIRS", threshold)
        assert_same_verdict(check_diagnosability(system, spec), reference_check(system, spec))
    assert (len(joins) > 200) == (path == "join")


def test_join_is_built_once_per_check_at_threshold(e1_checks, monkeypatch):
    built = []

    class CountedJoin(diagnosis._PairJoin):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(diagnosis, "_PairJoin", CountedJoin)
    # At the default threshold desk systems stay scalar and e1 joins.
    for system, spec in desk_cases():
        check_diagnosability(system, spec)
    assert not built
    check_diagnosability(*e1_checks["refute"])
    assert len(built) == 1
    for system, spec in desk_cases():
        for extra, want in [(1, 0), (0, 1)]:
            monkeypatch.setattr(diagnosis, "_JOIN_MIN_PAIRS", system.n_states**2 + extra)
            built.clear()
            check_diagnosability(system, spec)
            assert len(built) == want


@pytest.mark.parametrize("mode", sorted(E1_SCENARIOS))
def test_batched_levels_match_scalar_and_reference_on_e1(e1_checks, e1_references, mode, monkeypatch):
    # 97 left rows per chunk: thousands of chunk boundaries at a tier-1 cost
    # (a 3-row chunk makes about half a million chunks here).
    monkeypatch.setattr(diagnosis, "_JOIN_CHUNK", 97)
    joins = watched_levels(monkeypatch)
    system, spec = e1_checks[mode]
    got = check_diagnosability(system, spec)
    assert max(joins) > 10_000
    assert_same_verdict(got, scalar_check(system, spec))
    assert_same_verdict(got, e1_references[mode])


def test_pair_cap_keeps_every_level_scalar(e1_checks, monkeypatch):
    monkeypatch.setattr(diagnosis, "_JOIN_MIN_PAIRS", 1)
    cases = desk_cases() + [e1_checks[mode] for mode in sorted(E1_SCENARIOS)]
    batched = [check_diagnosability(*case) for case in cases]
    monkeypatch.setattr(diagnosis, "_PAIR_CAP", 0)
    monkeypatch.setattr(diagnosis, "_PairJoin", None)  # any use would raise
    for case, want in zip(cases, batched):
        assert_same_verdict(check_diagnosability(*case), want)


def test_batched_check_memory_stays_flat(e1_checks):
    # About 10 MB with 4,096-row chunks (4 MB scalar); without the chunk
    # bound the join's arrays take about 96 MB.
    system, spec = e1_checks["refute"]
    system.ball_states(spec.faults, spec.rho)
    tracemalloc.start()
    try:
        check_diagnosability(system, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


@pytest.mark.parametrize("mode", sorted(E1_SCENARIOS))
def test_lattice_ball_matches_exact_ball_on_e1(e1_checks, mode):
    system, spec = e1_checks[mode]
    assert system.state_coords is not None
    exact = dataclasses.replace(system, state_coords=None, state_theta=None)
    two_theta = 2 * to_rational(system.state_theta)
    others = [i for i in range(system.n_states) if i not in spec.faults]
    fault_sets = (spec.faults, frozenset(others[:: max(1, len(others) // 7)]))
    radii = [spec.rho]
    for m in range(4):
        on_grid = float(m * two_theta)
        below = math.nextafter(on_grid, 0.0)
        assert to_rational(on_grid) == m * two_theta
        assert m == 0 or to_rational(below) < m * two_theta
        radii += [m * two_theta, on_grid, below]
    for rho in radii:
        for faults in fault_sets:
            want = exact.ball_states(faults, rho)
            assert system.ball_states(faults, rho) == want
            if rho == 0:
                assert want == faults  # lattice embeddings are injective


def integer_tables(system):
    return list(system.class_of.items()), system.output_ids, system.successor_groups


@pytest.mark.parametrize("mode", sorted(E1_SCENARIOS))
def test_array_native_model_matches_general_constructor_on_e1(e1_checks, e1_references, mode):
    system, spec = e1_checks[mode]
    general = FiniteSystem(
        system.states,
        system.initial,
        system.inputs,
        system.succ,
        system.outputs,
        system.p,
        state_theta=system.state_theta,
        input_theta=system.input_theta,
        state_coords=system.state_coords,
        input_coords=system.input_coords,
        meta=system.meta,
    )
    assert general == system
    assert len(system.class_of) < system.n_states  # one key per class, not per state
    assert integer_tables(system) == integer_tables(general)
    assert canonical_json(system.to_json()) == canonical_json(general.to_json())
    back = FiniteSystem.from_json(json.loads(canonical_json(system.to_json())))
    assert "succ" not in back.__dict__
    assert integer_tables(back) == integer_tables(system)
    assert back == system
    assert_same_verdict(check_diagnosability(general, spec), e1_references[mode])
    assert_same_verdict(check_diagnosability(back, spec), e1_references[mode])


@pytest.mark.parametrize("mode", sorted(E1_SCENARIOS))
def test_conclude_keeps_lattice_model_on_arrays(monkeypatch, mode):
    """The check path reads the integer tables only: building the successor
    tuples or the exact state embeddings would undo the array-native model."""

    def forbidden(system):
        raise AssertionError("a lattice model view was materialized")

    for view in ("succ", "states", "inputs", "outputs"):
        monkeypatch.setitem(finsys._VIEWS, view, forbidden)
    sysdef, cert = ad.parse_system((CONFIGS / "e1.json").read_text())
    fault_file, params, rho = E1_SCENARIOS[mode]
    region = ad.BoxUnion.from_json(json.loads((CONFIGS / fault_file).read_text()))
    params = ad.AbstractionParams(*params)
    system = ad.build_abstraction(sysdef, cert, params)
    verdict = ad.conclude(sysdef, cert, params, region, mode, rho=rho, system=system)
    assert verdict.finite.diagnosable == (mode == "prove")
    assert not {"succ", "states", "inputs", "outputs"} & system.__dict__.keys()
