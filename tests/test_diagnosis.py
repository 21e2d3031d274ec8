import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from approxdiag import diagnosis
from approxdiag.diagnosis import (
    Diagnoser,
    FaultSpec,
    Verdict,
    brute_force_check,
    check_diagnosability,
    synthesize_diagnoser,
    validate_witness,
)
from approxdiag.errors import (
    DomainError,
    FaultSpecError,
    InfeasibleObservationError,
    InitialStateInBallError,
    InternalInvariantError,
    NonDiagnosableError,
    ResourceLimitError,
)
from approxdiag.finsys import FiniteSystem, observation_symbol
from approxdiag.fixtures import random_finite_system
from examples import D1_FAULTS, ND1_FAULTS, d1, nd1
from reference import (
    ContractReport,
    monte_carlo_contract,
    reference_belief_start,
    reference_belief_step,
    reference_brute_force_check,
    reference_check,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_d1_diagnosable_delta_one():
    v = check_diagnosability(d1(), FaultSpec.of(D1_FAULTS, 0))
    assert v.diagnosable and v.delta == 1


def test_nd1_not_diagnosable_with_witness():
    s = nd1()
    spec = FaultSpec.of(ND1_FAULTS, 1)
    v = check_diagnosability(s, spec)
    assert not v.diagnosable
    assert validate_witness(s, spec, v.witness)
    # The confusion is the eternal f/c echo after the initial fork.
    run_f, run_s = v.witness
    assert set(run_f[1:]) == {1} and set(run_s[1:]) == {2}


def test_nd1_diagnosable_once_ball_covers_both_branches():
    v = check_diagnosability(nd1(), FaultSpec.of(ND1_FAULTS, 5))
    assert v.diagnosable and v.delta == 1


def test_empty_fault_set_vacuous():
    v = check_diagnosability(d1(), FaultSpec.of([], 0))
    assert v.diagnosable and v.delta == 0
    vb = brute_force_check(d1(), FaultSpec.of([], 0), 5)
    assert vb.diagnosable and vb.delta == 0


def test_fault_meeting_initial_rejected():
    with pytest.raises(FaultSpecError):
        check_diagnosability(d1(), FaultSpec.of([0], 0))
    with pytest.raises(FaultSpecError):
        FaultSpec.of([99], 0).validate(d1())


def test_brute_force_fixtures():
    v = brute_force_check(d1(), FaultSpec.of(D1_FAULTS, 0), 6)
    assert v.diagnosable and v.delta == 1
    s = nd1()
    spec = FaultSpec.of(ND1_FAULTS, 1)
    v = brute_force_check(s, spec, 6)
    assert not v.diagnosable
    assert validate_witness(s, spec, v.witness)
    assert len(v.witness[0]) >= 4


def test_brute_force_vacuous_at_horizon_one():
    # Faults sit two steps deep: within one step nothing faulty is reachable.
    states = tuple((Fraction(i),) for i in range(3))
    outputs = tuple((Fraction(0),) for _ in range(3))
    succ = (((1,),), ((2,),), ((2,),))
    s = FiniteSystem(states, (0,), ("go",), succ, outputs, 1)
    v = brute_force_check(s, FaultSpec.of([2], 0), 1)
    assert v.diagnosable and v.delta == 1


def test_delay_counts_paths_through_an_earlier_entry():
    # Outputs A=0, B=1, C=2, D=3.  Phase A enters the region first at (3, 1)
    # and then at (4, 2), which moves on to (3, 1): the longest region path,
    # (4, 2) (3, 1) (5, 2), starts at the entry found second.
    outs = [0, 1, 2, 1, 2, 2, 3]
    succ = [(1, 3), (2, 4), (1,), (5,), (3,), (6,), (6,)]
    states = tuple((Fraction(i),) for i in range(len(outs)))
    outputs = tuple((Fraction(v),) for v in outs)
    s = FiniteSystem(states, (0,), ("u",), tuple((t,) for t in succ), outputs, 1)
    spec = FaultSpec.of([3, 4], 0)
    v = check_diagnosability(s, spec)
    assert v.diagnosable and v.delta == 3 and v.stats["region_states"] == 3
    assert v == reference_check(s, spec)
    assert brute_force_check(s, spec, 10).delta == v.delta


# Bounded-oracle witnesses of the first three non-diagnosable systems drawn
# from default_rng(7), at horizon 10, keyed by draw index.
PINNED_PUMP_WITNESSES = {
    0: ((0, 0, 5, 3, 5, 3, 5), (0, 1, 4, 3, 4, 3, 4)),
    5: ((0, 3, 3, 3, 3, 3, 3, 3, 1, 2, 1, 2, 1), (0, 3, 3, 3, 3, 3, 3, 3, 2, 0, 2, 0, 2)),
    12: ((0, 4, 3, 4, 3, 4), (0, 1, 0, 1, 0, 1)),
}


def test_brute_force_pump_witnesses_are_pinned():
    rng = np.random.default_rng(7)
    cases = [random_finite_system(rng) for _ in range(max(PINNED_PUMP_WITNESSES) + 1)]
    for index, witness in PINNED_PUMP_WITNESSES.items():
        s, spec = cases[index]
        v = brute_force_check(s, spec, 10)
        assert not v.diagnosable and v.witness == witness
        assert validate_witness(s, spec, v.witness)


def test_brute_force_resource_guard():
    with pytest.raises(ResourceLimitError):
        brute_force_check(d1(), FaultSpec.of(D1_FAULTS, 0), 100)
    with pytest.raises(ResourceLimitError):
        brute_force_check(d1(), FaultSpec.of(D1_FAULTS, 0), 0)


def test_checker_oracle_agreement_random():
    rng = np.random.default_rng(60)
    for _ in range(60):
        s, spec = random_finite_system(rng)
        vt = check_diagnosability(s, spec)
        vb = brute_force_check(s, spec, 10)
        assert vt.diagnosable == vb.diagnosable
        if vt.diagnosable:
            assert vt.delta == vb.delta
        else:
            assert validate_witness(s, spec, vt.witness)
            assert validate_witness(s, spec, vb.witness)



def _assert_same_oracle(s, spec, horizon):
    got = brute_force_check(s, spec, horizon)
    want = reference_brute_force_check(s, spec, horizon)
    assert got == want  # diagnosable, delta, witness and method
    return got


def _perfbench_fts_cases():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look themselves up there
    return module.fts_cases


@pytest.mark.parametrize("seed", [1, 2])
def test_brute_force_equals_reference_on_fts_cases(seed):
    # The benchmark's suite, through the model files' JSON form.
    cases = _perfbench_fts_cases()(seed)
    systems = [(FiniteSystem.from_json(c["model"]), FaultSpec.of(c["faults"], c["rho"])) for c in cases]
    verdicts = [_assert_same_oracle(s, spec, t) for t in (1, 2, 10, 14) for s, spec in systems]
    assert 0 < sum(v.diagnosable for v in verdicts) < len(verdicts)


def test_brute_force_equals_reference_on_acceptance_suite():
    rng = np.random.default_rng(SUITE_SEED)
    for _ in range(200):
        _assert_same_oracle(*random_finite_system(rng), 10)


@pytest.mark.parametrize(
    "name, faults",
    [("mixed_outputs", [1]), ("fts40_diag", range(30, 40)), ("fts40_nondiag", [2, 28])],
)
@pytest.mark.parametrize("horizon", [8, 11])
def test_brute_force_equals_reference_on_golden_models(name, faults, horizon):
    s = FiniteSystem.load(str(GOLDEN / f"{name}_model.json"))
    _assert_same_oracle(s, FaultSpec.of(faults, 0), horizon)


def _line_system(coords, outs, succ, initial=(0,)):
    states = tuple((Fraction(c),) for c in coords)
    outputs = tuple((Fraction(v),) for v in outs)
    return FiniteSystem(states, initial, ("u",), tuple((tuple(t),) for t in succ), outputs, 1)


def test_brute_force_drops_a_chain_whose_fault_side_dies_first():
    # One observable output.  Fault 1 (depth 1) moves to 2, whose only move
    # leaves the output for good, while 4 stays safe and enters fault 5 at
    # depth 2.  Chain 1's fault side empties at depth 3 with its safe side
    # {4} alive; the pump is chain 2's: 5 -> 5 against 4 -> 4.
    s = _line_system(
        [0, 10, 20, 30, 40, 50, 60], [0, 0, 0, 0, 0, 0, 1], [[1, 4], [2], [6], [3], [4, 5], [5], [6]]
    )
    spec = FaultSpec.of([1, 5], 0)
    v = _assert_same_oracle(s, spec, 6)
    assert v.witness == ((0, 4, 5, 5, 5), (0, 4, 4, 4, 4))
    assert validate_witness(s, spec, v.witness)


def test_brute_force_drops_a_chain_whose_safe_side_dies_first():
    # Fault 1 loops on itself; the safe run 0 -> 2 -> 3 steps into the ball
    # (3 sits within rho = 1 of the fault), so chain 1 loses its safe side
    # while its fault side {1} still loops.  The chain created at depth 1
    # must not be tested at depth 1, where its sides are still identities.
    s = _line_system([0, 10, 20, 11], [0, 0, 0, 0], [[1, 2], [1], [3], [3]])
    spec = FaultSpec.of([1], 1)
    v = _assert_same_oracle(s, spec, 6)
    assert v.diagnosable and v.delta == 1


@pytest.mark.parametrize("bad", [1.5, True, "1"])
def test_fault_spec_refuses_non_integer_indices(bad):
    with pytest.raises(FaultSpecError, match="fault index must be an integer"):
        FaultSpec.of([bad], 0)


def test_fault_spec_takes_numpy_integers():
    # random_finite_system draws its faults as a numpy array.
    faults = FaultSpec.of(np.array([2, 1]), 0).faults
    assert faults == {1, 2} and all(type(i) is int for i in faults)


@pytest.mark.parametrize("horizon", [2.5, True])
def test_brute_force_refuses_non_integer_horizon(horizon):
    with pytest.raises(DomainError, match="horizon must be an integer"):
        brute_force_check(d1(), FaultSpec.of(D1_FAULTS, 0), horizon)


BAD_VERDICTS = [(True, None, None), (True, 1, ((0,), (0,))), (False, None, None), (False, 1, ((0,), (0,)))]


@pytest.mark.parametrize("diagnosable, delta, witness", BAD_VERDICTS)
def test_verdict_needs_a_delay_or_a_witness(diagnosable, delta, witness):
    with pytest.raises(InternalInvariantError):
        Verdict(diagnosable, delta, witness)


def test_verdict_invariant_survives_optimized_mode():
    # The check is not an assert: python -O keeps it.
    script = (
        "from approxdiag.diagnosis import Verdict\n"
        "from approxdiag.errors import InternalInvariantError\n"
        f"for case in {BAD_VERDICTS!r}:\n"
        "    try:\n"
        "        print(Verdict(*case))\n"
        "    except InternalInvariantError:\n"
        "        print('InternalInvariantError')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert run.stdout.split() == ["InternalInvariantError"] * len(BAD_VERDICTS), run.stderr


def test_test_only_helpers_left_the_package():
    # The contract and the output trace live in tests/reference.py.
    import approxdiag

    for name in ("monte_carlo_contract", "ContractReport", "quantized_output_trace"):
        assert not hasattr(approxdiag, name), name
    assert not hasattr(diagnosis, "ContractReport") and not hasattr(FiniteSystem, "deterministic")


def test_pump_without_runs_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(diagnosis, "_find_run", lambda *args, **kwargs: None)
    with pytest.raises(InternalInvariantError):
        brute_force_check(nd1(), FaultSpec.of(ND1_FAULTS, 1), 6)

def test_monotone_in_rho():
    # Not diagnosable for a large ball stays not diagnosable for smaller.
    rng = np.random.default_rng(61)
    checked = 0
    for _ in range(120):
        s, spec = random_finite_system(rng)
        big = FaultSpec(spec.faults, Fraction(1))
        if not check_diagnosability(s, big).diagnosable:
            small = FaultSpec(spec.faults, Fraction(0))
            assert not check_diagnosability(s, small).diagnosable
            checked += 1
    assert checked > 5


def test_diagnoser_d1_fault_branch():
    s = d1()
    diag = synthesize_diagnoser(s, FaultSpec.of(D1_FAULTS, 0))
    assert diag.delta == 1
    belief, decision = diag.start((Fraction(0),))
    assert decision == 0  # initial decision is always 0
    belief, decision = diag.step(belief, (Fraction(2),))
    assert decision == 1
    assert frozenset(belief) == frozenset({(1, True)})


def test_diagnoser_d1_clean_branch_stays_silent():
    s = d1()
    diag = synthesize_diagnoser(s, FaultSpec.of(D1_FAULTS, 0))
    belief, decision = diag.start((Fraction(0),))
    for _ in range(10):
        belief, decision = diag.step(belief, (Fraction(4),))
        assert decision == 0


def test_diagnoser_keeps_all_matching_successors():
    # Two successors share the observed output: the belief keeps both.
    states = tuple((Fraction(v),) for v in (0, 5, 6, 20))
    outputs = ((Fraction(0),), (Fraction(1),), (Fraction(1),), (Fraction(2),))
    succ = (((1, 2),), ((3,),), ((2,),), ((3,),))
    s = FiniteSystem(states, (0,), ("go",), succ, outputs, 1)
    diag = synthesize_diagnoser(s, FaultSpec.of([3], 0))
    belief, _ = diag.start((Fraction(0),))
    belief, decision = diag.step(belief, (Fraction(1),))
    assert {i for i, _ in belief} == {1, 2}  # no pruning: both consistent
    assert decision == 0


def test_diagnoser_infeasible_observation():
    s = d1()
    diag = synthesize_diagnoser(s, FaultSpec.of(D1_FAULTS, 0))
    with pytest.raises(InfeasibleObservationError):
        diag.start((Fraction(7),))
    belief, _ = diag.start((Fraction(0),))
    with pytest.raises(InfeasibleObservationError):
        diag.step(belief, (Fraction(0),))


@pytest.mark.parametrize(
    "values, shown", [([7], "(Fraction(7, 1),)"), (["1/2"], "(Fraction(1, 2),)"), (["14/2"], "(Fraction(7, 1),)")]
)
def test_infeasible_observation_prints_its_value_as_fractions(values, shown):
    # observation_symbol holds 7 as an int; the message still reads Fraction(7, 1).
    s = d1()
    diag = synthesize_diagnoser(s, FaultSpec.of(D1_FAULTS, 0))
    y = observation_symbol(s, values)
    with pytest.raises(InfeasibleObservationError) as exc:
        diag.start(y)
    assert str(exc.value) == f"no initial state produces output {shown}"
    belief, _ = diag.start(observation_symbol(s, [0]))
    with pytest.raises(InfeasibleObservationError) as exc:
        diag.step(belief, y)
    assert str(exc.value) == f"no consistent run produces output {shown}"


def test_synthesis_refuses_non_diagnosable():
    with pytest.raises(NonDiagnosableError):
        synthesize_diagnoser(nd1(), FaultSpec.of(ND1_FAULTS, 1))


def test_synthesis_refuses_initial_in_ball():
    s = d1()  # initial embedding 0 at distance 2 from the fault embedding
    with pytest.raises(InitialStateInBallError):
        synthesize_diagnoser(s, FaultSpec.of(D1_FAULTS, 2))


def test_monte_carlo_contract_on_d1():
    s = d1()
    spec = FaultSpec.of(D1_FAULTS, 0)
    diag = synthesize_diagnoser(s, spec)
    rep = monte_carlo_contract(s, spec, diag, n_runs=300, seed=7)
    assert rep.passed
    assert rep.checked_alarm > 0 and rep.checked_window > 0


@pytest.mark.xfail(
    strict=True,
    reason="known gap: the belief diagnoser's window guarantee can fail when "
    "every ball-avoiding consistent run dies at the alarm instant while the "
    "surviving runs' ball visits are older than the certified delay; the "
    "diagnosability verdict itself is unaffected",
)
def test_window_clause_on_dying_chain_corner():
    states = tuple((Fraction(v),) for v in (0, 10, 11, 50, 70, 90))
    outputs = tuple((Fraction(0),) for _ in range(6))
    succ = (
        ((1, 2, 4),),  # start forks to fault, ball, clean chain
        ((),),  # fault dies immediately
        ((3,),),  # ball state feeds the eternal loop
        ((3,),),
        ((5,),),  # clean chain survives two steps
        ((),),
    )
    s = FiniteSystem(states, (0,), ("go",), succ, outputs, 1)
    spec = FaultSpec.of([1], 1)  # ball = {fault, its neighbor at 11}
    diag = synthesize_diagnoser(s, spec)
    rep = monte_carlo_contract(s, spec, diag, n_runs=300, seed=3)
    assert rep.violations_window == 0


SUITE_SEED = 20260810


@pytest.fixture(scope="module")
def contract_suite():
    """The first systems of the criterion-6 suite (same seed)."""
    rng = np.random.default_rng(SUITE_SEED)
    return [random_finite_system(rng) for _ in range(18)]


@pytest.mark.parametrize(
    "idx, counts",
    [(9, (0, 884, 0, 0)), (11, (999, 1000, 0, 0)), (14, (930, 1000, 0, 0)), (17, (512, 1000, 0, 0))],
)
def test_monte_carlo_contract_reports_are_pinned(contract_suite, idx, counts):
    # Runs are sampled from the sorted successor rows, so the rng stream,
    # and with it each report, is fixed by the seed.
    system, spec = contract_suite[idx]
    diag = synthesize_diagnoser(system, spec)
    rep = monte_carlo_contract(system, spec, diag, n_runs=1000, seed=idx)
    assert rep == ContractReport(1000, *counts)


def test_diagnoser_interns_each_observation_once(contract_suite, monkeypatch):
    system, spec = contract_suite[17]
    diag = synthesize_diagnoser(system, spec)
    rng = np.random.default_rng(5)
    run = [system.initial[0]]
    for _ in range(40):
        succs = sorted({j for targets in system.succ[run[-1]] for j in targets})
        run.append(succs[int(rng.integers(0, len(succs)))])
    # Fresh Fraction objects, as an observation boundary would produce.
    stream = [tuple(Fraction(v.numerator, v.denominator) for v in system.outputs[i]) for i in run]
    calls = []
    real_eq = Fraction.__eq__

    def counting_eq(a, b):
        calls.append(1)
        return real_eq(a, b)

    monkeypatch.setattr(Fraction, "__eq__", counting_eq)
    belief, _ = diag.start(stream[0])
    sizes = [len(belief)]
    for y in stream[1:]:
        belief, _ = diag.step(belief, y)
        sizes.append(len(belief))
    monkeypatch.undo()
    assert max(sizes) > 1  # several consistent states per observation
    assert len(calls) <= system.p * len(stream)  # one value lookup each


def _belief_cases():
    """d1, nd1 at two radii, the criterion-6 suite and two seeded suites."""
    yield d1(), FaultSpec.of(D1_FAULTS, 0)
    yield nd1(), FaultSpec.of(ND1_FAULTS, 1)
    yield nd1(), FaultSpec.of(ND1_FAULTS, 5)  # the ball holds the initial state
    for seed, count in ((SUITE_SEED, 200), (1, 100), (7, 100)):
        rng = np.random.default_rng(seed)
        yield from (random_finite_system(rng) for _ in range(count))


def test_diagnoser_equals_reference_belief_automaton():
    # Streams draw each observation from the system's output values and,
    # rarely, a value no state produces, so they cover feasible stretches,
    # dead ends and unknown outputs.
    rng = np.random.default_rng(11)
    steps = infeasible = 0
    for system, spec in _belief_cases():
        # Stepping needs no certified delay, so nd1 gets a diagnoser too.
        diag = Diagnoser(system, spec, system.ball_states(spec.faults, spec.rho), 1)
        values = list(system.class_of) + [(Fraction(99),) * system.p]
        weights = np.array([1.0] * (len(values) - 1) + [0.1])
        for _ in range(6):
            stream = [values[i] for i in rng.choice(len(values), size=16, p=weights / weights.sum())]
            belief = ref = None
            for y in stream:
                try:
                    ref, ref_decision = (
                        reference_belief_start(diag, y)
                        if ref is None
                        else reference_belief_step(diag, ref, y)
                    )
                except InfeasibleObservationError as exc:
                    with pytest.raises(InfeasibleObservationError) as got:
                        diag.start(y) if belief is None else diag.step(belief, y)
                    assert str(got.value) == str(exc)
                    infeasible += 1
                    break
                belief, decision = diag.start(y) if belief is None else diag.step(belief, y)
                assert frozenset(belief) == ref and len(belief) == len(ref)
                assert decision == ref_decision
                steps += 1
    assert steps > 5000 and infeasible > 500
