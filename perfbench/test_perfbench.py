"""The benchmark's own tests: seeded inputs, the known-answer gate, the
count checks and span arithmetic.  Run with `python3 -m pytest perfbench`."""

import json
from pathlib import Path

import pytest

import approxdiag as ad
import hostspeed
import run
import workloads
from approxdiag import diagnosis, finsys
from spans import COUNT, PARENT, SpanSummary, Tracer, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# -- seeded inputs ------------------------------------------------------------------


def test_fts_cases_repeat_for_a_seed_and_differ_across_seeds():
    a = workloads.fts_cases(11, systems=40)
    b = workloads.fts_cases(11, systems=40)
    c = workloads.fts_cases(12, systems=40)
    assert json.dumps(a) == json.dumps(b)
    assert json.dumps(a) != json.dumps(c)


def test_fts_streams_are_runs_of_their_system():
    for case in workloads.fts_cases(3, systems=30):
        system = ad.FiniteSystem.from_json(case["model"])
        for stream in case["streams"]:
            assert len(stream["outputs"]) == workloads.FTS_STREAM_LEN
            symbols = [ad.observation_symbol(system, v) for v in stream["outputs"]]
            assert all(sym in set(system.outputs) for sym in symbols)


def test_seed_reaches_falsify_only_as_an_argument():
    argv = workloads.WORKLOADS["e1-falsify"].inputs(7)
    assert argv[argv.index("--seed") + 1] == "7"
    refute = workloads.WORKLOADS["e1-refute"]
    assert refute.inputs(1) == refute.inputs(2)


# -- known-answer gate ---------------------------------------------------------------


def _refute_report(**overrides):
    verdict = {
        "direction": "NOT_DIAGNOSABLE_FOR_RHO",
        "fault_states": 21,
        "dropped_fault_points": 0,
        "k": 23,
        "finite_verdict": {"diagnosable": False, "phase_a_pairs": 42876, "region_states": 2541},
    }
    verdict.update(overrides)
    return verdict


def test_gate_accepts_the_known_refute_answer():
    assert workloads.WORKLOADS["e1-refute"].gate(0, _refute_report()) == []


@pytest.mark.parametrize(
    "verdict",
    [
        _refute_report(direction="INCONCLUSIVE"),
        _refute_report(fault_states=20),
        _refute_report(finite_verdict={"diagnosable": False, "phase_a_pairs": 42875, "region_states": 2541}),
        _refute_report(finite_verdict={"diagnosable": True, "phase_a_pairs": 42876, "region_states": 2541}),
        {},
    ],
)
def test_gate_rejects_a_wrong_refute_verdict(verdict):
    assert workloads.WORKLOADS["e1-refute"].gate(0, verdict)


def test_gate_rejects_a_wrong_prove_bound_and_a_found_counterexample():
    prove = workloads.WORKLOADS["e1-prove"]
    good = {
        "direction": "DIAGNOSABLE_FOR_RHO_ABOVE",
        "rho_bound": 1.6,
        "fault_states": 98,
        "dropped_fault_points": 322,
        "k": 20,
        "finite_verdict": {"delta": 1, "phase_a_pairs": 14623, "region_states": 0},
    }
    assert prove.gate(0, good) == []
    assert prove.gate(0, dict(good, rho_bound=1.7))
    assert prove.gate(2, good)
    assert workloads.WORKLOADS["e1-falsify"].gate(0, {"found": True})


def test_gate_rejects_a_checker_oracle_disagreement():
    yes1 = diagnosis.Verdict(True, delta=1)
    yes2 = diagnosis.Verdict(True, delta=2)
    no = diagnosis.Verdict(False, witness=((0, 1), (0, 2)))
    assert workloads._agree(yes1, diagnosis.Verdict(True, delta=1))
    assert not workloads._agree(yes1, yes2)
    assert not workloads._agree(yes1, no)


def test_alarm_clause_check():
    # Fault entered at t=2, delay 2: the alarm is due by t=4.
    assert not workloads.alarm_violation([0, 0, 0, 0, 1, 1], 2, 2)
    assert workloads.alarm_violation([0, 0, 0, 0, 0, 1], 2, 2)
    assert not workloads.alarm_violation([0, 0, 0, 0], 2, 2)  # stream ends early
    assert not workloads.alarm_violation([0, 0, 0], None, 1)  # no fault


def test_fts_pass_is_correct_and_counts_repeat():
    fts = workloads.WORKLOADS["fts-suite"]
    cases = workloads.fts_cases(5, systems=60)
    first, second = fts.run(cases), fts.run(cases)
    assert first.failures == [] and first.counts == second.counts
    assert first.counts["oracle_agree"] == 60
    assert first.attempted == 60 + first.counts["streams"]


# -- count checks --------------------------------------------------------------------


def test_count_check_flags_any_mismatch():
    check = run.CountCheck()
    check.add("a", {"states": 3, "pairs": 10})
    check.add("b", {"states": 3, "pairs": 10})
    assert check.failures == []
    check.add("c", {"states": 3, "pairs": 11})
    assert len(check.failures) == 1 and "pairs" in check.failures[0]


def test_cross_check_compares_report_and_span_counts():
    spans = {"fault_states": 21, "dropped_fault_points": 0, "check_calls": 1,
             "check_phase_a_pairs": 42876, "check_region_states": 2541}
    report = {"fault_states": 21, "dropped_fault_points": 0, "phase_a_pairs": 42876, "region_states": 2541}
    assert run.cross_check(report, spans) == []
    assert run.cross_check(dict(report, phase_a_pairs=1), spans)
    # With several checks per pass the pair sums are not comparable.
    assert run.cross_check(dict(report, phase_a_pairs=1), dict(spans, check_calls=2)) == []


# -- span arithmetic ------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 5.0, 9.0, 0, None],
        ["b1", 6.0, 7.0, 2, None],
        ["b2", 6.5, 8.0, 2, None],  # overlaps b1: the union counts once
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])
    s = SpanSummary(spans)
    assert s.wall("b1", parent="b") == 1.0 and s.wall("b1", parent="root") == 0.0
    assert sum(self_times(spans)) == pytest.approx(10.0 + 0.5)  # b2's overlap with b1


def test_tracer_nests_spans_and_restores_the_program():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    original_check = diagnosis.check_diagnosability
    original_ball = finsys.FiniteSystem.__dict__["ball_states"]
    original_load = finsys.FiniteSystem.__dict__["from_json"]
    system = ad.FiniteSystem.from_json(ad.fixtures.d1_doc())
    spec = ad.FaultSpec.of({1}, 0)
    with tracer.installed():
        assert ad.check_diagnosability is not original_check
        with tracer.span("root"):
            ad.FiniteSystem.from_json(ad.fixtures.d1_doc())
            verdict = ad.check_diagnosability(system, spec)
    assert verdict.diagnosable
    names = [s[0] for s in tracer.spans]
    assert names == ["root", "finsys.from_json", "diagnosis.check_diagnosability", "finsys.ball_states"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 0, 2]
    assert tracer.spans[3][COUNT] == 1  # the ball around state 1 at radius 0
    assert ad.check_diagnosability is original_check
    assert diagnosis.check_diagnosability is original_check
    assert finsys.FiniteSystem.__dict__["ball_states"] is original_ball
    assert finsys.FiniteSystem.__dict__["from_json"] is original_load


# -- host-speed correction ------------------------------------------------------------


def test_correction_removes_kernel_time_and_divides_by_slowness():
    reading = hostspeed.Reading()
    for samples, nominal in zip(reading.samples, hostspeed.NOMINAL):
        samples += [nominal, 2 * nominal, 3 * nominal]  # medians: 2x nominal
    reading.inside_seconds = 0.5
    assert reading.slowness() == pytest.approx(2.0)
    assert reading.corrected(4.5) == pytest.approx(2.0)


def test_sampling_fills_a_reading_and_restores_the_alarm_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe().sampling(0.005) as reading:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = sum(len(s) for s in reading.samples) - 2 * hostspeed.BRACKET * len(hostspeed.NOMINAL)
    assert inside >= 5 and 0 < reading.inside_seconds < 0.1
    assert reading.slowness() > 0


# -- benchmark definition ---------------------------------------------------------------


def test_benchmark_json_names_match_the_reported_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    summary = SpanSummary([["cli.main", 0.0, 1.0, -1, None]])
    fake = workloads.Pass(1.0, 1, [], {"belief_total": 0}, 1, 1.0)
    layer = set(run.layer_metrics(summary, fake)) | {"trace_overhead_pct"}
    assert layer == {m["name"] for m in BENCHMARK["per_layer"]}
    e2e = set(run.end_to_end([fake], [0.1]))
    assert e2e == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])
