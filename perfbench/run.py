#!/usr/bin/env python3
"""Verdict benchmark for approxdiag.

One workload per process, single-threaded, from the repository root:

    python3 perfbench/run.py --workload e1-refute --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run first times set-up (fresh interpreters importing approxdiag and
parsing the workload's configuration), then repeats verdict passes for
`--seconds` seconds and reports medians of times corrected for the host's
speed (hostspeed.py).  Every pass is checked against
the workload's known answer, and every count it yields must repeat exactly.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced passes: the traced ones record spans around calls into
approxdiag's public functions and give the per-layer metrics; the untraced
ones give `trace_overhead_pct` and the counts the traced ones must match.

Human-readable lines (environment stamp, one line per metric with its unit
and sample count) come first; the last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  Exit code 0
means a correct run, 1 a failed gate or count check, 2 a missing program.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("e1-refute", "e1-prove", "e1-falsify", "fts-suite")

MIN_PASSES = 3  # untraced passes per run, whatever --seconds says
MIN_TRACED_ROUNDS = 2  # (untraced, traced) rounds per traced run
SETUP_REPEATS = 9  # timed fresh interpreters, after one untimed warm-up


# -- environment stamp (read from this process and /proc only) ------------------


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def _git_revision():
    """Revision from .git files when the checkout has them, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment_stamp() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": _git_revision(),
        "loadavg_start": _loadavg(),
    }


# -- measurement -------------------------------------------------------------------


def measure_setup(workload, inputs) -> list[float]:
    """Seconds for fresh interpreters to import approxdiag and parse the
    workload's configuration; the first, untimed, warms bytecode caches."""
    from workloads import setup_child_code

    code = setup_child_code(workload)
    text = workload.setup_text(inputs)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    samples = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=text,
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=120,
            check=True,
        )
        if i:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


class CountCheck:
    """Every count must equal the first value seen under its name."""

    def __init__(self):
        self.first: dict = {}
        self.failures: list[str] = []

    def add(self, where: str, counts: dict):
        for key, value in counts.items():
            ref = self.first.setdefault(key, value)
            if value != ref:
                self.failures.append(f"count {key} differs ({where}): {value} vs {ref}")


def _done(started: float, seconds: float, passes: int, minimum: int, last: float) -> bool:
    """Stop once the minimum is met and another pass would overrun."""
    elapsed = time.perf_counter() - started
    return passes >= minimum and elapsed + last > seconds


def corrected_pass(workload, inputs, probe, tracer=None):
    """A pass whose times are corrected for the host's speed (hostspeed.py),
    and its wall seconds."""
    gc.collect()  # every pass starts from a collected heap
    with probe.sampling() as reading:
        p = workload.run(inputs, tracer)
    scale = reading.corrected(p.seconds) / p.seconds
    return replace(p, seconds=p.seconds * scale, work_seconds=p.work_seconds * scale), p.seconds


def untraced_run(workload, inputs, seconds):
    from hostspeed import Probe

    probe = Probe()
    passes, walls, counts = [], [], CountCheck()
    started = time.perf_counter()
    while True:
        p, wall = corrected_pass(workload, inputs, probe)
        counts.add(f"pass {len(passes)}", p.counts)
        passes.append(p)
        walls.append(wall)
        if _done(started, seconds, len(passes), MIN_PASSES, wall):
            return passes, walls, counts


def traced_run(workload, inputs, seconds):
    from hostspeed import Probe
    from spans import SpanSummary, Tracer

    probe = Probe()
    plain, traced, summaries = [], [], []
    counts, span_counts = CountCheck(), CountCheck()
    started = time.perf_counter()
    rounds = 0
    while True:
        order = (False, True) if rounds % 2 == 0 else (True, False)
        round_wall = 0.0
        for use_trace in order:
            if use_trace:
                tracer = Tracer()
                with tracer.installed():
                    p, wall = corrected_pass(workload, inputs, probe, tracer)
                summary = SpanSummary(tracer.spans)
                span_counts.add(f"traced round {rounds}", layer_counts(summary))
                summaries.append(summary)
                traced.append(p)
            else:
                p, wall = corrected_pass(workload, inputs, probe)
                plain.append(p)
            round_wall += wall
            counts.add(f"{'traced' if use_trace else 'untraced'} round {rounds}", p.counts)
        rounds += 1
        if _done(started, seconds, rounds, MIN_TRACED_ROUNDS, round_wall):
            break
    counts.failures += cross_check(counts.first, span_counts.first) + span_counts.failures
    counts.failures += [
        f"count {key}: expected {want}, got {span_counts.first.get(key)}"
        for key, want in workload.pinned_layer_counts.items()
        if span_counts.first.get(key) != want
    ]
    return plain, traced, summaries, counts


# -- metrics -----------------------------------------------------------------------


def layer_counts(s) -> dict:
    """Counts taken at span boundaries; names shared with a pass's own
    counts are cross-checked against them."""
    return {
        "lattice_points": s.count("lattice.lattice_image") + s.count("lattice.lattice_points_in"),
        "states": s.count("abstraction.build_abstraction", "states"),
        "inputs": s.count("abstraction.build_abstraction", "inputs"),
        "transitions": s.count("abstraction.build_abstraction", "transitions"),
        "dilated_points": s.count("bridge.fault_lattice_dilated"),
        "eroded_points": s.count("bridge.fault_lattice_eroded"),
        "fault_states": s.count("bridge.conclude", "fault_states"),
        "dropped_fault_points": s.count("bridge.conclude", "dropped_fault_points"),
        "ball_states": s.count("finsys.ball_states"),
        "check_phase_a_pairs": s.count("diagnosis.check_diagnosability", "phase_a_pairs"),
        "check_region_states": s.count("diagnosis.check_diagnosability", "region_states"),
        "check_calls": s.calls("diagnosis.check_diagnosability"),
        "monitor_calls": s.calls("diagnosis.Diagnoser.start") + s.calls("diagnosis.Diagnoser.step"),
    }


def cross_check(report: dict, spans: dict) -> list[str]:
    """Counts seen both in the program's report and at a span boundary
    must agree (pair counts only when a single check ran)."""
    shared = [("fault_states", "fault_states"), ("dropped_fault_points", "dropped_fault_points")]
    if spans["check_calls"] == 1:
        shared += [("phase_a_pairs", "check_phase_a_pairs"), ("region_states", "check_region_states")]
    return [
        f"count {r}: report {report[r]} vs span {spans[k]}"
        for r, k in shared
        if r in report and report[r] != spans[k]
    ]


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(s, p) -> dict:
    """Per-layer metrics of one traced pass: (value, unit) by name."""
    c = layer_counts(s)
    ms = 1000.0
    build_s = s.wall("abstraction.build_abstraction")
    check_self = s.self_time("diagnosis.check_diagnosability")
    monitor_s = s.wall("diagnosis.Diagnoser.start") + s.wall("diagnosis.Diagnoser.step")
    root = "cli.main" if s.calls("cli.main") else "suite"
    pc = p.counts
    observations = pc.get("observations", 0)
    return {
        "system.parse_ms": (s.wall("system.parse_system") * ms, "ms"),
        "finsys.load_ms": (s.wall("finsys.from_json") * ms, "ms"),
        "lattice.enum_ms": (
            (s.wall("lattice.lattice_image") + s.wall("lattice.lattice_points_in")) * ms,
            "ms",
        ),
        "lattice.enum_points": (c["lattice_points"], "count"),
        "abstraction.build_ms": (build_s * ms, "ms"),
        "abstraction.states": (c["states"], "count"),
        "abstraction.inputs": (c["inputs"], "count"),
        "abstraction.transitions": (c["transitions"], "count"),
        "abstraction.transitions_per_s": (_rate(c["transitions"], build_s), "1/s"),
        "bridge.fault_sets_ms": (
            (
                s.wall("bridge.fault_lattice_dilated")
                + s.wall("bridge.fault_lattice_eroded")
                + s.wall("lattice.lattice_points_in", parent="bridge.conclude")
            )
            * ms,
            "ms",
        ),
        "bridge.dilated_points": (c["dilated_points"], "count"),
        "bridge.eroded_points": (c["eroded_points"], "count"),
        "bridge.fault_states": (c["fault_states"], "count"),
        "bridge.dropped_fault_points": (c["dropped_fault_points"], "count"),
        "bridge.conclude_ms": (s.self_time("bridge.conclude") * ms, "ms"),
        "finsys.ball_ms": (s.wall("finsys.ball_states") * ms, "ms"),
        "finsys.ball_states": (c["ball_states"], "count"),
        "diagnosis.check_ms": (s.wall("diagnosis.check_diagnosability") * ms, "ms"),
        "diagnosis.check_self_ms": (check_self * ms, "ms"),
        "diagnosis.phase_a_pairs": (c["check_phase_a_pairs"], "count"),
        "diagnosis.region_states": (c["check_region_states"], "count"),
        "diagnosis.pairs_per_s": (
            _rate(c["check_phase_a_pairs"] + c["check_region_states"], check_self),
            "1/s",
        ),
        "diagnosis.delta": (pc.get("delta", 0), "count"),
        "diagnosis.witness_len": (pc.get("witness_len", 0), "count"),
        "diagnosis.oracle_ms": (s.wall("diagnosis.brute_force_check") * ms, "ms"),
        "diagnosis.oracle_agree": (pc.get("oracle_agree", 0), "count"),
        "diagnosis.synth_ms": (s.wall("diagnosis.synthesize_diagnoser") * ms, "ms"),
        "diagnosis.synth_refusals": (pc.get("synth_refusals", 0), "count"),
        "diagnosis.monitor_step_us": (
            monitor_s / c["monitor_calls"] * 1e6 if c["monitor_calls"] else 0.0,
            "us",
        ),
        "diagnosis.belief_mean": (
            pc["belief_total"] / observations if observations else 0.0,
            "states",
        ),
        "bridge.falsify_ms": (s.wall("bridge.falsify_plant") * ms, "ms"),
        "bridge.falsify_trials": (pc.get("trials", 0), "count"),
        "system.step_calls_computed": (pc.get("step_calls_computed", 0), "count"),
        "cli.other_ms": (s.self_time(root) * ms, "ms"),
    }


def _median_metrics(per_pass: list[dict]) -> dict:
    out = {}
    for name, (first, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        value = first if all(v == first for v in values) else statistics.median(values)
        out[name] = (value, unit, len(per_pass))
    return out


def end_to_end(passes, setup) -> dict:
    return {
        "verdict_s": (statistics.median(p.seconds for p in passes), "s", len(passes)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "throughput_per_s": (
            statistics.median(_rate(p.work, p.work_seconds) for p in passes),
            "1/s",
            len(passes),
        ),
    }


def workload_why(name: str) -> str:
    """The workload's reason and the layers it loads or bypasses, as
    recorded in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in doc["workloads"] if w["name"] == name)


# -- entry points ------------------------------------------------------------------


def run_workload(args) -> int:
    if not (SRC / "approxdiag" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: approxdiag sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = environment_stamp()
    inputs = workload.inputs(args.seed)

    if args.trace:
        plain, traced, summaries, counts = traced_run(workload, inputs, args.seconds)
        passes = plain + traced
        per_pass = [layer_metrics(s, p) for s, p in zip(summaries, traced)]
        metrics = _median_metrics(per_pass)
        t_plain = statistics.median(p.seconds for p in plain)
        t_traced = statistics.median(p.seconds for p in traced)
        metrics["trace_overhead_pct"] = ((t_traced / t_plain - 1.0) * 100.0, "%", len(traced))
    else:
        setup = measure_setup(workload, inputs)
        passes, walls, counts = untraced_run(workload, inputs, args.seconds)
        metrics = end_to_end(passes, setup)

    failures = [f for p in passes for f in p.failures]
    failures += workload.final_check(passes[0])
    attempted = sum(p.attempted for p in passes)
    failed = min(len(failures), attempted)
    env["loadavg_end"] = _loadavg()

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"  why: {workload_why(workload.name)}")
    print("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        print("pass_wall_seconds " + " ".join(f"{w:.4f}" for w in walls))
    print("pass_seconds " + " ".join(f"{p.seconds:.4f}" for p in passes))
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    print(f"metric ops_failed_share = {failed / attempted:.6g} share (n={attempted})")
    for f in (failures + counts.failures)[:20]:
        print(f"FAIL {f}")
    correct = not failures and not counts.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = out.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if out.returncode:
                status = out.returncode
                print(out.stderr, file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Single-threaded numpy in this process and the ones it starts: with a
    # second BLAS thread, set-up time depends on whether the other core is idle.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
