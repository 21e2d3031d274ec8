"""The benchmark's workloads: inputs from a seed, one verdict pass, and the
known-answer gate.

Three workloads drive the `approxdiag check` / `falsify` subcommands on
`configs/e1.json` in-process (through `approxdiag.cli.main`, stdout
captured), so a pass is the same path a user's command takes, from
argument parsing to the printed JSON report.  The fourth, `fts-suite`,
feeds seeded tiny finite systems and output streams to the library: the
seed stays in the benchmark, the program only sees the generated data.

Every pass returns the counts it can observe without tracing (verdict
stats, fault-set sizes, oracle agreement, belief sizes).  They must repeat
exactly from pass to pass and between traced and untraced passes.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import approxdiag as ad
from approxdiag import bridge, cli, diagnosis
from approxdiag.errors import InitialStateInBallError
from approxdiag.fixtures import random_finite_system
from approxdiag.rational import to_rational

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# fts-suite sizing: about one second per pass on a 2-core x86 VM, so a
# run yields a dozen or more passes to take the median of.
FTS_SYSTEMS = 2000
FTS_STREAMS = 2
FTS_STREAM_LEN = 20
ORACLE_HORIZON = 10


@dataclass
class Pass:
    """Outcome of one verdict pass."""

    seconds: float
    attempted: int
    failures: list[str]  # one entry per failed verdict
    counts: dict  # observed without tracing; must repeat exactly
    work: float  # throughput numerator (pairs, trials or observations)
    work_seconds: float  # throughput denominator
    detail: dict = field(default_factory=dict)  # gate inputs (the report)


def _root_span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


# -- e1 workloads through the CLI ---------------------------------------------


@dataclass(frozen=True)
class CliWorkload:
    """One `approxdiag check`/`falsify` command on e1, run in-process."""

    name: str
    command: str  # "check" or "falsify"
    faults: str
    flags: dict
    expected: dict  # known answer, compared against the report's verdict
    pinned_layer_counts: dict = field(default_factory=dict)  # checked on traced runs

    config = CONFIGS / "e1.json"
    setup_parse = "approxdiag.parse_system(text)"

    def inputs(self, seed: int) -> list[str]:
        argv = [self.command, str(self.config), "--faults", str(CONFIGS / self.faults)]
        for key, value in self.flags.items():
            argv += [f"--{key}", str(value)]
        if self.command == "falsify":
            argv += ["--seed", str(seed)]
        return argv + ["--json"]

    def setup_text(self, inputs) -> str:
        return self.config.read_text()

    def run(self, argv, tracer=None) -> Pass:
        buf = io.StringIO()
        failures = []
        t0 = time.perf_counter()
        with _root_span(tracer, "cli.main"), redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an uncaught error is a failed verdict
                code = None
                failures.append(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        try:
            doc = json.loads(buf.getvalue())
        except json.JSONDecodeError:
            doc = {}
            failures.append(f"exit {code}, no JSON report")
        verdict = doc.get("verdict", {})
        failures += self.gate(code, verdict)
        failures = ["; ".join(failures)] if failures else []  # one failed verdict
        counts = self.counts(verdict)
        if self.command == "falsify":
            work = self.flags["trials"]
        else:
            work = counts["phase_a_pairs"] + counts["region_states"]
        return Pass(seconds, 1, failures, counts, work, seconds, {"verdict": verdict})

    def counts(self, verdict: dict) -> dict:
        if self.command == "falsify":
            trials, horizon = self.flags["trials"], self.flags["horizon"]
            return {
                "found": int(bool(verdict.get("found"))),
                "trials": trials,
                "step_calls_computed": 2 * trials * horizon,
            }
        fin = verdict.get("finite_verdict", {})
        witness = fin.get("witness")
        return {
            "fault_states": verdict.get("fault_states", -1),
            "dropped_fault_points": verdict.get("dropped_fault_points", -1),
            "k": verdict.get("k", -1),
            "phase_a_pairs": fin.get("phase_a_pairs", -1),
            "region_states": fin.get("region_states", -1),
            "delta": fin.get("delta", 0),
            "witness_len": len(witness[0]) if witness else 0,
        }

    def gate(self, code: int, verdict: dict) -> list[str]:
        """Compare a report's verdict with the known answer."""
        failures = []
        if code != 0:
            failures.append(f"exit code {code}")
        fin = verdict.get("finite_verdict", {})
        for key, want in self.expected.items():
            got = verdict.get(key, fin.get(key))
            if got != want:
                failures.append(f"{key}: expected {want!r}, got {got!r}")
        return failures

    def final_check(self, first: Pass) -> list[str]:
        """Checks too costly for every pass, made once on the first report.

        Refute: the witness must be a valid non-diagnosability witness of the
        freshly built model for the eroded fault set at the reported k.
        """
        if self.command != "check" or self.flags["mode"] != "refute":
            return []
        verdict = first.detail["verdict"]
        witness = verdict.get("finite_verdict", {}).get("witness")
        if not witness:
            return ["refute report carries no witness"]
        return self.witness_failures(witness, verdict)

    def witness_failures(self, witness, verdict: dict) -> list[str]:
        f = self.flags
        sysdef, cert = ad.parse_system(self.config.read_text())
        params = ad.AbstractionParams(f["epsilon"], f["eta"], f["mu"])
        system = ad.build_abstraction(sysdef, cert, params)
        region = ad.BoxUnion.from_json(json.loads((CONFIGS / self.faults).read_text()))
        eroded = bridge.fault_lattice_eroded(region, f["epsilon"], f["eta"], cert.explore_bound)
        index = {c: i for i, c in enumerate(system.state_coords)}
        faults = frozenset(index[c] for c in eroded if c in index)
        k = bridge.smallest_refute_k(f["rho"], f["epsilon"], f["eta"])
        failures = []
        if len(faults) != verdict.get("fault_states") or k != verdict.get("k"):
            failures.append("fault set or k of the report differ from the rebuilt model")
        spec = ad.FaultSpec(faults, k * to_rational(f["eta"]))
        run_f, run_s = (tuple(r) for r in witness)
        if not diagnosis.validate_witness(system, spec, (run_f, run_s)):
            failures.append("witness does not validate on the built model")
        return failures


E1_REFUTE = CliWorkload(
    name="e1-refute",
    command="check",
    faults="fault_x2.json",
    flags={"mode": "refute", "rho": 0.05, "eta": 0.03, "mu": 0.01, "epsilon": 0.3},
    expected={
        "direction": "NOT_DIAGNOSABLE_FOR_RHO",
        "diagnosable": False,
        "phase_a_pairs": 42876,
        "region_states": 2541,
        "fault_states": 21,
        "dropped_fault_points": 0,
        "k": 23,
    },
    pinned_layer_counts={
        "lattice_points": 1768,
        "states": 1775,
        "inputs": 101,
        "transitions": 179275,
        "dilated_points": 621,
        "eroded_points": 21,
        "ball_states": 377,
    },
)

E1_PROVE = CliWorkload(
    name="e1-prove",
    command="check",
    faults="fault_x1.json",
    flags={"mode": "prove", "eta": 0.04, "mu": 0.005, "epsilon": 0.4},
    expected={
        "direction": "DIAGNOSABLE_FOR_RHO_ABOVE",
        "rho_bound": 1.6,
        "delta": 1,
        "phase_a_pairs": 14623,
        "region_states": 0,
        "fault_states": 98,
        "dropped_fault_points": 322,
        "k": 20,
    },
    pinned_layer_counts={
        "lattice_points": 977,
        "states": 978,
        "inputs": 201,
        "transitions": 196578,
        "dilated_points": 420,
        "eroded_points": 0,
        "ball_states": 333,
    },
)

E1_FALSIFY = CliWorkload(
    name="e1-falsify",
    command="falsify",
    faults="fault_x1.json",
    flags={"rho": 2.1, "trials": 10000, "horizon": 30},
    expected={"found": False},
)


# -- fts-suite ------------------------------------------------------------------


def _runs(rng, doc: dict, count: int, length: int) -> list[list[int]]:
    """Random state runs of a finite-system document, drawn from its own
    transition list (input-erased), so the program is not asked."""
    n = len(doc["raw_states"])
    succ = [sorted({j for i2, _, j in doc["transitions"] if i2 == i}) for i in range(n)]
    runs = []
    for _ in range(count):
        run = [int(rng.choice(doc["initial"]))]
        while len(run) < length:
            nxt = succ[run[-1]]
            run.append(nxt[int(rng.integers(0, len(nxt)))])
        runs.append(run)
    return runs


def fts_cases(seed: int, systems: int = FTS_SYSTEMS) -> list[dict]:
    """Seeded suite: tiny finite systems, their fault specs and output streams.

    Plain JSON data (lists, ints, strings), so a case crosses into the
    program the way a user's model file would.
    """
    sys_rng = np.random.default_rng(seed)
    run_rng = np.random.default_rng((seed, 1))
    cases = []
    for _ in range(systems):
        system, spec = random_finite_system(sys_rng)
        doc = system.to_json()
        faults = sorted(spec.faults)
        streams = []
        for run in _runs(run_rng, doc, FTS_STREAMS, FTS_STREAM_LEN):
            fault_time = next((t for t, i in enumerate(run) if i in spec.faults), None)
            streams.append(
                {"outputs": [doc["raw_outputs"][i] for i in run], "fault_time": fault_time}
            )
        cases.append({"model": doc, "faults": faults, "rho": str(spec.rho), "streams": streams})
    return cases


def _agree(vt, vb) -> bool:
    return vt.diagnosable == vb.diagnosable and (not vt.diagnosable or vt.delta == vb.delta)


def alarm_violation(decisions: list[int], fault_time, delta: int) -> bool:
    """Alarm clause: a stream whose run entered the fault set at fault_time
    and lasts through fault_time + delta must have alarmed by then."""
    if fault_time is None or len(decisions) - 1 < fault_time + delta:
        return False
    return 1 not in decisions[: fault_time + delta + 1]


@dataclass(frozen=True)
class FtsWorkload:
    """Checker, oracle, synthesis and monitor over a seeded suite."""

    name: str = "fts-suite"
    pinned_layer_counts: dict = field(default_factory=dict)  # seed-dependent: none
    setup_parse = "[approxdiag.FiniteSystem.from_json(d) for d in json.loads(text)]"

    def inputs(self, seed: int) -> list[dict]:
        return fts_cases(seed)

    def setup_text(self, cases) -> str:
        return json.dumps([c["model"] for c in cases])

    def run(self, cases, tracer=None) -> Pass:
        failures: list[str] = []
        c = dict.fromkeys(
            (
                "systems", "diagnosable", "oracle_agree", "phase_a_pairs", "region_states",
                "delta", "witness_len", "synthesized", "synth_refusals", "streams",
                "observations", "belief_total", "alarms",
            ),
            0,
        )
        monitor_s = 0.0
        t0 = time.perf_counter()
        with _root_span(tracer, "suite"):
            for n, case in enumerate(cases):
                c["systems"] += 1
                try:
                    system = ad.FiniteSystem.from_json(case["model"])
                    spec = ad.FaultSpec.of(case["faults"], case["rho"])
                    vt = ad.check_diagnosability(system, spec)
                    vb = ad.brute_force_check(system, spec, ORACLE_HORIZON)
                except Exception as exc:  # any error is a failed verdict
                    failures.append(f"system {n}: {type(exc).__name__}: {exc}")
                    continue
                c["phase_a_pairs"] += vt.stats.get("phase_a_pairs", 0)
                c["region_states"] += vt.stats.get("region_states", 0)
                if _agree(vt, vb):
                    c["oracle_agree"] += 1
                else:
                    failures.append(f"system {n}: twin plant {vt.to_json()} vs oracle {vb.to_json()}")
                if not vt.diagnosable:
                    c["witness_len"] += len(vt.witness[0])
                    continue
                c["diagnosable"] += 1
                c["delta"] += vt.delta
                try:
                    diag = ad.synthesize_diagnoser(system, spec)
                except InitialStateInBallError:
                    c["synth_refusals"] += 1
                    continue
                except Exception as exc:
                    failures.append(f"system {n}: synthesis {type(exc).__name__}: {exc}")
                    continue
                c["synthesized"] += 1
                m0 = time.perf_counter()
                for stream in case["streams"]:
                    c["streams"] += 1
                    decisions = []
                    belief = None
                    try:
                        for values in stream["outputs"]:
                            y = ad.observation_symbol(system, values)
                            if belief is None:
                                belief, decision = diag.start(y)
                            else:
                                belief, decision = diag.step(belief, y)
                            decisions.append(decision)
                            c["belief_total"] += len(belief)
                    except Exception as exc:
                        failures.append(f"system {n}: monitor {type(exc).__name__}: {exc}")
                        continue
                    c["observations"] += len(decisions)
                    c["alarms"] += sum(decisions)
                    if alarm_violation(decisions, stream["fault_time"], diag.delta):
                        failures.append(f"system {n}: no alarm within delta {diag.delta}")
                monitor_s += time.perf_counter() - m0
        seconds = time.perf_counter() - t0
        attempted = c["systems"] + c["streams"]
        return Pass(seconds, attempted, failures, c, c["observations"], monitor_s)

    def final_check(self, first: Pass) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (E1_REFUTE, E1_PROVE, E1_FALSIFY, FtsWorkload())}


def setup_child_code(workload) -> str:
    """Program a fresh interpreter runs to time `import approxdiag` plus
    parsing the workload's configuration (read from stdin beforehand),
    corrected for the host's speed like a pass."""
    return (
        "import json, sys, time\n"
        "from hostspeed import Probe\n"
        "text = sys.stdin.read()\n"
        "with Probe().sampling(0.005) as reading:\n"
        "    t0 = time.perf_counter()\n"
        "    import approxdiag\n"
        f"    {workload.setup_parse}\n"
        "    seconds = time.perf_counter() - t0\n"
        "print(repr(reading.corrected(seconds)))\n"
    )

