"""Command-line front end.

Subcommands: validate, abstract, check-fts, monitor, check, falsify,
bench.  Every subcommand has a --json mode with a versioned schema and
canonical serialization; reports embed a digest of the input config so
model files and verdicts stay traceable to exact inputs.

Exit codes: 0 verdict produced, 2 inconclusive, 3 infeasible observation
(monitor), 4 precondition failure (a malformed monitor line or model file
included), 64 usage error, 70 internal invariant breach.  Progress and
diagnostics go to stderr, reports to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bench as bench_mod
from .abstraction import AbstractionParams, build_abstraction, certify_relation, check_params, solve_epsilon
from .bridge import (
    DIAGNOSABLE_ABOVE,
    INCONCLUSIVE,
    NOT_DIAGNOSABLE,
    PROVE,
    REFUTE,
    conclude,
    falsify_plant,
)
from .diagnosis import FaultSpec, brute_force_check, check_diagnosability, synthesize_diagnoser
from .errors import (
    ApproxDiagError,
    DomainError,
    EmptyErosionError,
    InfeasibleObservationError,
    InternalInvariantError,
)
from .finsys import FiniteSystem, _to_rho, observation_symbol
from .regions import BoxUnion
from .report import PhaseTimer, canonical_json, file_digest, run_report
from .system import parse_system, validate_certificate

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_INFEASIBLE = 3
EXIT_PRECONDITION = 4
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _sample_count(text: str) -> int:
    """A nonnegative integer, such as --samples (0 passes vacuously) or a
    --seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive(text: str) -> int:
    """A positive decimal integer, such as bench --width or one of --dims."""
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"takes positive integers only, got {text!r}")
    return int(text)


def _dims(text: str) -> list[int]:
    """--dims: comma-separated positive integers, or empty for none."""
    return [_positive(part) for part in text.split(",")] if text else []


def _emit(args, doc: dict):
    if args.json:
        print(canonical_json(doc))
    else:
        _emit_human(doc)


def _emit_human(doc: dict, indent: int = 0):
    pad = "  " * indent
    for key, value in doc.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_human(value, indent + 1)
        else:
            print(f"{pad}{key}: {value}")


def _load_config(path: str):
    with open(path) as fh:
        text = fh.read()
    sysdef, cert = parse_system(text)
    return sysdef, cert, file_digest(path)


def _load_faults_region(path: str) -> BoxUnion:
    with open(path) as fh:
        return BoxUnion.from_json(json.load(fh))


def _fault_spec_for_model(model: FiniteSystem, faults_arg: str, rho: float) -> FaultSpec:
    if all(part.strip().removeprefix("-").isdecimal() for part in faults_arg.split(",")):
        indices = [int(part) for part in faults_arg.split(",")]
    else:
        region = _load_faults_region(faults_arg)
        indices = [
            i for i, emb in enumerate(model.states) if region.contains_exact(emb)
        ]
    return FaultSpec.of(indices, rho)


def _resolve_params(cert, args) -> AbstractionParams:
    if args.solve_epsilon:
        eps = solve_epsilon(cert, args.eta, args.mu)
    elif args.epsilon is not None:
        eps = args.epsilon
    else:
        raise SystemExit(EXIT_USAGE)
    return AbstractionParams(eps, args.eta, args.mu)


# -- subcommand handlers ----------------------------------------------------


def _cmd_validate(args) -> int:
    sysdef, cert, digest = _load_config(args.config)
    timer = PhaseTimer()
    with timer.phase("validate"):
        rep = validate_certificate(sysdef, cert, samples=args.samples, seed=args.seed)
    _emit(
        args,
        run_report(
            "validate",
            config_digest=digest,
            parameters={"samples": args.samples, "seed": args.seed},
            timings_ms=timer.timings_ms,
            verdict=rep.to_json(),
        ),
    )
    return EXIT_OK


def _cmd_abstract(args) -> int:
    sysdef, cert, digest = _load_config(args.config)
    params = _resolve_params(cert, args)
    chk = check_params(cert, params)
    timer = PhaseTimer()
    with timer.phase("build"):
        system = build_abstraction(sysdef, cert, params, config_digest=digest)
    with timer.phase("write"):
        system.save(args.output)
    _emit(
        args,
        run_report(
            "abstract",
            config_digest=digest,
            parameters={"epsilon": params.epsilon, "eta": params.eta, "mu": params.mu},
            timings_ms=timer.timings_ms,
            counts={
                "states": system.n_states,
                "inputs": len(system.inputs),
                "transitions": system.n_states * len(system.inputs),
                "initial": len(system.initial),
            },
            verdict={"model": args.output, "param_check": chk.to_json()},
        ),
    )
    return EXIT_OK


def _cmd_certify(args) -> int:
    sysdef, cert, digest = _load_config(args.config)
    params = _resolve_params(cert, args)
    timer = PhaseTimer()
    with timer.phase("build"):
        system = build_abstraction(sysdef, cert, params)
    with timer.phase("certify"):
        rep = certify_relation(sysdef, cert, params, system, samples=args.samples, seed=args.seed)
    _emit(
        args,
        run_report(
            "certify",
            config_digest=digest,
            parameters={
                "epsilon": params.epsilon,
                "eta": params.eta,
                "mu": params.mu,
                "samples": args.samples,
                "seed": args.seed,
            },
            timings_ms=timer.timings_ms,
            verdict=rep.to_json(),
        ),
    )
    return EXIT_OK


def _cmd_check_fts(args) -> int:
    model = FiniteSystem.load(args.model)
    spec = _fault_spec_for_model(model, args.faults, args.rho)
    timer = PhaseTimer()
    with timer.phase("check"):
        if args.brute_force is not None:
            verdict = brute_force_check(model, spec, args.brute_force)
        else:
            verdict = check_diagnosability(model, spec)
    _emit(
        args,
        run_report(
            "check-fts",
            config_digest=file_digest(args.model),
            parameters={"faults": sorted(spec.faults), "rho": args.rho},
            timings_ms=timer.timings_ms,
            verdict=verdict.to_json(),
        ),
    )
    return EXIT_OK


def _cmd_monitor(args) -> int:
    model = FiniteSystem.load(args.model)
    spec = _fault_spec_for_model(model, args.faults, args.rho)
    diag = synthesize_diagnoser(model, spec)
    belief = None
    try:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                values = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DomainError(f"malformed observation line {line!r}: {exc}") from exc
            symbol = observation_symbol(model, values)
            if belief is None:
                belief, decision = diag.start(symbol)
            else:
                belief, decision = diag.step(belief, symbol)
            print(decision, flush=True)
    except InfeasibleObservationError as exc:
        print(f"infeasible observation: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.rho_target is not None:
        _to_rho(args.rho_target)
    sysdef, cert, digest = _load_config(args.config)
    fault_region = _load_faults_region(args.faults)
    params = _resolve_params(cert, args)
    timer = PhaseTimer()
    attempts = 0
    while True:
        try:
            with timer.phase(f"conclude[{attempts}]"):
                verdict = conclude(
                    sysdef,
                    cert,
                    params,
                    fault_region,
                    args.mode,
                    k=args.k,
                    rho=args.rho,
                )
        except EmptyErosionError:
            # Coarse accuracy can erode the fault region away entirely;
            # within a refinement budget that is retriable, not fatal.
            if attempts >= args.refine:
                raise
            verdict = None
        if verdict is not None and (verdict.direction != INCONCLUSIVE or attempts >= args.refine):
            break
        attempts += 1
        eta, mu = params.eta / 2.0, params.mu / 2.0
        eps = solve_epsilon(cert, eta, mu) if args.solve_epsilon else params.epsilon
        params = AbstractionParams(eps, eta, mu)
        print(f"refining: eta={eta} mu={mu} epsilon={eps}", file=sys.stderr)

    payload = verdict.to_json()
    if args.rho_target is not None and verdict.direction == DIAGNOSABLE_ABOVE:
        payload["rho_target"] = args.rho_target
        payload["rho_target_met"] = args.rho_target > verdict.rho_bound
    _emit(
        args,
        run_report(
            "check",
            config_digest=digest,
            parameters={
                "mode": args.mode,
                "epsilon": params.epsilon,
                "eta": params.eta,
                "mu": params.mu,
                "refinements": attempts,
            },
            timings_ms=timer.timings_ms,
            verdict=payload,
        ),
    )
    return EXIT_OK if verdict.direction in (DIAGNOSABLE_ABOVE, NOT_DIAGNOSABLE) else EXIT_INCONCLUSIVE


def _cmd_falsify(args) -> int:
    sysdef, cert, digest = _load_config(args.config)
    fault_region = _load_faults_region(args.faults)
    timer = PhaseTimer()
    with timer.phase("falsify"):
        found = falsify_plant(
            sysdef, fault_region, args.rho, args.trials, args.horizon, seed=args.seed
        )
    verdict = {"found": found is not None}
    if found is not None:
        verdict["counterexample"] = found.to_json()
    _emit(
        args,
        run_report(
            "falsify",
            config_digest=digest,
            parameters={
                "rho": args.rho,
                "trials": args.trials,
                "horizon": args.horizon,
                "seed": args.seed,
            },
            timings_ms=timer.timings_ms,
            verdict=verdict,
        ),
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    rows = bench_mod.bench_scaling(args.dims, args.width, eta=args.eta)
    if args.json:
        print(canonical_json({"schema": "approxdiag/bench/v1", "rows": rows}))
    else:
        for row in rows:
            print(
                f"n={row['n']} width={row['width']} states={row['states']} "
                f"transitions={row['transitions']} build_ms={row['build_ms']}"
            )
    return EXIT_OK


# -- argument wiring ----------------------------------------------------------


def _add_params_flags(sub):
    sub.add_argument("--eta", type=float, required=True, help="state/output quantization")
    sub.add_argument("--mu", type=float, required=True, help="input quantization")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--epsilon", type=float, help="bisimulation accuracy")
    group.add_argument(
        "--solve-epsilon", action="store_true", help="derive the smallest feasible accuracy"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="approxdiag", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("validate", parents=[], help="validate a config and its certificate")
    sub.add_argument("config")
    sub.add_argument("--samples", type=_sample_count, default=10_000)
    sub.add_argument("--seed", type=_sample_count, default=0)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_validate)

    sub = subs.add_parser("abstract", help="build the lattice abstraction and write a model file")
    sub.add_argument("config")
    _add_params_flags(sub)
    sub.add_argument("-o", "--output", required=True)
    sub.add_argument("--threads", type=int, help="accepted and ignored")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_abstract)

    sub = subs.add_parser("certify", help="sample the accuracy relation on a built abstraction")
    sub.add_argument("config")
    _add_params_flags(sub)
    sub.add_argument("--samples", type=_sample_count, default=10_000)
    sub.add_argument("--seed", type=_sample_count, default=0)
    sub.add_argument("--threads", type=int, help="accepted and ignored")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_certify)

    sub = subs.add_parser("check-fts", help="diagnosability of a finite system model file")
    sub.add_argument("model")
    sub.add_argument("--faults", required=True, help="comma-separated indices or a region JSON path")
    sub.add_argument("--rho", type=float, required=True)
    sub.add_argument("--brute-force", type=int, metavar="T", help="bounded oracle with horizon T")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_check_fts)

    sub = subs.add_parser("monitor", help="online diagnoser: one JSON output vector per line")
    sub.add_argument("model")
    sub.add_argument("--faults", required=True)
    sub.add_argument("--rho", type=float, required=True)
    sub.set_defaults(handler=_cmd_monitor, json=False)

    sub = subs.add_parser("check", help="plant-level diagnosability via the abstraction")
    sub.add_argument("config")
    sub.add_argument("--faults", required=True, help="fault region JSON path")
    sub.add_argument("--mode", choices=[PROVE, REFUTE], required=True)
    sub.add_argument("--k", type=int, help="ball multiplier for prove mode")
    sub.add_argument("--rho", type=float, help="target rho for refute mode")
    sub.add_argument("--rho-target", type=float, help="report whether this rho is covered")
    _add_params_flags(sub)
    sub.add_argument("--refine", type=int, default=0, help="halve eta, mu up to N times on INCONCLUSIVE")
    sub.add_argument("--threads", type=int, help="accepted and ignored")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_check)

    sub = subs.add_parser("falsify", help="Monte-Carlo search for a plant counterexample pair")
    sub.add_argument("config")
    sub.add_argument("--faults", required=True, help="fault region JSON path")
    sub.add_argument("--rho", type=float, required=True)
    sub.add_argument("--trials", type=_sample_count, default=10_000)
    sub.add_argument("--horizon", type=_sample_count, default=30)
    sub.add_argument("--seed", type=_sample_count, default=0)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_falsify)

    sub = subs.add_parser("bench", help="abstraction scaling study across dimensions")
    sub.add_argument("--dims", type=_dims, default="", help="comma-separated dimensions, e.g. 1,2,3")
    sub.add_argument("--width", type=_positive, default=5, help="cells per axis")
    sub.add_argument("--eta", type=float, default=0.5)
    sub.add_argument("--threads", type=int, help="accepted and ignored")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_bench)

    return parser


_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InternalInvariantError, AssertionError) as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ApproxDiagError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
