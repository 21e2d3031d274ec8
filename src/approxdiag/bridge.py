"""Transfer between finite-level and plant-level diagnosability verdicts.

The dilated lattice fault set (ball around the fault region, intersected
with the state lattice) feeds the proving direction: if the abstraction is
diagnosable for it with ball radius k*eta, the plant is diagnosable for
every rho > 2*epsilon + k*eta.  The eroded lattice fault set (lattice
points whose epsilon-ball stays inside the fault region) feeds the
refuting direction, used contrapositively: if the abstraction is not
diagnosable for it with radius k'*eta, where k' is the smallest integer
strictly above min{h : rho + 2*epsilon <= h*eta}, the plant is not
diagnosable for rho.  Everything else is INCONCLUSIVE: both implications
are one-directional and the tool never overclaims.

Set arithmetic here is exact (rationals), including the inclusion chain
eroded <= (fault set on the lattice) <= dilated, which is asserted at run
time.  The returned rho bound is plain float arithmetic, 2*eps + k*eta to
the last digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .abstraction import AbstractionParams, build_abstraction, check_params
from .diagnosis import FaultSpec, Verdict, check_diagnosability
from .errors import (
    EmptyErosionError,
    FaultSpecError,
    InternalInvariantError,
    ParamCheckError,
)
from .finsys import FiniteSystem
from .lattice import _index_points, lattice_points_in, quantize, quantize_indices
from .rational import to_rational
from .regions import Box, BoxUnion, ball_in_union
from .system import Certificate, SystemDef, _sample_union, output, step

# Falsifier trials simulated at once: a counterexample early on costs one
# chunk, and memory stays flat in the trial count.
_TRIAL_CHUNK = 256

PROVE = "prove"
REFUTE = "refute"

DIAGNOSABLE_ABOVE = "DIAGNOSABLE_FOR_RHO_ABOVE"
NOT_DIAGNOSABLE = "NOT_DIAGNOSABLE_FOR_RHO"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class PlantVerdict:
    direction: str
    params: AbstractionParams
    k: int | None = None
    rho_bound: float | None = None  # prove: diagnosable for all rho > this
    rho: float | None = None  # refute: the rho that was refuted
    finite: Verdict | None = None
    reason: str | None = None
    fault_indices: frozenset[int] = frozenset()
    dropped_fault_points: int = 0

    def to_json(self) -> dict:
        doc = {
            "direction": self.direction,
            "epsilon": self.params.epsilon,
            "eta": self.params.eta,
            "mu": self.params.mu,
            "fault_states": len(self.fault_indices),
            "dropped_fault_points": self.dropped_fault_points,
        }
        if self.k is not None:
            doc["k"] = self.k
        if self.rho_bound is not None:
            doc["rho_bound"] = self.rho_bound
        if self.rho is not None:
            doc["rho"] = self.rho
        if self.reason is not None:
            doc["reason"] = self.reason
        if self.finite is not None:
            doc["finite_verdict"] = self.finite.to_json()
        return doc


def _require_closed(region: BoxUnion, what: str):
    for b in region.boxes:
        if any(b.lower_open) or any(b.upper_open):
            raise FaultSpecError(f"{what} must be given as closed boxes")


def _inside_closed(bound: Box):
    """Closed membership test of exact embeddings in the bound; the bound
    is converted to rationals once, not once per point."""
    blo = [to_rational(v) for v in bound.lower]
    bhi = [to_rational(v) for v in bound.upper]
    return lambda emb: all(lo <= v <= hi for v, lo, hi in zip(emb, blo, bhi))


def fault_lattice_dilated(
    region: BoxUnion, eps: float, eta: float, bound: Box
) -> list[tuple[int, ...]]:
    """Lattice coordinates of the eps-dilated fault region within the bound
    (intersection semantics, exact rational index ranges)."""
    _require_closed(region, "fault region")
    if not region.is_bounded():
        raise FaultSpecError("fault region must be bounded")
    e = to_rational(eps)
    two_eta = 2 * to_rational(eta)
    blo = [to_rational(v) for v in bound.lower]
    bhi = [to_rational(v) for v in bound.upper]

    def axis_range(box, i):
        lo = max(to_rational(box.lower[i]) - e, blo[i])
        hi = min(to_rational(box.upper[i]) + e, bhi[i])
        return math.ceil(lo / two_eta), math.floor(hi / two_eta)

    return _index_points(region, axis_range)


def fault_lattice_eroded(
    region: BoxUnion, eps: float, eta: float, bound: Box
) -> list[tuple[int, ...]]:
    """Lattice points inside the fault region whose closed eps-ball stays
    inside it (exact per-point erosion test); emptiness is the caller's
    signal that the refuting direction cannot run."""
    _require_closed(region, "fault region")
    if not region.is_bounded():
        raise FaultSpecError("fault region must be bounded")
    bounded = BoxUnion(
        tuple(b for b in region.boxes if not b.is_empty()), region.dim
    )
    inside = _inside_closed(bound)
    out = []
    for pt in lattice_points_in(bounded, eta):
        emb = pt.embed_exact()
        if inside(emb) and ball_in_union(emb, eps, region):
            out.append(pt.coords)
    return out


def _map_to_states(system: FiniteSystem, coords_list) -> tuple[frozenset[int], int]:
    """Map lattice coordinates onto abstraction state indices; points
    outside the accessible part are dropped and counted."""
    index = {c: i for i, c in enumerate(system.state_coords)}
    hits = frozenset(index[c] for c in coords_list if c in index)
    return hits, len(coords_list) - len(hits)


def smallest_refute_k(rho: float, eps: float, eta: float) -> int:
    """Smallest admissible integer strictly above min{h : rho + 2 eps <= h eta}."""
    q = (to_rational(rho) + 2 * to_rational(eps)) / to_rational(eta)
    return math.ceil(q) + 1


def conclude(
    sysdef: SystemDef,
    cert: Certificate,
    params: AbstractionParams,
    fault_region: BoxUnion,
    mode: str,
    *,
    k: int | None = None,
    rho: float | None = None,
    system: FiniteSystem | None = None,
) -> PlantVerdict:
    """Run the finite check and transfer its verdict to the plant.

    prove mode: user-chosen k (default ceil(2 eps / eta)); a diagnosable
    finite verdict yields DIAGNOSABLE_FOR_RHO_ABOVE(2 eps + k eta).
    refute mode: requires the eroded set nonempty; a non-diagnosable finite
    verdict at the smallest admissible k' yields NOT_DIAGNOSABLE_FOR_RHO.
    Anything else comes back INCONCLUSIVE with the reason.
    """
    chk = check_params(cert, params)
    if not chk.ok:
        raise ParamCheckError(
            f"accuracy inequalities fail: slacks {chk.slack_decrease}, {chk.slack_bound}"
        )
    if fault_region.intersects(sysdef.x0):
        raise FaultSpecError("fault region meets the initial set")
    if system is None:
        system = build_abstraction(sysdef, cert, params)
    bound = cert.explore_bound
    eps, eta = params.epsilon, params.eta

    dilated = fault_lattice_dilated(fault_region, eps, eta, bound)
    eroded = fault_lattice_eroded(fault_region, eps, eta, bound)
    inside = _inside_closed(bound)
    plain = [
        pt.coords for pt in lattice_points_in(fault_region, eta) if inside(pt.embed_exact())
    ]
    if not (set(eroded) <= set(plain) <= set(dilated)):
        raise InternalInvariantError("fault-set inclusion chain violated")

    # Each mode picks k, its lattice fault set, the plant verdict a
    # transferring finite verdict yields, and the fields every result carries.
    if mode == PROVE:
        kk = k if k is not None else math.ceil(2 * to_rational(eps) / to_rational(eta))
        if kk < 0:
            raise FaultSpecError("k must be a natural number")
        coords, success, fields = dilated, DIAGNOSABLE_ABOVE, {}
        nothing = (
            "finite system not diagnosable for the dilated fault set; "
            "the proving direction gives nothing"
        )
    elif mode == REFUTE:
        if rho is None:
            raise FaultSpecError("refute mode requires a target rho")
        if not eroded:
            raise EmptyErosionError(
                "eroded fault set is empty; shrink epsilon or enlarge the fault region"
            )
        kk = smallest_refute_k(rho, eps, eta)
        coords, success, fields = eroded, NOT_DIAGNOSABLE, {"rho": rho}
        nothing = (
            "finite system diagnosable for the eroded fault set; "
            "the contrapositive gives nothing"
        )
    else:
        raise FaultSpecError(f"unknown mode {mode!r}")

    fault_idx, dropped = _map_to_states(system, coords)
    fields.update(k=kk, fault_indices=fault_idx, dropped_fault_points=dropped)
    try:
        spec = FaultSpec(fault_idx, kk * to_rational(eta))
        verdict = check_diagnosability(system, spec)
    except FaultSpecError as exc:
        return PlantVerdict(INCONCLUSIVE, params, reason=f"finite check ill-posed: {exc}", **fields)
    # Proving transfers a diagnosable finite verdict, refuting the opposite.
    if verdict.diagnosable != (mode == PROVE):
        return PlantVerdict(INCONCLUSIVE, params, reason=nothing, finite=verdict, **fields)
    rho_bound = 2 * eps + kk * eta if mode == PROVE else None
    return PlantVerdict(success, params, rho_bound=rho_bound, finite=verdict, **fields)


# -- trajectory-level falsifier ---------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    """Pair of plant trajectories with identical quantized output traces,
    one entering the fault region, the other keeping distance > rho."""

    trial: int
    fault_time: int
    x0_fault: tuple[float, ...]
    x0_safe: tuple[float, ...]
    inputs: tuple[tuple[float, ...], ...]
    traj_fault: tuple[tuple[float, ...], ...]
    traj_safe: tuple[tuple[float, ...], ...]
    output_coords: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "trial": self.trial,
            "fault_time": self.fault_time,
            "x0_fault": list(self.x0_fault),
            "x0_safe": list(self.x0_safe),
            "inputs": [list(u) for u in self.inputs],
            "traj_fault": [list(x) for x in self.traj_fault],
            "traj_safe": [list(x) for x in self.traj_safe],
            "output_coords": [list(c) for c in self.output_coords],
        }


def _draw_trial(sysdef: SystemDef, horizon: int, seed: int, trial: int):
    """Fault-side initial state, raw safe-side initial state and shared
    inputs of one trial, from the trial's own (seed, trial) stream."""
    rng = np.random.default_rng((seed, trial))
    x0f = _sample_union(rng, sysdef.x0, 1)[0]
    return x0f, _sample_union(rng, sysdef.x0, 1)[0], _sample_union(rng, sysdef.u_set, horizon)


def _draw_chunk(sysdef: SystemDef, horizon: int, seed: int, chunk: range):
    """``_draw_trial`` of each trial of the chunk, stacked into one row per
    trial.  When X0 and U are each one box with no degenerate axis, a
    trial's draws are the first 2n + horizon*m doubles of its stream, all
    derived in one pass.  Other unions draw trial by trial: their draws
    skip zero-width axes and pick boxes with numpy's bounded-integer
    sampler."""
    (xlo, xw, x_box), (ulo, uw, u_box) = sysdef.x0.member_arrays, sysdef.u_set.member_arrays
    if not (x_box and u_box):
        return tuple(np.array(a) for a in zip(*(_draw_trial(sysdef, horizon, seed, t) for t in chunk)))
    # Imported on first use: only the falsifier reads streams.py, so
    # `import approxdiag` does not load it for commands that never falsify.
    from .streams import trial_doubles

    n, m = sysdef.n, sysdef.m
    r = trial_doubles(seed, np.arange(chunk.start, chunk.stop, dtype=np.uint64), 2 * n + horizon * m)
    us = ulo + uw * r[:, 2 * n :].reshape(len(chunk), horizon, m)
    return xlo + xw * r[:, :n], xlo + xw * r[:, n : 2 * n], us


def _check_trial(sysdef, fault_region, rho, x0f, x0s_raw, us, trial) -> Counterexample | None:
    """Scalar check of one trial from its drawn rows: its counterexample,
    None, or the exception its simulation raises."""
    p = sysdef.p
    x0f, x0s_raw, us = (tuple(a.tolist()) for a in (x0f, x0s_raw, us))
    x0s = x0f[:p] + x0s_raw[p:]
    if not sysdef.x0.contains(x0s):
        x0s = x0s_raw
    inputs = tuple(map(tuple, us))
    traj_f, traj_s = [x0f], [x0s]
    for u in inputs:
        traj_f.append(step(sysdef, traj_f[-1], u))
        traj_s.append(step(sysdef, traj_s[-1], u))
    fault_time = next((t for t, x in enumerate(traj_f) if fault_region.contains(x)), None)
    if not fault_time or any(fault_region.distance_to(x) <= rho for x in traj_s):
        return None
    trace_f = [quantize(output(sysdef, x), sysdef.eta).coords for x in traj_f]
    if trace_f != [quantize(output(sysdef, x), sysdef.eta).coords for x in traj_s]:
        return None
    return Counterexample(
        trial, fault_time, x0f, x0s, inputs, tuple(traj_f), tuple(traj_s), tuple(trace_f)
    )


def _screen_trials(sysdef, fault_region, rho, x0f, raw, us) -> np.ndarray:
    """Rows of a drawn chunk the scalar check must see, in trial order:
    those whose simulation may fail and those that pass every screen.

    Both trajectories of each trial are simulated as numpy rows, and the
    screens make the scalar check's comparisons on the same floats, so a
    trial left out is one the scalar check returns None for.
    """
    p, c = sysdef.p, len(x0f)
    mixed = np.concatenate([x0f[:, :p], raw[:, p:]], axis=1)
    x = np.concatenate([x0f, np.where(sysdef.x0.contains_rows(mixed)[:, None], mixed, raw)])
    us = np.concatenate([us, us])
    traj, bad = [x], np.zeros(2 * c, dtype=bool)
    for t in range(us.shape[1]):
        cols, failed = sysdef.compiled_np(list(x.T), list(us[:, t].T))
        x = np.column_stack(cols)
        bad |= failed
        traj.append(x)
    traj = np.stack(traj, axis=1)
    q = quantize_indices(traj[:, :, :p], sysdef.eta)
    bad |= ~(np.isfinite(traj).all(axis=(1, 2)) & np.isfinite(q).all(axis=(1, 2)))
    hit = fault_region.contains_rows(traj[:c])
    entered = hit.any(axis=1) & ~hit[:, 0]
    near = (fault_region.distance_rows(traj[c:]) <= rho).any(axis=1)
    same = (q[:c] == q[c:]).all(axis=(1, 2))
    return np.flatnonzero(bad[:c] | bad[c:] | (entered & ~near & same))


def falsify_plant(
    sysdef: SystemDef,
    fault_region: BoxUnion,
    rho: float,
    trials: int,
    horizon: int,
    seed: int = 0,
) -> Counterexample | None:
    """Monte-Carlo search for constructive evidence of non-diagnosability.

    Each trial draws a shared input sequence and an initial-state pair that
    agrees on the observed coordinates (hidden coordinates redrawn), then
    simulates both trajectories and keeps the pair when the first enters
    the fault region, the second keeps infinity-norm distance > rho from it
    throughout, and the quantized output traces coincide.  Per-trial random
    streams are derived from (seed, trial), so the outcome is reproducible
    for a given seed and trial count regardless of chunking.

    Trials are drawn and simulated _TRIAL_CHUNK at a time as numpy rows;
    the trials that fail or pass the screens go, in trial order and with
    the rows their chunk drew, to the scalar check, which returns the first
    counterexample or raises the first error.
    """
    if fault_region.is_empty():
        return None
    _require_closed(fault_region, "fault region")
    if fault_region.intersects(sysdef.x0):
        raise FaultSpecError("fault region meets the initial set")
    for lo in range(0, trials, _TRIAL_CHUNK):
        chunk = range(lo, min(trials, lo + _TRIAL_CHUNK))
        rows = _draw_chunk(sysdef, horizon, seed, chunk)
        for i in _screen_trials(sysdef, fault_region, rho, *rows):
            found = _check_trial(sysdef, fault_region, rho, *(a[i] for a in rows), chunk[i])
            if found is not None:
                return found
    return None
