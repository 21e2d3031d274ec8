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
    ConfigError,
    DomainError,
    EmptyErosionError,
    FaultSpecError,
    InternalInvariantError,
    ParamCheckError,
)
from .finsys import FiniteSystem, _to_rho
from .lattice import _index_points, embed_exact, lattice_points_in, quantize, quantize_indices
from .rational import as_int, to_rational
from .regions import Box, BoxUnion, ball_in_union
from .system import Certificate, SystemDef, output, step

# Falsifier trials in the first chunk, so a counterexample early on costs
# one small chunk.  Every later chunk is 8 times that, which spreads the
# per-chunk numpy overhead of a long search; memory stays flat in the
# trial count.
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
        for key in ("k", "rho_bound", "rho", "reason"):
            if getattr(self, key) is not None:
                doc[key] = getattr(self, key)
        if self.finite is not None:
            doc["finite_verdict"] = self.finite.to_json()
        return doc


def _require_closed(region: BoxUnion, bounded: bool = False):
    for b in region.boxes:
        if any(b.lower_open) or any(b.upper_open):
            raise FaultSpecError("fault region must be given as closed boxes")
    if bounded and not region.is_bounded():
        raise FaultSpecError("fault region must be bounded")


def _index_ranges(box: Box, eta: float, pad=0) -> list[tuple[int, int]]:
    """Per axis, the range of lattice indices c with lo + pad <= 2*eta*c <=
    hi - pad over the box's bounds, in exact rationals."""
    two_eta, p = 2 * to_rational(eta), to_rational(pad)
    return [
        (math.ceil((lo + p) / two_eta), math.floor((hi - p) / two_eta))
        for lo, hi in zip(*box.exact)
    ]


def _in_ranges(coords, ranges) -> bool:
    return all(lo <= c <= hi for c, (lo, hi) in zip(coords, ranges))


def fault_lattice_dilated(
    region: BoxUnion, eps: float, eta: float, bound: Box
) -> list[tuple[int, ...]]:
    """Lattice coordinates of the eps-dilated fault region within the bound
    (intersection semantics, exact rational index ranges)."""
    _require_closed(region, bounded=True)
    clip = _index_ranges(bound, eta)

    def axis_range(box, i):
        (lo, hi), (blo, bhi) = _index_ranges(box, eta, -eps)[i], clip[i]
        return max(lo, blo), min(hi, bhi)

    return _index_points(region, axis_range)


def fault_lattice_eroded(
    region: BoxUnion, eps: float, eta: float, bound: Box
) -> list[tuple[int, ...]]:
    """Lattice points of the fault region within the bound whose closed
    eps-ball stays inside the region (empty: the refuting direction cannot
    run).  The ball lies in one closed box exactly when the point is in the
    box's eroded index ranges; only in a union of several boxes can a point
    outside every such range still be covered, across a seam, which the
    exact ``ball_in_union`` test decides."""
    _require_closed(region, bounded=True)
    if eps < 0:
        raise DomainError("ball radius must be nonnegative")
    cores = [_index_ranges(box, eta, eps) for box in region.boxes]
    return [
        c
        for c in _fault_lattice_plain(region, eta, bound)
        if any(_in_ranges(c, core) for core in cores)
        or (len(cores) > 1 and ball_in_union(embed_exact([c], eta)[0], eps, region))
    ]


def _fault_lattice_plain(region: BoxUnion, eta: float, bound: Box) -> list[tuple[int, ...]]:
    """Lattice points of the fault region within the bound."""
    clip = _index_ranges(bound, eta)
    return [c for c in lattice_points_in(region, eta) if _in_ranges(c, clip)]


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
    if rho is not None:
        _to_rho(rho)
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
    plain = _fault_lattice_plain(fault_region, eta, bound)
    if not (set(eroded) <= set(plain) <= set(dilated)):
        raise InternalInvariantError("fault-set inclusion chain violated")

    # Each mode picks k, its lattice fault set, the plant verdict a
    # transferring finite verdict yields, and the fields every result carries.
    if mode == PROVE:
        if k is None:
            kk = math.ceil(2 * to_rational(eps) / to_rational(eta))
        else:
            kk = as_int(k, FaultSpecError, "k must be a natural number")
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


def _draw_points(union: BoxUnion, r: np.ndarray) -> np.ndarray:
    """Points of the union from rows of 1 + dim doubles in [0, 1): the
    first picks a nonempty member box, floor(r * boxes) clamped to the last
    box, and the rest place the point at ``lower + width * r`` in it."""
    lower, width = union.member_arrays
    if not len(lower):
        raise ConfigError("", "cannot sample from an empty union")
    pick = (r[..., 0] * len(lower)).astype(np.intp)
    lo, span = (np.take(a, pick, axis=0, mode="clip") for a in (lower, width))
    return lo + span * r[..., 1:]


def _draw_chunk(sysdef: SystemDef, horizon: int, seed: int, chunk: range):
    """Fault-side initial states, raw safe-side initial states and shared
    inputs of the chunk's trials, one row per trial.  Trial t reads doubles
    t*k to (t+1)*k - 1 of ``default_rng(seed)``, k = 2(n+1) + horizon(m+1):
    1 + n for each initial state, then 1 + m per input step."""
    n, m, c = sysdef.n, sysdef.m, len(chunk)
    k = 2 * (n + 1) + horizon * (m + 1)
    r = np.random.Generator(np.random.PCG64(seed).advance(chunk.start * k)).random((c, k))
    x0 = _draw_points(sysdef.x0, r[:, : 2 * (n + 1)].reshape(c, 2, n + 1))
    us = _draw_points(sysdef.u_set, r[:, 2 * (n + 1) :].reshape(c, horizon, m + 1))
    return x0[:, 0], x0[:, 1], us


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
    trace_f = [quantize(output(sysdef, x), sysdef.eta) for x in traj_f]
    if trace_f != [quantize(output(sysdef, x), sysdef.eta) for x in traj_s]:
        return None
    return Counterexample(
        trial, fault_time, x0f, x0s, inputs, tuple(traj_f), tuple(traj_s), tuple(trace_f)
    )


def _quantizable(col: np.ndarray, eta: float) -> np.ndarray:
    """Entries of an output column that ``quantize_indices(col, eta)`` maps
    to finite indices: exactly those whose ``col / (2 eta) + 0.5`` is finite.
    A huge entry overflows the division and a signalling NaN is invalid in
    it, so call it under an errstate that ignores both."""
    return np.isfinite(col / (2.0 * eta) + 0.5)


def _screen_trials(sysdef, fault_region, rho, x0f, raw, us) -> np.ndarray:
    """Rows of a drawn chunk the scalar check must see, in trial order:
    those whose simulation may fail and those that pass every screen.

    Both trajectories of each trial are simulated as numpy columns, one
    time step at a time, and the screens make the scalar check's
    comparisons on the same floats, so a trial left out is one the scalar
    check returns None for.  The failure flags cover every row at every
    step, since the scalar check raises on any trial whose simulation
    fails.  The output, fault and distance screens run only on the live
    trials: those whose quantized outputs have agreed so far, whose fault
    side did not start in the fault region and whose safe side has stayed
    farther than rho from it.  A trial that leaves the live set never
    comes back, so once it is empty a step only runs the forest and the
    failure flags.
    """
    p, c, eta = sysdef.p, len(x0f), sysdef.eta
    mixed = np.concatenate([x0f[:, :p], raw[:, p:]], axis=1)
    x0s = np.where(sysdef.x0.contains_columns(list(mixed.T))[:, None], mixed, raw)
    # The state as contiguous columns, fault rows first, then safe rows; the
    # inputs as contiguous columns per step, doubled once for both halves.
    x = list(np.concatenate([x0f, x0s]).T.copy())
    u = np.concatenate([us, us]).transpose(1, 2, 0).copy()
    bad = np.zeros(2 * c, dtype=bool)
    live, entered = np.arange(c), np.zeros(c, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(us.shape[1] + 1):
            if t:
                x, failed = sysdef.compiled_np(x, u[t - 1])
                bad |= failed
            for col in x[:p]:
                bad |= ~_quantizable(col, eta)
            for col in x[p:]:
                bad |= ~np.isfinite(col)
            if not len(live):
                continue
            # Each column's live rows as a (2, live) array: fault side, safe side.
            rows = [col.reshape(2, c)[:, live] for col in x]
            hit = fault_region.contains_columns([r[0] for r in rows])
            keep = fault_region.distance_columns([r[1] for r in rows]) > rho
            if t:
                entered |= hit
            else:
                keep &= ~hit
            for r in rows[:p]:
                q = quantize_indices(r, eta)
                keep &= q[0] == q[1]
            live, entered = live[keep], entered[keep]
    keep = bad[:c] | bad[c:]
    keep[live[entered]] = True
    return np.flatnonzero(keep)


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
    throughout, and the quantized output traces coincide.  All draws come
    from the one stream ``default_rng(seed)``: trial t reads its k doubles
    at offset t*k (see ``_draw_chunk``), so a trial's outcome depends only
    on seed, t and horizon, never on chunking or the trial count, and
    ``PCG64(seed).advance(t * k)`` replays it alone.  A rho that is
    negative, NaN or infinite, and a trial count or horizon that is a bool,
    not an integer or negative, are DomainErrors, raised before any trial.

    Trials are drawn and simulated a chunk at a time as numpy rows,
    _TRIAL_CHUNK of them first and 8 times that in each later chunk.  The
    screens drop a trial once its quantized outputs part or its safe side
    comes within rho of the fault region, and flag every trial whose
    simulation fails; the flagged trials and those that survive every
    screen go, in trial order and with the rows their chunk drew, to the
    scalar check, which returns the first counterexample or raises the
    first error.
    """
    _to_rho(rho)
    trials = as_int(trials, DomainError, "trials must be a nonnegative integer")
    horizon = as_int(horizon, DomainError, "horizon must be a nonnegative integer")
    for name, value in (("trials", trials), ("horizon", horizon)):
        if value < 0:
            raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
    if fault_region.is_empty():
        return None
    _require_closed(fault_region)
    if fault_region.intersects(sysdef.x0):
        raise FaultSpecError("fault region meets the initial set")
    lo, size = 0, _TRIAL_CHUNK
    while lo < trials:
        chunk = range(lo, min(trials, lo + size))
        rows = _draw_chunk(sysdef, horizon, seed, chunk)
        for i in _screen_trials(sysdef, fault_region, rho, *rows):
            found = _check_trial(sysdef, fault_region, rho, *(a[i] for a in rows), chunk[i])
            if found is not None:
                return found
        lo, size = chunk.stop, 8 * _TRIAL_CHUNK
    return None
