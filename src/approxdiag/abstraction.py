"""Symbolic abstraction of the plant on a uniform state/input lattice.

The abstraction's states are lattice points, its single successor per
(state, input) is the quantized image of the dynamics, and its accuracy is
certified by two inequalities linking the quantization parameters to the
certificate:

    L*eta + sigma(mu) <= (lam o alpha_lo)(epsilon)
    alpha_hi(eta)     <= alpha_lo(epsilon)

Only the accessible part is ever built, by breadth-first closure from the
quantizer image of the initial set.  Frontier levels are expanded in
lexicographic coordinate order, so the resulting state numbering (and any
serialized model file) is bit-reproducible.

Reachability is not bounded analytically: the certificate carries an
explicit exploration box instead, and the builder fails loudly when a
reached state escapes it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BoundExceededError, InternalInvariantError, ParamCheckError, ResourceLimitError
from .finsys import FiniteSystem
from .kfun import compose_inverse
from .lattice import _GRID_CAP, lattice_image, quantize, quantize_index, quantize_indices
from .regions import Box
from .system import Certificate, SystemDef, _sample_union, _step_rows

SOLVE_EPS_TOL = 1e-9
# (state, input) rows a BFS level expands at once: larger blocks only grow the heap.
_ROW_CHUNK = 1 << 13


@dataclass(frozen=True)
class AbstractionParams:
    """Accuracy epsilon, state/output quantization eta, input quantization mu."""

    epsilon: float
    eta: float
    mu: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.epsilon, self.eta, self.mu)):
            raise ParamCheckError("epsilon, eta and mu must all be positive and finite")


@dataclass(frozen=True)
class ParamCheck:
    """Result of the parameter inequalities, with both slack values."""

    ok: bool
    slack_decrease: float  # (lam o alpha_lo)(eps) - (L*eta + sigma(mu))
    slack_bound: float  # alpha_lo(eps) - alpha_hi(eta)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "slack_decrease": self.slack_decrease,
            "slack_bound": self.slack_bound,
        }


def check_params(cert: Certificate, params: AbstractionParams) -> ParamCheck:
    """Evaluate both accuracy inequalities and report their slacks."""
    lhs = cert.lipschitz * params.eta + cert.sigma(params.mu)
    rhs = cert.lam(cert.alpha_lo(params.epsilon))
    slack_decrease = rhs - lhs
    slack_bound = cert.alpha_lo(params.epsilon) - cert.alpha_hi(params.eta)
    return ParamCheck(slack_decrease >= 0 and slack_bound >= 0, slack_decrease, slack_bound)


def solve_epsilon(cert: Certificate, eta: float, mu: float) -> float:
    """Smallest accuracy epsilon compatible with the given eta and mu:
    max of the two inequality inversions.  The result passes check_params
    after a relative nudge of SOLVE_EPS_TOL."""
    target = cert.lipschitz * eta + cert.sigma(mu)
    eps_decrease = compose_inverse(cert.lam, cert.alpha_lo, target)
    eps_bound = cert.alpha_lo.inverse(cert.alpha_hi(eta))
    eps = max(eps_decrease, eps_bound)
    if not check_params(cert, AbstractionParams(max(eps, 1e-300), eta, mu)).ok:
        eps *= 1.0 + SOLVE_EPS_TOL
    return eps


def _expand_level(sysdef: SystemDef, level, input_embeds, eta: float, keys, table):
    """``table`` at ``keys(q, first)`` of every (level state, input) row,
    state-major, and the keys where it is 0, in row order: q holds a block's
    quantized successor indices, a float column per axis, and first numbers
    its first row; keys is None if some row fails the bound.  A block holds
    whole states, at most _ROW_CHUNK rows unless one state has more inputs.

    A row the numpy forest flags, or whose image does not quantize, is
    re-run through the scalar path, so the first such row in level order
    and then input order raises exactly the scalar exception.
    """
    n_in = len(input_embeds)
    ids, unseen = np.empty(len(level) * n_in, dtype=table.dtype), [np.empty(0, np.int64)]
    per_block = max(1, _ROW_CHUNK // n_in)
    u_tiled = [np.tile(col, min(per_block, len(level))) for col in input_embeds.T]
    for lo in range(0, len(level), per_block):
        xs = [np.repeat((2.0 * eta) * col[lo : lo + per_block], n_in) for col in level.T]
        us = [col[: len(xs[0])] for col in u_tiled]
        cols, bad = sysdef.compiled_np(xs, us)
        q = [quantize_indices(col, eta) for col in cols]
        key = keys(q, lo * n_in)
        if key is None or bad.any():
            for col in q:
                bad |= ~np.isfinite(col)
        if bad.any():
            r = int(np.flatnonzero(bad)[0])
            fx = sysdef.compiled(tuple(float(c[r]) for c in xs), tuple(float(c[r]) for c in us))
            tuple(quantize_index(v, eta) for v in fx)
            raise InternalInvariantError(f"row {r} flagged but evaluates: {fx}")
        if key is not None:
            got = np.take(table, key, out=ids[lo * n_in : lo * n_in + len(key)])
            unseen.append(key[got == 0])
    return ids, np.concatenate(unseen)


def _key_grid(bound: Box, eta: float) -> tuple[list[int], tuple[int, ...], list[tuple[int, int]]]:
    """Lowest index and size per axis of the index box that holds every c
    with (2.0*eta)*c in ``bound`` as floats: one cell of margin on each side
    covers the product's rounding while |bound / (2 eta)| < 2^52.  Past that,
    or above _GRID_CAP cells (counted as a Python int), ResourceLimitError.
    Then per axis the least and greatest c of the box whose (2.0*eta)*c passes
    the bound's float comparisons, open sides included: the rounded product is
    monotone in c, so those c form one interval."""
    scaled = [v / (2.0 * eta) for v in bound.lower + bound.upper]
    if not all(abs(v) < 2.0**52 for v in scaled):
        raise ResourceLimitError(f"exploration box too far out at eta {eta}")
    lows = [math.floor(v) - 1 for v in scaled[: bound.dim]]
    shape = tuple(math.ceil(v) + 2 - low for v, low in zip(scaled[bound.dim :], lows))
    if math.prod(shape) > _GRID_CAP:
        cells = f"{math.prod(shape)} lattice cells at eta {eta}, above {_GRID_CAP}"
        raise ResourceLimitError(f"exploration box spans {cells}")
    ranges, emb = [], lambda c: (2.0 * eta) * c
    for k, (low, size) in enumerate(zip(lows, shape)):
        cells, lo_open, hi_open = range(low, low + size), bound.lower_open[k], bound.upper_open[k]
        a = (bisect.bisect_right if lo_open else bisect.bisect_left)(cells, bound.lower[k], key=emb)
        b = (bisect.bisect_left if hi_open else bisect.bisect_right)(cells, bound.upper[k], key=emb)
        ranges.append((low + a, low + b - 1))
    return lows, shape, ranges


def build_abstraction(
    sysdef: SystemDef,
    cert: Certificate,
    params: AbstractionParams,
    *,
    enforce_params: bool = True,
    threads: int | None = None,
    config_digest: str | None = None,
) -> FiniteSystem:
    """Breadth-first closure of the lattice abstraction.

    Initial states are the quantizer image of X0 on the eta-lattice, the
    input alphabet is the quantizer image of U on the mu-lattice, and each
    (state, input) has the single successor [f(state, input)] on the
    eta-lattice.  Raises BoundExceededError when any reached state embeds
    outside the certificate's exploration box: the lexicographically
    smallest of the first level that has one, and the first (state, input)
    reaching it.  ``enforce_params=False`` skips the accuracy check; it
    exists for negative-control experiments.  ``threads`` is ignored.

    The box fixes an index box (``_key_grid``, ResourceLimitError above
    _GRID_CAP cells) and one table over it holding state id + 1 by mixed-radix
    key, axis 0 most significant, so ascending keys are lexicographic order.
    Each level's rows are bound-tested on the grid's per-axis index intervals,
    keyed and looked up block by block; new states are numbered in key order.
    """
    if enforce_params:
        chk = check_params(cert, params)
        if not chk.ok:
            raise ParamCheckError(
                f"quantization parameters rejected: slacks {chk.slack_decrease}, {chk.slack_bound}"
            )
    eta, mu = params.eta, params.mu
    lows, shape, ranges = _key_grid(cert.explore_bound, eta)

    input_points = lattice_image(sysdef.u_set, mu)
    input_coords = tuple(pt.coords for pt in input_points)
    input_embeds = np.array([pt.embed() for pt in input_points])
    n_in = len(input_points)

    outside = []  # (rows outside the bound, their row numbers) of each block with any

    def keys(cols, first=0):
        """Keys (exact in floats, below _GRID_CAP) of integer-valued float columns
        numbered from `first`; None if some rows fail the bound, put in `outside`."""
        ok = np.logical_and.reduce([(a <= c) & (c <= b) for c, (a, b) in zip(cols, ranges)])
        if not ok.all():
            outside.append((np.column_stack([col[~ok] for col in cols]), first + np.flatnonzero(~ok)))
            return None
        key = cols[0] - lows[0]
        for col, low, size in zip(cols[1:], lows[1:], shape[1:]):
            key *= size
            key += col - low
        return key.astype(np.int64)

    def check_bound(origin):
        """Raise for the least row outside the bound (first among equals),
        with origin(row number) = (source coords or None, input label)."""
        if outside:
            rows, at = (np.concatenate(a) for a in zip(*outside))
            r = np.lexsort(rows.T[::-1])[0]
            coords = tuple(map(int, rows[r]))
            raise BoundExceededError(coords, [2.0 * eta * c for c in coords], *origin(int(at[r])))

    table = np.zeros(math.prod(shape), dtype=np.int32)
    init_points = lattice_image(sysdef.x0, eta)  # already sorted lexicographically
    init_rows = np.array([pt.coords for pt in init_points], dtype=float).reshape(-1, sysdef.n)
    init_keys = keys(list(init_rows.T))
    check_bound(lambda r: (None, None))
    table[init_keys] = np.arange(1, len(init_keys) + 1)
    level = init_rows.astype(np.int64)
    state_rows, succ_ids = [level], []  # per level: its states, their successor ids
    while len(level):
        ids, new = _expand_level(sysdef, level, input_embeds, eta, keys, table)
        check_bound(lambda r: (tuple(level[r // n_in].tolist()), input_coords[r % n_in]))
        fresh = np.sort(new)
        fresh = fresh[np.diff(fresh, prepend=-1) != 0]  # np.unique: slower, imports numpy.ma
        start = sum(map(len, state_rows))
        table[fresh] = np.arange(start + 1, start + 1 + len(fresh))
        ids[ids == 0] = table[new]
        ids -= 1
        succ_ids.append(ids.reshape(len(level), n_in))
        level = np.column_stack(np.unravel_index(fresh, shape)) + lows
        state_rows.append(level)

    meta = {"epsilon": params.epsilon}
    if config_digest is not None:
        meta["config_digest"] = config_digest
    del table  # past here, only the model's own arrays are held
    succ_ids = np.concatenate(succ_ids)  # the matrix; the per-level blocks are freed
    return FiniteSystem.on_lattice(
        np.concatenate(state_rows),
        eta,
        input_coords,
        mu,
        tuple(range(len(init_rows))),
        succ_ids,
        sysdef.p,
        meta,
    )


# -- statistical certification of the accuracy relation --------------------


@dataclass(frozen=True)
class RelationReport:
    """Sampled evidence for the accuracy relation V(x, xi) <= alpha_lo(eps).

    Counts violations of: initial-state matching, the distance bound
    d(x, xi) <= eps on related pairs (before and after the step), and
    preservation of the relation by one synchronous step.  max_v_next is
    the largest certificate value reached after a step, to be compared
    against the threshold.
    """

    samples: int
    threshold: float
    max_v_next: float
    violations_initial: int
    violations_distance: int
    violations_step: int

    @property
    def passed(self) -> bool:
        return (
            self.violations_initial == 0
            and self.violations_distance == 0
            and self.violations_step == 0
        )

    def to_json(self) -> dict:
        return {**asdict(self), "verdict": "PASS" if self.passed else "FAIL"}


def certify_relation(
    sysdef: SystemDef,
    cert: Certificate,
    params: AbstractionParams,
    system: FiniteSystem,
    samples: int = 10_000,
    seed: int = 0,
) -> RelationReport:
    """Sample the accuracy relation on the built abstraction.

    Each sample draws a related pair (x, xi) with V(x, xi) <= alpha_lo(eps)
    (the sublevel set is a box around the state's embedding, so sampling is
    exact), a plant input u, and checks that the plant successor f(x, u)
    stays related to the abstraction successor under the quantized input.
    Also samples initial states of the plant and checks they are matched by
    quantization into the abstraction's initial set.  Report-only.
    """
    threshold = cert.alpha_lo(params.epsilon)
    eps = params.epsilon
    rng = np.random.default_rng(seed)
    coords_index = {c: i for i, c in enumerate(system.state_coords)}
    input_index = {c: i for i, c in enumerate(system.input_coords)}
    state_embeds = (2.0 * params.eta) * np.array(system.state_coords, dtype=float)

    init_samples = _sample_union(rng, sysdef.x0, samples)
    idx = _lookup(coords_index, init_samples, params.eta)
    matched = np.isin(idx, system.initial)
    far = cert.v(init_samples[matched], state_embeds[idx[matched]]) > threshold
    viol_init = len(idx) - np.count_nonzero(matched) + np.count_nonzero(far)

    state_picks = rng.integers(0, system.n_states, size=samples)
    u_samples = _sample_union(rng, sysdef.u_set, samples)
    unit = rng.uniform(-1.0, 1.0, size=(samples, sysdef.n))
    xi = state_embeds[state_picks]
    x = xi + unit * threshold / np.array(cert.weights)
    viol_dist = np.count_nonzero(np.abs(x - xi).max(axis=1) > eps)
    u_idx = _lookup(input_index, u_samples, params.mu)
    live = np.flatnonzero(u_idx >= 0)
    x_next = _step_rows(sysdef, x[live], u_samples[live])
    xi_next = state_embeds[system.successor_matrix[state_picks[live], u_idx[live]]]
    v_next = cert.v(x_next, xi_next)
    broken = v_next > threshold
    viol_dist += np.count_nonzero(np.abs(x_next - xi_next).max(axis=1)[~broken] > eps)
    viol_step = samples - len(live) + np.count_nonzero(broken)
    counts = (int(viol_init), int(viol_dist), int(viol_step))
    return RelationReport(samples, threshold, float(np.max(v_next, initial=0.0)), *counts)


def _lookup(index: dict, values: np.ndarray, theta: float) -> np.ndarray:
    """Position in ``index`` of each row's quantized coordinates, -1 where
    there is none; a row the scalar quantizer rejects is re-run through it."""
    q = quantize_indices(values, theta)
    bad = np.zeros(len(q), dtype=bool)
    for col in q.T:
        bad |= ~np.isfinite(col)
    if bad.any():
        quantize(values[np.flatnonzero(bad)[0]], theta)
    # Integer-valued float tuples hash and compare like the int coordinates.
    return np.array([index.get(c, -1) for c in map(tuple, q.tolist())], dtype=np.int64)
