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

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BoundExceededError, InternalInvariantError, ParamCheckError, ResourceLimitError
from .finsys import _GRID_CAP, FiniteSystem
from .kfun import compose_inverse
from .lattice import lattice_image, quantize, quantize_index, quantize_indices
from .regions import Box, BoxUnion
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
        if not (self.epsilon > 0 and self.eta > 0 and self.mu > 0):
            raise ParamCheckError("epsilon, eta and mu must all be positive")


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


def _expand_level(sysdef: SystemDef, level, input_embeds, eta: float, keys) -> np.ndarray:
    """``keys(q, first)`` of every (level state, input) row, state-major: q
    holds a block's quantized successor indices as integer-valued floats,
    and first numbers its first row.  A block holds whole states, at most
    _ROW_CHUNK rows unless one state has more inputs.

    A row the numpy forest flags, or whose image does not quantize, is
    re-run through the scalar path, so the first such row in level order
    and then input order raises exactly the scalar exception.
    """
    n_in = len(input_embeds)
    out = np.empty(len(level) * n_in, dtype=np.int64)
    per_block = max(1, _ROW_CHUNK // n_in)
    for lo in range(0, len(level), per_block):
        xs = np.repeat((2.0 * eta) * level[lo : lo + per_block], n_in, axis=0)
        us = np.tile(input_embeds, (len(xs) // n_in, 1))
        cols, bad = sysdef.compiled_np(list(xs.T), list(us.T))
        q = quantize_indices(np.column_stack(cols), eta)
        for col in q.T:
            bad |= ~np.isfinite(col)
        if bad.any():
            r = int(np.flatnonzero(bad)[0])
            fx = sysdef.compiled(tuple(xs[r].tolist()), tuple(us[r].tolist()))
            tuple(quantize_index(v, eta) for v in fx)
            raise InternalInvariantError(f"row {r} flagged but evaluates: {fx}")
        out[lo * n_in : lo * n_in + len(q)] = keys(q, lo * n_in)
    return out


def _key_grid(bound: Box, eta: float) -> tuple[list[int], tuple[int, ...]]:
    """Lowest index and size per axis of the index box that holds every c
    with (2.0*eta)*c in ``bound`` as floats: one cell of margin on each side
    covers the product's rounding while |bound / (2 eta)| < 2^52.  Past that,
    or above _GRID_CAP cells (counted as a Python int), ResourceLimitError."""
    scaled = [v / (2.0 * eta) for v in bound.lower + bound.upper]
    if not all(abs(v) < 2.0**52 for v in scaled):
        raise ResourceLimitError(f"exploration box too far out at eta {eta}")
    lows = [math.floor(v) - 1 for v in scaled[: bound.dim]]
    shape = tuple(math.ceil(v) + 2 - low for v, low in zip(scaled[bound.dim :], lows))
    if math.prod(shape) > _GRID_CAP:
        cells = f"{math.prod(shape)} lattice cells at eta {eta}, above {_GRID_CAP}"
        raise ResourceLimitError(f"exploration box spans {cells}")
    return lows, shape


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
    Each level's (states x inputs) numpy rows are bound-tested, keyed and
    looked up; new states are numbered in ascending key order.
    """
    if enforce_params:
        chk = check_params(cert, params)
        if not chk.ok:
            raise ParamCheckError(
                f"quantization parameters rejected: slacks {chk.slack_decrease}, {chk.slack_bound}"
            )
    eta, mu = params.eta, params.mu
    lows, shape = _key_grid(cert.explore_bound, eta)
    inside = BoxUnion.of(cert.explore_bound)

    input_points = lattice_image(sysdef.u_set, mu)
    input_coords = tuple(pt.coords for pt in input_points)
    input_embeds = np.array([pt.embed() for pt in input_points])
    n_in = len(input_points)

    outside = []  # (rows outside the bound, their row numbers) of each block with any

    def keys(rows, first=0):
        """Table keys of integer-valued float coordinate rows numbered from
        `first`; 0 when some are outside the bound, and those go to `outside`."""
        ok = inside.contains_columns(list((2.0 * eta) * rows.T))
        if not ok.all():
            outside.append((rows[~ok], first + np.flatnonzero(~ok)))
            return 0
        key = np.zeros(len(rows), dtype=np.int64)
        for col, low, size in zip(rows.astype(np.int64).T, lows, shape):
            key *= size
            key += col - low
        return key

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
    init_keys = keys(init_rows)
    check_bound(lambda r: (None, None))
    table[init_keys] = np.arange(1, len(init_keys) + 1)
    level = init_rows.astype(np.int64)
    state_rows, succ_ids = [level], []  # per level: its states, their successor ids
    while len(level):
        key = _expand_level(sysdef, level, input_embeds, eta, keys)
        check_bound(lambda r: (tuple(level[r // n_in].tolist()), input_coords[r % n_in]))
        fresh = np.sort(key[table[key] == 0])
        fresh = fresh[np.diff(fresh, prepend=-1) != 0]  # np.unique: slower, imports numpy.ma
        start = sum(map(len, state_rows))
        table[fresh] = np.arange(start + 1, start + 1 + len(fresh))
        succ_ids.append((table[key] - 1).reshape(len(level), n_in))
        level = np.column_stack(np.unravel_index(fresh, shape)) + lows
        state_rows.append(level)

    meta = {"epsilon": params.epsilon}
    if config_digest is not None:
        meta["config_digest"] = config_digest
    del table, key  # past here, only the model's own arrays are held
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
