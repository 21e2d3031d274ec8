"""Slow reference implementations the tests compare the program against.

These are the straightforward forms of what the library computes on
integer output classes: outputs are compared as exact Fraction tuples and
the ball is taken from exact rational distances, or on lattice
coordinates by comparing every row with every fault row in chunks.
Expressions are evaluated by walking the tree, and the abstraction BFS,
the falsifier and the sampler run one point, one trial and one row at a
time through the scalar forest, as do the certificate and relation
checks, one sample at a time.  The falsifier's trial screen is kept in its whole-trajectory
form, with region tests that reduce over the coordinate axis.  The
eroded and plain fault lattices test each lattice point's exact
embedding, the eroded one by rational box subtraction
(``reference_ball_in_union``).  The belief diagnoser steps frozensets of
(state, visited_ball) pairs through the successor CSR, and the bounded
oracle carries a fault chain and a safe chain for every depth, empty or
not.  Expressions are
also parsed by recursive descent over the tokens, and forests compiled by
printing Python source and compiling that text.  The Monte Carlo
contract simulates finite runs and tests a diagnoser's alarm and window
clauses on them.  They are oracles, not library code.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from approxdiag import abstraction, exprs
from approxdiag.abstraction import AbstractionParams, ParamCheck, RelationReport
from approxdiag.bridge import Counterexample
from approxdiag.diagnosis import (
    BRUTE_MAX_HORIZON,
    BRUTE_MAX_STATES,
    Diagnoser,
    FaultSpec,
    Verdict,
    _advance,
    _bits,
    _fraction_repr,
    _mask,
    _reconstruct_pump_witness,
    _shown,
    _unroll_witness,
)
from approxdiag.errors import (
    BoundExceededError,
    DimensionMismatchError,
    DomainError,
    ExprSyntaxError,
    InfeasibleObservationError,
    ResourceLimitError,
    UnknownIdentifierError,
)
from approxdiag.exprs import (
    _EVAL_HELPERS,
    _FUNCS1,
    _FUNCS2,
    Bin,
    Call,
    Neg,
    Node,
    Num,
    Var,
    _Rows,
    _tokenize,
)
from approxdiag.finsys import FiniteSystem, _to_rho
from approxdiag.lattice import (
    lattice_image,
    lattice_points_in,
    quantize,
    quantize_index,
    quantize_indices,
)
from approxdiag.rational import to_rational
from approxdiag.regions import Box, BoxUnion
from approxdiag.system import (
    Certificate,
    CertificateReport,
    SystemDef,
    _sample_union,
    output,
    step,
)


def exact_ball(system: FiniteSystem, fault, rho) -> frozenset[int]:
    """Closed infinity-norm ball around the fault states, from exact
    rational distances between embeddings."""
    r = _to_rho(rho)
    fault = frozenset(fault)
    return frozenset(
        i for i in range(system.n_states) if any(system.distance(i, j) <= r for j in fault)
    )


# Coordinate differences held at once by the chunked ball (states x fault
# chunk x dimension), so its memory stays flat in the fault-set size.
_BALL_CHUNK = 1 << 15
# Coordinates below this magnitude have differences that fit in int64.
_COORD_LIMIT = 1 << 62


def chunked_lattice_ball(pts, fault: frozenset[int], k: int) -> frozenset[int] | None:
    """Indices of the coordinate rows within Chebyshev distance k of some
    fault row, compared in chunks of fault rows; None when there is no int64
    coordinate array or its differences might not fit in int64."""
    if pts is None or pts.size and not -_COORD_LIMIT < pts.min() <= pts.max() < _COORD_LIMIT:
        return None
    centers = pts[sorted(fault)]
    k = min(k, np.iinfo(np.int64).max)
    hit = np.zeros(len(pts), dtype=bool)
    step = max(1, _BALL_CHUNK // max(1, pts.size))
    for lo in range(0, len(centers), step):
        gaps = np.abs(pts[:, None, :] - centers[None, lo : lo + step, :]).max(axis=2)
        hit |= (gaps <= k).any(axis=1)
    return frozenset(np.flatnonzero(hit).tolist())


def successors_by_value(system: FiniteSystem, i: int) -> dict:
    """Input-erased successors of i grouped by their output value, read
    from the successor field ``succ`` and the output values."""
    groups: dict = {}
    for j in sorted({j for targets in system.succ[i] for j in targets}):
        groups.setdefault(system.outputs[j], []).append(j)
    return {out: tuple(js) for out, js in groups.items()}


def reference_check(system: FiniteSystem, spec: FaultSpec) -> Verdict:
    """Twin-plant check keyed by output values (the library's check before
    outputs were interned into integer classes)."""
    spec.validate(system)
    if not spec.faults:
        return Verdict(True, delta=0, stats={"region_states": 0})
    ball = exact_ball(system, spec.faults, spec.rho)
    faults = spec.faults
    n = system.n_states
    by_value = {}

    def groups(i):
        if i not in by_value:
            by_value[i] = successors_by_value(system, i)
        return by_value[i]

    def enc(i, j):
        return i * n + j

    def pair_moves(code):
        i, j = divmod(code, n)
        si = groups(i)
        sj = groups(j)
        for out, ilist in si.items():
            jlist = sj.get(out)
            if jlist is None:
                continue
            for a in ilist:
                for b in jlist:
                    yield a, b

    roots = [
        (i, j)
        for i in system.initial
        for j in system.initial
        if system.outputs[i] == system.outputs[j] and j not in ball
    ]
    a_parent: dict[int, int] = {}  # pair -> predecessor, -1 at a root
    entries: dict[int, int] = {}
    frontier = []
    for i, j in roots:
        code = enc(i, j)
        if code not in a_parent:
            a_parent[code] = -1
            frontier.append(code)
    while frontier:
        nxt = []
        for code in frontier:
            for a, b in pair_moves(code):
                if b in ball:
                    continue
                tgt = enc(a, b)
                if a in faults:
                    if tgt not in entries:
                        entries[tgt] = code
                elif tgt not in a_parent:
                    a_parent[tgt] = code
                    nxt.append(tgt)
        frontier = nxt

    if not entries:
        return Verdict(True, delta=1, stats={"region_states": 0, "phase_a_pairs": len(a_parent)})

    b_parent: dict[int, int] = {code: -1 for code in entries}
    frontier = list(entries)
    while frontier:
        nxt = []
        for code in frontier:
            for a, b in pair_moves(code):
                if b in ball:
                    continue
                tgt = enc(a, b)
                if tgt not in b_parent:
                    b_parent[tgt] = code
                    nxt.append(tgt)
        frontier = nxt
    region = b_parent.keys()

    def region_succs(code):
        return [enc(a, b) for a, b in pair_moves(code) if b not in ball]

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {code: WHITE for code in region}
    postorder: list[int] = []
    stats = {"region_states": len(b_parent), "phase_a_pairs": len(a_parent)}
    for start in entries:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(region_succs(start)))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for tgt in it:
                if color[tgt] == GRAY:
                    cycle_start = next(k for k, (c, _) in enumerate(stack) if c == tgt)
                    cycle = [c for c, _ in stack[cycle_start:]]
                    witness = _unroll_witness(a_parent, entries, b_parent, cycle, n, int)
                    return Verdict(False, witness=witness, stats=stats)
                if color[tgt] == WHITE:
                    color[tgt] = GRAY
                    stack.append((tgt, iter(region_succs(tgt))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                postorder.append(node)
                stack.pop()

    dist = {code: 0 for code in entries}
    for node in reversed(postorder):
        base = dist.get(node)
        if base is None:
            continue
        for tgt in region_succs(node):
            if dist.get(tgt, -1) < base + 1:
                dist[tgt] = base + 1
    return Verdict(True, delta=max(dist.values()) + 1, stats=stats)


def reference_brute_force_check(system: FiniteSystem, spec: FaultSpec, horizon: int) -> Verdict:
    """Direct bounded-horizon decision from the definition, carrying one
    fault chain and one safe chain per depth, empty or not, and advancing
    every depth's safe chain at every node.

    Enumerates output streams depth-first up to the horizon while tracking
    every consistent run: states reachable by not-yet-faulty runs, earliest
    fault-entry times, and states reachable by ball-avoiding runs.  A fault
    margin of m at depth d means some pair of output-identical runs has one
    side faulted since d - m while the other never touched the ball; the
    reported delay is the largest margin plus one.  Non-diagnosability is
    declared only on pumping evidence: the same faulted state and the same
    ball-free state recur at two depths of one stream, which lets the pair
    be extended forever.  Agreement with the twin-plant checker is expected
    once the horizon exceeds the pair-graph revisit length (about twice the
    squared state count plus the delay).
    """
    spec.validate(system)
    if horizon < 1:
        raise ResourceLimitError("horizon must be at least 1")
    if system.n_states > BRUTE_MAX_STATES or horizon > BRUTE_MAX_HORIZON:
        raise ResourceLimitError(
            f"bounded enumeration limited to {BRUTE_MAX_STATES} states "
            f"and horizon {BRUTE_MAX_HORIZON}"
        )
    if not spec.faults:
        return Verdict(True, delta=0, method=f"bounded-enumeration(T={horizon})")

    ball = system.ball_states(spec.faults, spec.rho)
    ball_mask = _mask(ball)
    fault_mask = _mask(spec.faults)
    # Output classes, enumerated in the repr order of their values written
    # as Fractions, whichever exact type holds them.
    class_of = system.class_of
    out_classes = [class_of[out] for out in sorted(class_of, key=_fraction_repr)]

    init, steps = system.class_steps  # steps[c][i]: the successors of class c of state i

    # States from which the fault set is reachable (any number of steps).
    reach_fault_mask = fault_mask
    changed = True
    while changed:
        changed = False
        for row in steps.values():
            for i, m in row.items():
                if m & reach_fault_mask and not reach_fault_mask >> i & 1:
                    reach_fault_mask |= 1 << i
                    changed = True

    best_margin = -1
    pump: dict | None = None

    def search(depth, unfauled_mask, faulted, safe_mask, fault_chains, safe_chains, stream):
        nonlocal best_margin, pump
        if pump is not None:
            return
        if safe_mask and faulted:
            margin = depth - min(faulted.values())
            if margin > best_margin:
                best_margin = margin
            for k, (fch, sch) in enumerate(zip(fault_chains, safe_chains)):
                if not (fch and sch):
                    continue
                f_loop = next((i for i, m in fch.items() if m >> i & 1), None)
                s_loop = next((j for j, m in sch.items() if m >> j & 1), None)
                if f_loop is not None and s_loop is not None and k < depth:
                    pump = {
                        "k": k,
                        "d": depth,
                        "fault_state": f_loop,
                        "safe_state": s_loop,
                        "stream": tuple(stream),
                    }
                    return
        if depth == horizon:
            return
        if not safe_mask:
            return
        if not faulted and not (unfauled_mask & reach_fault_mask):
            return
        for out in out_classes:
            row = steps[out]
            out_unf = _advance(unfauled_mask, row)
            new_faulted: dict[int, int] = {}
            for s, t in faulted.items():
                for j in _bits(row.get(s, 0)):
                    if j not in new_faulted or new_faulted[j] > t:
                        new_faulted[j] = t
            for j in _bits(out_unf & fault_mask):
                if j not in new_faulted or new_faulted[j] > depth + 1:
                    new_faulted[j] = depth + 1
            new_unf = out_unf & ~fault_mask
            if not new_unf and not new_faulted:
                continue
            new_safe = _advance(safe_mask, row) & ~ball_mask
            # Entries whose masks reach 0 can never pump again and go; the
            # chains keep their positions, which index the pump, and an empty
            # chain is shared, never rebuilt.
            new_fchains = [
                {s: a for s, m in ch.items() if (a := _advance(m, row))} if ch else ch
                for ch in fault_chains
            ]
            new_schains = [
                {s: a for s, m in ch.items() if (a := _advance(m, row) & ~ball_mask)} if ch else ch
                for ch in safe_chains
            ]
            new_fchains.append({s: 1 << s for s in new_faulted})
            new_schains.append({j: 1 << j for j in _bits(new_safe)})
            stream.append(out)
            search(depth + 1, new_unf, new_faulted, new_safe, new_fchains, new_schains, stream)
            stream.pop()
            if pump is not None:
                return

    for out in (cls for cls in out_classes if cls in init):
        unf = init[out]
        safe = unf & ~ball_mask
        fchains = [{}]
        schains = [{j: 1 << j for j in _bits(safe)}]
        search(0, unf, {}, safe, fchains, schains, [out])

    method = f"bounded-enumeration(T={horizon})"
    if pump is not None:
        witness = _reconstruct_pump_witness(system, spec, ball, pump)
        return Verdict(False, witness=witness, method=method)
    return Verdict(True, delta=max(best_margin, 0) + 1, method=method)


@dataclass(frozen=True)
class TwinProduct:
    """Self-product synchronized on equal outputs (inputs existentially
    quantified, since the diagnoser observes outputs only)."""

    system: FiniteSystem
    pairs: tuple[tuple[int, int], ...]

    def pair_index(self, i: int, j: int) -> int:
        return self.pairs.index((i, j))


def synchronized_product(s: FiniteSystem) -> TwinProduct:
    """Materialized twin plant over all equal-output state pairs.

    Pair (i, j) steps to (i', j') when i -> i' under some input, j -> j'
    under some (possibly different) input, and the target output classes
    agree.  Desk scale only; the checker explores the same product
    implicitly.
    """
    out = s.outputs
    pairs = [
        (i, j) for i in range(s.n_states) for j in range(s.n_states) if out[i] == out[j]
    ]
    index = {pair: k for k, pair in enumerate(pairs)}
    initial = tuple(index[(i, j)] for i in s.initial for j in s.initial if out[i] == out[j])
    succ_rows = []
    for i, j in pairs:
        si = successors_by_value(s, i)
        sj = successors_by_value(s, j)
        targets = sorted(
            index[(a, b)]
            for value, alist in si.items()
            if value in sj
            for a in alist
            for b in sj[value]
        )
        succ_rows.append((tuple(targets),))
    states = tuple(s.states[i] + s.states[j] for i, j in pairs)
    outputs = tuple(s.outputs[i] for i, j in pairs)
    product = FiniteSystem(states, initial, ("*",), tuple(succ_rows), outputs, s.p)
    return TwinProduct(product, tuple(pairs))


def deterministic(system: FiniteSystem) -> bool:
    """At most one successor for every state and input."""
    return all(len(t) <= 1 for row in system.succ for t in row)


# -- Monte Carlo behavioral contract ----------------------------------------


@dataclass(frozen=True)
class ContractReport:
    runs: int
    checked_alarm: int
    checked_window: int
    violations_alarm: int
    violations_window: int

    @property
    def passed(self) -> bool:
        return self.violations_alarm == 0 and self.violations_window == 0


def monte_carlo_contract(
    system: FiniteSystem,
    spec: FaultSpec,
    diag: Diagnoser,
    n_runs: int = 1000,
    seed: int = 0,
    horizon: int | None = None,
) -> ContractReport:
    """Simulate random runs and test both diagnosability clauses.

    Alarm clause: on a run first entering the fault set at time t that
    stays observable through t + delta, the decision turns 1 by t + delta.
    Window clause: at the first alarm time t', some state of a run
    consistent with the whole observed prefix lies in the ball within
    [max(t' - delta, 0), t'] (computed by backward-pruning the beliefs).
    """
    rng = np.random.default_rng(seed)
    ball = diag._ball
    delta = diag.delta
    horizon = horizon if horizon is not None else delta + 2 * system.n_states + 4
    ids = system.output_ids
    ptr, _, succ = system.successor_groups
    rows = [sorted(succ[a:b]) for a, b in zip(ptr, ptr[1:])]  # ascending successors
    steps = system.class_steps[1]
    checked_alarm = checked_window = viol_alarm = viol_window = 0

    for _ in range(n_runs):
        s = int(rng.choice(system.initial))
        run = [s]
        for _ in range(horizon):
            succs = rows[run[-1]]
            if not succs:
                break
            run.append(int(succs[rng.integers(0, len(succs))]))

        belief, decision = diag.start(system.outputs[run[0]])
        consistent = [belief.seen | belief.free]
        alarm_at = None if decision == 0 else 0
        for t in range(1, len(run)):
            belief, decision = diag.step(belief, system.outputs[run[t]])
            consistent.append(belief.seen | belief.free)
            if alarm_at is None and decision == 1:
                alarm_at = t

        t_fault = next((t for t, i in enumerate(run) if i in spec.faults), None)
        if t_fault is not None and len(run) - 1 >= t_fault + delta:
            checked_alarm += 1
            if alarm_at is None or alarm_at > t_fault + delta:
                viol_alarm += 1
        if alarm_at is not None:
            checked_window += 1
            lo = max(alarm_at - delta, 0)
            for t in range(alarm_at - 1, -1, -1):
                row, nxt = steps[ids[run[t + 1]]], consistent[t + 1]
                consistent[t] = _mask(s for s in _bits(consistent[t]) if row.get(s, 0) & nxt)
            if not any(m & ball for m in consistent[lo : alarm_at + 1]):
                viol_window += 1
    return ContractReport(n_runs, checked_alarm, checked_window, viol_alarm, viol_window)


def reference_belief_start(diag: Diagnoser, y) -> tuple[frozenset, int]:
    """The belief automaton on a frozenset of (state, visited_ball) pairs:
    the initial belief for the first observed output y and its decision,
    which alarms when every consistent run has entered the ball."""
    ids, cls = diag.system.output_ids, diag.system.class_of.get(y)
    members = frozenset((s, s in diag.ball) for s in diag.system.initial if ids[s] == cls)
    if not members:
        raise InfeasibleObservationError(f"no initial state produces output {_shown(y)}")
    return members, int(all(v for _, v in members))


def reference_belief_step(diag: Diagnoser, belief: frozenset, y) -> tuple[frozenset, int]:
    """Advance a reference belief by one observed output y: each pair moves
    to every successor of the observed class, its tag set once the
    successor lies in the ball."""
    ptr, classes, succ = diag.system.successor_groups
    cls = diag.system.class_of.get(y)
    members = frozenset(
        (succ[k], visited or succ[k] in diag.ball)
        for s, visited in belief
        for k in range(ptr[s], ptr[s + 1])
        if classes[k] == cls
    )
    if not members:
        raise InfeasibleObservationError(f"no consistent run produces output {_shown(y)}")
    return members, int(all(v for _, v in members))


def reference_sample_union(rng: np.random.Generator, union: BoxUnion, count: int) -> np.ndarray:
    """Per-row sampler: pick a nonempty member box, then rng.uniform per
    non-degenerate axis."""
    boxes = [b for b in union.boxes if not b.is_empty()]
    picks = rng.integers(0, len(boxes), size=count)
    out = np.empty((count, union.dim))
    for i, k in enumerate(picks):
        b = boxes[int(k)]
        out[i] = [rng.uniform(lo, hi) if hi > lo else lo for lo, hi in zip(b.lower, b.upper)]
    return out


def build_unchecked(sysdef: SystemDef, cert: Certificate, params: AbstractionParams) -> FiniteSystem:
    """``build_abstraction`` with its accuracy check passing whatever the
    parameters: for negative controls, and plants no parameters suit."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(abstraction, "check_params", lambda cert, params: ParamCheck(True, 0.0, 0.0))
        return abstraction.build_abstraction(sysdef, cert, params)


def reference_build_abstraction(
    sysdef: SystemDef, cert: Certificate, params: AbstractionParams
) -> FiniteSystem:
    """Point-at-a-time BFS closure of the lattice abstraction (no parameter
    check), expanding each level state by state and input by input."""
    eta, mu = params.eta, params.mu
    fn = sysdef.compiled
    bound = cert.explore_bound
    input_coords = lattice_image(sysdef.u_set, mu)
    input_embeds = [tuple(2.0 * mu * c for c in coords) for coords in input_coords]
    init_points = lattice_image(sysdef.x0, eta)
    index: dict[tuple[int, ...], int] = {}
    embeds: list[tuple[float, ...]] = []

    def admit(coords, source=None, input_label=None):
        emb = tuple(2.0 * eta * c for c in coords)
        if not bound.contains(emb):
            raise BoundExceededError(coords, emb, source, input_label)
        index[coords] = len(embeds)
        embeds.append(emb)

    for coords in init_points:
        admit(coords)
    succ_rows: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    level = list(init_points)
    while level:
        fresh: dict[tuple[int, ...], tuple] = {}
        for coords in level:
            emb = embeds[index[coords]]
            row = succ_rows[coords] = [
                tuple(quantize_index(v, eta) for v in fn(emb, u_emb)) for u_emb in input_embeds
            ]
            for u_pos, tgt in enumerate(row):
                if tgt not in index and tgt not in fresh:
                    fresh[tgt] = (coords, input_coords[u_pos])
        ordered = sorted(fresh)
        for coords in ordered:
            admit(coords, *fresh[coords])
        level = ordered
    coords_list = sorted(index, key=index.get)
    succ = [[index[tgt] for tgt in succ_rows[c]] for c in coords_list]
    initial = tuple(range(len(init_points)))
    meta = {"epsilon": params.epsilon}
    return FiniteSystem.on_lattice(
        tuple(coords_list), eta, tuple(input_coords), mu, initial, succ, sysdef.p, meta
    )


def quantized_output_trace(sysdef: SystemDef, x0, inputs) -> list[tuple[int, ...]]:
    """Simulate from x0 under the input sequence and quantize each output.

    Element t depends only on x0 and inputs[0:t]; the trace has one more
    element than the input sequence.
    """
    x = tuple(x0)
    trace = [quantize(output(sysdef, x), sysdef.eta)]
    for u in inputs:
        u_t = (u,) if np.isscalar(u) else tuple(u)
        x = step(sysdef, x, u_t)
        trace.append(quantize(output(sysdef, x), sysdef.eta))
    return trace


def reference_falsify(
    sysdef: SystemDef, fault_region: BoxUnion, rho: float, trials: int, horizon: int, seed: int = 0
) -> Counterexample | None:
    """Trial-at-a-time falsifier: every point drawn in turn from the one
    ``default_rng(seed)`` stream, one double picking a nonempty member box
    and one per axis placing the point in it, simulated and checked with
    scalar steps (the preconditions are the library's)."""
    if fault_region.is_empty():
        return None
    p = sysdef.p
    rng = np.random.default_rng(seed)

    def point(union):
        boxes = [b for b in union.boxes if not b.is_empty()]
        box = boxes[min(int(rng.random() * len(boxes)), len(boxes) - 1)]
        return tuple(lo + (hi - lo) * rng.random() for lo, hi in zip(box.lower, box.upper))

    for trial in range(trials):
        x0f = point(sysdef.x0)
        x0s_raw = point(sysdef.x0)
        x0s = x0f[:p] + x0s_raw[p:]
        if not sysdef.x0.contains(x0s):
            x0s = x0s_raw
        inputs = tuple(point(sysdef.u_set) for _ in range(horizon))
        xf, xs = x0f, x0s
        traj_f, traj_s = [xf], [xs]
        for u in inputs:
            xf = step(sysdef, xf, u)
            xs = step(sysdef, xs, u)
            traj_f.append(xf)
            traj_s.append(xs)
        fault_time = next((t for t, x in enumerate(traj_f) if fault_region.contains(x)), None)
        if fault_time is None or fault_time == 0:
            continue
        if any(fault_region.distance_to(x) <= rho for x in traj_s):
            continue
        trace_f = quantized_output_trace(sysdef, x0f, inputs)
        trace_s = quantized_output_trace(sysdef, x0s, inputs)
        if trace_f != trace_s:
            continue
        return Counterexample(
            trial, fault_time, x0f, x0s, inputs, tuple(traj_f), tuple(traj_s), tuple(trace_f)
        )
    return None


def _inside_closed(bound: Box):
    """Closed membership test of exact embeddings in the bound."""
    blo = [to_rational(v) for v in bound.lower]
    bhi = [to_rational(v) for v in bound.upper]
    return lambda emb: all(lo <= v <= hi for v, lo, hi in zip(emb, blo, bhi))


# -- covering by box subtraction -------------------------------------------
#
# A box is represented over rationals as a list of (lo, hi, lo_closed,
# hi_closed) intervals.  Subtracting one box from another peels off at most
# two fragments per axis, then recurses on the overlap; all bounds are
# copies of existing rationals, so no rounding ever occurs.


def _rat_box(box: Box):
    return [
        (to_rational(a), to_rational(b), not oa, not ob)
        for a, b, oa, ob in zip(box.lower, box.upper, box.lower_open, box.upper_open)
    ]


def _interval_empty(lo, hi, lc, hc) -> bool:
    return lo > hi or (lo == hi and not (lc and hc))


def _intersect_interval(cur, cut):
    lo, hi, lc, hc = cur
    clo, chi, clc, chc = cut
    nlo, nlc = (clo, clc) if clo > lo else ((lo, lc) if clo < lo else (lo, lc and clc))
    nhi, nhc = (chi, chc) if chi < hi else ((hi, hc) if chi > hi else (hi, hc and chc))
    return nlo, nhi, nlc, nhc


def _below_interval(cur, cut):
    """Part of ``cur`` left of the cutter start: v < clo, or v == clo if open."""
    lo, hi, lc, hc = cur
    clo, _, clc, _ = cut
    if clo > hi or (clo == hi and not hc):
        return cur
    ubc = (not clc) if clo < hi else ((not clc) and hc)
    return lo, clo, lc, ubc


def _above_interval(cur, cut):
    lo, hi, lc, hc = cur
    _, chi, _, chc = cut
    if chi < lo or (chi == lo and not lc):
        return cur
    lbc = (not chc) if chi > lo else ((not chc) and lc)
    return chi, hi, lbc, hc


def _subtract(box, cutter):
    """Fragments of ``box`` not covered by ``cutter``; at most 2n pieces."""
    for cur, cut in zip(box, cutter):
        if _interval_empty(*_intersect_interval(cur, cut)):
            return [box]
    fragments = []
    current = list(box)
    for i in range(len(box)):
        for part in (_below_interval(current[i], cutter[i]), _above_interval(current[i], cutter[i])):
            if not _interval_empty(*part):
                piece = current.copy()
                piece[i] = part
                fragments.append(piece)
        current[i] = _intersect_interval(current[i], cutter[i])
    return fragments


def reference_ball_in_union(x, eps: float, union: BoxUnion) -> bool:
    """Exact test that the closed eps-ball around x is covered by the union,
    by subtracting each member box from the ball until nothing is left.
    eps = 0 is plain membership, open sides respected."""
    if eps < 0:
        raise DomainError("ball radius must be nonnegative")
    if len(x) != union.dim:
        raise DimensionMismatchError("dimension mismatch")
    e = to_rational(eps)
    ball = [(to_rational(v) - e, to_rational(v) + e, True, True) for v in x]
    remainder = [ball]
    for member in union.boxes:
        if member.is_empty():
            continue
        cutter = _rat_box(member)
        nxt = []
        for frag in remainder:
            nxt.extend(_subtract(frag, cutter))
        remainder = nxt
        if not remainder:
            return True
    return not remainder


def reference_fault_lattice_eroded(
    region: BoxUnion, eps: float, eta: float, bound: Box
) -> list[tuple[int, ...]]:
    """Lattice points of the region whose exact embedding lies in the bound
    and whose closed eps-ball ``reference_ball_in_union`` finds covered,
    point by point."""
    inside = _inside_closed(bound)
    two_eta = 2 * to_rational(eta)
    out = []
    for coords in lattice_points_in(region, eta):
        emb = tuple(two_eta * c for c in coords)
        if inside(emb) and reference_ball_in_union(emb, eps, region):
            out.append(coords)
    return out


def reference_fault_lattice_plain(region: BoxUnion, eta: float, bound: Box) -> list[tuple[int, ...]]:
    """Lattice points of the region whose exact embedding lies in the bound."""
    inside = _inside_closed(bound)
    two_eta = 2 * to_rational(eta)
    return [c for c in lattice_points_in(region, eta) if inside(tuple(two_eta * v for v in c))]


def reference_contains_rows(union: BoxUnion, points: np.ndarray) -> np.ndarray:
    """``union.contains`` of each point along the last axis, reduced over
    that axis."""
    inside = np.zeros(points.shape[:-1], dtype=bool)
    for b in union.boxes:
        out = (points < b.lower) | (points > b.upper)
        out |= (points == b.lower) & b.lower_open | (points == b.upper) & b.upper_open
        inside |= ~out.any(axis=-1)
    return inside


def reference_distance_rows(union: BoxUnion, points: np.ndarray) -> np.ndarray:
    """``union.distance_to`` of each point along the last axis, reduced over
    that axis, by the scalar method's branches: the gap below the lower
    bound, the gap above the upper one, NaN for a NaN coordinate and 0
    otherwise, so an infinite coordinate at an infinite bound is 0."""
    with np.errstate(invalid="ignore"):
        per_box = []
        for b in union.boxes:
            lo, hi = np.array(b.lower), np.array(b.upper)
            gap = np.where(points < lo, lo - points, np.where(points > hi, points - hi, 0.0))
            per_box.append(np.where(np.isnan(points), np.nan, gap).max(-1))
    return np.min(per_box, axis=0)


def reference_screen_trials(sysdef, fault_region, rho, x0f, raw, us) -> np.ndarray:
    """The falsifier's trial screen over whole trajectories: both
    trajectories of each trial stacked into one (trials, horizon + 1, n)
    array, then every test made on it at once."""
    p, c = sysdef.p, len(x0f)
    mixed = np.concatenate([x0f[:, :p], raw[:, p:]], axis=1)
    keep = reference_contains_rows(sysdef.x0, mixed)
    x = np.concatenate([x0f, np.where(keep[:, None], mixed, raw)])
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
    hit = reference_contains_rows(fault_region, traj[:c])
    entered = hit.any(axis=1) & ~hit[:, 0]
    near = (reference_distance_rows(fault_region, traj[c:]) <= rho).any(axis=1)
    same = (q[:c] == q[c:]).all(axis=(1, 2))
    return np.flatnonzero(bad[:c] | bad[c:] | (entered & ~near & same))


def cert_v(cert: Certificate, a, b) -> float:
    """V(a, b) of one point pair, as a generator max."""
    return max(w * abs(x - y) for w, x, y in zip(cert.weights, a, b))


def reference_validate_certificate(
    sysdef: SystemDef, cert: Certificate, samples: int = 10_000, seed: int = 0
) -> CertificateReport:
    """Sample-at-a-time certificate check: two scalar steps per sample and
    running maxima of the three violations."""
    if samples <= 0:
        return CertificateReport(0, -math.inf, -math.inf, -math.inf)
    rng = np.random.default_rng(seed)
    bound = BoxUnion.of(cert.explore_bound)
    xs = _sample_union(rng, bound, samples)
    xps = _sample_union(rng, bound, samples)
    us = _sample_union(rng, sysdef.u_set, samples)
    ups = _sample_union(rng, sysdef.u_set, samples)

    worst_bounds = -math.inf
    worst_decrease = -math.inf
    worst_lip = -math.inf
    prev_pair = None
    for x, xp, u, up in zip(xs, xps, us, ups):
        x, xp, u, up = tuple(x), tuple(xp), tuple(u), tuple(up)
        d = max(abs(a - b) for a, b in zip(x, xp))
        v = cert_v(cert, x, xp)
        worst_bounds = max(worst_bounds, cert.alpha_lo(d) - v, v - cert.alpha_hi(d))
        du = max(abs(a - b) for a, b in zip(u, up))
        v_next = cert_v(cert, step(sysdef, x, u), step(sysdef, xp, up))
        worst_decrease = max(worst_decrease, v_next - v + cert.lam(v) - cert.sigma(du))
        if prev_pair is not None:
            a, b = prev_pair
            dprod = max(
                max(abs(p - q) for p, q in zip(a, x)),
                max(abs(p - q) for p, q in zip(b, xp)),
            )
            worst_lip = max(worst_lip, abs(cert_v(cert, a, b) - v) - cert.lipschitz * dprod)
        prev_pair = (x, xp)
    return CertificateReport(samples, worst_bounds, worst_decrease, worst_lip)


def reference_certify_relation(
    sysdef: SystemDef,
    cert: Certificate,
    params: AbstractionParams,
    system: FiniteSystem,
    samples: int = 10_000,
    seed: int = 0,
) -> RelationReport:
    """Sample-at-a-time relation check: one scalar quantization per
    sample and one scalar step per sample whose input quantizes into the
    alphabet."""
    threshold = cert.alpha_lo(params.epsilon)
    eps = params.epsilon
    rng = np.random.default_rng(seed)
    coords_index = {c: i for i, c in enumerate(system.state_coords)}
    input_index = {c: i for i, c in enumerate(system.input_coords)}
    state_embeds = [tuple(2.0 * params.eta * c for c in coords) for coords in system.state_coords]

    viol_init = viol_dist = viol_step = 0
    max_v_next = 0.0

    init_samples = _sample_union(rng, sysdef.x0, samples)
    init_set = set(system.initial)
    for x in init_samples:
        x = tuple(x)
        idx = coords_index.get(quantize(x, params.eta))
        if idx is None or idx not in init_set:
            viol_init += 1
            continue
        if cert_v(cert, x, state_embeds[idx]) > threshold:
            viol_init += 1

    state_picks = rng.integers(0, system.n_states, size=samples)
    u_samples = _sample_union(rng, sysdef.u_set, samples)
    unit = rng.uniform(-1.0, 1.0, size=(samples, sysdef.n))
    for k in range(samples):
        s_idx = int(state_picks[k])
        xi = state_embeds[s_idx]
        x = tuple(
            xi_i + unit[k][i] * threshold / cert.weights[i] for i, xi_i in enumerate(xi)
        )
        if max(abs(a - b) for a, b in zip(x, xi)) > eps:
            viol_dist += 1
        u = tuple(u_samples[k])
        v_coords = quantize(u, params.mu)
        u_idx = input_index.get(v_coords)
        if u_idx is None:
            viol_step += 1
            continue
        x_next = step(sysdef, x, u)
        xi_next_idx = system.succ[s_idx][u_idx][0]
        xi_next = state_embeds[xi_next_idx]
        v_next = cert_v(cert, x_next, xi_next)
        max_v_next = max(max_v_next, v_next)
        if v_next > threshold:
            viol_step += 1
        elif max(abs(a - b) for a, b in zip(x_next, xi_next)) > eps:
            viol_dist += 1
    return RelationReport(samples, threshold, float(max_v_next), viol_init, viol_dist, viol_step)


def eval_expr(node: exprs.Node, x, u) -> float:
    """Tree-walking evaluator; x and u are 0-based sequences."""
    if isinstance(node, exprs.Num):
        return node.value
    if isinstance(node, exprs.Var):
        seq = x if node.kind == "x" else u
        return seq[node.index - 1]
    if isinstance(node, exprs.Neg):
        return -eval_expr(node.arg, x, u)
    if isinstance(node, exprs.Bin):
        a = eval_expr(node.left, x, u)
        b = eval_expr(node.right, x, u)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return exprs._div(a, b)
        return exprs._pow(a, b)
    fn = "_pow" if node.fn == "pow" else node.fn
    return exprs._EVAL_HELPERS[fn](*(eval_expr(a, x, u) for a in node.args))


# -- the expression front end through source text ---------------------------


class _Parser:
    def __init__(self, text: str, n: int, m: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n
        self.m = m

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}, found {val!r}", pos)

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input starting with {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = Bin(val, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return Bin("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, val, pos = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                return self.call(val, pos)
            return self.variable(val, pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected a value, found {val!r}", pos)

    def call(self, name: str, pos: int) -> Node:
        if name not in _FUNCS1 and name not in _FUNCS2:
            raise UnknownIdentifierError(f"unknown function {name!r} at position {pos}")
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.next()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        arity = 1 if name in _FUNCS1 else 2
        if len(args) != arity:
            raise ExprSyntaxError(f"{name} takes {arity} argument(s), got {len(args)}", pos)
        return Call(name, tuple(args))

    def variable(self, name: str, pos: int) -> Node:
        m = re.fullmatch(r"([xu])(\d+)", name)
        if not m:
            raise UnknownIdentifierError(f"unknown identifier {name!r} at position {pos}")
        kind, idx = m.group(1), int(m.group(2))
        limit = self.n if kind == "x" else self.m
        if not 1 <= idx <= limit:
            raise UnknownIdentifierError(
                f"{name!r} out of range at position {pos} ({kind}1..{kind}{limit} allowed)"
            )
        return Var(kind, idx)


def reference_parse_expr(text: str, n: int, m: int) -> Node:
    """Parse one expression over x1..xn, u1..um, by recursive descent."""
    return _Parser(text, n, m).parse()


def _emit(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"{node.kind}[{node.index - 1}]"
    if isinstance(node, Neg):
        return f"(-{_emit(node.arg)})"
    if isinstance(node, Bin):
        a, b = _emit(node.left), _emit(node.right)
        if node.op == "/":
            return f"_div({a}, {b})"
        if node.op == "^":
            return f"_pow({a}, {b})"
        return f"({a} {node.op} {b})"
    if node.fn == "pow":
        return f"_pow({', '.join(_emit(a) for a in node.args)})"
    return f"{node.fn}({', '.join(_emit(a) for a in node.args)})"


def _exec_forest(nodes, name: str, namespace: dict):
    body = ", ".join(_emit(nd) for nd in nodes)
    src = f"def {name}(x, u):\n    return ({body}{',' if len(tuple(nodes)) == 1 else ''})\n"
    exec(compile(src, f"<{name}>", "exec"), namespace)  # noqa: S102
    return namespace[name]


def reference_compile_forest(nodes, name: str = "_dynamics"):
    """Compile an expression forest into one fast callable (x, u) -> tuple,
    through Python source text.

    The generated source is assembled purely from the validated AST, so it
    contains only literals, indexed reads of x/u and the helper calls above.
    """
    return _exec_forest(nodes, name, dict(_EVAL_HELPERS))


def reference_compile_forest_np(nodes):
    """Numpy variant of ``reference_compile_forest``: (x, u) are sequences
    of equal-length float64 columns; returns (output columns, failure mask),
    where row i is flagged exactly when the scalar forest raises on row i."""
    ops = _Rows()
    namespace = {name: (lambda *a, f=fn: ops.each(f, *a)) for name, fn in _EVAL_HELPERS.items()}
    namespace.update(
        _div=ops.div,
        abs=np.abs,
        min=lambda a, b: np.where(b < a, b, a),
        max=lambda a, b: np.where(b > a, b, a),
    )
    fn = _exec_forest(nodes, "_dynamics_np", namespace)

    def forest(x, u):
        ops.rows, ops.bad = len(x[0]), np.zeros(len(x[0]), dtype=bool)
        with np.errstate(all="ignore"):
            cols = fn(x, u)
        return tuple(np.broadcast_to(c, (ops.rows,)).astype(float) for c in cols), ops.bad

    return forest
