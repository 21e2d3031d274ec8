"""Approximate diagnosability of finite metric systems.

A system is diagnosable for a fault set and ball radius rho when some
output-driven detector can, within a uniform finite delay, raise an alarm
after the state first enters the fault set, while every alarm guarantees a
recent visit to the closed rho-neighborhood of the faults.

The decision procedure searches the twin plant: pairs of runs synchronized
on equal outputs, one side tracking "has entered the fault set", the other
"has stayed outside the ball".  Both tags are monotone, so pairs that are
simultaneously fault-seen and safe-so-far form a region whose paths are
exactly the ambiguity windows:

  * an arbitrarily extensible region path (a reachable region cycle) means
    no detector can ever commit, hence not diagnosable, and the cycle
    unrolls into a witness pair of runs;
  * otherwise the delay is the longest region path from its entry points,
    plus one.

The complement of the fault set never appears; every test is against the
complement of the ball, which is what makes the procedure approximate.
An independent bounded-horizon oracle (`brute_force_check`) re-derives the
same verdict from output-stream enumeration and run-subset tracking, and
the synthesized diagnoser is a belief automaton whose alarm means "every
run consistent with the observations has entered the ball".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    FaultSpecError,
    InfeasibleObservationError,
    InitialStateInBallError,
    NonDiagnosableError,
    ResourceLimitError,
)
from .finsys import FiniteSystem, _to_rho

BRUTE_MAX_STATES = 64
BRUTE_MAX_HORIZON = 24

# A check whose pair space n*n holds at least this many pairs expands every
# twin-plant BFS level as one numpy join; a smaller one (every desk-scale
# system) runs the scalar `moves` loop, which is faster there.  The two
# paths cost the same at about 22 states (random systems, 3 inputs, 2 classes).
_JOIN_MIN_PAIRS = 1 << 9
# Left rows (frontier pair x successor of its left state) joined at once, so
# the join's arrays stay small whatever the level size.
_JOIN_CHUNK = 1 << 12
# Largest pair space n*n that gets the join's dense visited bitmap; above it
# the check runs the scalar loop.
_PAIR_CAP = 1 << 25


@dataclass(frozen=True)
class FaultSpec:
    """Fault state indices plus the ball radius rho (stored exactly)."""

    faults: frozenset[int]
    rho: Fraction

    @staticmethod
    def of(faults, rho) -> "FaultSpec":
        return FaultSpec(frozenset(int(i) for i in faults), _to_rho(rho))

    def validate(self, system: FiniteSystem):
        for i in self.faults:
            if not 0 <= i < system.n_states:
                raise FaultSpecError(f"fault state index {i} out of range")
        bad = self.faults & set(system.initial)
        if bad:
            raise FaultSpecError(f"fault set meets the initial states: {sorted(bad)}")


@dataclass(frozen=True)
class Verdict:
    """Diagnosability decision: either a certified delay, or a witness pair
    of output-indistinguishable runs (fault-entering vs ball-avoiding)."""

    diagnosable: bool
    delta: int | None = None
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    method: str = "twin-plant"
    stats: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.diagnosable:
            assert self.delta is not None and self.witness is None
        else:
            assert self.delta is None and self.witness is not None

    def to_json(self) -> dict:
        doc = {"diagnosable": self.diagnosable, "method": self.method}
        if self.diagnosable:
            doc["delta"] = self.delta
        else:
            doc["witness"] = [list(self.witness[0]), list(self.witness[1])]
        doc.update(self.stats)
        return doc


def validate_witness(system: FiniteSystem, spec: FaultSpec, witness) -> bool:
    """A witness must be a pair of runs with identical output runs, the
    first entering the fault set, the second never entering the ball."""
    run_f, run_s = witness
    if len(run_f) != len(run_s):
        return False
    if not (system.is_run(run_f) and system.is_run(run_s)):
        return False
    ids = system.output_ids
    if any(ids[i] != ids[j] for i, j in zip(run_f, run_s)):
        return False
    ball = system.ball_states(spec.faults, spec.rho)
    return any(i in spec.faults for i in run_f) and all(j not in ball for j in run_s)


# -- twin-plant checker ----------------------------------------------------


def check_diagnosability(system: FiniteSystem, spec: FaultSpec) -> Verdict:
    """Decide diagnosability by tag analysis of the twin plant.

    Polynomial in the number of state pairs.  The returned delay is the
    smallest this construction certifies, not necessarily the smallest that
    exists; the bounded oracle reports the true minimum at desk scale.
    """
    spec.validate(system)
    faults = spec.faults
    if not faults:
        return Verdict(True, delta=0, stats={"region_states": 0})
    ball = system.ball_states(faults, spec.rho)
    n = system.n_states
    ids = system.output_ids
    ptr, cls, succ = system.successor_groups
    # Right-hand successors must stay outside the ball: the ball-free
    # successors of j by class id, filled in on first use.
    safe_groups: list = [None] * n

    # A pair (i, j) is encoded as i * n + j; it moves to every pair of
    # successors of equal output class whose right side avoids the ball.
    def moves(code):
        i, j = divmod(code, n)
        gj = safe_groups[j]
        if gj is None:
            gj = safe_groups[j] = {}
            for k in range(ptr[j], ptr[j + 1]):
                if succ[k] not in ball:
                    gj.setdefault(cls[k], []).append(succ[k])
        out = []
        for k in range(ptr[i], ptr[i + 1]):
            jlist = gj.get(cls[k])
            if jlist is not None:
                base = succ[k] * n
                for b in jlist:
                    out.append(base + b)
        return out

    # The same relation as flat index arrays, when the pair space is large
    # enough for whole levels to expand in one join.
    join = _PairJoin(system, ball, faults) if _JOIN_MIN_PAIRS <= n * n <= _PAIR_CAP else None

    # Breadth-first search from `frontier`, recording in `parent` the
    # predecessor of each pair first reached.  Pairs whose left state is
    # faulty go to `stop` instead, when given, and are not expanded.
    def explore(frontier, parent, stop=None):
        if join is not None:
            seen = join.bitmap(parent, stop or {})
        while frontier:
            nxt = []
            if join is not None:
                for tgt, par in join.level(frontier, seen):
                    if stop is not None:
                        hit = join.faulty[tgt // n]
                        stop.update(zip(tgt[hit].tolist(), par[hit].tolist()))
                        tgt, par = tgt[~hit], par[~hit]
                    kept = tgt.tolist()
                    parent.update(zip(kept, par.tolist()))
                    nxt += kept
            else:
                for code in frontier:
                    for tgt in moves(code):
                        if stop is not None and tgt // n in faults:
                            stop.setdefault(tgt, code)
                        elif tgt not in parent:
                            parent[tgt] = code
                            nxt.append(tgt)
            frontier = nxt

    # Phase A: pairs with no fault seen on the left and no ball visit on the
    # right, reached from output-matched initial pairs.
    safe_initial: dict[int, list[int]] = {}  # class id -> ball-free initial states
    for j in system.initial:
        if j not in ball:
            safe_initial.setdefault(ids[j], []).append(j)
    a_parent: dict[int, int | None] = {}
    for i in system.initial:
        for j in safe_initial.get(ids[i], ()):
            a_parent.setdefault(i * n + j)
    entries: dict[int, int | None] = {}  # region entry -> predecessor in phase A
    explore(list(a_parent), a_parent, entries)
    if not entries:
        return Verdict(True, delta=1, stats={"region_states": 0, "phase_a_pairs": len(a_parent)})

    # Phase B: region = fault-seen x safe-so-far pairs, explored from the
    # entries; within the region only the ball constraint remains.
    b_parent: dict[int, int | None] = dict.fromkeys(entries)
    explore(list(entries), b_parent)
    stats = {"region_states": len(b_parent), "phase_a_pairs": len(a_parent)}

    # Iterative DFS: a pair met again while on the stack closes a region
    # cycle (not diagnosable).  Otherwise each pair gets its height, the
    # longest region path leaving it, when it is finished.
    height: dict[int, int] = {}
    for start in entries:
        if start in height:
            continue
        stack = [[start, iter(moves(start)), 0]]  # pair, its moves, height so far
        on_stack = {start: 0}  # pair -> stack position
        while stack:
            top = stack[-1]
            for tgt in top[1]:
                if tgt in on_stack:
                    cycle = [code for code, _, _ in stack[on_stack[tgt] :]]
                    witness = _unroll_witness(system, a_parent, entries, b_parent, cycle, n)
                    return Verdict(False, witness=witness, stats=stats)
                h = height.get(tgt)
                if h is None:
                    on_stack[tgt] = len(stack)
                    stack.append([tgt, iter(moves(tgt)), 0])
                    break
                top[2] = max(top[2], h + 1)
            else:
                stack.pop()
                del on_stack[top[0]]
                height[top[0]] = top[2]
                if stack:
                    stack[-1][2] = max(stack[-1][2], top[2] + 1)

    # Acyclic region: the delay is the longest entry-anchored path plus one.
    return Verdict(True, delta=max(height[e] for e in entries) + 1, stats=stats)


class _PairJoin:
    """The twin-plant move relation as flat index arrays, so that a whole
    BFS level expands at once and in exactly the order of the scalar loop
    `for code in frontier: for tgt in moves(code)`.

    Left side: the system's class-grouped successor CSR ``(ptr, cls,
    succ)`` as int64 arrays, rows in the order the scalar `moves` reads them.
    Right side: the ball-free successors of every state, sorted by
    ``state * C + class`` and then by successor, with a dense start table
    over those keys, so a left row's matching right range is two lookups."""

    def __init__(self, system: FiniteSystem, ball: frozenset[int], faults: frozenset[int]):
        n = self.n = system.n_states
        n_classes = self.n_classes = len(system.class_of)
        self.ptr, self.cls, self.succ = (np.array(a, dtype=np.int64) for a in system.successor_groups)
        keys = np.repeat(np.arange(n, dtype=np.int64) * n_classes, np.diff(self.ptr)) + self.cls
        in_ball = np.zeros(n, dtype=bool)
        in_ball[list(ball)] = True
        self.faulty = np.zeros(n, dtype=bool)
        self.faulty[list(faults)] = True
        safe = ~in_ball[self.succ]
        keys = keys[safe]
        # A stable sort keeps each (state, class) group's members ascending.
        self.right = self.succ[safe][np.argsort(keys, kind="stable")]
        self.start = np.zeros(n * n_classes + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys, minlength=n * n_classes), out=self.start[1:])

    def bitmap(self, *visited) -> np.ndarray:
        """Dense n*n visited flags, set for the keys of the given dicts."""
        seen = np.zeros(self.n * self.n, dtype=bool)
        for codes in visited:
            seen[np.fromiter(codes, dtype=np.int64, count=len(codes))] = True
        return seen

    def level(self, frontier, seen: np.ndarray):
        """Yield, one chunk of at most _JOIN_CHUNK left rows at a time, the
        (target, parent) arrays of the pairs the scalar loop over `frontier`
        reaches first, in its order, skipping and then marking `seen`."""
        n = self.n
        codes = np.array(frontier, dtype=np.int64)
        lo = self.ptr[codes // n]
        counts = self.ptr[codes // n + 1] - lo
        ends = np.cumsum(counts)
        shift = lo - (ends - counts)  # left row = shift[pair] + row number
        j_keys = (codes % n) * self.n_classes
        total = int(ends[-1])
        for first in range(0, total, _JOIN_CHUNK):
            last = min(first + _JOIN_CHUNK, total)
            # The pairs owning rows first .. last-1, one entry per row.
            p0, p1 = np.searchsorted(ends, (first, last - 1), side="right").tolist()
            pair = np.repeat(np.arange(p0, p1 + 1), counts[p0 : p1 + 1])
            skip = first - int(ends[p0] - counts[p0])
            pair = pair[skip : skip + last - first]
            left = shift[pair] + np.arange(first, last)
            keys = j_keys[pair] + self.cls[left]
            r_lo = self.start[keys]
            r_counts = self.start[keys + 1] - r_lo
            row = np.repeat(np.arange(len(left)), r_counts)
            right = self.right[r_lo[row] + np.arange(len(row)) - (np.cumsum(r_counts) - r_counts)[row]]
            tgt = self.succ[left][row] * n + right
            new = ~seen[tgt]
            tgt, par = tgt[new], codes[pair[row[new]]]
            _, firsts = np.unique(tgt, return_index=True)
            firsts.sort()
            tgt, par = tgt[firsts], par[firsts]
            seen[tgt] = True
            yield tgt, par


def _unroll_witness(system, a_parent, entries, b_parent, cycle, n):
    """Entry path + twice-unrolled region cycle, decoded into two runs."""
    path = []
    node = cycle[0]
    while node is not None:
        path.append(node)
        node = b_parent[node]
    path.reverse()  # entry .. cycle[0]
    entry = path[0]
    prefix = []
    node = entries[entry]
    while node is not None:
        prefix.append(node)
        node = a_parent[node]
    prefix.reverse()  # initial pair .. entry predecessor
    loop = cycle[1:] + [cycle[0]]
    codes = prefix + path + loop + loop
    run_f = tuple(code // n for code in codes)
    run_s = tuple(code % n for code in codes)
    return run_f, run_s


# -- bounded-horizon oracle --------------------------------------------------


def brute_force_check(system: FiniteSystem, spec: FaultSpec, horizon: int) -> Verdict:
    """Direct bounded-horizon decision from the definition.

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

    n = system.n_states
    ball = system.ball_states(spec.faults, spec.rho)
    ball_mask = _mask(ball)
    fault_mask = _mask(spec.faults)
    ids = system.output_ids
    # Output classes, enumerated in the repr order of their values.
    class_of = system.class_of
    out_classes = [class_of[out] for out in sorted(class_of, key=repr)]

    ptr, cls, succ = system.successor_groups
    succ_by_out = [{} for _ in range(n)]
    for i, row in enumerate(succ_by_out):
        for k in range(ptr[i], ptr[i + 1]):
            row[cls[k]] = row.get(cls[k], 0) | 1 << succ[k]

    # States from which the fault set is reachable (any number of steps).
    can_reach_fault = set(spec.faults)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if i not in can_reach_fault and any(
                j in can_reach_fault for j in succ[ptr[i] : ptr[i + 1]]
            ):
                can_reach_fault.add(i)
                changed = True
    reach_fault_mask = _mask(can_reach_fault)

    best_margin = -1
    pump: dict | None = None

    def advance_mask(mask: int, out) -> int:
        acc = 0
        for i in _members(mask):
            acc |= succ_by_out[i].get(out, 0)
        return acc

    def search(depth, unfauled_mask, faulted, safe_mask, fault_chains, safe_chains, stream):
        nonlocal best_margin, pump
        if pump is not None:
            return
        if safe_mask and faulted:
            margin = depth - min(faulted.values())
            if margin > best_margin:
                best_margin = margin
            for k, (fch, sch) in enumerate(zip(fault_chains, safe_chains)):
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
            out_unf = advance_mask(unfauled_mask, out)
            new_faulted: dict[int, int] = {}
            for s, t in faulted.items():
                for j in _members(succ_by_out[s].get(out, 0)):
                    if j not in new_faulted or new_faulted[j] > t:
                        new_faulted[j] = t
            for j in _members(out_unf & fault_mask):
                if j not in new_faulted or new_faulted[j] > depth + 1:
                    new_faulted[j] = depth + 1
            new_unf = out_unf & ~fault_mask
            if not new_unf and not new_faulted:
                continue
            new_safe = advance_mask(safe_mask, out) & ~ball_mask
            new_fchains = [
                {s: advance_mask(m, out) for s, m in ch.items()} for ch in fault_chains
            ]
            new_schains = [
                {s: advance_mask(m, out) & ~ball_mask for s, m in ch.items()}
                for ch in safe_chains
            ]
            new_fchains.append({s: 1 << s for s in new_faulted})
            new_schains.append({j: 1 << j for j in _members(new_safe)})
            stream.append(out)
            search(depth + 1, new_unf, new_faulted, new_safe, new_fchains, new_schains, stream)
            stream.pop()
            if pump is not None:
                return

    initial_classes = {ids[i] for i in system.initial}
    for out in (cls for cls in out_classes if cls in initial_classes):
        unf = _mask(i for i in system.initial if ids[i] == out)
        safe = unf & ~ball_mask
        fchains = [{}]
        schains = [{j: 1 << j for j in _members(safe)}]
        search(0, unf, {}, safe, fchains, schains, [out])

    method = f"bounded-enumeration(T={horizon})"
    if pump is not None:
        witness = _reconstruct_pump_witness(system, spec, ball, pump)
        return Verdict(False, witness=witness, method=method)
    return Verdict(True, delta=max(best_margin, 0) + 1, method=method)


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _members(mask: int):
    """Indices of the set bits of mask, in ascending order."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _find_run(system, stream, start_set, end_state, upto, *, forbidden=frozenset(), need_fault=None):
    """Backtracking search for one run consistent with stream[0..upto] (a
    stream of output class ids) that ends at end_state, avoids
    ``forbidden`` and, when need_fault is given, visits it at least once.
    Desk-scale helper for witness assembly."""

    ptr, cls, succ = system.successor_groups

    def rec(t, state, seen_fault, path):
        if state in forbidden:
            return None
        seen = seen_fault or (need_fault is not None and state in need_fault)
        path.append(state)
        if t == upto:
            if state == end_state and (need_fault is None or seen):
                return list(path)
            path.pop()
            return None
        for k in range(ptr[state], ptr[state + 1]):
            if cls[k] == stream[t + 1]:
                got = rec(t + 1, succ[k], seen, path)
                if got is not None:
                    return got
        path.pop()
        return None

    ids = system.output_ids
    for s0 in start_set:
        got = rec(0, s0, False, []) if ids[s0] == stream[0] else None
        if got is not None:
            return got
    return None


def _reconstruct_pump_witness(system, spec, ball, pump):
    stream = pump["stream"]
    k, d = pump["k"], pump["d"]
    i, j = pump["fault_state"], pump["safe_state"]
    base_f = _find_run(system, stream, system.initial, i, k, need_fault=spec.faults)
    base_s = _find_run(system, stream, system.initial, j, k, forbidden=ball)
    # The pump loops: runs i -> i and j -> j over stream[k..d].
    loop_f = _find_run(system, stream[k:], (i,), i, d - k)
    loop_s = _find_run(system, stream[k:], (j,), j, d - k, forbidden=ball)
    assert base_f and base_s and loop_f and loop_s
    run_f = tuple(base_f + loop_f[1:] + loop_f[1:])
    run_s = tuple(base_s + loop_s[1:] + loop_s[1:])
    return run_f, run_s


# -- belief diagnoser --------------------------------------------------------

Belief = frozenset  # of (state index, visited_ball: bool) pairs


def belief_decision(belief: Belief) -> int:
    """Alarm exactly when every consistent run has entered the ball."""
    return int(all(v for _, v in belief))


@dataclass(frozen=True)
class Diagnoser:
    """Deterministic belief automaton over output symbols.

    The belief after an observation prefix holds every state consistent
    with the prefix, tagged False when some consistent run reaching it has
    avoided the ball so far.  The initial decision is 0 by construction
    because synthesis rejects initial states inside the ball.
    """

    system: FiniteSystem
    spec: FaultSpec
    ball: frozenset[int]
    delta: int

    def start(self, y) -> tuple[Belief, int]:
        return self._start(self.system.class_of.get(y), y)

    def step(self, belief: Belief, y) -> tuple[Belief, int]:
        return self._step(belief, self.system.class_of.get(y), y)

    # The observed value y is interned into its class id once, above; it
    # is only carried along below for the error messages.

    def _start(self, cls: int | None, y) -> tuple[Belief, int]:
        ids = self.system.output_ids
        members = frozenset((s, s in self.ball) for s in self.system.initial if ids[s] == cls)
        if not members:
            raise InfeasibleObservationError(f"no initial state produces output {y}")
        return members, belief_decision(members)

    def _step(self, belief: Belief, cls: int | None, y) -> tuple[Belief, int]:
        if not belief:
            raise InfeasibleObservationError("empty belief")
        ptr, classes, succ = self.system.successor_groups
        ball = self.ball
        members = set()
        for s, visited in belief:
            k, end = ptr[s], ptr[s + 1]
            while k < end:  # cheaper than a range over these short rows
                if classes[k] == cls:
                    j = succ[k]
                    members.add((j, visited or j in ball))
                k += 1
        if not members:
            raise InfeasibleObservationError(f"no consistent run produces output {y}")
        members = frozenset(members)
        return members, belief_decision(members)


def synthesize_diagnoser(system: FiniteSystem, spec: FaultSpec) -> Diagnoser:
    """Build the belief diagnoser for a diagnosable system.

    Raises NonDiagnosableError when the twin-plant check refuses, and
    InitialStateInBallError when an initial state already lies inside the
    ball (the required initial decision 0 would then contradict the alarm
    semantics, so synthesis refuses rather than guess).
    """
    verdict = check_diagnosability(system, spec)
    if not verdict.diagnosable:
        raise NonDiagnosableError("system is not diagnosable for this fault spec")
    ball = system.ball_states(spec.faults, spec.rho)
    if ball & set(system.initial):
        raise InitialStateInBallError(
            f"initial states {sorted(ball & set(system.initial))} lie inside the ball"
        )
    return Diagnoser(system, spec, ball, verdict.delta)


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
    ball = diag.ball
    delta = diag.delta
    horizon = horizon if horizon is not None else delta + 2 * system.n_states + 4
    ids = system.output_ids
    ptr, cls, succ = system.successor_groups
    rows = [sorted(succ[a:b]) for a, b in zip(ptr, ptr[1:])]  # ascending successors
    checked_alarm = checked_window = viol_alarm = viol_window = 0

    for _ in range(n_runs):
        s = int(rng.choice(system.initial))
        run = [s]
        for _ in range(horizon):
            succs = rows[run[-1]]
            if not succs:
                break
            run.append(int(succs[rng.integers(0, len(succs))]))

        beliefs = []
        belief, decision = diag._start(ids[run[0]], system.outputs[run[0]])
        beliefs.append(belief)
        alarm_at = None if decision == 0 else 0
        for t in range(1, len(run)):
            belief, decision = diag._step(belief, ids[run[t]], system.outputs[run[t]])
            beliefs.append(belief)
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
            consistent = [frozenset(s for s, _ in b) for b in beliefs[: alarm_at + 1]]
            for t in range(alarm_at - 1, -1, -1):
                c, nxt = ids[run[t + 1]], consistent[t + 1]
                consistent[t] = frozenset(
                    s
                    for s in consistent[t]
                    if any(cls[k] == c and succ[k] in nxt for k in range(ptr[s], ptr[s + 1]))
                )
            if not any(consistent[t] & ball for t in range(lo, alarm_at + 1)):
                viol_window += 1
    return ContractReport(n_runs, checked_alarm, checked_window, viol_alarm, viol_window)
