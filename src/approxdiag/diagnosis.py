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
from .finsys import FiniteSystem, _check_states, _to_rho
from .rational import to_rational

BRUTE_MAX_STATES = 64
BRUTE_MAX_HORIZON = 24

# A check whose pair space n*n holds at least this many pairs expands every
# twin-plant BFS level as one numpy join; a smaller one (every desk-scale
# system) runs the scalar `moves` loop, which is faster there.  The two
# paths cost the same at about 22 states (random systems, 3 inputs, 2 classes).
_JOIN_MIN_PAIRS = 1 << 9
# Left rows (frontier pair x successor of its left state) joined at once, so
# the join's arrays stay small whatever the level size.
_JOIN_CHUNK = 1 << 14
# Pairs (a successor of an initial state x a matching ball-free successor)
# the seed level joins at once, cut only between initial states.
_SEED_CHUNK = 1 << 14
# Longest table the join allocates: its output-matched pairs and its
# (state, class) keys must both fit, else the check runs the scalar loop.
_PAIR_CAP = 1 << 25


@dataclass(frozen=True)
class FaultSpec:
    """Fault state indices plus the ball radius rho (stored exactly, by
    ``to_exact``)."""

    faults: frozenset[int]
    rho: int | Fraction

    @staticmethod
    def of(faults, rho) -> "FaultSpec":
        return FaultSpec(frozenset(int(i) for i in faults), _to_rho(rho))

    def validate(self, system: FiniteSystem):
        _check_states(self.faults, system.n_states, "fault", FaultSpecError)
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

    # The same relation as flat index arrays, when n*n is large enough for
    # whole levels to expand in one join and the join's tables fit the cap.
    tables = _join_tables(system) if _JOIN_MIN_PAIRS <= n * n else None
    join = None if tables is None else _PairJoin(system, ball, faults, tables)

    # Breadth-first search from the pair codes `frontier`: the predecessor of
    # each pair reached (-1 in `frontier`), by code in a dict or by compact id
    # in an array on the join path, and the pair count.  Pairs whose left
    # state is faulty go to `stop` instead, when given.  A frontier given with
    # `initial` is their output-matched pairs, expanded by class products.
    def explore(frontier, stop=None, initial=None):
        if join is None:
            parent = dict.fromkeys(frontier, -1)
            frontier = list(parent)
            while frontier:
                nxt = []
                for code in frontier:
                    for tgt in moves(code):
                        if stop is not None and tgt // n in faults:
                            stop.setdefault(tgt, code)
                        elif tgt not in parent:
                            parent[tgt] = code
                            nxt.append(tgt)
                frontier = nxt
            return parent, len(parent)
        seen = join.bitmap(frontier)
        parent = np.empty(len(seen), dtype=np.int64)  # read only where seen
        parent[seen] = -1
        while len(frontier):
            nxt = []
            chunks = join.level(frontier, seen) if initial is None else join.seed(initial, seen)
            initial = None
            for tgt, par, cid in chunks:
                if stop is not None:
                    hit = join.faulty[tgt // n]
                    stop.update(zip(tgt[hit].tolist(), par[hit].tolist()))
                    tgt, par, cid = tgt[~hit], par[~hit], cid[~hit]
                parent[cid] = par
                nxt.append(tgt)
            frontier = np.concatenate(nxt) if nxt else ()
        return parent, int(np.count_nonzero(seen)) - len(stop or ())

    # Phase A: pairs with no fault seen on the left and no ball visit on the
    # right, reached from output-matched initial pairs.
    if join is not None:
        start = join.initial_pairs(system.initial)
    else:
        safe_initial: dict[int, list[int]] = {}  # class id -> ball-free initial states
        for j in system.initial:
            if j not in ball:
                safe_initial.setdefault(ids[j], []).append(j)
        start = [i * n + j for i in system.initial for j in safe_initial.get(ids[i], ())]
    entries: dict[int, int] = {}  # region entry -> predecessor in phase A
    a_parent, a_pairs = explore(start, entries, system.initial)
    if not entries:
        return Verdict(True, delta=1, stats={"region_states": 0, "phase_a_pairs": a_pairs})

    # Phase B: region = fault-seen x safe-so-far pairs, explored from the
    # entries; within the region only the ball constraint remains.
    b_parent, b_pairs = explore(list(entries))
    stats = {"region_states": b_pairs, "phase_a_pairs": a_pairs}
    key = int if join is None else join.index  # pair code -> parent table index

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
                    witness = _unroll_witness(a_parent, entries, b_parent, cycle, n, key)
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
    succ)`` as its int64 ``successor_arrays``, rows in the order the scalar
    `moves` reads them.
    Right side: the ball-free successors of every state, sorted by
    ``state * C + class`` and then by successor, with a dense start table
    over those keys, so a left row's matching right range is two lookups.
    `level` joins a frontier pair by pair; `seed` expands the seed level by
    per-class products, with the same result.
    Every pair the twin plant reaches is output-matched: (i, j) of class c
    has the compact id ``off[i] + rank[j]`` in ``range(pairs)``, the sum of
    n_c**2 (rank[j]: j's position in c; off[i]: the pairs of earlier classes
    plus rank[i] * n_c), which indexes visited flags and parents."""

    def __init__(self, system: FiniteSystem, ball: frozenset[int], faults: frozenset[int], tables):
        n = self.n = system.n_states
        n_classes = self.n_classes = len(system.class_of)
        sizes, self.pairs, n_keys = tables  # as `_join_tables(system)` gives them
        self.ptr, self.cls, self.succ = system.successor_arrays
        self.ids = np.array(system.output_ids, dtype=np.int64)
        keys = np.repeat(np.arange(n, dtype=np.int64) * n_classes, np.diff(self.ptr)) + self.cls
        self.in_ball = np.zeros(n, dtype=bool)
        self.in_ball[list(ball)] = True
        self.faulty = np.zeros(n, dtype=bool)
        self.faulty[list(faults)] = True
        safe = ~self.in_ball[self.succ]
        keys = keys[safe]
        # A stable sort keeps each (state, class) group's members ascending.
        self.right = self.succ[safe][np.argsort(keys, kind="stable")]
        self.start = np.zeros(n_keys + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys, minlength=n_keys), out=self.start[1:])
        firsts = np.cumsum(sizes) - sizes  # each class's first position in class order
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[np.argsort(self.ids, kind="stable")] = np.arange(n) - np.repeat(firsts, sizes)
        square = sizes * sizes
        self.off = (np.cumsum(square) - square)[self.ids] + self.rank * sizes[self.ids]
        self.succ_off, self.right_rank = self.off[self.succ], self.rank[self.right]
        self.scratch = np.empty(max(self.pairs, n_keys), dtype=np.int64)  # for `_firsts`

    def index(self, codes):
        """Compact ids of output-matched pair codes."""
        i, j = np.divmod(np.asarray(codes, dtype=np.int64), self.n)
        return self.off[i] + self.rank[j]

    def bitmap(self, codes) -> np.ndarray:
        """Visited flags over the compact ids, set for the given pair codes."""
        seen = np.zeros(self.pairs, dtype=bool)
        seen[self.index(codes)] = True
        return seen

    def level(self, frontier, seen: np.ndarray):
        """Yield, one chunk of at most _JOIN_CHUNK left rows at a time, the
        `_admit` arrays of the pairs the scalar loop over `frontier` reaches
        first, in its order, skipping and then marking `seen`."""
        n = self.n
        codes = np.asarray(frontier, dtype=np.int64)
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
            row, right = _ranges(self.start[keys], self.start[keys + 1])
            left = left[row]
            cid = self.succ_off[left] + self.right_rank[right]
            new = ~seen[cid]
            tgt = self.succ[left[new]] * n + self.right[right[new]]
            yield self._admit(cid[new], tgt, codes[pair[row[new]]], seen)

    def initial_pairs(self, initial) -> np.ndarray:
        """Codes of the output-matched initial pairs, each distinct initial a
        with each distinct ball-free initial b of its class, by (a, b) position."""
        init = np.asarray(initial, dtype=np.int64)
        (a,) = _firsts(init, self.scratch, init)
        b = a[~self.in_ball[a]]
        b = b[np.argsort(self.ids[b], kind="stable")]  # by class, then position
        ca, cb = self.ids[a], self.ids[b]
        owner, m = _ranges(np.searchsorted(cb, ca), np.searchsorted(cb, ca, side="right"))
        return a[owner] * self.n + b[m]

    def seed(self, initial, seen: np.ndarray):
        """Yield what `level` yields for the frontier of output-matched
        initial pairs: each state of `initial` with every ball-free one of
        its class, both in order of first occurrence.

        With I_c and J_c the initial and the ball-free initial states of
        class c, that frontier is the union over c of I_c x J_c, ordered by
        left then right position.  The first of its pairs to reach (i', j')
        is (a, b): a the earliest state of I_c whose row holds i', b the
        earliest state of J_c whose ball-free successors hold j', for the
        class c whose a comes first.  So each class joins only its distinct
        successors, each kept with its earliest owner, on (class, successor
        class), and the new targets are admitted in order of (a, b, rank of
        i' in a's row, rank of j' in b's group of its class).  A chunk joins
        the rows of whole initial states, at most _SEED_CHUNK pairs unless
        one state has more, so the chunks extend that order."""
        n, n_classes = self.n, self.n_classes
        init = np.asarray(initial, dtype=np.int64)
        (a,) = _firsts(init, self.scratch, init)
        b = a[~self.in_ball[a]]
        ca, cb = self.ids[a], self.ids[b]
        # Left: a's position and each successor in a's row; right: b's
        # position and each ball-free successor of b, grouped by class.
        pa, i_next = self._first_members(self.ptr[a], self.ptr[a + 1], self.succ, ca)
        pb, j_next = self._first_members(
            self.start[b * n_classes], self.start[(b + 1) * n_classes], self.right, cb
        )
        # Right members grouped by (class, successor class); a stable sort
        # keeps each group in order of (b's position, rank).
        r_keys = cb[pb] * n_classes + self.ids[j_next]
        by_key = np.argsort(r_keys, kind="stable")
        pb, j_next, r_keys = pb[by_key], j_next[by_key], r_keys[by_key]
        l_keys = ca[pa] * n_classes + self.ids[i_next]
        lo, hi = np.searchsorted(r_keys, l_keys), np.searchsorted(r_keys, l_keys, side="right")
        i_off, j_rank = self.off[i_next], self.rank[j_next]
        i_next *= n
        rows_of = np.searchsorted(pa, np.arange(len(a) + 1))  # a[p]'s rows: rows_of[p]:rows_of[p+1]
        joined = np.concatenate(([0], np.cumsum(hi - lo)))[rows_of]  # pairs joined before a[p]
        p = 0
        while p < len(a):
            q = max(p + 1, int(np.searchsorted(joined, joined[p] + _SEED_CHUNK, side="right")) - 1)
            first, last = rows_of[p], rows_of[q]
            row, m = _ranges(lo[first:last], hi[first:last])
            row += first
            cid = i_off[row] + j_rank[m]
            new = ~seen[cid]
            row, m, cid = row[new], m[new], cid[new]
            tgt = i_next[row] + j_next[m]
            # Rows come in order of (a, rank of i'), and each row's matches in
            # order of (b, rank of j'): a stable sort on (a, b) gives the
            # scalar loop's order.
            order = np.argsort(pa[row] * len(b) + pb[m], kind="stable")
            par = a[pa[row]] * n + b[pb[m]]
            yield self._admit(cid[order], tgt[order], par[order], seen)
            p = q

    def _admit(self, cid, tgt, par, seen):
        """The (target, parent, compact id) entries, targets new to `seen`,
        kept each at its target's first occurrence; marks those targets seen."""
        cid, tgt, par = _firsts(cid, self.scratch, cid, tgt, par)
        seen[cid] = True
        return tgt, par, cid

    def _first_members(self, lo, hi, members, classes):
        """The (owner, member) entries of the member ranges lo[p]:hi[p], in
        order, each kept where its (classes[owner], member) first occurs."""
        owner, member = _ranges(lo, hi)
        member = members[member]
        keys = classes[owner] * self.n
        keys += member
        return _firsts(keys, self.scratch, owner, member)


def _join_tables(system: FiniteSystem):
    """The output class sizes and the `_PairJoin` table lengths they set, the
    sum of n_c**2 and n * C; None when either length exceeds `_PAIR_CAP`."""
    sizes = np.bincount(system.output_ids, minlength=len(system.class_of))
    tables = sizes, int(sizes @ sizes), system.n_states * len(sizes)
    return tables if max(tables[1:]) <= _PAIR_CAP else None


def _ranges(lo, hi):
    """The owner and the index of every entry of the index ranges
    lo[p]:hi[p], taken in order."""
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    at = (lo - np.cumsum(counts) + counts)[owner]
    at += np.arange(len(owner))
    return owner, at


def _firsts(keys, scratch, *arrays):
    """The arrays restricted to the first occurrence of each key, in order;
    `scratch`, an int64 array longer than every key, is overwritten."""
    at = np.arange(len(keys))
    scratch[keys] = len(keys)
    np.minimum.at(scratch, keys, at)  # each key's first position
    keep = scratch[keys] == at
    return tuple(x[keep] for x in arrays)


def _unroll_witness(a_parent, entries, b_parent, cycle, n, key):
    """Entry path + twice-unrolled region cycle, decoded into two runs.  A
    parent table maps key(code) to the code of its predecessor, -1 at a root."""
    path = [cycle[0]]
    while (node := int(b_parent[key(path[-1])])) >= 0:
        path.append(node)
    path.reverse()  # entry .. cycle[0]
    prefix = [entries[path[0]]]
    while (node := int(a_parent[key(prefix[-1])])) >= 0:
        prefix.append(node)
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


def _advance(mask: int, row: dict) -> int:
    """Successors, through one class row of ``FiniteSystem.class_steps``, of
    the states in mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= row.get(low.bit_length() - 1, 0)
        mask ^= low
    return acc


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _fraction_repr(values) -> str:
    return repr(tuple(map(to_rational, values)))


def _find_run(system, stream, start_set, end_state, upto, *, forbidden=frozenset(), need_fault=None):
    """Backtracking search for one run consistent with stream[0..upto] (a
    stream of output class ids) that ends at end_state, avoids
    ``forbidden`` and, when need_fault is given, visits it at least once.
    Desk-scale helper for witness assembly."""

    steps = system.class_steps[1]

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
        for j in _bits(steps[stream[t + 1]].get(state, 0)):
            got = rec(t + 1, j, seen, path)
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


class Belief:
    """The diagnoser's state as two state masks, bit i standing for state i:
    ``seen`` holds the states some consistent run reaches after meeting the
    ball, ``free`` those some consistent run reaches still ball-free.  It
    reads as the set of (state, visited_ball) pairs: its length counts them
    and iterating yields them."""

    __slots__ = ("seen", "free")

    def __init__(self, seen: int, free: int):
        self.seen, self.free = seen, free

    def __len__(self) -> int:
        return self.seen.bit_count() + self.free.bit_count()

    def __iter__(self):
        yield from ((s, False) for s in _bits(self.free))
        yield from ((s, True) for s in _bits(self.seen))


@dataclass(frozen=True)
class Diagnoser:
    """Deterministic belief automaton over output symbols.

    The belief after an observation prefix holds every state consistent
    with the prefix, tagged False when some consistent run reaching it has
    avoided the ball so far; it alarms when none is.  The initial decision
    is 0 by construction because synthesis rejects initial states in the ball.
    """

    system: FiniteSystem
    spec: FaultSpec
    ball: frozenset[int]
    delta: int

    def __post_init__(self):
        # What each observation reads: it is interned into its class id once,
        # then stepped over the ball and the per-class successor-mask table.
        init, steps = self.system.class_steps
        self.__dict__.update(
            _class_of=self.system.class_of, _ball=_mask(self.ball), _init=init, _steps=steps
        )

    def start(self, y) -> tuple[Belief, int]:
        init = self._init.get(self._class_of.get(y))
        if not init:
            raise InfeasibleObservationError(f"no initial state produces output {_shown(y)}")
        free = init & ~self._ball
        return Belief(init & self._ball, free), int(not free)

    def step(self, belief: Belief, y) -> tuple[Belief, int]:
        row = self._steps.get(self._class_of.get(y)) or {}  # {}: an output no state produces
        ball = self._ball
        free = _advance(belief.free, row)
        seen = _advance(belief.seen, row) | free & ball
        if not (seen or free):
            raise InfeasibleObservationError(f"no consistent run produces output {_shown(y)}")
        free &= ~ball
        return Belief(seen, free), int(not free)


def _shown(y):
    """An observed value as error messages print it: each exact component
    as a Fraction, whether an int or a Fraction holds it."""
    if type(y) is not tuple:
        return y
    return tuple(Fraction(v) if type(v) is int else v for v in y)


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
