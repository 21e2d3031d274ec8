"""Slow reference implementations the tests compare the program against.

These are the straightforward forms of what the library computes on
integer output classes: outputs are compared as exact Fraction tuples and
the ball is taken from exact rational distances.  They are oracles, not
library code.
"""

from __future__ import annotations

from dataclasses import dataclass

from approxdiag.diagnosis import Diagnoser, FaultSpec, Verdict, _unroll_witness
from approxdiag.finsys import FiniteSystem, _to_rho


def exact_ball(system: FiniteSystem, fault, rho) -> frozenset[int]:
    """Closed infinity-norm ball around the fault states, from exact
    rational distances between embeddings."""
    r = _to_rho(rho)
    fault = frozenset(fault)
    return frozenset(
        i for i in range(system.n_states) if any(system.distance(i, j) <= r for j in fault)
    )


def successors_by_value(system: FiniteSystem, i: int) -> dict:
    """Input-erased successors of i grouped by their output value."""
    groups: dict = {}
    for j in system.successors_any(i):
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
    a_parent: dict[int, int | None] = {}
    entries: dict[int, int | None] = {}
    frontier = []
    for i, j in roots:
        code = enc(i, j)
        if code not in a_parent:
            a_parent[code] = None
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

    b_parent: dict[int, int | None] = {code: None for code in entries}
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
                    witness = _unroll_witness(system, a_parent, entries, b_parent, cycle, n)
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
    ids = s.output_ids
    pairs = [
        (i, j) for i in range(s.n_states) for j in range(s.n_states) if ids[i] == ids[j]
    ]
    index = {pair: k for k, pair in enumerate(pairs)}
    initial = tuple(index[(i, j)] for i in s.initial for j in s.initial if ids[i] == ids[j])
    succ_rows = []
    for i, j in pairs:
        si = s.successors_by_output(i)
        sj = s.successors_by_output(j)
        targets = sorted(
            index[(a, b)]
            for cls, alist in si.items()
            if cls in sj
            for a in alist
            for b in sj[cls]
        )
        succ_rows.append((tuple(targets),))
    states = tuple(s.states[i] + s.states[j] for i, j in pairs)
    outputs = tuple(s.outputs[i] for i, j in pairs)
    product = FiniteSystem(states, initial, ("*",), tuple(succ_rows), outputs, s.p)
    return TwinProduct(product, tuple(pairs))


def diagnoser_step(diag: Diagnoser, belief, y):
    """Online evaluation: advance the belief by one observed output."""
    return diag.step(belief, y)
