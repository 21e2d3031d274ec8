"""Span recording around calls into approxdiag's public functions.

The benchmark traces the program from outside: while a `Tracer` is
installed, selected public functions of the `system`, `lattice`,
`abstraction`, `bridge`, `finsys` and `diagnosis` modules are replaced, in
every approxdiag module namespace that holds them, by wrappers that record
one span per call.  Leaving the `installed()` block restores the originals,
so the same process can alternate traced and untraced runs.

Per-point helpers (`step`, `quantize`, `quantize_index`, `successors_*`,
`distance`) are deliberately left unwrapped: they run hundreds of thousands
of times per verdict, and a span around each would measure the tracer.

A span is `[name, start, end, parent, count]`: `parent` is the index of the
enclosing span (-1 at top level) and `count` is what the span's counter
function extracted from the call's result (None without a counter).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, COUNT = range(5)


def _len(result):
    return len(result)


def _build_counts(system):
    return {
        "states": system.n_states,
        "inputs": len(system.inputs),
        "transitions": sum(len(t) for row in system.succ for t in row),
    }


def _conclude_counts(verdict):
    return {
        "fault_states": len(verdict.fault_indices),
        "dropped_fault_points": verdict.dropped_fault_points,
    }


def _check_counts(verdict):
    return {
        "phase_a_pairs": verdict.stats.get("phase_a_pairs", 0),
        "region_states": verdict.stats.get("region_states", 0),
    }


# (module, attribute path, span name, counter).  A dotted attribute path
# names a method, which is wrapped on its class.
TRACED = (
    ("approxdiag.system", "parse_system", "system.parse_system", None),
    ("approxdiag.lattice", "lattice_image", "lattice.lattice_image", _len),
    ("approxdiag.lattice", "lattice_points_in", "lattice.lattice_points_in", _len),
    ("approxdiag.abstraction", "build_abstraction", "abstraction.build_abstraction", _build_counts),
    ("approxdiag.bridge", "conclude", "bridge.conclude", _conclude_counts),
    ("approxdiag.bridge", "fault_lattice_dilated", "bridge.fault_lattice_dilated", _len),
    ("approxdiag.bridge", "fault_lattice_eroded", "bridge.fault_lattice_eroded", _len),
    ("approxdiag.bridge", "falsify_plant", "bridge.falsify_plant", None),
    ("approxdiag.finsys", "FiniteSystem.from_json", "finsys.from_json", None),
    ("approxdiag.finsys", "FiniteSystem.ball_states", "finsys.ball_states", _len),
    ("approxdiag.finsys", "observation_symbol", "finsys.observation_symbol", None),
    ("approxdiag.diagnosis", "check_diagnosability", "diagnosis.check_diagnosability", _check_counts),
    ("approxdiag.diagnosis", "brute_force_check", "diagnosis.brute_force_check", None),
    ("approxdiag.diagnosis", "synthesize_diagnoser", "diagnosis.synthesize_diagnoser", None),
    ("approxdiag.diagnosis", "Diagnoser.start", "diagnosis.Diagnoser.start", None),
    ("approxdiag.diagnosis", "Diagnoser.step", "diagnosis.Diagnoser.step", None),
)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        """Record a span around a block (used for the benchmark's root span)."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._clock(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][END] = self._clock()
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx][COUNT] = counter(result)
            return result

        return traced

    @contextmanager
    def installed(self, table=TRACED):
        """Swap in wrappers for every entry of ``table``; restore on exit."""
        undo = []
        try:
            for module_name, attr, name, counter in table:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    if isinstance(original, staticmethod):
                        wrapped = staticmethod(self.wrap(name, original.__func__, counter))
                    else:
                        wrapped = self.wrap(name, original, counter)
                    setattr(cls, meth, wrapped)
                    undo.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(name, original, counter)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "approxdiag" and getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


# -- span arithmetic ----------------------------------------------------------


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(lo, s[START]), min(hi, s[END])) for lo, hi in kids]
        out.append((s[END] - s[START]) - _covered([iv for iv in clipped if iv[1] > iv[0]]))
    return out


class SpanSummary:
    """Per-name totals of one traced run: wall and self seconds, call and
    result counts, optionally restricted by the name of the parent span."""

    def __init__(self, spans):
        self.spans = spans
        self.selfs = self_times(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[NAME], []).append(i)

    def _select(self, name, parent=None):
        for i in self.by_name.get(name, ()):
            s = self.spans[i]
            if parent is not None and (s[PARENT] < 0 or self.spans[s[PARENT]][NAME] != parent):
                continue
            yield i, s

    def wall(self, name, parent=None) -> float:
        return sum(s[END] - s[START] for _, s in self._select(name, parent))

    def self_time(self, name) -> float:
        return sum(self.selfs[i] for i, _ in self._select(name))

    def calls(self, name) -> int:
        return sum(1 for _ in self._select(name))

    def count(self, name, key=None) -> int:
        """Sum of the counter results of every span of that name."""
        total = 0
        for _, s in self._select(name):
            c = s[COUNT]
            if c is not None:
                total += c[key] if key is not None else c
        return total
