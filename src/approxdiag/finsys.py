"""Finite metric transition systems with embedded states.

States carry exact rational embeddings: abstraction states embed as
2*theta*coords with theta converted exactly to Fraction, hand-written
automata supply rational embeddings directly.  Every value is held by
``rational.to_exact``: a Python int when integral, a Fraction otherwise.
Output equality, ball membership and the twin-plant synchronization below
therefore never compare floats.  Outputs are interned once, by exact
equality, into integer output classes; everything that synchronizes on
outputs compares class ids.

Hand-written systems may be nondeterministic; abstractions are
deterministic by construction.  Two systems can share embeddings between
distinct states; fault sets are specified by state index, not by region,
precisely so that case stays unambiguous.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError, DomainError, FaultSpecError
from .lattice import _GRID_CAP, embed_exact, quantize
from .rational import as_int, to_exact, to_rational
from .report import canonical_json

SCHEMA_VERSION = 1


def _index(v) -> int:
    """An integer field of a model file, by ``as_int``; a JSON int, by far
    the most common value, skips the call."""
    return v if type(v) is int else as_int(v, DomainError, "expected an integer")


def _fraction_json(v: int | Fraction):
    return v if type(v) is int else f"{v.numerator}/{v.denominator}"


class _View:
    """An attribute computed by ``_VIEWS[name]`` on first read and then kept
    in the instance dict, which shadows this non-data descriptor.  Read on
    the class it gives its default, so a dataclass field declared with it
    has that default, or raises AttributeError when there is none."""

    def __init__(self, *default):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, system, owner=None):
        if system is None:
            if self.default:
                return self.default[0]
            raise AttributeError(self.name)
        value = system.__dict__[self.name] = _VIEWS[self.name](system)
        return value


@dataclass(frozen=True)
class FiniteSystem:
    """Finite system S = (X, X0, U, ->, Y, H) with infinity-norm metric."""

    states: tuple[tuple[int | Fraction, ...], ...] = _View()
    initial: tuple[int, ...]
    inputs: tuple = _View()
    succ: tuple[tuple[tuple[int, ...], ...], ...] = _View()  # succ[state][input] sorted
    outputs: tuple[tuple[int | Fraction, ...], ...] = _View()
    p: int
    # Lattice provenance, present when built by the abstraction engine.
    state_theta: float | None = None
    input_theta: float | None = None
    state_coords: tuple[tuple[int, ...], ...] | None = _View(None)
    input_coords: tuple[tuple[int, ...], ...] | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        """Validate, hold every state and output value by ``to_exact``, then
        derive the integer tables every finite-system algorithm reads.  They
        are plain attributes, not fields, so they take no part in equality
        and dataclasses.replace rebuilds them:

        * ``class_of``: output value -> class id, numbered in order of
          first appearance (interning by exact equality);
        * ``output_ids``: the class id of every state;
        * ``successor_groups``: the class-grouped successor CSR ``(ptr, cls,
          succ)`` of Python-int lists: row i, ``ptr[i]:ptr[i+1]``, holds the
          distinct successors of i and their class ids, grouped by class,
          groups in order of their smallest member, members ascending; its
          ``successor_arrays`` (ptr in int64, ids in int32) are derived when read."""
        ns = len(self.states)
        if len(self.succ) != ns or len(self.outputs) != ns:
            raise DimensionMismatchError("states, succ and outputs must align")
        _check_states(self.initial, ns, "initial")
        try:
            states = tuple(tuple(map(to_exact, row)) for row in self.states)
            outputs = tuple(tuple(map(to_exact, row)) for row in self.outputs)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"state and output values must be rational: {exc}") from exc
        class_of: dict = {}
        ids = tuple(class_of.setdefault(out, len(class_of)) for out in outputs)
        n_inputs = len(self.inputs)
        ptr, flat = [0], []
        for row in self.succ:
            if len(row) != n_inputs:
                raise DimensionMismatchError("successor rows must cover every input")
            succs = sorted(set().union(*row))
            if succs and not (0 <= succs[0] and succs[-1] < ns):
                bad = next(j for targets in row for j in targets if not 0 <= j < ns)
                raise DomainError(f"successor index {bad} out of range")
            groups: dict = {}
            for j in succs:
                groups.setdefault(ids[j], []).append(j)
            flat += [j for js in groups.values() for j in js]
            ptr.append(len(flat))
        cls = [ids[j] for j in flat]
        self.__dict__.update(
            states=states,
            outputs=outputs,
            class_of=class_of,
            output_ids=ids,
            successor_groups=(ptr, cls, flat),
            _balls={},
        )

    # Views derived on first read; a lattice-backed model stores the first three.
    successor_matrix = _View()
    successor_arrays = _View()
    _coords = _View()
    successor_groups = _View()
    class_steps = _View()

    @property
    def n_states(self) -> int:
        return len(self.output_ids)

    # -- run machinery ---------------------------------------------------

    def is_run(self, run) -> bool:
        if not run or run[0] not in self.initial:
            return False
        ptr, _, succ = self.successor_arrays
        return all(b in succ[ptr[a] : ptr[a + 1]].tolist() for a, b in zip(run, run[1:]))

    def distance(self, i: int, j: int) -> int | Fraction:
        return max((abs(a - b) for a, b in zip(self.states[i], self.states[j])), default=0)

    @staticmethod
    def on_lattice(
        state_coords, state_theta, input_coords, input_theta, initial, successors, p, meta
    ) -> "FiniteSystem":
        """Lattice-backed model from its integer form: ``successors`` is the
        (states x inputs) successor matrix.  Every state embeds exactly as
        2*state_theta*coords, outputs are the first p state components and
        inputs embed as 2*input_theta*coords, each value held by
        ``to_exact`` as in a hand-written system; the lattice ball below
        relies on this embedding.

        The integer tables are derived with numpy from the matrix and the
        int64 coordinate array (``state_coords`` may already be one), state
        ids in int32 (an int32 matrix is kept); model files do not change.
        ``states``, ``inputs``, ``outputs``, ``succ``, ``successor_groups`` and
        the ``state_coords`` tuples are computed from them only when read."""
        coords = _coord_array(state_coords)
        ns, n_inputs = len(coords), len(input_coords)
        try:
            matrix = np.asarray(successors, dtype=getattr(successors, "dtype", np.int64))
        except OverflowError as exc:
            raise DomainError(f"successor index out of range: {exc}") from exc
        if len(matrix) != ns:
            raise DimensionMismatchError("states, succ and outputs must align")
        if ns and matrix.shape != (ns, n_inputs):
            raise DimensionMismatchError("successor rows must cover every input")
        matrix = matrix.reshape(ns, n_inputs)
        _check_states(initial, ns, "initial")
        if matrix.size and not (0 <= matrix.min() and matrix.max() < ns):
            bad = matrix[(matrix < 0) | (matrix >= ns)][0]
            raise DomainError(f"successor index {bad} out of range")
        matrix = matrix.astype(np.int32, copy=False)
        system = object.__new__(FiniteSystem)
        system.__dict__.update(
            initial=initial,
            p=p,
            state_theta=state_theta,
            input_theta=input_theta,
            input_coords=input_coords,
            meta=meta,
            successor_matrix=matrix,
            _coords=coords,
        )
        # Output classes in order of first appearance, keyed by the exact
        # output value of their first member.
        _, first, inverse = np.unique(
            coords[:, :p], axis=0, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        ids = np.argsort(order).astype(np.int32)[inverse.reshape(-1)]
        keys = embed_exact([coords[i, :p].tolist() for i in first[order].tolist()], state_theta)
        class_of = {key: k for k, key in enumerate(keys)}
        # Distinct successors of each row, ascending.  A stable sort on
        # (row, class) gives each entry the smallest member of its class
        # group, and a stable sort on (row, that member) orders the groups.
        ranked = np.sort(matrix, axis=1)
        keep = np.ones(ranked.shape, dtype=bool)
        np.not_equal(ranked[:, 1:], ranked[:, :-1], out=keep[:, 1:])
        counts, flat = np.count_nonzero(keep, axis=1), ranked[keep]
        del ranked, keep
        key = np.repeat(np.arange(ns) * len(class_of), counts) + ids[flat]
        by_class = np.argsort(key, kind="stable")
        key, flat = key[by_class], flat[by_class]
        at = np.maximum.accumulate(np.where(np.diff(key, prepend=-1) != 0, np.arange(len(key)), 0))
        succ = flat[np.argsort(key // len(class_of) * ns + flat[at], kind="stable")]
        arrays = (np.concatenate(([0], np.cumsum(counts))), ids[succ], succ)
        system.__dict__.update(
            class_of=class_of,
            output_ids=tuple(ids.tolist()),
            successor_arrays=arrays,
            _balls={},
        )
        return system

    def ball_states(self, fault: frozenset[int] | set[int], rho) -> frozenset[int]:
        """States within infinity-norm distance rho of the fault set (closed
        ball), computed once per (fault set, rho) and then reused; the fault
        set itself at rho = 0 when embeddings are injective.  A fault index
        outside range(n_states) is a FaultSpecError.

        Lattice-backed models (state_coords and state_theta set) embed every
        state as exactly 2*theta*coords, so membership is the exact integer
        test: Chebyshev coordinate distance at most floor(rho / (2*theta)).
        Other systems compare rational distances directly."""
        r = _to_rho(rho)
        fault = frozenset(fault)
        _check_states(fault, self.n_states, "fault", FaultSpecError)
        ball = self._balls.get((fault, r))
        if ball is None:
            if fault and self.state_theta is not None and self._coords is not None:
                ball = _lattice_ball(self._coords, fault, r // (2 * to_rational(self.state_theta)))
            if ball is None:
                ball = frozenset(
                    i
                    for i in range(self.n_states)
                    if any(self.distance(i, j) <= r for j in fault)
                )
            self._balls[(fault, r)] = ball
        return ball

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        if self.state_coords is not None:
            return {
                "kind": "abstraction-model",
                "schema": SCHEMA_VERSION,
                "p": self.p,
                "n": len(self.state_coords[0]) if self.state_coords else 0,
                "m": len(self.input_coords[0]) if self.input_coords else 0,
                "state_theta": self.state_theta,
                "input_theta": self.input_theta,
                "states": [list(c) for c in self.state_coords],
                "inputs": [list(c) for c in self.input_coords],
                "initial": list(self.initial),
                "successors": self.successor_matrix.tolist(),
                **self.meta,
            }
        return {
            "kind": "finite-system",
            "schema": SCHEMA_VERSION,
            "p": self.p,
            "raw_states": [[_fraction_json(v) for v in s] for s in self.states],
            "raw_outputs": [[_fraction_json(v) for v in o] for o in self.outputs],
            "inputs": list(self.inputs),
            "initial": list(self.initial),
            "transitions": [
                [i, u, j]
                for i, row in enumerate(self.succ)
                for u, targets in enumerate(row)
                for j in targets
            ],
            **self.meta,
        }

    def save(self, path: str):
        with open(path, "w") as fh:
            fh.write(canonical_json(self.to_json()))
            fh.write("\n")

    @staticmethod
    def from_json(doc: dict) -> "FiniteSystem":
        """Model from its JSON document; malformed content raises DomainError."""
        try:
            kind = doc.get("kind")
            if kind == "abstraction-model":
                states = tuple(tuple(map(_index, row)) for row in doc["states"])
                p = _index(doc["p"])
                if p < 0 or any(len(row) < p for row in states):
                    raise DomainError(f"output dimension p = {p} does not fit the state rows")
                meta = {
                    k: doc[k]
                    for k in ("config_digest", "epsilon")
                    if k in doc and doc[k] is not None
                }
                return FiniteSystem.on_lattice(
                    states,
                    _theta(doc["state_theta"]),
                    tuple(tuple(map(_index, row)) for row in doc["inputs"]),
                    _theta(doc["input_theta"]),
                    tuple(map(_index, doc["initial"])),
                    [list(map(_index, row)) for row in doc["successors"]],
                    p,
                    meta,
                )
            if kind == "finite-system":
                # Rows go to the constructor as written: its to_exact reads
                # 0.4 in a JSON file as 2/5, not the binary float.
                outputs = doc["raw_outputs"]
                p = _index(doc["p"])
                if p < 0 or any(len(row) != p for row in outputs):
                    raise DomainError(f"output rows must have p = {p} components")
                inputs = tuple(doc["inputs"])
                states = doc["raw_states"]
                n_states, n_inputs = len(states), len(inputs)
                table = [[set() for _ in range(n_inputs)] for _ in range(n_states)]
                for i, u, j in doc["transitions"]:
                    i, u, j = _index(i), _index(u), _index(j)
                    if not (0 <= i < n_states and 0 <= u < n_inputs):
                        raise DomainError(f"transition {[i, u, j]} out of range")
                    table[i][u].add(j)
                succ = tuple(tuple(tuple(sorted(t)) for t in row) for row in table)
                return FiniteSystem(
                    states, tuple(map(_index, doc["initial"])), inputs, succ, outputs, p
                )
            raise DomainError(f"unknown model kind {kind!r}")
        except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed model file: {exc}") from exc

    @staticmethod
    def load(path: str) -> "FiniteSystem":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DomainError(f"model file {path} is not JSON: {exc}") from exc
        return FiniteSystem.from_json(doc)


def _to_rho(rho) -> int | Fraction:
    """The ball radius as an exact value; NaN, an infinity or a negative
    radius is a DomainError."""
    if isinstance(rho, float) and not math.isfinite(rho):
        raise DomainError(f"ball radius must be finite, got {rho}")
    r = to_exact(rho)
    if r < 0:
        raise DomainError("ball radius must be nonnegative")
    return r


def _lattice_ball(pts, fault: frozenset[int], k: int) -> frozenset[int] | None:
    """Indices of the coordinate rows within Chebyshev distance k of a fault
    row: the fault rows' cells in a bool array over the rows' index box,
    dilated by [x - k, x + k] clipped to the box along each axis in turn,
    read at every row's cell.  None when the box spans more than _GRID_CAP."""
    low = pts.min(axis=0)
    shape = [hi - lo + 1 for lo, hi in zip(low.tolist(), pts.max(axis=0).tolist())]
    if math.prod(shape) > _GRID_CAP:
        return None
    grid = np.zeros(shape, dtype=bool)
    grid[tuple((pts[list(fault)] - low).T)] = True  # offsets are exact below the cap
    for axis, size in enumerate(shape):
        reach, ahead = min(k, size - 1), np.moveaxis(grid, axis, 0)
        for line in (ahead, ahead[::-1]):  # widen toward higher indices, then lower
            done = 0
            while done < reach:  # line: the cells at most done past a fault cell
                shift = min(reach - done, done + 1)  # leaves no gap in the window
                line[shift:] |= line[:-shift]
                done += shift
    hit = np.broadcast_to(grid[tuple((pts - low).T)], len(pts))  # no axes: one cell
    return frozenset(np.flatnonzero(hit).tolist())


def _check_states(indices, n_states: int, what: str, error=DomainError):
    for i in indices:
        if not 0 <= i < n_states:
            raise error(f"{what} state index {i} out of range")


def _theta(v) -> float:
    """A lattice spacing field: a finite, positive JSON number."""
    if type(v) not in (int, float) or not (math.isfinite(v) and v > 0):
        raise DomainError(f"expected a finite positive number, got {v!r}")
    return float(v)


def _coord_array(rows) -> np.ndarray:
    """Integer coordinate rows as an (n, dim) int64 array."""
    try:
        pts = np.array(rows, dtype=np.int64)
    except OverflowError as exc:
        raise DomainError(f"lattice coordinates do not fit int64: {exc}") from exc
    except ValueError as exc:
        raise DimensionMismatchError("lattice coordinate rows differ in length") from exc
    return pts if len(rows) else pts.reshape(0, 0)


def _succ_view(s: FiniteSystem):
    singles = [(j,) for j in range(s.n_states)]
    return tuple(tuple(map(singles.__getitem__, row)) for row in s.successor_matrix.tolist())


def _matrix_view(s: FiniteSystem) -> np.ndarray:
    if any(len(t) != 1 for row in s.succ for t in row):
        raise DomainError("a successor matrix needs exactly one successor per state and input")
    flat = [t[0] for row in s.succ for t in row]
    return np.array(flat, dtype=np.int32).reshape(s.n_states, len(s.inputs))


def _class_steps_view(s: FiniteSystem):
    ptr, cls, succ = s.successor_groups
    steps: dict = {c: {} for c in range(len(s.class_of))}
    for i in range(s.n_states):
        for k in range(ptr[i], ptr[i + 1]):
            row = steps[cls[k]]
            row[i] = row.get(i, 0) | 1 << succ[k]
    init: dict = {}
    for i in s.initial:
        init[s.output_ids[i]] = init.get(s.output_ids[i], 0) | 1 << i
    return init, steps


def _coords_view(s: FiniteSystem) -> np.ndarray | None:
    try:
        return None if s.state_coords is None else _coord_array(s.state_coords)
    except (DomainError, DimensionMismatchError):
        return None


# How each _View attribute of FiniteSystem is computed.  The five fields and
# successor_groups are views only on lattice-backed models, which hold their
# integer form instead; every other system has them from its constructor.
_VIEWS = {
    "states": lambda s: embed_exact(s.state_coords, s.state_theta),
    "inputs": lambda s: embed_exact(s.input_coords, s.input_theta),
    "outputs": lambda s: tuple(x[: s.p] for x in s.states),
    "succ": _succ_view,
    "state_coords": lambda s: tuple(map(tuple, s._coords.tolist())),
    # (states x inputs) successor matrix of a deterministic system.
    "successor_matrix": _matrix_view,
    # successor_groups as arrays: ptr in int64, class and state ids in int32.
    "successor_arrays": lambda s: tuple(map(np.array, s.successor_groups, (np.int64, np.int32, np.int32))),
    "successor_groups": lambda s: tuple(a.tolist() for a in s.successor_arrays),
    # int64 state coordinates, or None when they overflow.
    "_coords": _coords_view,
    # Per-class successor masks (init, steps), bit i for state i: init[c] masks the
    # initial states of class c, steps[c][i] the class-c successors of i, if any.
    "class_steps": _class_steps_view,
}


def observation_symbol(s: FiniteSystem, values) -> tuple[int | Fraction, ...]:
    """Map an observed numeric output vector onto the system's own output
    value domain: via the output quantizer and ``embed_exact`` for
    lattice-backed models, via exact decimal conversion by ``to_exact`` for
    hand-written ones; either way held like the model's own output values."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise DomainError(f"an observation is a list of {s.p} numbers, got {values!r}")
    if len(values) != s.p:
        raise DimensionMismatchError(f"expected {s.p} output components")
    try:
        if s.state_theta is None:
            return tuple(map(to_exact, values))
        if any(isinstance(v, (bool, np.bool_)) for v in values):  # float(True) is 1.0
            raise TypeError("a boolean is not a number")
        point = tuple(float(v) for v in values)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(f"observation {values!r} is not numeric") from exc
    return embed_exact([quantize(point, s.state_theta)], s.state_theta)[0]
