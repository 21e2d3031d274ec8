"""Finite metric transition systems with embedded states.

States carry exact rational embeddings: abstraction states embed as
2*theta*coords with theta converted exactly to Fraction, hand-written
automata supply rational embeddings directly.  Output equality, ball
membership and the twin-plant synchronization below therefore never
compare floats.  Outputs are interned once, by exact equality, into
integer output classes; everything that synchronizes on outputs compares
class ids.

Hand-written systems may be nondeterministic; abstractions are
deterministic by construction.  Two systems can share embeddings between
distinct states; fault sets are specified by state index, not by region,
precisely so that case stays unambiguous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .lattice import quantize
from .rational import to_rational
from .report import canonical_json

SCHEMA_VERSION = 1

# Coordinate differences held at once by the lattice ball (states x fault
# chunk x dimension), so its memory stays flat in the fault-set size.
_BALL_CHUNK = 1 << 15
# Coordinates below this magnitude have differences that fit in int64.
_COORD_LIMIT = 1 << 62


def _fraction_json(v: Fraction):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class FiniteSystem:
    """Finite system S = (X, X0, U, ->, Y, H) with infinity-norm metric."""

    states: tuple[tuple[Fraction, ...], ...]
    initial: tuple[int, ...]
    inputs: tuple
    succ: tuple[tuple[tuple[int, ...], ...], ...]  # succ[state][input] sorted
    outputs: tuple[tuple[Fraction, ...], ...]
    p: int
    # Lattice provenance, present when built by the abstraction engine.
    state_theta: float | None = None
    input_theta: float | None = None
    state_coords: tuple[tuple[int, ...], ...] | None = None
    input_coords: tuple[tuple[int, ...], ...] | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        """Validate, then derive the integer tables every finite-system
        algorithm reads.  They are plain attributes, not fields, so they
        take no part in equality and dataclasses.replace rebuilds them:

        * ``class_of``: output value -> class id, numbered in order of
          first appearance (interning by exact equality);
        * ``output_ids``: the class id of every state;
        * ``successors_any``: per state, its sorted distinct successors
          under any input;
        * ``successors_by_output``: per state, those successors grouped by
          class id, groups in the order of their first member."""
        ns = len(self.states)
        if len(self.succ) != ns or len(self.outputs) != ns:
            raise DimensionMismatchError("states, succ and outputs must align")
        for i in self.initial:
            if not 0 <= i < ns:
                raise DomainError(f"initial state index {i} out of range")
        class_of: dict = {}
        ids = tuple(class_of.setdefault(out, len(class_of)) for out in self.outputs)
        n_inputs = len(self.inputs)
        # States with equal successor sets share one group dict.
        tables: dict = {}
        succ_any = []
        by_output = []
        for row in self.succ:
            if len(row) != n_inputs:
                raise DimensionMismatchError("successor rows must cover every input")
            succs = tuple(sorted(set().union(*row)))
            if succs and not (0 <= succs[0] and succs[-1] < ns):
                bad = next(j for targets in row for j in targets if not 0 <= j < ns)
                raise DomainError(f"successor index {bad} out of range")
            groups = tables.get(succs)
            if groups is None:
                groups = tables[succs] = {}
                for j in succs:
                    groups.setdefault(ids[j], []).append(j)
                for c, js in groups.items():
                    groups[c] = succs if len(groups) == 1 else tuple(js)
            succ_any.append(succs)
            by_output.append(groups)
        self.__dict__.update(
            class_of=class_of,
            output_ids=ids,
            successors_any=tuple(succ_any),
            successors_by_output=tuple(by_output),
            _balls={},
        )

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def deterministic(self) -> bool:
        return all(len(t) <= 1 for row in self.succ for t in row)

    # -- run machinery ---------------------------------------------------

    def is_run(self, run) -> bool:
        if not run or run[0] not in self.initial:
            return False
        return all(b in self.successors_any[a] for a, b in zip(run, run[1:]))

    def distance(self, i: int, j: int) -> Fraction:
        return max(abs(a - b) for a, b in zip(self.states[i], self.states[j]))

    @staticmethod
    def on_lattice(
        state_coords, state_theta, input_coords, input_theta, initial, succ, p, meta
    ) -> "FiniteSystem":
        """Lattice-backed model: every state embeds exactly as
        2*state_theta*coords (Fractions), outputs are the first p state
        components and inputs embed as 2*input_theta*coords.  The lattice
        ball below relies on this embedding."""
        two_theta = 2 * to_rational(state_theta)
        states = tuple(tuple(two_theta * c for c in row) for row in state_coords)
        two_mu = 2 * to_rational(input_theta)
        return FiniteSystem(
            states,
            initial,
            tuple(tuple(two_mu * c for c in row) for row in input_coords),
            succ,
            tuple(s[:p] for s in states),
            p,
            state_theta=state_theta,
            input_theta=input_theta,
            state_coords=state_coords,
            input_coords=input_coords,
            meta=meta,
        )

    def ball_states(self, fault: frozenset[int] | set[int], rho) -> frozenset[int]:
        """States within infinity-norm distance rho of the fault set
        (closed ball); equals the fault set at rho = 0 when embeddings are
        injective.  Computed once per (fault set, rho) and then reused.

        Lattice-backed models (state_coords and state_theta set) embed every
        state as exactly 2*theta*coords, so membership is the exact integer
        test: Chebyshev coordinate distance at most floor(rho / (2*theta)).
        Other systems compare rational distances directly."""
        r = _to_rho(rho)
        fault = frozenset(fault)
        ball = self._balls.get((fault, r))
        if ball is None:
            if not fault:
                ball = frozenset()
            elif self.state_coords is not None and self.state_theta is not None:
                k = r // (2 * to_rational(self.state_theta))
                ball = _lattice_ball(self.state_coords, fault, k)
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
            assert self.deterministic
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
                "successors": [[t[0] for t in row] for row in self.succ],
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
                meta = {
                    k: doc[k]
                    for k in ("config_digest", "epsilon")
                    if k in doc and doc[k] is not None
                }
                return FiniteSystem.on_lattice(
                    tuple(tuple(int(c) for c in row) for row in doc["states"]),
                    float(doc["state_theta"]),
                    tuple(tuple(int(c) for c in row) for row in doc["inputs"]),
                    float(doc["input_theta"]),
                    tuple(int(i) for i in doc["initial"]),
                    tuple(tuple((int(j),) for j in row) for row in doc["successors"]),
                    int(doc["p"]),
                    meta,
                )
            if kind == "finite-system":
                # Equal int or string values share one Fraction and equal target
                # lists one tuple: fewer objects per model, and equal outputs
                # intern by identity.
                fractions: dict = {}
                targets: dict = {}

                def fraction(v):
                    # Decimal intent: 0.4 in a JSON file means 2/5, not the binary float.
                    if type(v) not in (int, str):
                        return to_rational(v)
                    if v not in fractions:
                        fractions[v] = to_rational(v)
                    return fractions[v]

                states = tuple(tuple(map(fraction, row)) for row in doc["raw_states"])
                outputs = tuple(tuple(map(fraction, row)) for row in doc["raw_outputs"])
                inputs = tuple(doc["inputs"])
                n_states, n_inputs = len(states), len(inputs)
                table = [[set() for _ in range(n_inputs)] for _ in range(n_states)]
                for i, u, j in doc["transitions"]:
                    i, u = int(i), int(u)
                    if not (0 <= i < n_states and 0 <= u < n_inputs):
                        raise DomainError(f"transition {[i, u, j]} out of range")
                    table[i][u].add(int(j))
                succ = tuple(
                    tuple(targets.setdefault(t, t) for t in map(tuple, map(sorted, row)))
                    for row in table
                )
                return FiniteSystem(
                    states,
                    tuple(int(i) for i in doc["initial"]),
                    inputs,
                    succ,
                    outputs,
                    int(doc["p"]),
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


def _to_rho(rho) -> Fraction:
    r = to_rational(rho)
    if r < 0:
        raise DomainError("ball radius must be nonnegative")
    return r


def _lattice_ball(coords, fault: frozenset[int], k: int) -> frozenset[int] | None:
    """Indices of the coordinate rows within Chebyshev distance k of some
    fault row, compared in chunks of fault rows; None when the coordinates
    do not form an int64 array whose differences fit in int64."""
    try:
        pts = np.array(coords, dtype=np.int64)
    except (OverflowError, ValueError):
        return None
    if pts.size and not -_COORD_LIMIT < pts.min() <= pts.max() < _COORD_LIMIT:
        return None
    centers = pts[sorted(fault)]
    k = min(k, np.iinfo(np.int64).max)
    hit = np.zeros(len(pts), dtype=bool)
    step = max(1, _BALL_CHUNK // max(1, pts.size))
    for lo in range(0, len(centers), step):
        gaps = np.abs(pts[:, None, :] - centers[None, lo : lo + step, :]).max(axis=2)
        hit |= (gaps <= k).any(axis=1)
    return frozenset(np.flatnonzero(hit).tolist())


def observation_symbol(s: FiniteSystem, values) -> tuple[Fraction, ...]:
    """Map an observed numeric output vector onto the system's own output
    value domain: via the output quantizer for lattice-backed models, via
    exact decimal conversion for hand-written ones."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise DomainError(f"an observation is a list of {s.p} numbers, got {values!r}")
    if len(values) != s.p:
        raise DimensionMismatchError(f"expected {s.p} output components")
    try:
        if s.state_theta is None:
            return tuple(to_rational(v) for v in values)
        point = tuple(float(v) for v in values)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(f"observation {values!r} is not numeric") from exc
    return quantize(point, s.state_theta).embed_exact()
