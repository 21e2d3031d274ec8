"""Bundled example systems and the seeded random-system generator.

E1 is the two-dimensional linear plant used throughout the test suite:
x1' = 0.5 x1 + u1, x2' = 0.25 x1 + 0.5 x2, observed output x1.  Its
certificate is the plain infinity-norm difference with decrease rate
0.25 r (the dynamics matrix has infinity norm 0.75) and input gain r.

D1 and ND1 are hand-written finite systems: in D1 the faulty and clean
branches are output-distinguishable one step after the fork, in ND1 they
produce identical outputs forever while sitting 5 apart, so ND1 is not
diagnosable for any ball radius below 5.
"""

from __future__ import annotations

import numpy as np

from .diagnosis import FaultSpec
from .finsys import FiniteSystem
from .system import Certificate, SystemDef, parse_system


def e1_config() -> dict:
    return {
        "n": 2,
        "m": 1,
        "p": 1,
        "f": ["0.5*x1 + u1", "0.25*x1 + 0.5*x2"],
        "eta": 0.1,
        "X0": {"boxes": [{"lower": [-1, -1], "upper": [1, 1]}]},
        "U": {"boxes": [{"lower": [-1], "upper": [1]}]},
        "certificate": {
            "alpha_lo": {"form": "linear", "a": 1},
            "alpha_hi": {"form": "linear", "a": 1},
            "lambda": {"form": "linear", "a": 0.25},
            "sigma": {"form": "linear", "a": 1},
            "L": 2,
            "V_weights": [1, 1],
            "explore_bound": {"lower": [-4, -4], "upper": [4, 4]},
        },
    }


def e1() -> tuple[SystemDef, Certificate]:
    return parse_system(e1_config())


def d1_doc() -> dict:
    # a=0 initial, f=2 faulty, c=4 clean; outputs are the embeddings.
    return {
        "kind": "finite-system",
        "schema": 1,
        "p": 1,
        "raw_states": [[0], [2], [4]],
        "raw_outputs": [[0], [2], [4]],
        "inputs": ["step"],
        "initial": [0],
        "transitions": [[0, 0, 1], [0, 0, 2], [1, 0, 1], [2, 0, 2]],
    }


def d1() -> FiniteSystem:
    return FiniteSystem.from_json(d1_doc())


D1_FAULTS = frozenset({1})


def nd1_doc() -> dict:
    # a=(0,0) initial, f=(2,0) faulty, c=(2,5); output = first coordinate,
    # so f and c stay indistinguishable while 5 apart.
    return {
        "kind": "finite-system",
        "schema": 1,
        "p": 1,
        "raw_states": [[0, 0], [2, 0], [2, 5]],
        "raw_outputs": [[0], [2], [2]],
        "inputs": ["step"],
        "initial": [0],
        "transitions": [[0, 0, 1], [0, 0, 2], [1, 0, 1], [2, 0, 2]],
    }


def nd1() -> FiniteSystem:
    return FiniteSystem.from_json(nd1_doc())


ND1_FAULTS = frozenset({1})


def random_finite_system(rng: np.random.Generator) -> tuple[FiniteSystem, FaultSpec]:
    """Seeded random finite system for the checker/oracle agreement suite.

    Up to 6 states with 1-D integer embeddings, up to 3 inputs, at most 2
    distinct output values; every (state, input) has at least one successor
    so runs never block structurally.  The fault set is a nonempty subset
    of the non-initial states, the ball radius is 0 or 1.
    """
    n = int(rng.integers(2, 7))
    n_inputs = int(rng.integers(1, 4))
    n_out = int(rng.integers(1, 3))
    out_of = [int(rng.integers(0, n_out)) for _ in range(n)]
    states = tuple((i,) for i in range(n))
    outputs = tuple((v,) for v in out_of)
    succ = tuple(
        tuple(
            tuple(sorted({int(t) for t in rng.integers(0, n, size=int(rng.integers(1, 3)))}))
            for _ in range(n_inputs)
        )
        for _ in range(n)
    )
    initial = (0,)
    system = FiniteSystem(states, initial, tuple(range(n_inputs)), succ, outputs, 1)
    candidates = [i for i in range(n) if i not in initial]
    size = int(rng.integers(1, max(2, len(candidates) // 2 + 1)))
    faults = rng.choice(candidates, size=min(size, len(candidates)), replace=False)
    rho = int(rng.integers(0, 2))
    return system, FaultSpec.of(faults, rho)
