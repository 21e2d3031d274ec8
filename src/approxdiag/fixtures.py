"""The D1 model document and the seeded random-system generator.

The example systems live in ``configs/``.  ``d1_doc`` equals
``configs/d1.json``; it stays importable because perfbench builds D1 from
it without reading a file.
"""

from __future__ import annotations

import numpy as np

from .diagnosis import FaultSpec
from .finsys import FiniteSystem


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
