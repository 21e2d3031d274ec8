"""Scaling study: abstraction size and build time across state dimension.

State and time cost grow exponentially with the dimensions of the state
and input spaces; this harness makes the growth observable rather than
asserting it.  The template family chains the E1 dynamics: x1' = 0.5 x1 +
u1, and x_i' = 0.25 x_{i-1} + 0.5 x_i for i > 1, with the input pinned to
{0} and the initial box covering exactly ``width`` cells per axis, so the
accessible abstraction has exactly width**n states.
"""

from __future__ import annotations

import time

from . import exprs
from .abstraction import AbstractionParams, build_abstraction, solve_epsilon
from .kfun import KFunction
from .regions import Box, BoxUnion
from .system import Certificate, SystemDef


def chain_system(n: int, width: int, eta: float = 0.5) -> tuple[SystemDef, Certificate]:
    """Contracting n-dimensional chain whose initial box meets exactly
    ``width`` lattice cells per axis.  Built directly (without the config
    validator) because the scaling study also runs at n = 1, where a strict
    output projection p < n has no room."""
    sources = ["0.5*x1 + u1"] + [f"0.25*x{i - 1} + 0.5*x{i}" for i in range(2, n + 1)]
    nodes = tuple(exprs.parse_expr(s, n, 1) for s in sources)
    top = 2.0 * eta * (width - 1)
    x0 = BoxUnion.of(Box((0.0,) * n, (top,) * n))
    u_set = BoxUnion.of(Box((0.0,), (0.0,)))
    sysdef = SystemDef(n, 1, 1, nodes, tuple(sources), x0, u_set, eta)
    cert = Certificate(
        alpha_lo=KFunction.identity(),
        alpha_hi=KFunction.identity(),
        lam=KFunction.linear(0.25),
        sigma=KFunction.identity(),
        lipschitz=2.0,
        weights=(1.0,) * n,
        explore_bound=Box((-2.0 * eta,) * n, (top + 2.0 * eta,) * n),
    )
    return sysdef, cert


def bench_scaling(dims, width: int, eta: float = 0.5) -> list[dict]:
    """Build the chain abstraction for each dimension and report sizes and
    wall times; an empty dimension list yields an empty table."""
    rows = []
    for n in dims:
        sysdef, cert = chain_system(int(n), width, eta)
        mu = eta
        params = AbstractionParams(solve_epsilon(cert, eta, mu), eta, mu)
        t0 = time.perf_counter()
        system = build_abstraction(sysdef, cert, params)
        ms = (time.perf_counter() - t0) * 1000.0
        rows.append(
            {
                "n": int(n),
                "width": width,
                "states": system.n_states,
                "transitions": system.n_states * len(system.inputs),
                "build_ms": round(ms, 3),
            }
        )
    return rows
