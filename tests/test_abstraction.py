import dataclasses
import math

import numpy as np
import pytest

from approxdiag import abstraction
from approxdiag.abstraction import (
    AbstractionParams,
    build_abstraction,
    certify_relation,
    check_params,
    solve_epsilon,
)
from approxdiag.bench import chain_system
from approxdiag.errors import BoundExceededError, ParamCheckError, ResourceLimitError
from approxdiag.regions import Box
from approxdiag.system import parse_system
from examples import e1, e1_config
from reference import build_unchecked, deterministic


def test_check_params_examples():
    _, cert = e1()
    ok = check_params(cert, AbstractionParams(1.0, 0.1, 0.05))
    assert ok.ok and ok.slack_decrease == 0.0 and ok.slack_bound == pytest.approx(0.9)
    assert not check_params(cert, AbstractionParams(0.5, 0.1, 0.1)).ok
    tiny = check_params(cert, AbstractionParams(1.0, 1e-9, 1e-9))
    assert tiny.ok


def test_solve_epsilon_examples():
    _, cert = e1()
    assert solve_epsilon(cert, 0.1, 0.05) == 1.0
    assert solve_epsilon(cert, 0.2, 0.1) == 2.0
    assert solve_epsilon(cert, 1e-9, 1e-9) < 1e-6


def test_solve_epsilon_postcondition():
    _, cert = e1()
    rng = np.random.default_rng(50)
    for _ in range(50):
        eta = float(rng.uniform(1e-4, 0.5))
        mu = float(rng.uniform(1e-4, 0.5))
        eps = solve_epsilon(cert, eta, mu)
        assert check_params(cert, AbstractionParams(eps * (1 + 1e-9), eta, mu)).ok


def build_e1_coarse(**kw):
    sysdef, cert = e1()
    params = AbstractionParams(solve_epsilon(cert, 0.5, 0.5), 0.5, 0.5)
    return build_abstraction(sysdef, cert, params, **kw)


def test_e1_initial_states_are_quantizer_image():
    system = build_e1_coarse()
    init = {system.state_coords[i] for i in system.initial}
    assert init == {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}


def test_e1_successors_of_origin():
    system = build_e1_coarse()
    k = system.state_coords.index((0, 0))
    succs = {system.state_coords[t[0]] for t in system.succ[k]}
    assert succs == {(-1, 0), (0, 0), (1, 0)}


def test_abstraction_closed_and_deterministic():
    system = build_e1_coarse()
    assert deterministic(system)
    for row in system.succ:
        for (j,) in row:
            assert 0 <= j < system.n_states  # every target expanded


def test_finiteness_bound():
    sysdef, cert = e1()
    system = build_e1_coarse()
    per_axis = [
        (cert.explore_bound.upper[i] - cert.explore_bound.lower[i]) / (2 * 0.5) + 1
        for i in range(sysdef.n)
    ]
    assert system.n_states <= per_axis[0] * per_axis[1]


def test_reproducible_across_runs():
    a = build_e1_coarse()
    b = build_e1_coarse()
    assert a.state_coords == b.state_coords
    assert a.succ == b.succ
    assert a.initial == b.initial
    with pytest.raises(TypeError):
        build_e1_coarse(threads=4)  # the build is single-threaded; there is no knob


def test_param_enforcement():
    sysdef, cert = e1()
    bad = AbstractionParams(0.5, 0.1, 0.1)
    with pytest.raises(ParamCheckError):
        build_abstraction(sysdef, cert, bad)
    with pytest.raises(TypeError):
        build_abstraction(sysdef, cert, bad, enforce_params=False)  # the check is always on


def test_bound_exceeded_reports_state():
    doc = e1_config()
    doc["certificate"]["explore_bound"] = {"lower": [-1.2, -1.2], "upper": [1.2, 1.2]}
    sysdef, cert = parse_system(doc)
    params = AbstractionParams(solve_epsilon(cert, 0.5, 0.5), 0.5, 0.5)
    with pytest.raises(BoundExceededError) as err:
        build_abstraction(sysdef, cert, params)
    assert err.value.coords is not None


@pytest.mark.parametrize(
    "lower, upper, message",
    [
        # 2,000,003 cells per axis, one of margin on each side: 8.0e18 in
        # all, counted exactly before any table is allocated.
        (-1e6, 1e6, f"spans {2_000_003**3} lattice cells"),
        (1e20, 2e20, "too far out"),
        (-math.inf, math.inf, "too far out"),
    ],
)
def test_explore_box_beyond_the_key_table_is_resource_limit(lower, upper, message):
    sysdef, cert = chain_system(3, 5)
    cert = dataclasses.replace(cert, explore_bound=Box((lower,) * 3, (upper,) * 3))
    params = AbstractionParams(solve_epsilon(cert, 0.5, 0.5), 0.5, 0.5)
    with pytest.raises(ResourceLimitError, match=message):
        build_abstraction(sysdef, cert, params)


def test_key_grid_intervals_are_the_float_comparisons():
    # Sides on lattice embeddings and a few ulps off them, open and closed:
    # the interval holds exactly the grid's c whose (2.0*eta)*c the box
    # contains, and the c just outside the grid fail.
    rng = np.random.default_rng(5)
    for _ in range(400):
        eta = float(rng.choice([0.015, 0.04, 0.05, 0.1, 0.3]))
        sides = []
        for c in sorted(rng.integers(-40, 41, 2)):
            v = (2.0 * eta) * int(c)
            for _ in range(int(rng.integers(0, 3))):
                v = math.nextafter(v, math.inf if rng.random() < 0.5 else -math.inf)
            sides.append(v)
        if sides[0] > sides[1]:
            continue
        box = Box((sides[0],), (sides[1],), (bool(rng.random() < 0.5),), (bool(rng.random() < 0.5),))
        (low,), (size,), ((a, b),) = abstraction._key_grid(box, eta)
        inside = [c for c in range(low - 1, low + size + 1) if box.contains(((2.0 * eta) * c,))]
        assert inside == list(range(a, b + 1))

def test_grid_cap_admits_exactly_its_cell_count(monkeypatch):
    sysdef, cert = e1()
    params = AbstractionParams(0.4, 0.04, 0.005)
    t = 2.0 * params.eta
    box = cert.explore_bound
    cells = math.prod(
        math.ceil(hi / t) - math.floor(lo / t) + 3 for lo, hi in zip(box.lower, box.upper)
    )
    monkeypatch.setattr(abstraction, "_GRID_CAP", cells)
    assert build_abstraction(sysdef, cert, params).n_states == 978
    monkeypatch.setattr(abstraction, "_GRID_CAP", cells - 1)
    with pytest.raises(ResourceLimitError, match=f"spans {cells} lattice cells"):
        build_abstraction(sysdef, cert, params)


def test_certify_relation_valid_params():
    sysdef, cert = e1()
    params = AbstractionParams(1.0, 0.1, 0.05)
    system = build_abstraction(sysdef, cert, params)
    rep = certify_relation(sysdef, cert, params, system, samples=2000, seed=0)
    assert rep.passed
    assert rep.max_v_next <= rep.threshold


def test_certify_relation_diagonal():
    # A state is related to its own embedding with certificate value zero.
    sysdef, cert = e1()
    params = AbstractionParams(1.0, 0.1, 0.05)
    system = build_abstraction(sysdef, cert, params)
    xi = tuple(float(v) for v in system.states[0])
    assert cert.v(xi, xi) == 0.0 <= cert.alpha_lo(params.epsilon)


def test_certify_relation_negative_control():
    sysdef, cert = e1()
    bad = AbstractionParams(1.0, 0.5, 0.05)
    assert not check_params(cert, bad).ok
    system = build_unchecked(sysdef, cert, bad)
    rep = certify_relation(sysdef, cert, bad, system, samples=4000, seed=0)
    assert rep.violations_step > 0
