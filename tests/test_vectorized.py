"""The numpy forest, the level-batched abstraction BFS, the trial-batched
falsifier, the one-call sampler and the sampled certificate and relation
checks, checked bit for bit against their scalar forms in `reference.py`."""

import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

import approxdiag as ad
from approxdiag import abstraction, bridge, exprs
from approxdiag.bench import chain_system
from approxdiag.cli import main
from approxdiag.errors import BoundExceededError, DomainError, EvaluationError, NumericError
from approxdiag.kfun import KFunction
from approxdiag.lattice import quantize_index, quantize_indices
from approxdiag.regions import Box, BoxUnion
from approxdiag.system import _sample_union, parse_system
from examples import CONFIGS, e1, e1_config
from reference import (
    build_unchecked,
    eval_expr,
    reference_build_abstraction,
    reference_certify_relation,
    reference_contains_rows,
    reference_distance_rows,
    reference_falsify,
    reference_sample_union,
    reference_screen_trials,
    reference_validate_certificate,
)

FAULT_X1 = BoxUnion.from_json(json.loads((CONFIGS / "fault_x1.json").read_text()))
FAULT_X2 = BoxUnion.from_json(json.loads((CONFIGS / "fault_x2.json").read_text()))
# A third fault region, reached through both coordinates.
BAND = BoxUnion.of(Box((1.2, 0.6), (2.0, 1.0)))
# An initial set of two boxes, so each draw's first double picks one.
TWO_BOX_X0 = BoxUnion.of(Box((-1.0, -1.0), (1.0, 1.0)), Box((0.5, 1.5), (0.9, 1.5)))

# Every operator and function of the expression language, alone and mixed,
# with constant subtrees and a bare constant.
FOREST_SOURCES = [
    "x1 + u1 - x2*x1",
    "x1 / (x2 - 0.5)",
    "-x1^2 + x2^u1 - x1^-1",
    "pow(x2, u1) + pow(x1, -2)",
    "exp(x1) + sin(x2)*cos(u1) - tanh(x1*x2)",
    "abs(x1) - abs(-x2)",
    "min(x1, x2) - max(x2, u1)",
    "max(x1, x2) + min(u1, x1)",
    "min(x1, exp(1000*x1))",
    "exp(2) + min(1, 2)*x1 - pow(4, 0.5)",
    "3",
    "x2",
]
# Nonlinear plant using every function; contracting enough to stay bounded.
NONLINEAR = [
    "0.5*tanh(x1) + 0.1*sin(x2)*cos(u1) + u1 - 0.05*min(x1, x2) + 0.01*x1^2",
    "0.25*x1 + 0.1*(exp(0.5*x1) - 1) + 0.02*pow(abs(x2), 1.5) - 0.02*max(x2, -x2) + 0.3*x2/(2 + abs(x1))",
]
E1_PARAMS = [(0.3, 0.03, 0.01), (0.4, 0.04, 0.005), (0.5, 0.05, 0.025)]


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def plant(sources, x0=None, u=None):
    sysdef, cert = e1()
    nodes = tuple(exprs.parse_expr(s, 2, 1) for s in sources)
    sysdef = dataclasses.replace(
        sysdef,
        f_nodes=nodes,
        f_sources=tuple(sources),
        x0=x0 if x0 is not None else sysdef.x0,
        u_set=u if u is not None else sysdef.u_set,
    )
    return sysdef, cert


def scalar_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error itself is the value compared
        return (type(exc), str(exc))


def forest_columns(rng, rows: int) -> list[np.ndarray]:
    special = np.array(
        [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 4.0, 700.0, -700.0, 1e200, -1e200, 1e-310, -2.25]
    )
    cols = []
    for _ in range(3):
        col = rng.normal(0.0, 3.0, rows)
        pick = rng.random(rows) < 0.4
        col[pick] = rng.choice(special, int(pick.sum()))
        cols.append(col)
    cols[1][:50], cols[0][:50] = -0.0, 0.0  # min/max ties of signed zeros
    cols[0][50:100], cols[1][50:100] = -0.0, 0.0
    return cols


@pytest.mark.parametrize("sources", [[s] for s in FOREST_SOURCES] + [FOREST_SOURCES])
def test_numpy_forest_bitwise_equals_scalar_forest(sources):
    nodes = [exprs.parse_expr(s, 2, 1) for s in sources]
    scalar, vector = exprs.compile_forest(nodes), exprs.compile_forest_np(nodes)
    cols = forest_columns(np.random.default_rng(len(sources[0])), 600)
    out, bad = vector(cols[:2], cols[2:])
    assert len(out) == len(nodes) and all(c.shape == (600,) for c in out)
    raised = 0
    for i in range(600):
        x, u = (float(cols[0][i]), float(cols[1][i])), (float(cols[2][i]),)
        try:
            want = scalar(x, u)
        except EvaluationError:
            raised += 1
            assert bad[i], (sources, x, u)
            continue
        assert not bad[i], (sources, x, u)
        assert (bits(want) == bits([c[i] for c in out])).all(), (sources, x, u, want)
    assert int(bad.sum()) == raised


def test_numpy_forest_keeps_python_min_max_on_signed_zeros():
    nodes = [exprs.parse_expr(s, 2, 1) for s in ("min(x1, x2)", "max(x1, x2)")]
    out, bad = exprs.compile_forest_np(nodes)([np.array([0.0, -0.0]), np.array([-0.0, 0.0])], [np.zeros(2)])
    assert not bad.any()
    assert list(bits(out[0])) == list(bits([0.0, -0.0])) == list(bits(out[1]))


@pytest.mark.parametrize(
    "source, x1, message",
    [
        ("exp(x1)", 1000.0, "exp failed on [1000.0]"),
        ("sin(x1)", float("inf"), "sin failed on [inf]"),
        ("x1^-1", 0.0, "zero base under negative exponent -1.0"),
        ("pow(x1, -2)", 0.0, "zero base under negative exponent -2.0"),
        ("pow(x1, 0.5)", -4.0, "negative base -4.0 under non-integer exponent 0.5"),
        ("pow(x1, x1*1e308*10)", -2.0, "negative base -2.0 under non-integer exponent -inf"),
        ("x1^3", 1e200, "overflow in power"),
        ("1/x1", -0.0, "division by zero"),
    ],
)
def test_every_evaluation_failure_is_an_evaluation_error(source, x1, message):
    node = exprs.parse_expr(source, 1, 1)
    with pytest.raises(EvaluationError) as walked:
        eval_expr(node, (x1,), (0.0,))
    with pytest.raises(EvaluationError) as compiled:
        exprs.compile_forest([node])((x1,), (0.0,))
    assert str(walked.value) == str(compiled.value) == message
    _, bad = exprs.compile_forest_np([node])([np.array([x1, 1.0])], [np.zeros(2)])
    assert list(bad) == [True, False]


def test_step_fails_on_numpy_scalars_like_on_floats():
    sysdef, _ = plant(["0.5*x1 + u1 + pow(x2, -1)", "0.25*x1 + 0.5*x2"])
    for x in ((1.0, 0.0), tuple(np.zeros(2)), np.array([1.0, 0.0])):
        with pytest.raises(EvaluationError, match="zero base under negative exponent"):
            ad.step(sysdef, x, np.zeros(1))


def test_quantize_indices_matches_scalar_quantizer():
    rng = np.random.default_rng(7)
    for theta in (0.05, 0.1, 0.03, 0.5, 1e-3):
        ties = theta * (2 * rng.integers(-500, 500, 400) + 1)
        values = np.concatenate([ties, rng.uniform(-30, 30, 400), [0.0, -0.0, 1e300, -1e300]])
        got = quantize_indices(values, theta)
        assert [int(v) for v in got] == [quantize_index(float(v), theta) for v in values]
    assert not np.isfinite(quantize_indices(np.array([np.inf, np.nan]), 0.1)).any()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eta", [1e-300, 0.1, 1e300])
def test_screen_finiteness_flag_equals_quantizer(eta):
    # Every class of float64 by random bit patterns (subnormals, NaNs and
    # infinities included), the extremes, and the floats around the point
    # where col / (2 eta) overflows.
    rng = np.random.default_rng(11)
    top = np.finfo(float).max
    with np.errstate(over="ignore"):
        around = [min(2.0 * eta * top, top)]
        for _ in range(4):
            around = [np.nextafter(around[0], 0.0), *around, np.nextafter(around[-1], math.inf)]
    values = np.concatenate([
        rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 20_000, dtype=np.int64, endpoint=True).view(float),
        [1.7e308, -1.7e308, np.finfo(float).max, 5e-324, -5e-324, 2.2e-308, 1e-310],
        [math.inf, -math.inf, math.nan, -math.nan, 0.0, -0.0, 1.0],
        np.array(around), -np.array(around),
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        got = bridge._quantizable(values, eta)
    assert (got == np.isfinite(quantize_indices(values, eta))).all()
    assert got.any() and not got.all()


def same_floats(a, b) -> bool:
    """Equal bit for bit, except that any NaN equals any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all() and (bits(a[~nan]) == bits(b[~nan])).all())


REGION_UNIONS = [
    # Open and closed bounds, a zero-width box and disjoint boxes.
    BoxUnion.of(
        Box((0.0, -1.0), (1.0, 1.0), (True, False), (False, True)),
        Box((0.5, 0.5), (0.5, 2.0)),
        Box((-2.0, -2.0), (-1.0, -1.0)),
    ),
    # Signed-zero bounds and an unbounded axis.
    BoxUnion.of(Box((-0.0, -math.inf), (0.0, -1.0), (False, True), (True, False))),
    BoxUnion.of(Box((-1.0,), (1.0,), (True,), (True,)), Box((1.5,), (2.0,))),
    BoxUnion.of(Box((-1.0, 0.0, 0.5), (1.0, 0.0, 2.0), (False, False, True))),
    # Infinite bounds on both sides, open and closed.
    BoxUnion.of(Box((0.0,), (math.inf,))),
    BoxUnion.of(Box((-math.inf, -1.0), (math.inf, math.inf), (True, False), (False, True))),
    # Zero-width axes at an infinity: both differences are inf - inf there.
    BoxUnion.of(Box((math.inf,), (math.inf,))),
    BoxUnion.of(Box((-1.0, -math.inf), (1.0, -math.inf)), Box((2.0, 0.0), (2.0, 1.0))),
]


@pytest.mark.filterwarnings("error")  # no inf - inf RuntimeWarning either
def test_region_rows_match_scalar_tests():
    # Grid values hit the bounds exactly, infinite ones included; NaN fails
    # every comparison, so `contains` keeps such a point and both distances
    # are NaN.
    rng = np.random.default_rng(3)
    grid = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, math.inf, -math.inf, math.nan])
    for union in REGION_UNIONS:
        d = union.dim
        points = np.concatenate([rng.uniform(-3, 3, (300, d)), rng.choice(grid, (300, d))])
        for lead in [(600,), (20, 30), (5, 4, 30)]:
            cols = [points[:, k].reshape(lead) for k in range(d)]
            inside, dist = union.contains_columns(cols), union.distance_columns(cols)
            assert inside.shape == dist.shape == lead
            assert (inside.ravel() == reference_contains_rows(union, points)).all()
            assert same_floats(dist.ravel(), reference_distance_rows(union, points))
        for i, pt in enumerate(points.tolist()):
            assert inside.flat[i] == union.contains(pt), pt
            assert same_floats(dist.flat[i], union.distance_to(pt)), pt


@pytest.mark.parametrize(
    "union",
    [
        BoxUnion.of(Box((-1.0, -1.0), (1.0, 1.0))),
        BoxUnion.of(Box((-1.0,), (1.0,))),
        BoxUnion.of(Box((0.0, 0.3, -2.0), (0.0, 0.7, 5.5))),
        BoxUnion.of(
            Box((-1.0, -1.0), (1.0, 1.0)),
            Box((1.5, 0.5), (1.5, 0.9)),
            Box((0.1, 2.0), (0.3, 3.0), (True, False), (False, True)),
        ),
    ],
)
def test_sampler_stream_equals_per_row_sampler(union):
    for seed in range(40):
        for count in (0, 1, 7, 30):
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            assert (bits(_sample_union(a, union, count)) == bits(reference_sample_union(b, union, count))).all()
            assert a.random() == b.random()  # the streams stay in step


def test_sampler_skips_empty_member_boxes():
    doc = e1_config()
    doc["X0"]["boxes"].append({"lower": [1.5, 0.5], "upper": [1.5, 0.9], "lower_open": [True, False]})
    sysdef, cert = parse_system(doc)
    samples = _sample_union(np.random.default_rng(0), sysdef.x0, 1000)
    assert all(sysdef.x0.contains(tuple(x)) for x in samples.tolist())
    params = ad.AbstractionParams(1.0, 0.1, 0.05)
    system = ad.build_abstraction(sysdef, cert, params)
    report = ad.certify_relation(sysdef, cert, params, system, samples=500, seed=1)
    assert report.violations_initial == 0
    with pytest.raises(Exception, match="empty union"):
        _sample_union(np.random.default_rng(0), BoxUnion.of(Box((0.0,), (0.0,), (True,))), 3)


@pytest.mark.parametrize("params", E1_PARAMS)
def test_build_equals_reference_on_e1(params):
    sysdef, cert = e1()
    p = ad.AbstractionParams(*params)
    assert ad.build_abstraction(sysdef, cert, p).to_json() == reference_build_abstraction(
        sysdef, cert, p
    ).to_json()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_build_equals_reference_on_chain(dim):
    sysdef, cert = chain_system(dim, 5)
    p = ad.AbstractionParams(ad.solve_epsilon(cert, 0.5, 0.5), 0.5, 0.5)
    assert ad.build_abstraction(sysdef, cert, p).to_json() == reference_build_abstraction(
        sysdef, cert, p
    ).to_json()


def test_build_equals_reference_on_nonlinear_plant():
    sysdef, cert = plant(NONLINEAR, u=BoxUnion.of(Box((-0.5,), (0.5,))))
    p = ad.AbstractionParams(1.0, 0.05, 0.05)
    built = build_unchecked(sysdef, cert, p)
    assert built.n_states > 300
    assert built.to_json() == reference_build_abstraction(sysdef, cert, p).to_json()


def build_outcomes(sysdef, cert, params):
    p = ad.AbstractionParams(*params)
    got = scalar_or_error(lambda: build_unchecked(sysdef, cert, p))
    want = scalar_or_error(reference_build_abstraction, sysdef, cert, p)
    return got, want


def bound_error_equal_reference(sysdef, cert, bound) -> BoundExceededError:
    """The build's BoundExceededError inside ``bound`` at the e1-prove
    parameters, its five fields and its args checked against the reference."""
    cert = dataclasses.replace(cert, explore_bound=bound)
    p = ad.AbstractionParams(0.4, 0.04, 0.005)
    with pytest.raises(BoundExceededError) as got:
        ad.build_abstraction(sysdef, cert, p)
    with pytest.raises(BoundExceededError) as want:
        reference_build_abstraction(sysdef, cert, p)
    fields = ("coords", "embedding", "source", "input_label", "args")
    assert [getattr(got.value, f) for f in fields] == [getattr(want.value, f) for f in fields]
    return got.value


def test_bound_exceeded_fields_equal_reference():
    error = bound_error_equal_reference(*e1(), Box((-1.3, -1.05), (1.6, 1.05)))
    assert error.source is not None


# Lattice spacing at the e1-prove eta, as the build computes embeddings.
TWO_ETA = 2.0 * 0.04


@pytest.mark.parametrize(
    "case",
    [
        # X0's image reaches outside: no source, no input label.
        "x0",
        # With x1' = -0.5*x1 + u1 the first level fails on both sides of x1:
        # the rows of states with negative x1 come first and fail above, but
        # the lexicographically smallest failing target lies below.
        "order",
        # An open upper bound exactly on the embedding of x1 = 19, which the
        # first level reaches.
        "open",
        # x1' = 1e20*x1 + u1: failing targets far beyond int64.
        "int64",
    ],
)
def test_bound_exceeded_cases_equal_reference(case):
    bound = Box((-1.3, -1.05), (1.6, 1.05))
    if case == "x0":
        sysdef, cert = e1()
        bound = Box((-0.9, -1.05), (1.6, 1.05))
    elif case == "order":
        sysdef, cert = plant(["-0.5*x1 + u1", "0.25*x1 + 0.5*x2"])
        bound = Box((-1.3, -1.05), (1.3, 1.05))
    elif case == "open":
        sysdef, cert = e1()
        bound = Box((-1.6, -1.05), (TWO_ETA * 19, 1.05), upper_open=(True, False))
    else:
        sysdef, cert = plant(["1e20*x1 + u1", "0.25*x1 + 0.5*x2"])
    error = bound_error_equal_reference(sysdef, cert, bound)
    assert (error.source is None) == (case == "x0")
    if case == "order":
        assert error.coords[0] < 0 < error.source[0]
    elif case == "open":
        assert error.coords[0] == 19 and error.embedding[0] == bound.upper[0]
    elif case == "int64":
        assert abs(error.coords[0]) > 1 << 63


@pytest.mark.parametrize(
    "f1, error",
    [
        ("0.5*x1 + u1 + 0*exp(1000*x1)", EvaluationError),
        ("0.5*x1 + u1 + 0*sin(x2*1e308*10)", EvaluationError),
        ("0.5*x1 + u1 + min(x1, x1^-3)", EvaluationError),
        ("0.5*x1 + u1 + x1*1e308*10", DomainError),
    ],
)
def test_build_errors_equal_reference(f1, error):
    sysdef, cert = plant([f1, "0.25*x1 + 0.5*x2"])
    got, want = build_outcomes(sysdef, cert, (0.4, 0.04, 0.005))
    assert got == want and got[0] is error



def model_or_error(build, sysdef, cert, p):
    """The model's JSON, or a BoundExceededError's five fields."""
    try:
        return build(sysdef, cert, p).to_json()
    except BoundExceededError as exc:
        return [getattr(exc, f) for f in ("coords", "embedding", "source", "input_label", "args")]


# e1 at eta 0.04 (mu 0.025) reaches x1 in [-24, 25] and x2 in [-12, 13].
EDGE_PARAMS = ad.AbstractionParams(0.4, 0.04, 0.025)
EDGE_CASES = [
    (axis, side, c, is_open, ulp)
    for axis, (lo, hi) in enumerate([(-24, 25), (-12, 13)])
    for side, c in (("lower", lo), ("upper", hi))
    for is_open in (False, True)
    for ulp in (-1, 0, 1)
]


@pytest.mark.parametrize("axis, side, c, is_open, ulp", EDGE_CASES)
def test_bound_sides_on_and_beside_lattice_embeddings_equal_reference(axis, side, c, is_open, ulp):
    # The build tests targets on index intervals; the reference compares each
    # embedding (2.0*eta)*c with the bound's floats.  A side exactly on the
    # embedding of the reached extreme c, or one ulp either side of it.
    sysdef, cert = e1()
    edge = TWO_ETA * c
    edge = {-1: math.nextafter(edge, -math.inf), 0: edge, 1: math.nextafter(edge, math.inf)}[ulp]
    lower, upper = [-4.0, -4.0], [4.0, 4.0]
    (lower if side == "lower" else upper)[axis] = edge
    flags = [False, False]
    flags[axis] = is_open
    opens = {"lower_open": flags} if side == "lower" else {"upper_open": flags}
    cert = dataclasses.replace(cert, explore_bound=Box(lower, upper, **opens))
    got = model_or_error(build_unchecked, sysdef, cert, EDGE_PARAMS)
    assert got == model_or_error(reference_build_abstraction, sysdef, cert, EDGE_PARAMS)
    inward = ulp if side == "lower" else -ulp
    assert isinstance(got, dict) == (inward < 0 or (inward == 0 and not is_open))


@pytest.mark.parametrize("case", ["e1", "nonlinear"])
def test_build_over_many_blocks_equals_reference(monkeypatch, case):
    # Blocks of three states: every level spans many and most end on a
    # partial one, and the input columns are sliced for the last.
    if case == "e1":
        sysdef, cert = e1()
        p = ad.AbstractionParams(0.4, 0.04, 0.025)
    else:
        sysdef, cert = plant(NONLINEAR, u=BoxUnion.of(Box((-0.5,), (0.5,))))
        p = ad.AbstractionParams(1.0, 0.05, 0.05)
    n_in = len(ad.lattice_image(sysdef.u_set, p.mu))
    monkeypatch.setattr(abstraction, "_ROW_CHUNK", 3 * n_in + 1)
    built = build_unchecked(sysdef, cert, p)
    assert built.n_states > 300
    assert built.to_json() == reference_build_abstraction(sysdef, cert, p).to_json()


def test_flagged_row_in_a_later_block_raises_like_reference(monkeypatch):
    # exp(1000*x1) overflows only for x1 > 0.7, so the first flagged row of
    # the first level belongs to a state past the first few blocks.
    sysdef, cert = plant(["0.5*x1 + u1 + 0*exp(1000*x1)", "0.25*x1 + 0.5*x2"])
    n_in = len(ad.lattice_image(sysdef.u_set, 0.005))
    monkeypatch.setattr(abstraction, "_ROW_CHUNK", 3 * n_in + 1)
    first = ad.lattice_image(sysdef.x0, 0.04)
    assert next(i for i, c in enumerate(first) if TWO_ETA * c[0] > 0.71) >= 3 * 10  # block 10 on
    got, want = build_outcomes(sysdef, cert, (0.4, 0.04, 0.005))
    assert got == want and got[0] is EvaluationError

def falsify_outcomes(sysdef, region, rho, trials, horizon, seed):
    got = scalar_or_error(bridge.falsify_plant, sysdef, region, rho, trials, horizon, seed)
    want = scalar_or_error(reference_falsify, sysdef, region, rho, trials, horizon, seed)
    return got, want


@pytest.mark.parametrize(
    "region, rho, trials",
    [(FAULT_X1, 2.1, 300), (FAULT_X2, 0.05, 600), (BAND, 0.05, 600)],
)
def test_falsify_equals_reference_on_e1(region, rho, trials):
    sysdef, _ = e1()
    found = 0
    for seed in range(20):
        got, want = falsify_outcomes(sysdef, region, rho, trials, 30, seed)
        assert got == want, seed
        found += got is not None
    assert found == 0 if region is FAULT_X1 else found > 0


def test_falsify_equals_reference_on_two_box_x0_and_nonlinear_plant():
    two_box, _ = plant(["0.5*x1 + u1", "0.25*x1 + 0.5*x2"], x0=TWO_BOX_X0)
    # One box in which x1 has zero width.
    flat, _ = plant(["0.5*x1 + u1", "0.25*x1 + 0.5*x2"], x0=BoxUnion.of(Box((0.2, -1.0), (0.2, 1.0))))
    nonlinear, _ = plant(NONLINEAR)
    cases = ((two_box, FAULT_X2), (two_box, BAND), (flat, FAULT_X2), (nonlinear, FAULT_X2))
    for sysdef, region in cases:
        found = 0
        for seed in range(6):
            got, want = falsify_outcomes(sysdef, region, 0.05, 300, 20, seed)
            assert got == want, seed
            found += got is not None
        assert found > 0


SCREEN_CASES = {
    "e1-x1": (None, None, FAULT_X1, 2.1),
    # Both sides share x1, so a safe side meets FAULT_X1 with the fault side,
    # at distance exactly rho: no trial may pass.
    "touching": (None, None, FAULT_X1, 0.0),
    "e1-x2": (None, None, FAULT_X2, 0.05),
    "e1-band": (None, None, BAND, 0.05),
    "two-box": (None, TWO_BOX_X0, FAULT_X2, 0.05),
    "nonlinear": (NONLINEAR, None, FAULT_X2, 0.05),
    # exp overflows once x1 passes about 1.702: the screen must keep those rows.
    "overflow": (["0.5*x1 + u1 + 0*exp(417*x1)", "0.25*x1 + 0.5*x2"], None, FAULT_X2, 0.05),
    # Finite states whose outputs do not quantize at eta 0.1.
    "huge-output": (["1.5e308*u1", "0.5*x2"], None, FAULT_X2, 0.05),
    # FAULT_X2 widened into X0: a trial that starts in it never enters it.
    "starts-inside": (None, None, BoxUnion.of(Box((0.8, 0.22), (1.98, 0.98))), 0.05),
    # Every safe side starts within 2.7 of FAULT_X1, so no trial outlives
    # step 0; x2 overflows from step 8 on in the rows whose x1 stays above
    # -0.3, and the screen must still flag them.
    "dead-then-overflow": (["0.5*x1 + u1", "1e40*x2*max(x1 + 0.3, 0)"], None, FAULT_X1, 2.8),
}


@pytest.mark.parametrize("case", SCREEN_CASES)
def test_screen_equals_whole_trajectory_screen(case):
    sources, x0, region, rho = SCREEN_CASES[case]
    sysdef, _ = plant(sources or ["0.5*x1 + u1", "0.25*x1 + 0.5*x2"], x0=x0)
    kept = 0
    for seed in range(3):
        for start in (0, 300, 2**32 - 100):
            rows = bridge._draw_chunk(sysdef, 30, seed, range(start, start + 300))
            got = bridge._screen_trials(sysdef, region, rho, *rows)
            want = reference_screen_trials(sysdef, region, rho, *rows)
            assert got.dtype == want.dtype and (got == want).all(), (seed, start)
            kept += len(got)
    assert kept == 0 if case in ("e1-x1", "touching") else kept > 0


@pytest.mark.parametrize("seed", [0, 2**64, 2**128 + 1])
def test_chunk_rows_are_slices_of_one_stream(seed):
    # A trial's rows depend on seed, trial and horizon alone: any chunk's
    # rows are the matching rows of an enclosing chunk.
    sysdef, _ = plant(["0.5*x1 + u1", "0.25*x1 + 0.5*x2"], x0=TWO_BOX_X0)
    for a in (0, 255, 2**32 - 100, 2**40 + 3):
        b = a + 300
        outer = range(a - min(a, 37), b + 11)
        got = bridge._draw_chunk(sysdef, 30, seed, range(a, b))
        want = bridge._draw_chunk(sysdef, 30, seed, outer)
        rows = slice(a - outer.start, b - outer.start)
        assert [x.shape[0] for x in got] == [b - a] * 3
        assert all((bits(x) == bits(y[rows])).all() for x, y in zip(got, want)), a
    with pytest.raises(ValueError, match="non-negative"):
        bridge.falsify_plant(sysdef, FAULT_X2, 0.05, 10, 30, seed=-1)


def replay(sysdef, horizon, seed, trial):
    """A trial's fault-side initial state and inputs from its own offset in
    the stream, by the README's recipe."""
    n, m = sysdef.n, sysdef.m

    def point(union, r):
        boxes = [b for b in union.boxes if not b.is_empty()]
        box = boxes[min(int(r[0] * len(boxes)), len(boxes) - 1)]
        return tuple(lo + (hi - lo) * v for lo, hi, v in zip(box.lower, box.upper, r[1:]))

    k = 2 * (n + 1) + horizon * (m + 1)
    r = np.random.Generator(np.random.PCG64(seed).advance(trial * k)).random(k).tolist()
    x0_fault = point(sysdef.x0, r[: n + 1])
    base = 2 * (n + 1)
    inputs = tuple(point(sysdef.u_set, r[base + j * (m + 1) :][: m + 1]) for j in range(horizon))
    return x0_fault, inputs


@pytest.mark.parametrize("x0", [None, TWO_BOX_X0], ids=["e1", "two-box"])
def test_counterexample_replays_from_its_trial_offset(x0):
    sysdef, _ = plant(["0.5*x1 + u1", "0.25*x1 + 0.5*x2"], x0=x0)
    found = bridge.falsify_plant(sysdef, FAULT_X2, 0.05, 2_000, 30, seed=5)
    assert found is not None and found.trial > 0
    assert replay(sysdef, 30, 5, found.trial) == (found.x0_fault, found.inputs)


def test_falsify_errors_surface_only_before_the_first_counterexample():
    # exp overflows once x1 passes about 1.702: some seeds meet such a trial
    # before their first counterexample, the others only after it.
    sysdef, _ = plant(["0.5*x1 + u1 + 0*exp(417*x1)", "0.25*x1 + 0.5*x2"])
    outcomes = []
    for seed in range(8):
        got, want = falsify_outcomes(sysdef, FAULT_X2, 0.05, 600, 30, seed)
        assert got == want, seed
        if isinstance(got, tuple):
            assert got[0] is EvaluationError and got[1].startswith("exp failed on")
        outcomes.append("raised" if isinstance(got, tuple) else got.trial)
    assert "raised" in outcomes and len(set(outcomes)) > 2


def test_cli_evaluation_failure_exits_4(tmp_path, capsys):
    doc = e1_config()
    doc["f"][0] = "0.5*x1 + u1 + 0*exp(1000*x1)"
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(doc))
    code = main(
        ["abstract", str(config), "--eta", "0.1", "--mu", "0.05", "--epsilon", "1.0",
         "-o", str(tmp_path / "model.json")]
    )
    assert code == 4 and "exp failed on" in capsys.readouterr().err
    code = main(
        ["falsify", str(config), "--faults", str(CONFIGS / "fault_x1.json"), "--rho", "2.1",
         "--trials", "50"]
    )
    assert code == 4 and "exp failed on" in capsys.readouterr().err


def test_falsify_memory_is_flat_in_trials():
    sysdef, _ = e1()

    def peak(trials):
        tracemalloc.start()
        try:
            assert bridge.falsify_plant(sysdef, FAULT_X1, 2.1, trials, 10, seed=0) is None
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(2_000)
    assert peak(20_000) <= 1.5 * small


def test_early_counterexample_simulates_one_chunk(monkeypatch):
    sysdef, _ = e1()
    drawn, checked = [], []
    draw, check = bridge._draw_chunk, bridge._check_trial

    def counting_draw(*args):
        drawn.extend(args[-1])
        return draw(*args)

    def counting_check(*args):
        checked.append(args[-1])
        return check(*args)

    monkeypatch.setattr(bridge, "_draw_chunk", counting_draw)
    monkeypatch.setattr(bridge, "_check_trial", counting_check)
    found = bridge.falsify_plant(sysdef, FAULT_X2, 0.05, 10_000, 30, seed=0)
    assert found is not None and found.trial < 30
    assert checked[-1] == found.trial and checked == sorted(checked)
    assert drawn == list(range(bridge._TRIAL_CHUNK))


def test_search_draws_every_trial_once_in_chunks_after_the_first(monkeypatch):
    # The first chunk is small, for an early counterexample; later ones are
    # 8 times larger, and together they cover the trials once, in order.
    sysdef, _ = e1()
    chunks = []
    draw = bridge._draw_chunk

    def recording_draw(*args):
        chunks.append(args[-1])
        return draw(*args)

    monkeypatch.setattr(bridge, "_draw_chunk", recording_draw)
    trials = 10 * bridge._TRIAL_CHUNK
    assert bridge.falsify_plant(sysdef, FAULT_X1, 2.1, trials, 10, seed=0) is None
    assert [len(c) for c in chunks] == [bridge._TRIAL_CHUNK, 8 * bridge._TRIAL_CHUNK, bridge._TRIAL_CHUNK]
    assert [t for c in chunks for t in c] == list(range(trials))


# Power and piecewise-linear gains, so every comparison-function form is
# evaluated on the sampled values, and unequal V weights.
CURVED_CERT = {
    "alpha_lo": KFunction.power(0.8, 1.5),
    "alpha_hi": KFunction.piecewise_linear(((0.0, 0.0), (1.0, 1.2), (3.0, 3.1))),
    "lam": KFunction.piecewise_linear(((0.0, 0.0), (0.5, 0.1), (2.0, 0.3))),
    "sigma": KFunction.power(1.1, 0.9),
    "weights": (1.0, 0.7),
}
RELATION_PARAMS = [(1.0, 0.1, 0.05), (1.0, 0.5, 0.05)]  # criterion 4 and its control
SAMPLE_COUNTS = [0, 1, 2, 1000]


def sampled_plant(name):
    if name == "e1":
        return e1()
    sysdef, cert = plant(NONLINEAR, u=BoxUnion.of(Box((-0.5,), (0.5,))))
    return sysdef, dataclasses.replace(cert, **CURVED_CERT)


@functools.cache
def relation_model(name, params):
    sysdef, cert = sampled_plant(name)
    return build_unchecked(sysdef, cert, ad.AbstractionParams(*params))


def exact(report):
    """Report fields, floats by their bits (type and sign of zero included)."""
    return [v.hex() if isinstance(v, float) else (type(v), v) for v in dataclasses.astuple(report)]


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("name", ["e1", "nonlinear"])
def test_validate_equals_reference(name, samples):
    sysdef, cert = sampled_plant(name)
    for seed in range(3):
        got = ad.validate_certificate(sysdef, cert, samples, seed)
        assert exact(got) == exact(reference_validate_certificate(sysdef, cert, samples, seed))


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("params", RELATION_PARAMS)
@pytest.mark.parametrize("name", ["e1", "nonlinear"])
def test_certify_equals_reference(name, params, samples):
    sysdef, cert = sampled_plant(name)
    system, p = relation_model(name, params), ad.AbstractionParams(*params)
    for seed in range(3):
        got = ad.certify_relation(sysdef, cert, p, system, samples, seed)
        want = reference_certify_relation(sysdef, cert, p, system, samples, seed)
        assert exact(got) == exact(want)


def test_sampled_reports_are_not_vacuous():
    sysdef, cert = e1()
    assert ad.validate_certificate(sysdef, cert, 1000).passed
    good, bad = (
        ad.certify_relation(sysdef, cert, ad.AbstractionParams(*p), relation_model("e1", p), 1000)
        for p in RELATION_PARAMS
    )
    assert good.passed and good.max_v_next > 0 and bad.violations_step > 0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("eta, mu", [(1e-310, 0.05), (0.1, 1e-310)])
def test_certify_unquantizable_sample_raises_like_reference(eta, mu):
    # Lattice indices overflow at these parameters, so quantizing raises.
    sysdef, cert = e1()
    system, p = relation_model("e1", RELATION_PARAMS[0]), ad.AbstractionParams(1.0, eta, mu)
    got = scalar_or_error(ad.certify_relation, sysdef, cert, p, system, 100, 0)
    assert got == scalar_or_error(reference_certify_relation, sysdef, cert, p, system, 100, 0)
    assert got[0] is DomainError


@pytest.mark.parametrize(
    "f2, error",
    [
        ("0.25*x1 + pow(x2, 0.5)", EvaluationError),
        ("0.25*x1 + 0.5*x2 + pow(x2 + 1, 0.5) - 1", EvaluationError),
        ("0.25*x1 + 0.5*x2 + x2*1e308*10", NumericError),
    ],
)
def test_sampled_check_errors_equal_reference(f2, error):
    sysdef, cert = plant(["0.5*x1 + u1", f2])
    params = RELATION_PARAMS[0]
    system, p = relation_model("e1", params), ad.AbstractionParams(*params)
    for seed in range(3):
        got = scalar_or_error(ad.validate_certificate, sysdef, cert, 1000, seed)
        assert got == scalar_or_error(reference_validate_certificate, sysdef, cert, 1000, seed)
        assert got[0] is error
        got = scalar_or_error(ad.certify_relation, sysdef, cert, p, system, 1000, seed)
        assert got == scalar_or_error(reference_certify_relation, sysdef, cert, p, system, 1000, seed)
        assert got[0] is error
