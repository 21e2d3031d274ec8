import json

import numpy as np
import pytest

from approxdiag import exprs
from approxdiag.cli import main
from approxdiag.errors import ConfigError, DomainError, EvaluationError
from approxdiag.fixtures import e1, e1_config
from approxdiag.lattice import quantize
from approxdiag.regions import BoxUnion
from approxdiag.system import (
    output,
    parse_system,
    quantized_output_trace,
    step,
    validate_certificate,
)
from reference import eval_expr


def test_parse_e1_accepted():
    sysdef, cert = e1()
    assert (sysdef.n, sysdef.m, sysdef.p) == (2, 1, 1)
    assert cert.lipschitz == 2.0


def test_parse_rejects_moving_origin():
    doc = e1_config()
    doc["f"][0] = "x1 + 1"
    with pytest.raises(ConfigError, match="fixed point"):
        parse_system(doc)


def test_parse_rejects_p_equal_n():
    doc = e1_config()
    doc["p"] = 2
    with pytest.raises(ConfigError, match="smaller than n"):
        parse_system(doc)


@pytest.mark.parametrize(
    "path, value, location",
    [
        (["n"], True, "n"),
        (["m"], True, "m"),
        (["p"], False, "p"),
        (["n"], 1.7, "n"),
        (["p"], 0.5, "p"),
        (["eta"], True, "eta"),
        (["certificate", "L"], True, "certificate.L"),
        (["certificate", "V_weights", 1], True, "certificate.V_weights"),
        (["certificate", "alpha_lo", "a"], True, "certificate.alpha_lo"),
        (["certificate", "lambda", "a"], False, "certificate.lambda"),
        (["certificate", "explore_bound", "upper", 0], True, "certificate.explore_bound"),
        (["X0", "boxes", 0, "lower", 0], True, "X0"),
        (["U", "boxes", 0, "upper", 0], True, "U"),
    ],
)
def test_parse_rejects_booleans_and_fractional_dimensions(path, value, location):
    # float(true) is 1.0 and int(1.7) is 1: neither is what the file says.
    doc = e1_config()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError) as exc:
        parse_system(doc)
    assert exc.value.location == location


@pytest.mark.parametrize("dim", [True, 2.7])
def test_empty_union_rejects_boolean_and_fractional_dim(dim, tmp_path, capsys):
    # int(true) is 1 and int(2.7) is 2: neither is what the file says.
    with pytest.raises(DomainError, match="dim|number"):
        BoxUnion.from_json({"dim": dim, "boxes": []})
    doc = e1_config()
    doc["U"] = {"dim": dim, "boxes": []}
    with pytest.raises(ConfigError) as exc:
        parse_system(doc)
    assert exc.value.location == "U"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["validate", str(config)]) == 4
    assert str(dim) in capsys.readouterr().err


def test_parse_accepts_integral_numbers_for_dimensions_and_bounds():
    doc = e1_config()
    doc["n"], doc["eta"] = 2.0, 1
    doc["certificate"]["lambda"] = {"form": "pwl", "points": [[0, 0], [1, 0.5]]}
    sysdef, cert = parse_system(doc)
    assert (type(sysdef.n), sysdef.n, sysdef.eta) == (int, 2, 1.0)
    assert cert.lam.points == ((0.0, 0.0), (1.0, 0.5))


def test_parse_rejects_unknown_identifier():
    doc = e1_config()
    doc["f"][0] = "0.5*x1 + u2"
    with pytest.raises(ConfigError, match="f\\[0\\]"):
        parse_system(doc)


def test_parse_rejects_origin_free_input_set():
    doc = e1_config()
    doc["U"] = {"boxes": [{"lower": [0.5], "upper": [1.0]}]}
    with pytest.raises(ConfigError, match="origin"):
        parse_system(doc)


def test_parse_reports_json_location():
    with pytest.raises(ConfigError, match="line"):
        parse_system("{\n  broken\n}")


def test_step_examples():
    sysdef, _ = e1()
    assert step(sysdef, (0.0, 0.0), (0.0,)) == (0.0, 0.0)
    assert step(sysdef, (0.0, 0.0), (1.0,)) == (1.0, 0.0)
    assert step(sysdef, (1.0, 0.0), (0.0,)) == (0.5, 0.25)


def test_step_deterministic():
    sysdef, _ = e1()
    rng = np.random.default_rng(30)
    for _ in range(100):
        x = tuple(rng.uniform(-2, 2, size=2))
        u = (float(rng.uniform(-1, 1)),)
        assert step(sysdef, x, u) == step(sysdef, x, u)


def test_output_projection():
    sysdef, _ = e1()
    assert output(sysdef, (0.7, -2.0)) == (0.7,)
    assert output(sysdef, (0.0, 0.0)) == (0.0,)


def test_quantized_output_trace_examples():
    sysdef, _ = e1()
    assert [q.coords for q in quantized_output_trace(sysdef, (0.0, 0.0), [])] == [(0,)]
    trace = quantized_output_trace(sysdef, (0.0, 0.0), [(1.0,)])
    assert [q.coords for q in trace] == [(0,), (5,)]  # y(1) = 1.0 embeds at index 5
    assert [q.coords for q in quantized_output_trace(sysdef, (0.3, 0.0), [])] == [(2,)]


def test_projection_commutes_with_quantization():
    # Quantizing the output equals projecting the quantized state.
    sysdef, _ = e1()
    rng = np.random.default_rng(31)
    for _ in range(300):
        x = tuple(rng.uniform(-3, 3, size=2))
        full = quantize(x, sysdef.eta)
        out = quantize(output(sysdef, x), sysdef.eta)
        assert out.coords == full.coords[: sysdef.p]


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _render(node: exprs.Node, required: int) -> str:
    """Render with parentheses exactly where the node binds looser than the
    slot requires; children pass required = prec (same-side associative) or
    prec + 1 (the non-associative side)."""
    if isinstance(node, exprs.Num):
        v = node.value
        return repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
    if isinstance(node, exprs.Var):
        return f"{node.kind}{node.index}"
    if isinstance(node, exprs.Call):
        return f"{node.fn}({', '.join(_render(a, 0) for a in node.args)})"
    if isinstance(node, exprs.Neg):
        text = f"-{_render(node.arg, _PREC['neg'])}"
        return f"({text})" if _PREC["neg"] < required else text
    prec = _PREC[node.op]
    if node.op == "^":
        left, right = _render(node.left, prec + 1), _render(node.right, prec)
        text = f"{left}^{right}"
    else:
        left, right = _render(node.left, prec), _render(node.right, prec + 1)
        text = f"{left} {node.op} {right}"
    return f"({text})" if prec < required else text


def pretty(node: exprs.Node) -> str:
    """Render a parseable string that round-trips to an identical tree."""
    return _render(node, 0)


def test_parser_round_trip():
    cases = [
        "0.5*x1 + u1",
        "-x1^2 + 3*(x2 - u1)/2",
        "min(x1, max(x2, 0.5)) - tanh(x1*x2)",
        "pow(abs(x1), 0.5) + exp(-x2)",
        "x1 - -x2",
        "2^-x1",
        "x1 - (x2 - u1)",
        "(x1 + x2)*(x1 - x2)",
    ]
    for src in cases:
        node = exprs.parse_expr(src, 2, 1)
        printed = pretty(node)
        assert exprs.parse_expr(printed, 2, 1) == node, (src, printed)


def test_guarded_evaluation():
    node = exprs.parse_expr("x1 / x2", 2, 1)
    with pytest.raises(EvaluationError):
        eval_expr(node, (1.0, 0.0), (0.0,))
    node = exprs.parse_expr("x1 ^ 0.5", 2, 1)
    with pytest.raises(EvaluationError):
        eval_expr(node, (-1.0, 0.0), (0.0,))
    assert eval_expr(node, (4.0, 0.0), (0.0,)) == 2.0


def test_compiled_matches_tree_walker():
    rng = np.random.default_rng(32)
    srcs = ["0.5*x1 + u1", "0.25*x1 + 0.5*x2", "sin(x1) - cos(x2)*tanh(u1)"]
    nodes = [exprs.parse_expr(s, 2, 1) for s in srcs]
    fn = exprs.compile_forest(nodes)
    for _ in range(100):
        x = tuple(rng.uniform(-2, 2, size=2))
        u = (float(rng.uniform(-1, 1)),)
        assert fn(x, u) == tuple(eval_expr(n, x, u) for n in nodes)


def test_validate_certificate_passes_on_e1():
    sysdef, cert = e1()
    rep = validate_certificate(sysdef, cert, samples=3000, seed=5)
    assert rep.passed


def test_validate_certificate_fails_on_wrong_rate():
    sysdef, cert = e1()
    doc = e1_config()
    doc["certificate"]["lambda"] = {"form": "linear", "a": 0.9}
    _, bad_cert = parse_system(doc)
    rep = validate_certificate(sysdef, bad_cert, samples=3000, seed=5)
    assert not rep.passed
    assert rep.violation_decrease > 0


def test_validate_certificate_zero_samples_vacuous():
    sysdef, cert = e1()
    assert validate_certificate(sysdef, cert, samples=0).passed


def system_to_json(sysdef, cert) -> dict:
    """The config document of a parsed system."""
    return {
        "n": sysdef.n,
        "m": sysdef.m,
        "p": sysdef.p,
        "f": list(sysdef.f_sources),
        "eta": sysdef.eta,
        "X0": sysdef.x0.to_json(),
        "U": sysdef.u_set.to_json(),
        "certificate": {
            "alpha_lo": cert.alpha_lo.to_json(),
            "alpha_hi": cert.alpha_hi.to_json(),
            "lambda": cert.lam.to_json(),
            "sigma": cert.sigma.to_json(),
            "L": cert.lipschitz,
            "V_weights": list(cert.weights),
            "explore_bound": cert.explore_bound.to_json(),
        },
    }


def test_system_json_round_trip():
    sysdef, cert = e1()
    again, cert2 = parse_system(system_to_json(sysdef, cert))
    assert again.f_nodes == sysdef.f_nodes
    assert cert2 == cert
