"""The expression front end against its text-based oracles, and inputs the
text round trip could not take."""

import copy
import json

import numpy as np
import pytest

from approxdiag import exprs
from approxdiag.cli import main
from approxdiag.errors import ApproxDiagError, ConfigError, ExprSyntaxError
from approxdiag.system import parse_system, step
from examples import e1_config
from reference import reference_compile_forest, reference_compile_forest_np, reference_parse_expr

NAMES = ["x1", "x2", "x3", "u1", "u2", "x0", "x01", "y", "_", "_0", "_1", "None", "True"]
NUMBERS = ["0", "2", "0.5", ".5", "2.", "1e3", "1E-2", "007", "3.25e+1", "1e400"]
FUNCS = ["exp", "sin", "cos", "tanh", "abs", "min", "max", "pow", "log", "sqrt"]
OPS = list("()+-*/^,") + ["**", "//", "if", "lambda", "not", "and", ".", "="]
SOUP = NAMES + NUMBERS + FUNCS + OPS


def outcome(parse, text):
    """The tree, or the class of the refusal."""
    try:
        return parse(text, 2, 1)
    except Exception as exc:  # the class itself is compared
        return type(exc)


def grammar_string(rng, depth=0) -> str:
    roll = rng.random() if depth < 4 else rng.random() * 0.4
    if roll < 0.2:
        return str(rng.choice(NUMBERS))
    if roll < 0.4:
        return str(rng.choice(NAMES[:4] if rng.random() < 0.9 else NAMES))
    if roll < 0.5:
        return "-" + grammar_string(rng, depth + 1)
    if roll < 0.6:
        return "(" + grammar_string(rng, depth + 1) + ")"
    if roll < 0.75:
        fn = str(rng.choice(FUNCS))
        arity = 2 if fn in ("min", "max", "pow") else 1
        arity += int(rng.random() < 0.05) - int(rng.random() < 0.05)
        return fn + "(" + ", ".join(grammar_string(rng, depth + 1) for _ in range(arity)) + ")"
    op = str(rng.choice(list("+-*/^")))
    gap = " " if rng.random() < 0.5 else ""
    return grammar_string(rng, depth + 1) + gap + op + gap + grammar_string(rng, depth + 1)


def soup_string(rng) -> str:
    return " ".join(str(rng.choice(SOUP)) for _ in range(rng.integers(1, 9)))


def mutated_string(rng) -> str:
    text = grammar_string(rng)
    i = int(rng.integers(0, len(text) + 1))
    char = str(rng.choice(list("x1u2()+-*/^,. _e")))
    kind = rng.integers(0, 3)
    if kind == 0:
        return text[:i] + text[i + 1 :]
    if kind == 1:
        return text[:i] + char + text[i:]
    return text[:i] + char + text[i + 1 :]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parser_matches_recursive_descent_on_fuzzed_strings(seed):
    rng = np.random.default_rng(seed)
    makers = (grammar_string, soup_string, mutated_string)
    texts = [make(rng) for make in makers for _ in range(700)]
    accepted = 0
    for text in texts:
        got, want = outcome(exprs.parse_expr, text), outcome(reference_parse_expr, text)
        if isinstance(want, type):
            assert isinstance(got, type) and issubclass(got, ApproxDiagError), (text, got, want)
        else:
            accepted += 1
            assert got == want, text
    assert 300 < accepted < len(texts) - 300  # both sides of the language are exercised


EDGE_CASES = [
    "0.5*x1 + u1",
    "0.25*x1 + 0.5*x2",
    "-x1^2 + 3*(x2 - u1)/2",
    "min(x1, max(x2, 0.5)) - tanh(x1*x2)",
    "pow(abs(x1), 0.5) + exp(-x2)",
    "x1 - -x2",
    "--x1",
    "2^-x1",
    "-x1^-x2^u1",
    "x1^x2^u1",
    "(x1^x2)^u1",
    "-(x1)^2",
    "x1*-x2",
    "x1/x2/u1",
    "x1 - x2 - u1",
    "x1 - (x2 - u1)",
    "(x1 + x2)*(x1 - x2)",
    "min(x1, x2)^2",
    "exp (x1)",
    "((((x1))))",
    "x01 + u01",
    "007",
    "1.",
    ".5e-3",
    "1E+2*x1",
    "1e400",
    "x2/1e400",
    "\t x1 \n+\r u1 ",
    "+x1",
    "x1 ** 2",
    "x1 // 2",
    "x1 ^ ^ x2",
    "1_000",
    "1x1",
    "1.5e",
    "x₁",
    "x1 @ x2",
    "x1 % 2",
    "x1 < x2",
    "x1.real",
    "x1[0]",
    "'x1'",
    "x1; x2",
    "x1 = 2",
    "",
    "   ",
    "(",
    ")",
    "()",
    "(x1",
    "x1)",
    "x1 +",
    "* x1",
    "x1 x2",
    "x1 2",
    "2 x1",
    "2(x1)",
    "x1(x2)",
    "(x1)(x2)",
    "(min)(x1, x2)",
    "min(x1, x2)(x1)",
    "exp",
    "exp + x1",
    "exp()",
    "exp(x1, x2)",
    "min(x1)",
    "min(x1, x2, u1)",
    "min(x1, x2,)",
    "min(x1,, x2)",
    "min(, x1)",
    "exp(x1,)",
    "(x1,)",
    "(x1, x2)",
    "x1, x2",
    "min(*x1)",
    "min(^x1, x2)",
    "min(x1 for x1 in x2)",
    "log(x1)",
    "x3",
    "u2",
    "x0",
    "y1",
    "_",
    "_0",
    "_ + x1",
    "__debug__",
    "None",
    "True",
    "if",
    "lambda",
    "lambda x1",
    "not x1",
    "x1 and x2",
    "x1 if x2 else u1",
    "x1 in x2",
    "x1 is x2",
    "await x1",
    "yield x1",
    "(" * 150 + "x1" + ")" * 150,
    "(" * 250 + "x1" + ")" * 250,
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_parser_matches_recursive_descent_on_edge_cases(text):
    got, want = outcome(exprs.parse_expr, text), outcome(reference_parse_expr, text)
    if isinstance(want, type):
        assert isinstance(got, type) and issubclass(got, ApproxDiagError), (got, want)
    else:
        assert got == want


def test_parser_takes_up_to_200_nested_parentheses():
    # The recursive descent ran out of stack before Python's nesting limit.
    assert exprs.parse_expr("(" * 200 + "x1" + ")" * 200, 2, 1) == exprs.Var("x", 1)
    with pytest.raises(ExprSyntaxError, match="too many nested parentheses"):
        exprs.parse_expr("(" * 201 + "x1" + ")" * 201, 2, 1)


@pytest.mark.parametrize(
    "text, position",
    [("y1 + (x1", 5), ("x1 +", 4), ("", 0), ("x1 + * u1", 5), ("min(x1, x2,)", 11), ("x1 x2", 3)]
    # An unexpected character at its own index, not where the blanks before it start.
    + [("@", 0), ("x1+@", 3), ("x1 + @", 5), ("x1 +   $", 7)],
)
def test_syntax_errors_carry_the_position_in_the_text(text, position):
    # y1 is unknown, but the syntax error is the one reported.
    with pytest.raises(ExprSyntaxError) as exc:
        exprs.parse_expr(text, 2, 1)
    assert exc.value.position == position


LEAVES = [exprs.Var("x", 1), exprs.Var("x", 2), exprs.Var("u", 1)] + [
    exprs.Num(v) for v in (0.0, 1.0, 0.5, 2.0, 3.0, 1e308, 1e-310)
]


def random_node(rng, depth=0):
    roll = rng.random() if depth < 4 else 0.0
    if roll < 0.35:
        return LEAVES[rng.integers(len(LEAVES))]
    if roll < 0.45:
        return exprs.Neg(random_node(rng, depth + 1))
    if roll < 0.75:
        op = str(rng.choice(list("+-*/^")))
        return exprs.Bin(op, random_node(rng, depth + 1), random_node(rng, depth + 1))
    fn = str(rng.choice(FUNCS[:8]))
    arity = 2 if fn in ("min", "max", "pow") else 1
    return exprs.Call(fn, tuple(random_node(rng, depth + 1) for _ in range(arity)))


def scalar_outcome(fn, x, u):
    try:
        return np.asarray(fn(x, u), dtype=float).view(np.int64).tolist()
    except ApproxDiagError as exc:
        return type(exc), str(exc)


def test_tree_compiled_forests_equal_text_compiled_oracles_bitwise():
    rng = np.random.default_rng(7)
    special = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.5, 700.0, 1e200, -1e200, 1e-310])
    failed = 0
    for _ in range(500):
        nodes = [random_node(rng) for _ in range(rng.integers(1, 4))]
        cols = [rng.choice(special, 16) for _ in range(3)]
        cols[0][:8] = rng.normal(0.0, 2.0, 8)
        x, u = cols[:2], cols[2:]
        scalar, oracle = exprs.compile_forest(nodes), reference_compile_forest(nodes)
        for i in range(16):
            row_x, row_u = (float(x[0][i]), float(x[1][i])), (float(u[0][i]),)
            got, want = scalar_outcome(scalar, row_x, row_u), scalar_outcome(oracle, row_x, row_u)
            assert got == want, (nodes, row_x, row_u)
            failed += isinstance(want[0], type)
        (out, bad), (want_out, want_bad) = (
            exprs.compile_forest_np(nodes)(x, u),
            reference_compile_forest_np(nodes)(x, u),
        )
        assert (bad == want_bad).all(), nodes
        for got_col, want_col in zip(out, want_out, strict=True):
            assert (got_col.view(np.int64) == want_col.view(np.int64)).all(), nodes
    assert 500 < failed < 500 * 16 // 2  # failing rows are compared too


# -- inputs the source-text round trip refused -------------------------------


def config_with(tmp_path, index, source):
    doc = e1_config()
    doc["f"][index] = source
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return doc, str(path)


ACCEPTED = [
    (0, "0.5*x1 + u1" + " + 0*x2" * 197),  # the text nested 200 parentheses
    (0, "0.5*x1 + u1" + " + 0*x2" * 500),
    (1, "0.25*x1 + 0.5*x2 + 0*x1" + "/2" * 199),  # 199 nested _div calls
    (1, "0.25*x1 + 0.5*x2 + x2/1e400"),  # the text read the literal as a name inf
]


@pytest.mark.parametrize("index, source", ACCEPTED, ids=["chain197", "chain500", "div199", "inf"])
def test_long_and_overflowing_expressions_parse_and_validate(tmp_path, capsys, index, source):
    doc, path = config_with(tmp_path, index, source)
    sysdef, _ = parse_system(copy.deepcopy(doc))
    assert step(sysdef, (0.0, 0.0), (0.0,)) == (0.0, 0.0)
    assert step(sysdef, (1.0, 1.0), (0.0,)) == (0.5, 0.75)
    assert main(["validate", path, "--samples", "200"]) == 0
    assert capsys.readouterr().err == ""


def test_long_division_chain_compiles():
    node = exprs.parse_expr("x1" + "/2" * 199, 1, 1)
    assert exprs.compile_forest([node])((2.0**199,), (0.0,)) == (1.0,)
    out, bad = exprs.compile_forest_np([node])([np.array([2.0**199, 0.0])], [np.zeros(2)])
    assert list(out[0]) == [1.0, 0.0] and not bad.any()


TOO_DEEP = ["-" * 5000 + "x1", " + ".join(["x1"] * 5000), "^".join(["x1"] * 3000)]


@pytest.mark.parametrize("source", TOO_DEEP, ids=["negations", "sum", "powers"])
def test_too_deep_expressions_are_syntax_errors(tmp_path, capsys, source):
    with pytest.raises(ExprSyntaxError):
        exprs.parse_expr(source, 2, 1)
    doc, path = config_with(tmp_path, 0, source)
    with pytest.raises(ConfigError) as exc:
        parse_system(doc)
    assert exc.value.location == "f[0]"
    assert main(["validate", path]) == 4
    assert "f[0]" in capsys.readouterr().err
