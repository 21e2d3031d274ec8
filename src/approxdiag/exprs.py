"""Parser and evaluator for the dynamics expression language.

Expressions are written over the state variables x1..xn, input variables
u1..um, numeric literals and the functions exp, sin, cos, tanh, abs,
min(a, b), max(a, b), pow(a, b).  Grammar (EBNF):

    expr   = term { ("+" | "-") term } ;
    term   = unary { ("*" | "/") unary } ;
    unary  = "-" unary | power ;
    power  = atom [ "^" unary ] ;              (right associative)
    atom   = NUMBER | IDENT | FUNC "(" expr { "," expr } ")" | "(" expr ")" ;

Python's ``ast`` parses this grammar over the same tokens: each token is one
word of Python source (``^`` as ``**``, a number or identifier as a
placeholder name; a number reads as ``float(token)``, so ``1e400`` is inf),
and any node but those of the grammar is refused.  Input nests at most 200
parentheses; an input too deep for the parser is an ExprSyntaxError, and
where a syntax error and an unknown identifier meet, the syntax error wins.

Evaluation is total on finite inputs in the sense that every failure mode
is a guarded EvaluationError rather than a NaN or an uncaught exception:
division by zero, a zero or negative base under a bad exponent, overflow,
a math domain error.  ``compile_forest_np`` compiles the same tree over
column arrays and flags, row by row, exactly the rows the scalar forms
raise on; + - * / and negation are numpy operations (bit for bit the
scalar results under IEEE), min/max keep Python's tie rule, and exp, sin,
cos, tanh and pow run the scalar helper per element, as numpy's SIMD
ufuncs need not round like libm.
"""

from __future__ import annotations

import ast
import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ExprSyntaxError, UnknownIdentifierError

_FUNCS1 = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "tanh": math.tanh, "abs": abs}
_FUNCS2 = {"min": min, "max": max, "pow": None}  # pow handled by the guarded helper


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str  # "x" or "u"
    index: int  # 1-based, as written


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Node", ...]


Node = Num | Var | Neg | Bin | Call

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _variable(name: str, pos: int, n: int, m: int) -> Var:
    limit = n if name[0] == "x" else m if name[0] == "u" else None
    if limit is None or not name[1:].isdigit():
        raise UnknownIdentifierError(f"unknown identifier {name!r} at position {pos}")
    if not 1 <= int(name[1:]) <= limit:
        allowed = f"{name[0]}1..{name[0]}{limit} allowed"
        raise UnknownIdentifierError(f"{name!r} out of range at position {pos} ({allowed})")
    return Var(name[0], int(name[1:]))


_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def parse_expr(text: str, n: int, m: int) -> Node:
    """Parse one expression over x1..xn, u1..um.  Token i is word i of the
    Python source, named ``_i`` if a number or an identifier (so no keyword
    of Python's plays a part); the spaces before a column count its token."""
    tokens = _tokenize(text)
    words = (val if kind == "op" else f"_{i}" for i, (kind, val, _) in enumerate(tokens[:-1]))
    source = " ".join(words).replace("^", "**")

    def walk(node):
        if isinstance(node, ast.Name):
            kind, val, pos = tokens[int(node.id[1:])]
            return Num(float(val)) if kind == "num" else _variable(val, pos, n, m)
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            return Bin(_OPS[type(node.op)], walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Neg(walk(node.operand))
        kind, val, pos = tokens[source.count(" ", 0, node.col_offset)]
        # A call names its function directly: not (min)(a, b), nor 2(a).
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and kind == "ident":
            if val not in _FUNCS1 and val not in _FUNCS2:
                raise UnknownIdentifierError(f"unknown function {val!r} at position {pos}")
            args, arity = tuple(walk(a) for a in node.args), 1 if val in _FUNCS1 else 2
            if node.keywords or len(args) != arity:
                raise ExprSyntaxError(f"{val} takes {arity} argument(s), got {len(args)}", pos)
            return Call(val, args)
        raise ExprSyntaxError(f"unsupported expression starting with {val!r}", pos)

    try:
        if ", )" in source:  # Python reads min(a, b,) as min(a, b)
            raise SyntaxError("expected a value, found ')'", ("", 1, source.index(", )") + 3, ""))
        return walk(compile(source, "<expr>", "eval", ast.PyCF_ONLY_AST).body)
    except SyntaxError as exc:
        i = source.count(" ", 0, exc.offset - 1) if exc.offset else -1  # no offset: at the end
        raise ExprSyntaxError(exc.msg, tokens[i][2]) from None
    except (RecursionError, MemoryError):
        raise ExprSyntaxError("expression nested too deeply", 0) from None


# -- evaluation -----------------------------------------------------------


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise EvaluationError("division by zero")
    return a / b


def _pow(a: float, b: float) -> float:
    if a < 0.0 and not (math.isfinite(b) and b == int(b)):
        raise EvaluationError(f"negative base {a} under non-integer exponent {b}")
    try:
        return a ** b
    except ZeroDivisionError as exc:
        raise EvaluationError(f"zero base under negative exponent {b}") from exc
    except OverflowError as exc:
        raise EvaluationError("overflow in power") from exc


def _guard(name: str, fn):
    def call(*args):
        try:
            return fn(*args)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(f"{name} failed on {list(args)}") from exc

    return call


_EVAL_HELPERS = {
    "_div": _div,
    "_pow": _pow,
    **{name: _guard(name, fn) for name, fn in _FUNCS1.items()},
    "min": min,
    "max": max,
}


# -- compilation ----------------------------------------------------------


_AT, _LOAD = {"lineno": 1, "col_offset": 0}, ast.Load()
_PY_OPS = {"+": ast.Add(), "-": ast.Sub(), "*": ast.Mult()}
_CALLED = {"/": "_div", "^": "_pow", "pow": "_pow"}  # the helper called for / ^ and pow


@functools.cache
def _load(name: str, index: int | None = None) -> ast.expr:
    """The node of a helper's name, or of x[index] or u[index], shared: compile only reads it."""
    node = ast.Name(name, _LOAD, **_AT)
    return node if index is None else ast.Subscript(node, ast.Constant(index, **_AT), _LOAD, **_AT)


def _tree(node: Node) -> ast.expr:
    if isinstance(node, Num):
        return ast.Constant(node.value, **_AT)
    if isinstance(node, Var):
        return _load(node.kind, node.index - 1)
    if isinstance(node, Neg):
        return ast.UnaryOp(ast.USub(), _tree(node.arg), **_AT)
    if isinstance(node, Bin) and node.op in _PY_OPS:
        return ast.BinOp(_tree(node.left), _PY_OPS[node.op], _tree(node.right), **_AT)
    fn, args = (node.op, (node.left, node.right)) if isinstance(node, Bin) else (node.fn, node.args)
    return ast.Call(_load(_CALLED.get(fn, fn)), [_tree(a) for a in args], [], **_AT)


def _compile(nodes, name: str, namespace: dict):
    """(x, u) -> tuple from constants, x/u subscripts, + - *, negation and helper calls."""
    xu = ast.arguments([], [ast.arg("x", **_AT), ast.arg("u", **_AT)], None, [], [], None, [])
    body = ast.Tuple([_tree(nd) for nd in nodes], _LOAD, **_AT)
    lam = ast.Expression(ast.Lambda(xu, body, **_AT))
    return eval(compile(lam, f"<{name}>", "eval"), namespace)  # noqa: S307


def compile_forest(nodes, name: str = "_dynamics"):
    """Compile an expression forest into one fast callable (x, u) -> tuple."""
    return _compile(nodes, name, dict(_EVAL_HELPERS))


class _Rows:
    """Array helpers of one numpy forest; each call of the forest resets
    ``rows`` and ``bad``, which flags the rows that failed."""

    def each(self, fn, *args):
        out = np.zeros(self.rows)
        for i, vals in enumerate(zip(*(np.broadcast_to(a, (self.rows,)).tolist() for a in args))):
            try:
                out[i] = fn(*vals)
            except EvaluationError:
                self.bad[i] = True
        return out

    def div(self, a, b):
        zero = np.broadcast_to(b == 0.0, (self.rows,))
        self.bad |= zero
        return a / np.where(zero, 1.0, b)


def compile_forest_np(nodes):
    """Numpy variant of ``compile_forest``: (x, u) are sequences of equal-
    length float64 columns; returns (output columns, failure mask), where
    row i is flagged exactly when the scalar forest raises on row i."""
    ops = _Rows()
    namespace = {name: (lambda *a, f=fn: ops.each(f, *a)) for name, fn in _EVAL_HELPERS.items()}
    namespace.update(
        _div=ops.div,
        abs=np.abs,
        min=lambda a, b: np.where(b < a, b, a),
        max=lambda a, b: np.where(b > a, b, a),
    )
    fn = _compile(nodes, "_dynamics_np", namespace)

    def forest(x, u):
        ops.rows, ops.bad = len(x[0]), np.zeros(len(x[0]), dtype=bool)
        with np.errstate(all="ignore"):
            cols = fn(x, u)
        return tuple(np.broadcast_to(c, (ops.rows,)).astype(float) for c in cols), ops.bad

    return forest
