"""Parser and evaluator for the dynamics expression language.

Expressions are written over the state variables x1..xn, input variables
u1..um, numeric literals and the functions exp, sin, cos, tanh, abs,
min(a, b), max(a, b), pow(a, b).  Grammar (EBNF):

    expr   = term { ("+" | "-") term } ;
    term   = unary { ("*" | "/") unary } ;
    unary  = "-" unary | power ;
    power  = atom [ "^" unary ] ;              (right associative)
    atom   = NUMBER | IDENT | FUNC "(" expr { "," expr } ")" | "(" expr ")" ;

Evaluation is total on finite inputs in the sense that every failure mode
is a guarded EvaluationError rather than a NaN or an uncaught exception:
division by zero, a zero or negative base under a bad exponent, overflow,
a math domain error.  ``compile_forest_np`` emits the same source over
column arrays and flags, row by row, exactly the rows the scalar forms
raise on; + - * / and negation are numpy operations (bit for bit the
scalar results under IEEE), min/max keep Python's tie rule, and exp, sin,
cos, tanh and pow run the scalar helper per element, as numpy's SIMD
ufuncs need not round like libm.
"""

from __future__ import annotations

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
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int, m: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n
        self.m = m

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}, found {val!r}", pos)

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input starting with {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = Bin(val, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return Bin("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, val, pos = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                return self.call(val, pos)
            return self.variable(val, pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected a value, found {val!r}", pos)

    def call(self, name: str, pos: int) -> Node:
        if name not in _FUNCS1 and name not in _FUNCS2:
            raise UnknownIdentifierError(f"unknown function {name!r} at position {pos}")
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.next()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        arity = 1 if name in _FUNCS1 else 2
        if len(args) != arity:
            raise ExprSyntaxError(f"{name} takes {arity} argument(s), got {len(args)}", pos)
        return Call(name, tuple(args))

    def variable(self, name: str, pos: int) -> Node:
        m = re.fullmatch(r"([xu])(\d+)", name)
        if not m:
            raise UnknownIdentifierError(f"unknown identifier {name!r} at position {pos}")
        kind, idx = m.group(1), int(m.group(2))
        limit = self.n if kind == "x" else self.m
        if not 1 <= idx <= limit:
            raise UnknownIdentifierError(
                f"{name!r} out of range at position {pos} ({kind}1..{kind}{limit} allowed)"
            )
        return Var(kind, idx)


def parse_expr(text: str, n: int, m: int) -> Node:
    """Parse one expression over x1..xn, u1..um."""
    return _Parser(text, n, m).parse()


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


def _emit(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"{node.kind}[{node.index - 1}]"
    if isinstance(node, Neg):
        return f"(-{_emit(node.arg)})"
    if isinstance(node, Bin):
        a, b = _emit(node.left), _emit(node.right)
        if node.op == "/":
            return f"_div({a}, {b})"
        if node.op == "^":
            return f"_pow({a}, {b})"
        return f"({a} {node.op} {b})"
    if node.fn == "pow":
        return f"_pow({', '.join(_emit(a) for a in node.args)})"
    return f"{node.fn}({', '.join(_emit(a) for a in node.args)})"


def _exec_forest(nodes, name: str, namespace: dict):
    body = ", ".join(_emit(nd) for nd in nodes)
    src = f"def {name}(x, u):\n    return ({body}{',' if len(tuple(nodes)) == 1 else ''})\n"
    exec(compile(src, f"<{name}>", "exec"), namespace)  # noqa: S102
    return namespace[name]


def compile_forest(nodes, name: str = "_dynamics"):
    """Compile an expression forest into one fast callable (x, u) -> tuple.

    The generated source is assembled purely from the validated AST, so it
    contains only literals, indexed reads of x/u and the helper calls above.
    """
    return _exec_forest(nodes, name, dict(_EVAL_HELPERS))


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
    fn = _exec_forest(nodes, "_dynamics_np", namespace)

    def forest(x, u):
        ops.rows, ops.bad = len(x[0]), np.zeros(len(x[0]), dtype=bool)
        with np.errstate(all="ignore"):
            cols = fn(x, u)
        return tuple(np.broadcast_to(c, (ops.rows,)).astype(float) for c in cols), ops.bad

    return forest
