"""Plant definition: dynamics x(t+1) = f(x(t), u(t)), projected quantized
outputs, and the incremental-stability certificate used to calibrate the
symbolic abstraction.

The candidate certificate function is restricted to weighted infinity-norm
differences V(x, x') = max_i w_i |x_i - x'_i|.  That family evaluates
exactly, has the exact Lipschitz constant 2 * max_i w_i under the product
norm max(||a - a'||, ||b - b'||), and makes the sublevel relation used for
certification a box, so relation checks are decidable rather than merely
samplable.  Certificate validity itself is checked statistically: the
toolkit trusts a certificate after randomized validation, it does not
prove one.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import exprs
from .errors import ConfigError, DomainError, InternalInvariantError, NumericError
from .kfun import KFunction
from .lattice import LatticePoint, quantize
from .regions import Box, BoxUnion, as_float

ORIGIN_FIXPOINT_TOL = 1e-12
CERT_VIOLATION_TOL = 1e-9


@dataclass(frozen=True)
class SystemDef:
    """The plant: dimensions, dynamics forest, initial/input sets, output
    quantization parameter.  Outputs are the first p state coordinates."""

    n: int
    m: int
    p: int
    f_nodes: tuple[exprs.Node, ...]
    f_sources: tuple[str, ...]
    x0: BoxUnion
    u_set: BoxUnion
    eta: float

    @functools.cached_property
    def compiled(self):
        """The scalar forest: (x, u) float tuples in, successor tuple out."""
        return exprs.compile_forest(self.f_nodes)

    @functools.cached_property
    def compiled_np(self):
        """The numpy forest: column arrays in, (columns, failure mask) out."""
        return exprs.compile_forest_np(self.f_nodes)


@dataclass(frozen=True)
class Certificate:
    """Incremental-stability data: comparison-function bounds alpha_lo,
    alpha_hi, decrease rate lam, input gain sigma, Lipschitz constant of V,
    the V weights, and the state-space box the abstraction may explore."""

    alpha_lo: KFunction
    alpha_hi: KFunction
    lam: KFunction
    sigma: KFunction
    lipschitz: float
    weights: tuple[float, ...]
    explore_bound: Box

    def v(self, a, b):
        """V of each row pair: max over the last axis of w * |a - b|."""
        return np.multiply(self.weights, np.abs(np.subtract(a, b))).max(axis=-1)


def step(sysdef: SystemDef, x, u):
    """One step of the dynamics; raises NumericError on non-finite results.
    Numpy scalars are read as Python floats, so they fail like floats."""
    x, u = tuple(map(float, x)), tuple(map(float, u))
    out = sysdef.compiled(x, u)
    for v in out:
        if not math.isfinite(v):
            raise NumericError(f"non-finite state {out} from x={x}, u={u}")
    return out


def _step_rows(sysdef: SystemDef, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """``step`` of every row of (xs, us) in one numpy forest call.  The first
    row the forest flags, or whose image is non-finite, is re-run through
    ``step``, so it raises exactly the scalar exception."""
    cols, bad = sysdef.compiled_np(list(xs.T), list(us.T))
    for col in cols:
        bad |= ~np.isfinite(col)
    out = np.column_stack(cols)
    if bad.any():
        r = int(np.flatnonzero(bad)[0])
        step(sysdef, xs[r], us[r])
        raise InternalInvariantError(f"row {r} flagged but steps")
    return out


def output(sysdef: SystemDef, x):
    """Projection onto the first p coordinates."""
    return tuple(x[: sysdef.p])


def quantized_output_trace(sysdef: SystemDef, x0, inputs) -> list[LatticePoint]:
    """Simulate from x0 under the input sequence and quantize each output.

    Element t depends only on x0 and inputs[0:t]; the trace has one more
    element than the input sequence.
    """
    x = tuple(x0)
    trace = [quantize(output(sysdef, x), sysdef.eta)]
    for u in inputs:
        u_t = (u,) if np.isscalar(u) else tuple(u)
        x = step(sysdef, x, u_t)
        trace.append(quantize(output(sysdef, x), sysdef.eta))
    return trace


# -- config parsing -------------------------------------------------------


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}.{key}" if where else key, "missing field")
    return doc[key]


def _number(v, location: str) -> float:
    try:
        return as_float(v)
    except DomainError as exc:
        raise ConfigError(location, str(exc)) from exc


def _dimension(doc: dict, key: str) -> int:
    v = _number(_require(doc, key, ""), key)
    if not v.is_integer():
        raise ConfigError(key, f"expected an integer, got {doc[key]!r}")
    return int(v)


def _box_union(doc, where: str, dim: int) -> BoxUnion:
    try:
        union = BoxUnion.from_json(doc, dim=dim)
    except Exception as exc:
        raise ConfigError(where, str(exc)) from exc
    if union.dim != dim:
        raise ConfigError(where, f"dimension {union.dim} != expected {dim}")
    if not union.is_bounded():
        raise ConfigError(where, "set must be bounded")
    return union


def parse_system(doc) -> tuple[SystemDef, Certificate]:
    """Parse and fully validate a system-config document (dict or JSON text).

    Checks, in order: field presence and shapes, expression syntax and
    identifier scope, p < n, the origin fixed point f(0, 0) = 0, 0 in U,
    boundedness of the initial and input sets, and certificate shape.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    if not isinstance(doc, dict):
        raise ConfigError("", "config root must be an object")

    n = _dimension(doc, "n")
    m = _dimension(doc, "m")
    p = _dimension(doc, "p")
    if n < 1 or m < 1 or p < 1:
        raise ConfigError("n/m/p", "dimensions must be positive")
    if p >= n:
        raise ConfigError("p", f"output dimension {p} must be smaller than n = {n}")

    f_sources = _require(doc, "f", "")
    if not isinstance(f_sources, list) or len(f_sources) != n:
        raise ConfigError("f", f"expected {n} expression strings")
    f_nodes = []
    for i, src in enumerate(f_sources):
        try:
            f_nodes.append(exprs.parse_expr(src, n, m))
        except Exception as exc:
            raise ConfigError(f"f[{i}]", str(exc)) from exc

    eta = _number(_require(doc, "eta", ""), "eta")
    if not eta > 0:
        raise ConfigError("eta", "output quantization parameter must be positive")

    x0 = _box_union(_require(doc, "X0", ""), "X0", n)
    u_set = _box_union(_require(doc, "U", ""), "U", m)
    if x0.is_empty():
        raise ConfigError("X0", "initial set must be nonempty")
    if not u_set.contains((0.0,) * m):
        raise ConfigError("U", "input set must contain the origin")

    sysdef = SystemDef(n, m, p, tuple(f_nodes), tuple(str(s) for s in f_sources), x0, u_set, eta)

    try:
        fx0 = step(sysdef, (0.0,) * n, (0.0,) * m)
    except Exception as exc:
        raise ConfigError("f", f"dynamics not evaluable at the origin: {exc}") from exc
    if max(abs(v) for v in fx0) > ORIGIN_FIXPOINT_TOL:
        raise ConfigError("f", f"origin is not a fixed point: f(0, 0) = {fx0}")

    cert_doc = _require(doc, "certificate", "")
    cert = _parse_certificate(cert_doc, n)
    return sysdef, cert


def _parse_certificate(doc: dict, n: int) -> Certificate:
    where = "certificate"
    if not isinstance(doc, dict):
        raise ConfigError(where, "must be an object")

    def kfun(key: str) -> KFunction:
        try:
            return KFunction.from_json(_require(doc, key, where))
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"{where}.{key}", str(exc)) from exc

    alpha_lo = kfun("alpha_lo")
    alpha_hi = kfun("alpha_hi")
    lam = kfun("lambda")
    sigma = kfun("sigma")
    lipschitz = _number(_require(doc, "L", where), f"{where}.L")
    if not lipschitz > 0:
        raise ConfigError(f"{where}.L", "Lipschitz constant must be positive")
    weights = tuple(_number(w, f"{where}.V_weights") for w in _require(doc, "V_weights", where))
    if len(weights) != n or any(not w > 0 for w in weights):
        raise ConfigError(f"{where}.V_weights", f"expected {n} strictly positive weights")
    try:
        bound = Box.from_json(_require(doc, "explore_bound", where))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{where}.explore_bound", str(exc)) from exc
    if bound.dim != n or not bound.is_bounded():
        raise ConfigError(f"{where}.explore_bound", f"must be a bounded box of dimension {n}")
    return Certificate(alpha_lo, alpha_hi, lam, sigma, lipschitz, weights, bound)


# -- certificate validation ------------------------------------------------


@dataclass(frozen=True)
class CertificateReport:
    """Worst sampled violations of the certificate inequalities.

    A negative violation means the inequality held with that much slack;
    the verdict passes when no violation exceeds CERT_VIOLATION_TOL.
    Report-only: a failing certificate is a finding, not an exception.
    """

    samples: int
    violation_bounds: float
    violation_decrease: float
    violation_lipschitz: float

    @property
    def passed(self) -> bool:
        worst = max(self.violation_bounds, self.violation_decrease, self.violation_lipschitz)
        return worst <= CERT_VIOLATION_TOL

    def to_json(self) -> dict:
        # A violation no sample measured is -inf, which JSON cannot carry: null.
        doc = {k: None if v == -math.inf else v for k, v in asdict(self).items()}
        return {**doc, "verdict": "PASS" if self.passed else "FAIL"}


def _sample_union(rng: np.random.Generator, union: BoxUnion, count: int) -> np.ndarray:
    """Uniform samples: pick a nonempty member box uniformly, then uniform
    inside.  One ``integers`` pick call, then one ``random`` draw per row
    and non-degenerate axis in row order: ``lo + (hi - lo) * r`` is
    ``rng.uniform(lo, hi)`` bit for bit, so the stream is the per-row one."""
    lower, width = union.member_arrays
    if not len(lower):
        raise ConfigError("", "cannot sample from an empty union")
    picks = rng.integers(0, len(lower), size=count)
    lo, span = lower[picks], width[picks]
    live = span > 0
    lo[live] += span[live] * rng.random(np.count_nonzero(live))
    return lo


def validate_certificate(
    sysdef: SystemDef, cert: Certificate, samples: int = 10_000, seed: int = 0
) -> CertificateReport:
    """Randomized check of the certificate inequalities.

    Draws state pairs from the exploration bound and input pairs from U and
    reports the maximum violation of (i) the alpha sandwich, (ii) the
    decrease condition V(f(x,u), f(x',u')) - V <= -lam(V) + sigma(|u - u'|),
    and the declared Lipschitz bound on V under the product norm
    max(||a - a'||, ||b - b'||).  Zero samples yield a vacuous pass.
    """
    if samples <= 0:
        return CertificateReport(0, -math.inf, -math.inf, -math.inf)
    rng = np.random.default_rng(seed)
    bound = BoxUnion.of(cert.explore_bound)
    xs = _sample_union(rng, bound, samples)
    xps = _sample_union(rng, bound, samples)
    us = _sample_union(rng, sysdef.u_set, samples)
    ups = _sample_union(rng, sysdef.u_set, samples)

    d = np.abs(xs - xps).max(axis=1)
    v = cert.v(xs, xps)
    bounds = np.concatenate([_gains(cert.alpha_lo, d) - v, v - _gains(cert.alpha_hi, d)])
    # Row 2k steps x_k and row 2k + 1 steps x'_k, so a failing row raises in
    # sample order.
    rows = _step_rows(
        sysdef, np.hstack([xs, xps]).reshape(-1, sysdef.n), np.hstack([us, ups]).reshape(-1, sysdef.m)
    )
    du = np.abs(us - ups).max(axis=1)
    decrease = cert.v(rows[0::2], rows[1::2]) - v + _gains(cert.lam, v) - _gains(cert.sigma, du)
    # Each sample pair against the one drawn before it.
    dprod = np.maximum(np.abs(xs[:-1] - xs[1:]).max(axis=1), np.abs(xps[:-1] - xps[1:]).max(axis=1))
    lip = np.abs(v[:-1] - v[1:]) - cert.lipschitz * dprod
    # fmax skips NaNs, as the builtin max does.
    worst = (float(np.fmax.reduce(a, initial=-math.inf)) for a in (bounds, decrease, lip))
    return CertificateReport(samples, *worst)


def _gains(k: KFunction, r: np.ndarray) -> np.ndarray:
    """k of each entry, one scalar call per numpy float: numpy's array
    power need not round like the scalar one."""
    return np.array([k(x) for x in r], dtype=float)
