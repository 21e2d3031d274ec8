import numpy as np
import pytest

from approxdiag.errors import DomainError, RangeError
from approxdiag.kfun import KFunction, compose_inverse


def compose_eval(f: KFunction, g: KFunction, r: float) -> float:
    """f(g(r)); used for the composed decrease gain in the accuracy check."""
    return f(g(r))


def bisect_inverse(f, y, lo=0.0, hi=None, iters=200):
    """Independent inversion oracle: expand then bisect."""
    if hi is None:
        hi = 1.0
        while f(hi) < y:
            hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


ALL_FORMS = [
    KFunction.linear(0.25),
    KFunction.linear(3.0),
    KFunction.power(1.0, 2.0),
    KFunction.power(2.0, 0.5),
    KFunction.piecewise_linear([(0, 0), (1, 0.5), (2, 3.0), (5, 10.0)]),
]


def test_eval_examples():
    assert KFunction.linear(0.25)(2.0) == 0.5
    assert KFunction.power(1.0, 2.0)(0.0) == 0.0
    assert KFunction.power(2.0, 0.5)(4.0) == 4.0


def test_eval_rejects_negative():
    with pytest.raises(DomainError):
        KFunction.linear(1.0)(-0.1)


def test_inverse_examples():
    assert KFunction.linear(0.25).inverse(0.5) == 2.0
    for f in ALL_FORMS:
        assert f.inverse(0.0) == 0.0
    f = KFunction.power(1.0, 2.0)
    assert abs(f.inverse(9.0) - bisect_inverse(f, 9.0)) < 1e-9


def test_pwl_exact_values_both_directions():
    # The ALL_FORMS curve at its breakpoints, between them and past the last
    # one, where every value is exact in binary floating point.
    f = ALL_FORMS[-1]
    pairs = [(0.0, 0.0), (0.5, 0.25), (1.0, 0.5), (1.5, 1.75), (2.0, 3.0), (3.5, 6.5), (5.0, 10.0), (8.0, 17.0)]
    for r, y in pairs:
        assert f(r) == y
        assert f.inverse(y) == r


def test_nan_argument_gives_nan_in_every_form():
    for f in ALL_FORMS:
        assert np.isnan(f(float("nan"))) and np.isnan(f.inverse(float("nan")))


def test_inverse_rejects_negative():
    with pytest.raises(RangeError):
        KFunction.linear(1.0).inverse(-1.0)


def test_compose_examples():
    assert compose_eval(KFunction.linear(0.25), KFunction.linear(1.0), 1.0) == 0.25
    ident = KFunction.identity()
    assert compose_eval(ident, ident, 7.0) == 7.0
    assert compose_eval(KFunction.linear(2.0), KFunction.power(1.0, 2.0), 3.0) == 18.0


def test_monotonicity():
    rng = np.random.default_rng(1)
    for f in ALL_FORMS:
        for _ in range(200):
            r1, r2 = sorted(rng.uniform(0.0, 1000.0, size=2))
            if r1 < r2:
                assert f(r1) < f(r2), f


def test_inverse_round_trip():
    rng = np.random.default_rng(2)
    for f in ALL_FORMS:
        for _ in range(200):
            r = float(rng.uniform(0.0, 1000.0))
            assert abs(f.inverse(f(r)) - r) <= 1e-9 * (1.0 + r)


def test_inverse_against_bisection_oracle():
    rng = np.random.default_rng(3)
    for f in ALL_FORMS:
        for _ in range(40):
            y = float(rng.uniform(0.0, 50.0))
            assert abs(f.inverse(y) - bisect_inverse(f, y)) <= 1e-8 * (1.0 + y)


def test_compose_is_exact_nesting():
    rng = np.random.default_rng(4)
    for f in ALL_FORMS:
        for g in ALL_FORMS:
            r = float(rng.uniform(0.0, 10.0))
            assert compose_eval(f, g, r) == f(g(r))


def test_compose_inverse():
    f, g = KFunction.linear(0.25), KFunction.identity()
    # (f o g)^-1 (0.25) = 1
    assert compose_inverse(f, g, 0.25) == 1.0


def test_pwl_validation():
    with pytest.raises(DomainError):
        KFunction.piecewise_linear([(0.5, 0.5), (1, 1)])  # must start at (0, 0)
    with pytest.raises(DomainError):
        KFunction.piecewise_linear([(0, 0), (1, 1), (1, 2)])  # r not increasing
    with pytest.raises(DomainError):
        KFunction.piecewise_linear([(0, 0), (1, 1), (2, 1)])  # value not increasing
    with pytest.raises(DomainError):
        KFunction.piecewise_linear([(0, 0)])  # too short


def test_coefficient_validation():
    with pytest.raises(DomainError):
        KFunction.linear(0.0)
    with pytest.raises(DomainError):
        KFunction.power(1.0, 0.0)


def test_json_round_trip():
    for f in ALL_FORMS:
        assert KFunction.from_json(f.to_json()) == f
