"""Decimal-intent conversion of numeric parameters to exact rationals.

Config files and CLI flags carry decimal literals; a float parses to the
nearest binary double, which is not the number the author wrote (0.1 is
not 1/10 as a double).  Exact set arithmetic on the binary values would
make intended boundary coincidences miss by an ulp: the lattice point
written 0.8 dilated by the radius written 0.2 must land exactly on 1.0.
Every float that crosses into rational arithmetic is therefore read back
through its shortest round-trip decimal repr, which recovers the literal
the author wrote.  Exact inputs (int, Fraction) pass through unchanged, and
a numpy integer reads as the int it holds.

``to_exact`` keeps an exact value in its cheapest type: a Python int when
it is integral, a Fraction otherwise.  Ints compare and hash equal to the
integral Fractions, so the two serve alike as dict keys and in comparisons;
only the cost differs.
"""

from __future__ import annotations

import numbers
from fractions import Fraction


def to_rational(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if type(v) is int:  # not bool: JSON true is not the number 1
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(str(v))
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, numbers.Integral) and type(v) is not bool:  # numpy integers
        return Fraction(int(v))
    raise TypeError(f"cannot interpret {v!r} as a rational number")


def to_exact(v) -> int | Fraction:
    if type(v) is int:
        return v
    r = to_rational(v)
    return r.numerator if r.denominator == 1 else r
