"""The example systems of ``configs/``, read the way a user reads them.

E1 is the two-dimensional linear plant used throughout the test suite:
x1' = 0.5 x1 + u1, x2' = 0.25 x1 + 0.5 x2, observed output x1.  Its
certificate is the plain infinity-norm difference with decrease rate
0.25 r (the dynamics matrix has infinity norm 0.75) and input gain r.

D1 and ND1 are hand-written finite systems.  In D1 (a=0 initial, f=2
faulty, c=4 clean) the faulty and clean branches are output-distinguishable
one step after the fork.  In ND1 (a=(0,0), f=(2,0), c=(2,5), output the
first coordinate) they produce identical outputs forever while sitting 5
apart, so ND1 is not diagnosable for any ball radius below 5.  In both
the fault set is state 1.
"""

from __future__ import annotations

import json
from pathlib import Path

from approxdiag.finsys import FiniteSystem
from approxdiag.system import Certificate, SystemDef, parse_system

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

D1_FAULTS = frozenset({1})
ND1_FAULTS = frozenset({1})


def e1_config() -> dict:
    """A fresh copy of ``configs/e1.json``, safe to edit."""
    return json.loads((CONFIGS / "e1.json").read_text())


def e1() -> tuple[SystemDef, Certificate]:
    return parse_system(e1_config())


def d1() -> FiniteSystem:
    return FiniteSystem.load(str(CONFIGS / "d1.json"))


def nd1() -> FiniteSystem:
    return FiniteSystem.load(str(CONFIGS / "nd1.json"))
