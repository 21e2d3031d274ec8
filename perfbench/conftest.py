"""Put the benchmark's modules and approxdiag's sources on the import path
for `python3 -m pytest perfbench`."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
