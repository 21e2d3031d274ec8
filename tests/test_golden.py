import json
from pathlib import Path

import pytest

from approxdiag.abstraction import AbstractionParams, build_abstraction, solve_epsilon
from approxdiag.cli import main
from approxdiag.fixtures import e1
from approxdiag.report import canonical_json, strip_timings

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_e1_coarse_model_is_bit_stable(tmp_path):
    sysdef, cert = e1()
    params = AbstractionParams(solve_epsilon(cert, 0.5, 0.5), 0.5, 0.5)
    system = build_abstraction(sysdef, cert, params)
    path = tmp_path / "model.json"
    system.save(str(path))
    assert path.read_bytes() == (GOLDEN / "e1_eta05_model.json").read_bytes()


@pytest.mark.parametrize(
    "golden, faults, flags",
    [
        (
            "e1_refute_report.json",
            "fault_x2.json",
            ["--mode", "refute", "--rho", "0.05", "--eta", "0.03", "--mu", "0.01", "--epsilon", "0.3"],
        ),
        (
            "e1_prove_report.json",
            "fault_x1.json",
            ["--mode", "prove", "--eta", "0.04", "--mu", "0.005", "--epsilon", "0.4"],
        ),
    ],
    ids=["refute", "prove"],
)
def test_e1_check_report_is_byte_stable(capsys, golden, faults, flags):
    # The whole report: witness, k, fault states, dropped points, pair counts.
    argv = ["check", str(CONFIGS / "e1.json"), "--faults", str(CONFIGS / faults), *flags, "--json"]
    assert main(argv) == 0
    doc = strip_timings(json.loads(capsys.readouterr().out))
    assert (canonical_json(doc) + "\n").encode() == (GOLDEN / golden).read_bytes()
