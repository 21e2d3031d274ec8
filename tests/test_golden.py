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


@pytest.mark.parametrize(
    "name, faults",
    [("fts40_diag", "30,31,32,33,34,35,36,37,38,39"), ("fts40_nondiag", "2,28")],
    ids=["diagnosable", "not-diagnosable"],
)
def test_hand_written_check_report_is_byte_stable(capsys, name, faults):
    # Seeded 40-state models with 3 inputs and random moves; in the first the
    # fault states form a chain into an output no other state gives.  Their
    # pair space sits above the join threshold, and their BFS levels range
    # from 1 to a few hundred pairs.
    argv = ["check-fts", str(GOLDEN / f"{name}_model.json"), "--faults", faults, "--rho", "0", "--json"]
    assert main(argv) == 0
    doc = strip_timings(json.loads(capsys.readouterr().out))
    assert (canonical_json(doc) + "\n").encode() == (GOLDEN / f"{name}_report.json").read_bytes()


@pytest.mark.parametrize(
    "name, faults",
    [("mixed_outputs", "1"), ("fts40_diag", "30,31,32,33,34,35,36,37,38,39"), ("fts40_nondiag", "2,28")],
    ids=["mixed-outputs", "diagnosable", "not-diagnosable"],
)
def test_oracle_report_is_byte_stable(capsys, name, faults):
    # The oracle enumerates output classes in the repr order of their values
    # written as Fractions; the witness follows that order.  The mixed model's
    # outputs 0, 1/2 and 2 sort as 0, 2, 1/2 by the repr of ints, and its
    # witness would then pump on state 2 instead of states 1 and 3.
    argv = ["check-fts", str(GOLDEN / f"{name}_model.json"), "--faults", faults, "--rho", "0"]
    assert main([*argv, "--brute-force", "8", "--json"]) == 0
    doc = strip_timings(json.loads(capsys.readouterr().out))
    want = (GOLDEN / f"{name}_brute_force_report.json").read_bytes()
    assert (canonical_json(doc) + "\n").encode() == want
