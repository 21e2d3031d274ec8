import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from approxdiag import cli, report
from approxdiag.cli import main
from approxdiag.errors import EmptyErosionError
from approxdiag.finsys import FiniteSystem
from approxdiag.report import PhaseTimer, strip_timings

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
E1 = str(CONFIGS / "e1.json")
D1 = str(CONFIGS / "d1.json")
ND1 = str(CONFIGS / "nd1.json")
FAULT_X1 = str(CONFIGS / "fault_x1.json")
FAULT_X2 = str(CONFIGS / "fault_x2.json")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_phase_timer_adds_per_name_and_times_a_raising_block(monkeypatch):
    # The check command's retry after EmptyErosionError keeps the time of
    # the failed attempt, so a block that raises must still be recorded.
    clock = iter([1.0, 1.5, 2.0, 2.25, 3.0, 3.125])
    monkeypatch.setattr(report, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    timer = PhaseTimer()
    with timer.phase("conclude"):
        pass
    with timer.phase("conclude"):
        pass
    with pytest.raises(EmptyErosionError):
        with timer.phase("retry"):
            raise EmptyErosionError("eroded away")
    assert timer.timings_ms == {"conclude": 750.0, "retry": 125.0}


def test_validate(capsys):
    code, doc = run_json(capsys, ["validate", E1, "--samples", "1500", "--seed", "3", "--json"])
    assert code == 0
    assert doc["verdict"]["verdict"] == "PASS"
    assert doc["schema"] == "approxdiag/report/v1"


@pytest.mark.parametrize("samples, unmeasured", [(0, 3), (1, 1)])
def test_validate_json_with_too_few_samples(capsys, samples, unmeasured):
    # A violation no sample pair measured is written as null; the check passes vacuously.
    code, doc = run_json(capsys, ["validate", E1, "--samples", str(samples), "--json"])
    assert code == 0
    verdict = doc["verdict"]
    assert verdict["verdict"] == "PASS" and verdict["samples"] == samples
    assert doc["parameters"]["samples"] == samples
    values = [v for k, v in verdict.items() if k.startswith("violation_")]
    assert len(values) == 3 and values.count(None) == unmeasured
    assert all(isinstance(v, float) for v in values if v is not None)


@pytest.mark.parametrize(
    "command",
    [
        ["validate", E1],
        ["certify", E1, "--eta", "0.04", "--mu", "0.005", "--epsilon", "0.4"],
    ],
    ids=["validate", "certify"],
)
def test_negative_samples_is_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--samples", "-5", "--json"])
    assert exc.value.code == 64
    assert "nonnegative" in capsys.readouterr().err


def test_reports_reproducible_modulo_timings(capsys):
    _, a = run_json(capsys, ["validate", E1, "--samples", "500", "--json"])
    _, b = run_json(capsys, ["validate", E1, "--samples", "500", "--json"])
    assert strip_timings(a) == strip_timings(b)


def test_abstract_writes_stable_model(tmp_path, capsys):
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    code, doc = run_json(
        capsys,
        ["abstract", E1, "--eta", "0.5", "--mu", "0.5", "--solve-epsilon", "-o", str(out1), "--json"],
    )
    assert code == 0
    assert doc["counts"]["initial"] == 9  # quantizer image of the initial box
    code2, _ = run_json(
        capsys,
        [
            "abstract", E1, "--eta", "0.5", "--mu", "0.5", "--solve-epsilon",
            "-o", str(out2), "--json",
        ],
    )
    assert code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["abstract", E1, "--eta", "0.5", "--mu", "0.5", "--solve-epsilon", "-o", "m.json"],
        ["certify", E1, "--eta", "0.5", "--mu", "0.5", "--solve-epsilon"],
        [
            "check", E1, "--faults", FAULT_X1, "--mode", "prove",
            "--eta", "0.05", "--mu", "0.025", "--epsilon", "0.5",
        ],
        ["bench", "--dims", "1"],
    ],
    ids=["abstract", "certify", "check", "bench"],
)
def test_threads_option_is_gone(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "3"])
    assert exc.value.code == 64
    assert "unrecognized arguments: --threads 3" in capsys.readouterr().err


def test_abstract_requires_epsilon_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["abstract", E1, "--eta", "0.5", "--mu", "0.5", "-o", "/tmp/x.json"])
    assert exc.value.code == 64


def test_check_fts_fixture(capsys):
    code, doc = run_json(capsys, ["check-fts", D1, "--faults", "1", "--rho", "0", "--json"])
    assert code == 0
    assert doc["verdict"]["diagnosable"] is True
    assert doc["verdict"]["delta"] == 1


def test_check_fts_brute_force(capsys):
    code, doc = run_json(
        capsys, ["check-fts", ND1, "--faults", "1", "--rho", "1", "--brute-force", "6", "--json"]
    )
    assert code == 0
    assert doc["verdict"]["diagnosable"] is False
    assert len(doc["verdict"]["witness"][0]) >= 4


def test_check_fts_brute_force_report_is_pinned(capsys):
    # The bounded oracle's pump witness: fork at 0, then f=1 and c=2 loop.
    _, doc = run_json(
        capsys, ["check-fts", ND1, "--faults", "1", "--rho", "1", "--brute-force", "6", "--json"]
    )
    assert strip_timings(doc) == {
        "command": "check-fts",
        "config_digest": "454ec0ff6f2bcffe10e5df81325f929622f268796348e8d01c184a6e17d08ccd",
        "parameters": {"faults": [1], "rho": 1.0},
        "schema": "approxdiag/report/v1",
        "verdict": {
            "diagnosable": False,
            "method": "bounded-enumeration(T=6)",
            "witness": [[0, 1, 1, 1], [0, 2, 2, 2]],
        },
    }


def test_check_fts_region_faults(tmp_path, capsys):
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"boxes": [{"lower": [2], "upper": [2]}]}))
    code, doc = run_json(
        capsys, ["check-fts", D1, "--faults", str(region), "--rho", "0", "--json"]
    )
    assert code == 0
    assert doc["parameters"]["faults"] == [1]  # the state embedded at 2


@pytest.fixture
def unbounded_region(tmp_path):
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"boxes": [{"lower": [1.5], "upper": [float("inf")]}]}))
    assert "Infinity" in region.read_text()
    return str(region)


def test_check_fts_unbounded_region_faults(capsys, unbounded_region):
    code, doc = run_json(
        capsys, ["check-fts", D1, "--faults", unbounded_region, "--rho", "0", "--json"]
    )
    assert code == 0
    assert doc["parameters"]["faults"] == [1, 2]


def test_monitor_unbounded_region_faults(capsys, monkeypatch, unbounded_region):
    monkeypatch.setattr("sys.stdin", io.StringIO("[0]\n[4]\n[4]\n"))
    assert main(["monitor", D1, "--faults", "1,2", "--rho", "0"]) == 0
    by_indices = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO("[0]\n[4]\n[4]\n"))
    assert main(["monitor", D1, "--faults", unbounded_region, "--rho", "0"]) == 0
    assert capsys.readouterr().out == by_indices == "0\n1\n1\n"


def test_monitor_session(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[0]\n[2]\n[2]\n"))
    code = main(["monitor", D1, "--faults", "1", "--rho", "0"])
    assert code == 0
    assert capsys.readouterr().out.split() == ["0", "1", "1"]


def test_monitor_infeasible_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[0]\n[1]\n"))
    code = main(["monitor", D1, "--faults", "1", "--rho", "0"])
    assert code == 3


@pytest.mark.parametrize(
    "stdin, out, err",
    [
        ("[7]\n", "", "no initial state produces output (Fraction(7, 1),)"),
        ("[0]\n[7]\n", "0\n", "no consistent run produces output (Fraction(7, 1),)"),
        ('[0]\n["1/2"]\n', "0\n", "no consistent run produces output (Fraction(1, 2),)"),
    ],
)
def test_monitor_infeasible_observation_message(capsys, monkeypatch, stdin, out, err):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(["monitor", D1, "--faults", "1", "--rho", "0"]) == 3
    got = capsys.readouterr()
    assert (got.out, got.err) == (out, f"infeasible observation: {err}\n")


@pytest.mark.parametrize(
    "stdin", ["[0.0]\nnot json\n", '["x"]\n', '{"a": 1}\n', "[0]\n[[2]]\n", "[true]\n"]
)
def test_monitor_malformed_line_is_precondition_failure(capsys, monkeypatch, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(["monitor", D1, "--faults", "1", "--rho", "0"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["check-fts", "monitor"])
def test_malformed_model_file_is_precondition_failure(tmp_path, capsys, monkeypatch, command):
    model = tmp_path / "d1.json"
    doc = json.loads(Path(D1).read_text())
    doc["transitions"].append([-1, 0, 0])
    model.write_text(json.dumps(doc))
    monkeypatch.setattr("sys.stdin", io.StringIO("[0]\n"))
    assert main([command, str(model), "--faults", "1", "--rho", "0"]) == 4
    assert "out of range" in capsys.readouterr().err
    model.write_text("not json")
    assert main([command, str(model), "--faults", "1", "--rho", "0"]) == 4


@pytest.mark.parametrize("command", ["check-fts", "monitor"])
def test_superscript_digit_faults_is_a_missing_region_file(tmp_path, capsys, monkeypatch, command):
    # "²" passes str.isdigit but not int(); it must be read as a region path.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO("[0]\n"))
    assert main([command, D1, "--faults", "²", "--rho", "0"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err



@pytest.mark.parametrize("command", ["check-fts", "monitor"])
def test_doubled_dash_fault_index_is_a_missing_region_file(tmp_path, capsys, monkeypatch, command):
    # Only one leading minus makes an index; "--2" is read as a region path.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO("[0]\n"))
    assert main([command, D1, "--faults", "1,--2", "--rho", "0"]) == 4
    err = capsys.readouterr().err
    assert err == "error: [Errno 2] No such file or directory: '1,--2'\n"

@pytest.fixture
def e1_fine_model(tmp_path, capsys):
    """The e1 abstraction at eta 0.05 with faults at x1 >= 1.5, which the
    diagnoser accepts at rho 0.1."""
    model, faults = tmp_path / "e1.json", tmp_path / "faults.json"
    faults.write_text(json.dumps({"boxes": [{"lower": [1.5, -4], "upper": [4, 4]}]}))
    argv = ["abstract", E1, "--eta", "0.05", "--mu", "0.025", "--epsilon", "0.5", "-o", str(model)]
    assert main(argv) == 0
    capsys.readouterr()
    return ["monitor", str(model), "--faults", str(faults), "--rho", "0.1"]


def test_monitor_on_e1_model(capsys, monkeypatch, e1_fine_model):
    monkeypatch.setattr("sys.stdin", io.StringIO("[1.0]\n[1.2]\n[1.5]\n[1.6]\n"))
    assert main(e1_fine_model) == 0
    assert capsys.readouterr().out.split() == ["0", "0", "1", "1"]


def test_monitor_overflowing_observation_is_precondition_failure(capsys, monkeypatch, e1_fine_model):
    monkeypatch.setattr("sys.stdin", io.StringIO("[0.0]\n[1e308]\n"))
    assert main(e1_fine_model) == 4
    captured = capsys.readouterr()
    assert captured.out.split() == ["0"]
    assert "overflows" in captured.err


def test_abstract_overflowing_successor_is_precondition_failure(tmp_path, capsys):
    config = json.loads(Path(E1).read_text())
    config["f"][0] = "1.5e308*x1"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(config))
    argv = ["abstract", str(path), "--eta", "0.05", "--mu", "0.5", "--epsilon", "100"]
    code = main(argv + ["-o", str(tmp_path / "m.json")])
    assert code == 4
    assert "overflows" in capsys.readouterr().err


def test_abstract_nan_eta_with_pwl_gain_is_precondition_failure(tmp_path, capsys):
    # A piecewise-linear lambda evaluated at NaN gives NaN, as the linear and
    # power forms do, so the parameter check rejects it (not an internal error).
    config = json.loads(Path(E1).read_text())
    config["certificate"]["lambda"] = {"form": "pwl", "points": [[0, 0], [1, 0.25], [2, 0.5]]}
    path = tmp_path / "pwl.json"
    path.write_text(json.dumps(config))
    argv = ["abstract", str(path), "--eta", "nan", "--mu", "0.005", "--solve-epsilon"]
    assert main(argv + ["-o", str(tmp_path / "m.json")]) == 4
    assert "must all be positive" in capsys.readouterr().err


def test_check_prove(capsys):
    code, doc = run_json(
        capsys,
        [
            "check", E1, "--faults", FAULT_X1, "--mode", "prove",
            "--eta", "0.05", "--mu", "0.025", "--epsilon", "0.5", "--json",
        ],
    )
    assert code == 0
    assert doc["verdict"]["direction"] == "DIAGNOSABLE_FOR_RHO_ABOVE"
    assert doc["verdict"]["rho_bound"] == 2.0


def test_check_refute_inconclusive_exit_code(tmp_path, capsys):
    region = tmp_path / "visible.json"
    region.write_text(json.dumps({"boxes": [{"lower": [1.4, -1.2], "upper": [2.1, 1.2]}]}))
    code, doc = run_json(
        capsys,
        [
            "check", E1, "--faults", str(region), "--mode", "refute", "--rho", "0.05",
            "--eta", "0.03", "--mu", "0.01", "--epsilon", "0.3", "--json",
        ],
    )
    assert code == 2
    assert doc["verdict"]["direction"] == "INCONCLUSIVE"


def test_check_precondition_failure_exit_code(capsys):
    code = main(
        [
            "check", E1, "--faults", FAULT_X1, "--mode", "refute", "--rho", "0.05",
            "--eta", "0.03", "--mu", "0.01", "--epsilon", "0.3", "--json",
        ]
    )
    assert code == 4  # erosion of the thin box is empty


@pytest.mark.parametrize("command", ["abstract", "check"])
def test_explore_box_above_grid_cap_exits_4(tmp_path, capsys, command):
    doc = json.loads(Path(E1).read_text())
    doc["certificate"]["explore_bound"] = {"lower": [-1e6, -1e6], "upper": [1e6, 1e6]}
    config = tmp_path / "wide.json"
    config.write_text(json.dumps(doc))
    model = tmp_path / "model.json"
    argv = [command, str(config), "--eta", "0.04", "--mu", "0.005", "--epsilon", "0.4"]
    argv += ["-o", str(model)] if command == "abstract" else ["--faults", FAULT_X1, "--mode", "prove"]
    assert main(argv) == 4
    assert "lattice cells" in capsys.readouterr().err
    assert not model.exists()



@pytest.mark.parametrize("command", ["abstract", "check"])
@pytest.mark.parametrize("flag", ["--epsilon", "--eta", "--mu"])
def test_infinite_parameter_exits_4(tmp_path, capsys, command, flag):
    model = tmp_path / "model.json"
    argv = [command, E1, "--eta", "0.04", "--mu", "0.005", "--epsilon", "0.4"]
    argv[argv.index(flag) + 1] = "inf"
    argv += ["-o", str(model)] if command == "abstract" else ["--faults", FAULT_X1, "--mode", "prove"]
    assert main(argv) == 4
    assert capsys.readouterr().err == "error: epsilon, eta and mu must all be positive and finite\n"
    assert not model.exists()


def test_absurd_input_lattice_exits_4(tmp_path, capsys):
    model = tmp_path / "model.json"
    argv = ["abstract", E1, "--eta", "0.04", "--mu", "1e-300", "--epsilon", "0.4", "-o", str(model)]
    assert main(argv) == 4
    assert capsys.readouterr().err == "error: lattice box of more than 67108864 points\n"
    assert not model.exists()

def test_check_refine_recovers_from_coarse_start(capsys):
    # eta = 0.06 erodes the fault region away; one halving settles it.
    code, doc = run_json(
        capsys,
        [
            "check", E1, "--faults", FAULT_X2, "--mode", "refute", "--rho", "0.05",
            "--eta", "0.06", "--mu", "0.02", "--solve-epsilon", "--refine", "2", "--json",
        ],
    )
    assert code == 0
    assert doc["verdict"]["direction"] == "NOT_DIAGNOSABLE_FOR_RHO"
    assert doc["parameters"]["refinements"] == 1


def test_falsify(capsys):
    code, doc = run_json(
        capsys,
        [
            "falsify", E1, "--faults", FAULT_X2, "--rho", "0.05",
            "--trials", "400", "--horizon", "30", "--seed", "0", "--json",
        ],
    )
    assert code == 0
    assert doc["verdict"]["found"] is True
    assert doc["verdict"]["counterexample"]["fault_time"] >= 1


@pytest.mark.parametrize("flag, value", [("--trials", "-5"), ("--horizon", "-1")])
def test_falsify_negative_count_is_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["falsify", E1, "--faults", FAULT_X2, "--rho", "0.05", flag, value, "--json"])
    assert exc.value.code == 64
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", E1],
        ["certify", E1, "--eta", "0.04", "--mu", "0.005", "--epsilon", "0.4"],
        ["falsify", E1, "--faults", FAULT_X2, "--rho", "0.05"],
    ],
    ids=["validate", "certify", "falsify"],
)
def test_negative_seed_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1", "--json"])
    assert exc.value.code == 64
    assert "nonnegative" in capsys.readouterr().err


RHO_COMMANDS = {
    "check-fts": ["check-fts", D1, "--faults", "1", "--json", "--rho"],
    "monitor": ["monitor", D1, "--faults", "1", "--rho"],
    "check-refute": [
        "check", E1, "--faults", FAULT_X2, "--mode", "refute",
        "--eta", "0.04", "--mu", "0.005", "--epsilon", "0.4", "--json", "--rho",
    ],
    "check-rho-target": [
        "check", E1, "--faults", FAULT_X2, "--mode", "prove",
        "--eta", "0.04", "--mu", "0.005", "--epsilon", "0.4", "--json", "--rho-target",
    ],
    "falsify": ["falsify", E1, "--faults", FAULT_X2, "--trials", "50", "--json", "--rho"],
}


@pytest.mark.parametrize(
    "command, value, message",
    [(c, v, f"ball radius must be finite, got {v}") for c in RHO_COMMANDS for v in ("nan", "inf")]
    + [("falsify", "-1", "ball radius must be nonnegative")],
    ids=[f"{c}-{v}" for c in RHO_COMMANDS for v in ("nan", "inf")] + ["falsify--1"],
)
def test_bad_rho_is_precondition_failure(capsys, monkeypatch, command, value, message):
    # Rejected before any work: no trial is drawn and no input line read.
    monkeypatch.setattr("sys.stdin", io.StringIO("[0]\n"))
    monkeypatch.setattr("approxdiag.bridge._draw_chunk", None)
    code = main(RHO_COMMANDS[command] + [value])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_falsify_accepts_seeds_past_64_bits(capsys):
    for seed in (2**64, 2**128 + 1):
        code, doc = run_json(
            capsys,
            ["falsify", E1, "--faults", FAULT_X2, "--rho", "0.05", "--trials", "300",
             "--seed", str(seed), "--json"],
        )
        assert code == 0 and doc["parameters"]["seed"] == seed


def test_bench_counts(capsys):
    code, doc = run_json(capsys, ["bench", "--dims", "1,2,3", "--width", "4", "--json"])
    assert code == 0
    assert [row["states"] for row in doc["rows"]] == [4, 16, 64]


def test_bench_empty_dims(capsys):
    code, doc = run_json(capsys, ["bench", "--json"])
    assert code == 0
    assert doc["rows"] == []


@pytest.mark.parametrize("dims", ["a", "0", "1,,2", "-1"])
def test_bench_bad_dims_is_usage_error(capsys, dims):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--dims", dims, "--json"])
    assert exc.value.code == 64
    assert "positive integers" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["0", "-2", "x"])
def test_bench_bad_width_is_usage_error(capsys, width):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--dims", "1", "--width", width, "--json"])
    assert exc.value.code == 64
    assert "--width" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["abstract", "--definitely-not-a-flag"])
    assert exc.value.code == 64


def test_missing_config_is_precondition_failure(capsys):
    assert main(["validate", "/nonexistent/config.json"]) == 4


@pytest.mark.parametrize("where, value", [("config", True), ("faults", True), ("faults", "x")])
def test_non_number_is_precondition_failure(tmp_path, capsys, where, value):
    config, faults = json.loads(Path(E1).read_text()), json.loads(Path(FAULT_X2).read_text())
    if where == "config":
        config["eta"] = value
    else:
        faults["boxes"][0]["lower"][0] = value
    (tmp_path / "e1.json").write_text(json.dumps(config))
    (tmp_path / "faults.json").write_text(json.dumps(faults))
    argv = ["falsify", str(tmp_path / "e1.json"), "--faults", str(tmp_path / "faults.json")]
    assert main(argv + ["--rho", "0.05", "--trials", "10"]) == 4
    assert f"expected a number, got {value!r}" in capsys.readouterr().err


def test_import_leaves_concurrent_futures_unloaded():
    # concurrent.futures drags in logging, traceback and queue at start-up.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, approxdiag; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_main_reuses_one_parser_like_fresh_ones(capsys, monkeypatch):
    sequence = [
        ["check-fts", D1, "--rho", "0"],  # usage error: --faults is required
        ["check-fts", D1, "--faults", "1", "--rho", "0", "--json"],
        ["bench", "--width", "0"],
        ["check-fts", ND1, "--faults", "1", "--rho", "0", "--json"],
        ["validate", "/nonexistent/config.json"],
    ]

    def run_all():
        results = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out = strip_timings(json.loads(captured.out)) if captured.out else None
            results.append((code, out, captured.err))
        return results

    shared = run_all()
    assert run_all() == shared
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    assert run_all() == shared
    assert [code for code, _, _ in shared] == [64, 0, 64, 0, 4]


def test_check_fts_on_states_without_coordinates(tmp_path, capsys):
    # Every state lies at distance 0 from every other, so each is in the ball.
    doc = {
        "kind": "finite-system",
        "schema": 1,
        "p": 0,
        "raw_states": [[], []],
        "raw_outputs": [[], []],
        "inputs": ["a"],
        "initial": [0],
        "transitions": [[0, 0, 1], [1, 0, 1]],
    }
    model = tmp_path / "empty.json"
    model.write_text(json.dumps(doc))
    assert main(["check-fts", str(model), "--faults", "1", "--rho", "0"]) == 0
    assert FiniteSystem.load(str(model)).ball_states({1}, 0) == {0, 1}
