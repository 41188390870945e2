"""CLI subcommands, output shapes, and exit codes."""

import json
import subprocess
import sys

import pytest

import pingpong.cli as cli
from pingpong.errors import InvariantViolation
from pingpong.matrices import IntMatrix
from pingpong.serialize import pair_to_obj

H = IntMatrix.from_rows([[2, 1], [1, 1]])
K = IntMatrix.from_rows([[1, 1], [1, 2]])
ROT = IntMatrix.from_rows([[0, -1], [1, 0]])


def run_cli(args):
    return cli.main(args)


def write_pair(tmp_path, g1, g2):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair_to_obj(g1, g2)))
    return str(path)


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps({"g1": [["1", "2"], ["0", "1"]], "g2": [["1", "0"], ["2", "1"]]})
    )
    return str(path)


@pytest.fixture()
def hyperbolic_pair_file(tmp_path):
    path = tmp_path / "hyp.json"
    path.write_text(
        json.dumps({"g1": [["34", "21"], ["21", "13"]], "g2": [["34", "-21"], ["-21", "13"]]})
    )
    return str(path)


def test_enumerate(capsys, tmp_path):
    members = tmp_path / "members.jsonl"
    assert run_cli(["enumerate", "--n", "2", "--X", "3", "--members-out", str(members)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 52
    lines = members.read_text().strip().split("\n")
    assert len(lines) == 52
    assert all(isinstance(json.loads(line)[0][0], str) for line in lines)


def test_enumerate_budget_exit_code(capsys):
    assert run_cli(["enumerate", "--n", "2", "--X", "1000"]) == 3
    assert run_cli(["enumerate", "--n", "2", "--X", "0.5"]) == 2


def test_oracle(capsys, pair_file):
    assert run_cli(["oracle", "--pair", pair_file, "--max-len", "12"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["relation"] is None
    assert out["free_up_to_depth"] is True
    assert run_cli(["oracle", "--pair", pair_file, "--max-len", "13"]) == 3


def test_certify_refusal_names_condition(capsys, pair_file, tmp_path):
    assert run_cli(["certify", "--pair", pair_file, "--eps", "0.2", "--r", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] is False
    assert "contracting" in out["reason"]
    ident = IntMatrix.identity(2)
    cases = [
        (ident, ident, "g1 is not eps-contracting on the k = 1 exterior power"),
        (H.power(8), ident, "g2 is not eps-contracting on the k = 1 exterior power"),
        (
            ROT @ H.power(8),
            K.power(8),
            "g1 has attractor within r of its own repelling hyperplane",
        ),
        # each generator's attractor is the other's repelling direction
        (
            H.power(8),
            H.power(-8),
            "a cross separation between attractors and repelling hyperplanes is below r",
        ),
    ]
    for g1, g2, reason in cases:
        path = write_pair(tmp_path, g1, g2)
        assert run_cli(["certify", "--pair", path, "--eps", "0.1", "--r", "0.25"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["certified"], out["reason"]) == (False, reason)


def test_certify_success(capsys, tmp_path):
    from pingpong.matrices import IntMatrix
    from pingpong.serialize import pair_to_obj

    h8 = IntMatrix.from_rows([[2, 1], [1, 1]]).power(8)
    k8 = IntMatrix.from_rows([[1, 1], [1, 2]]).power(8)
    path = tmp_path / "hyp2.json"
    path.write_text(json.dumps(pair_to_obj(h8, k8)))
    assert run_cli(["certify", "--pair", str(path), "--eps", "0.1", "--r", "0.25"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] is True
    assert out["min_separation"] >= 0.25
    assert len(out["witnesses"]) == 4


def test_schottky_and_hausdorff(capsys, hyperbolic_pair_file, tmp_path):
    assert run_cli(["schottky", "--pair", hyperbolic_pair_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] is True
    assert out["hausdorff_upper_bound"] > 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(out))
    assert run_cli(["hausdorff", "--certificate", str(cert_path)]) == 0
    out2 = json.loads(capsys.readouterr().out)
    assert out2["bound"] == pytest.approx(out["hausdorff_upper_bound"], rel=1e-9)


def test_schottky_refusal(capsys, pair_file, tmp_path):
    assert run_cli(["schottky", "--pair", pair_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] is False
    assert "hyperbolic" in out["reason"]
    cases = [
        (H.power(4), ROT, "g2 is not hyperbolic (|trace| <= 2)"),
        (H.power(4), H.power(4), "isometric circles are not pairwise disjoint"),
    ]
    for g1, g2, reason in cases:
        path = write_pair(tmp_path, g1, g2)
        assert run_cli(["schottky", "--pair", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"certified": False, "reason": reason}


@pytest.mark.parametrize(
    "pair",
    [
        {"g1": [["-6", "-5"], ["-2", "-2"]], "g2": [["-6", "2"], ["-4", "1"]]},
        {"g1": [["4", "1"], ["2", "1"]], "g2": [["4", "-1"], ["-2", "1"]]},
        {"g1": [["3", "1"], ["0", "1"]], "g2": [["2", "1"], ["1", "1"]]},
    ],
)
@pytest.mark.parametrize("command", ["certify", "schottky"])
def test_det_not_one_exit_code(capsys, tmp_path, command, pair):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    assert run_cli([command, "--pair", str(path)]) == 2
    assert "det" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--pair", "{file}"],
        ["schottky", "--pair", "{file}"],
        ["hausdorff", "--certificate", "{file}"],
        ["oracle", "--pair", "{file}"],
        ["lyapunov", "--pair", "{file}"],
        ["experiment", "--config", "{file}"],
        ["volume", "--n", "2", "--logX", "3", "--gaps", "x:1"],
        ["enumerate", "--n", "2", "--X", "abc"],
        ["experiment", "--config", "{config}"],
    ],
)
def test_malformed_input_exit_code(tmp_path, argv):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"g1": [["2", "1"], ["1", "1"]], "g2": [["1", ')
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"n": 2, "x_grid": ["abc"], "symmetrized": False, "pairs_per_x": 5})
    )
    argv = [a.format(file=truncated, config=config) for a in argv]
    r = subprocess.run(
        [sys.executable, "-m", "pingpong.cli", *argv], capture_output=True, text=True
    )
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_wordstats(capsys):
    assert run_cli(["wordstats", "--m", "2", "--trials", "2000", "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mean_ratio"] == pytest.approx(0.75, abs=0.05)
    assert out["reference_ratio_three_quarters"] == 0.75


def test_volume(capsys):
    assert (
        run_cli(["volume", "--n", "2", "--logX", "3", "--resolution", "128"]) == 0
    )
    out = json.loads(capsys.readouterr().out)
    import math

    assert out["value"] == pytest.approx((math.cosh(6) - 1) / 2, rel=1e-5)
    assert run_cli(["volume", "--n", "5", "--logX", "3"]) == 2


def test_lyapunov(capsys, pair_file):
    assert run_cli(
        ["lyapunov", "--pair", pair_file, "--m", "50", "--trials", "2", "--seed", "1"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m"] == 50 and out["trials"] == 2


def test_experiment_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "x_grid": [5], "symmetrized": False}))
    assert run_cli(["experiment", "--config", str(cfg)]) == 2


def test_experiment_runs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"n": 2, "x_grid": [5], "symmetrized": False, "pairs_per_x": 20, "seed": 3}
        )
    )
    out_path = tmp_path / "rep.csv"
    assert run_cli(["experiment", "--config", str(cfg), "--out", str(out_path)]) == 0
    assert out_path.read_text().startswith("x,count_ball,")


def test_experiment_fractional_radius(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"n": 2, "x_grid": ["3/2"], "symmetrized": False, "pairs_per_x": 5})
    )
    assert run_cli(["experiment", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("1.5,")


def test_invariant_violation_exit_code(monkeypatch, tmp_path, capsys):
    def boom(cfg, cache_dir=None):
        raise InvariantViolation("forced for exit-code test")

    monkeypatch.setattr(cli, "run_experiment", boom)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"n": 2, "x_grid": [5], "symmetrized": False, "pairs_per_x": 5, "seed": 1}
        )
    )
    assert run_cli(["experiment", "--config", str(cfg)]) == 4


def test_console_script_wiring():
    r = subprocess.run(
        [sys.executable, "-m", "pingpong.cli", "enumerate", "--n", "2", "--X", "2"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["count"] == 20
