"""CLI subcommands, output shapes, and exit codes."""

import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pingpong.cli as cli
from pingpong.dynamics import MAX_ORACLE_LEN, MAX_STEPS
from pingpong.errors import ConvergenceError, InvariantViolation
from pingpong.haar import MAX_RESOLUTION
from pingpong.matrices import IntMatrix
from pingpong.serialize import pair_to_obj

H = IntMatrix.from_rows([[2, 1], [1, 1]])
K = IntMatrix.from_rows([[1, 1], [1, 2]])
ROT = IntMatrix.from_rows([[0, -1], [1, 0]])

SMALL_CONFIG = {"n": 2, "x_grid": [5], "symmetrized": False, "pairs_per_x": 5}
MIXED_G2 = [["1", "0", "0"], ["0", "1", "1"], ["0", "1", "2"]]


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


def test_package_runs_as_module(tmp_path):
    path = write_pair(tmp_path, H, H)
    r = subprocess.run(
        [sys.executable, "-m", "pingpong", "oracle", "--pair", path, "--max-len", "4"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"max_len": 4, "relation": "aB", "free_up_to_depth": False}


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


FOUR_CIRCLES = [{"center": c, "radius": 0.5} for c in (-3, -1, 1, 3)]


def _shear_pair(digits):
    """Det-1 pair whose g1 has the entry 10^digits."""
    return {"g1": [["1", "1" + "0" * digits], ["0", "1"]], "g2": [["1", "0"], ["1", "1"]]}


HUGE_PAIR = _shear_pair(400)  # an entry beyond float range
LARGE_PAIR = _shear_pair(200)  # entries in range, products of two beyond it

# one invocation over each work budget: exit 3 before any work starts
OVER_BUDGET = [
    ["volume", "--n", "2", "--logX", "3", "--resolution", str(MAX_RESOLUTION + 1)],
    ["wordstats", "--m", str(MAX_STEPS + 1), "--trials", "1"],
    ["lyapunov", "--pair", "{pair}", "--m", "1000", "--trials", str(MAX_STEPS // 1000 + 1)],
    ["experiment", "--config", {**SMALL_CONFIG, "x_grid": [20, 501]}],
    ["experiment", "--config", {**SMALL_CONFIG, "oracle_depth": MAX_ORACLE_LEN + 1}],
]


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
        ["experiment", "--config", {**SMALL_CONFIG, "pairs_per_x": 2.5}],
        ["experiment", "--config", {**SMALL_CONFIG, "seed": 1.5}],
        ["experiment", "--config", {**SMALL_CONFIG, "n": 2.0}],
        ["experiment", "--config", {**SMALL_CONFIG, "oracle_depth": 2.5}],
        ["experiment", "--config", {**SMALL_CONFIG, "symmetrized": "no"}],
        ["lyapunov", "--pair", "{pair}", "--trials", "0"],
        ["lyapunov", "--pair", "{pair}", "--m", "0"],
        ["lyapunov", "--pair", "{pair}", "--m", "-3"],
        ["wordstats", "--m", "5", "--trials", "0"],
        ["hausdorff", "--certificate", {"circles": [{"center": "a", "radius": 0.5}]}],
        ["hausdorff", "--certificate", {"circles": [{"center": None, "radius": 0.5}]}],
        ["volume", "--n", "2", "--logX", "nan"],
        ["volume", "--n", "3", "--logX", "1e6"],
        ["lyapunov", "--pair", "{mixed}"],
        ["certify", "--pair", "{mixed}"],
        ["lyapunov", "--pair", "{pair}", "--seed", "-1"],
        ["wordstats", "--m", "5", "--seed", "-1"],
        ["certify", "--pair", "{pair}", "--r", "inf"],
        ["experiment", "--config", {**SMALL_CONFIG, "eta": math.nan}],
        ["experiment", "--config", {**SMALL_CONFIG, "r": math.inf}],
        *OVER_BUDGET,
        ["hausdorff", "--certificate", {"circles": []}],
        ["hausdorff", "--certificate", {"circles": FOUR_CIRCLES[:2]}],
        ["hausdorff", "--certificate",
         {"circles": [*FOUR_CIRCLES[:3], {"center": 3, "radius": -0.1}]}],
        ["hausdorff", "--certificate",
         {"circles": [*FOUR_CIRCLES[:3], {"center": 3, "radius": "nan"}]}],
        ["hausdorff", "--certificate",
         {"circles": [*FOUR_CIRCLES[:3], {"center": "inf", "radius": 0.5}]}],
        ["enumerate", "--n", "2", "--X", "1/0"],
        ["experiment", "--config", {**SMALL_CONFIG, "x_grid": ["1/0"]}],
        ["experiment", "--config", {**SMALL_CONFIG, "x_grid": [True]}],
        ["experiment", "--config", {**SMALL_CONFIG, "x_grid": "99"}],
        ["experiment", "--config", {**SMALL_CONFIG, "r": True}],
        ["certify", "--pair", HUGE_PAIR],
        ["lyapunov", "--pair", HUGE_PAIR],
        ["lyapunov", "--pair", LARGE_PAIR],
        ["volume", "--n", "3", "--logX", "5", "--gaps", "1:nan"],
        # certified by the exact disjointness test; trace^2 beyond float range
        ["schottky", "--pair", pair_to_obj(H.power(480), K.power(480))],
        # entries beyond float range
        ["schottky", "--pair", pair_to_obj(H.power(1000), K.power(1000))],
    ],
)
def test_malformed_input_exit_code(tmp_path, argv):
    expected = 3 if argv in OVER_BUDGET else 2
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"g1": [["2", "1"], ["1", "1"]], "g2": [["1", ')
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"n": 2, "x_grid": ["abc"], "symmetrized": False, "pairs_per_x": 5})
    )
    pair = write_pair(tmp_path, H, K)
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"g1": pair_to_obj(H, K)["g1"], "g2": MIXED_G2}))
    inline = tmp_path / "inline.json"

    def as_arg(a):
        if isinstance(a, dict):  # written to a JSON file (NaN/Infinity allowed)
            inline.write_text(json.dumps(a))
            return str(inline)
        return a.format(file=truncated, config=config, pair=pair, mixed=mixed)

    argv = [as_arg(a) for a in argv]
    r = subprocess.run(
        [sys.executable, "-m", "pingpong.cli", *argv], capture_output=True, text=True
    )
    assert r.returncode == expected
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_lyapunov_overflow_is_one_config_error(capsys, tmp_path):
    path = tmp_path / "large.json"
    path.write_text(json.dumps(LARGE_PAIR))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["lyapunov", "--pair", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert err.count("\n") == 1


NUM = [str(i) for i in range(-1, 51)] + ["nan", "inf", "abc", ""]
# half the draws come from the small values where most commands do real work
VALUE = st.one_of(st.sampled_from(["-1", "0", "1", "2", "3", "4"]), st.sampled_from(NUM))
PAIRS = st.sampled_from(["pair", "pair3", "mixed", "zero", "one", "truncated", "list"])
CONFIGS = st.sampled_from(
    ["small", "small3", "eta_nan", "r_inf", "missing", "unknown", "bad_x", "truncated"]
)
# run lengths past the MAX_STEPS budget of m * trials
COUNT = st.one_of(VALUE, st.sampled_from([str(MAX_STEPS + 1), str(10 * MAX_STEPS)]))
# subcommand -> (required flags, optional flags), each flag -> strategy for
# its value (None: a switch).  --X and --resolution come from short lists:
# n = 3 balls past X = 4 and n = 4 volumes at the default resolution of
# 512 take seconds each, and counts within their budgets can take as long
FUZZ = {
    "enumerate": (
        {"--n": VALUE, "--X": st.sampled_from(["-1", "0", "2", "3", "3/2", "1000", "nan", "abc"])},
        {"--symmetrized": None},
    ),
    "certify": ({"--pair": PAIRS}, {"--k": VALUE, "--eps": VALUE, "--r": VALUE}),
    "schottky": ({"--pair": PAIRS}, {}),
    "hausdorff": ({"--certificate": st.one_of(PAIRS, st.just("cert"))}, {}),
    "oracle": ({"--pair": PAIRS}, {"--max-len": VALUE}),
    "lyapunov": ({"--pair": PAIRS}, {"--m": COUNT, "--trials": COUNT, "--seed": VALUE}),
    "wordstats": ({"--m": COUNT}, {"--trials": COUNT, "--seed": VALUE}),
    "volume": (
        {"--n": VALUE, "--logX": VALUE,
         "--resolution": st.sampled_from(
             ["-1", "0", "2", "63", "64", "abc", "", str(MAX_RESOLUTION + 1), "100000"]
         )},
        {"--symmetrized": None,
         "--gaps": st.sampled_from(["1:1", "2:0.5", "1:1,3:2", "x:1", "1:nan", "1:inf", "5:1"])},
    ),
    "experiment": ({"--config": CONFIGS}, {"--format": st.sampled_from(["csv", "json", "xml"])}),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    block_h = [["2", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]]
    zero = [["0", "0"], ["0", "0"]]
    objs = {
        "pair": pair_to_obj(H, K),
        "pair3": {"g1": block_h, "g2": MIXED_G2},
        "mixed": {"g1": pair_to_obj(H, K)["g1"], "g2": MIXED_G2},
        "zero": {"g1": zero, "g2": zero},
        "one": {"g1": [["1"]], "g2": [["1"]]},
        "list": [1, 2],
        "cert": {"circles": FOUR_CIRCLES},
        "small": {"n": 2, "x_grid": [3], "symmetrized": False, "pairs_per_x": 4},
        "small3": {"n": 3, "x_grid": [2], "symmetrized": True, "pairs_per_x": 3},
        "eta_nan": {**SMALL_CONFIG, "eta": math.nan},
        "r_inf": {**SMALL_CONFIG, "r": math.inf},
        "missing": {"n": 2, "x_grid": [3]},
        "unknown": {**SMALL_CONFIG, "radius": 3},
        "bad_x": {**SMALL_CONFIG, "x_grid": ["abc"]},
    }
    paths = {}
    for name, obj in objs.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    paths["truncated"] = root / "truncated.json"
    paths["truncated"].write_text('{"g1": [["2", "1"], ["1", "1"]], "g2": [["1", ')
    return {name: str(path) for name, path in paths.items()}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz_exit_codes(fuzz_files, data):
    command = data.draw(st.sampled_from(sorted(FUZZ)))
    required, optional = FUZZ[command]
    argv = [command]
    for flag, values in [*required.items(), *optional.items()]:
        if flag in required or data.draw(st.booleans()):
            argv.append(flag)
            if values is not None:
                value = data.draw(values)
                argv.append(fuzz_files.get(value, value))  # file names become paths
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and (command != "experiment" or "json" in argv):
        json.loads(out.getvalue())


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
    def boom(cfg):
        raise InvariantViolation("forced for exit-code test")

    monkeypatch.setattr(cli, "run_experiment", boom)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"n": 2, "x_grid": [5], "symmetrized": False, "pairs_per_x": 5, "seed": 1}
        )
    )
    assert run_cli(["experiment", "--config", str(cfg)]) == 4


def test_convergence_error_exit_code(monkeypatch, tmp_path, capsys):
    def stall(*args):
        raise ConvergenceError("forced for exit-code test")

    monkeypatch.setattr(cli, "ping_pong_pair", stall)
    assert run_cli(["certify", "--pair", write_pair(tmp_path, H, K)]) == 3
    assert "convergence error" in capsys.readouterr().err


def test_console_script_wiring():
    r = subprocess.run(
        [sys.executable, "-m", "pingpong.cli", "enumerate", "--n", "2", "--X", "2"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["count"] == 20
