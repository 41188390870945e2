"""Experiment orchestration, report emission, determinism."""

import json

import numpy as np
import pytest

from pingpong import harness
from pingpong.errors import BudgetError, ConfigError
from pingpong.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentReport,
    _is_gapped,
    config_from_obj,
    emit_report,
    run_experiment,
)
from pingpong.matrices import inverse
from pingpong.sampler import BallSpec, enumerate_ball, sample_pairs
from pingpong.serialize import canonical_json
from pingpong.spectral import svd_batch

SMALL = ExperimentConfig(n=2, x_grid=(5, 10), symmetrized=False, pairs_per_x=60, seed=7)


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(SMALL)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(n=2, x_grid=(), symmetrized=False, pairs_per_x=10)
    with pytest.raises(ConfigError):
        ExperimentConfig(n=2, x_grid=(5,), symmetrized=False, pairs_per_x=10, eps=0.3)
    with pytest.raises(ConfigError):
        ExperimentConfig(n=2, x_grid=(5,), symmetrized=False, pairs_per_x=10, r=0.3)
    with pytest.raises(BudgetError):
        ExperimentConfig(
            n=2, x_grid=(5,), symmetrized=False, pairs_per_x=10, oracle_depth=13
        )


def test_radius_over_budget_fails_before_any_work(monkeypatch):
    def unreachable(spec):
        raise AssertionError(f"enumerated {spec} before the budget check")

    monkeypatch.setattr(harness, "enumerate_ball", unreachable)
    obj = {"n": 2, "x_grid": [20, 501], "symmetrized": False, "pairs_per_x": 1000}
    with pytest.raises(BudgetError):
        run_experiment(config_from_obj(obj))


def test_config_from_obj_errors():
    with pytest.raises(ConfigError):
        config_from_obj([])
    with pytest.raises(ConfigError):
        config_from_obj({"n": 2})
    with pytest.raises(ConfigError):
        config_from_obj(
            {"n": 2, "x_grid": [5], "symmetrized": False, "pairs_per_x": 5, "bogus": 1}
        )


def test_rows_have_sane_fractions(small_report):
    for row in small_report.rows:
        for col in (
            "frac_trace_large",
            "frac_gapped",
            "frac_very_proximal",
            "frac_pingpong",
            "frac_schottky",
        ):
            assert 0.0 <= row[col] <= 1.0
        assert row["oracle_falsifications"] == 0
        assert row["frac_pingpong"] <= row["frac_very_proximal"] + 1e-12
        assert row["frac_very_proximal"] <= row["frac_gapped"] + 1e-12


def test_rerun_is_byte_identical(small_report):
    again = run_experiment(SMALL)
    assert emit_report(small_report, "json") == emit_report(again, "json")
    assert emit_report(small_report, "csv") == emit_report(again, "csv")


def test_seed_changes_output():
    other = run_experiment(
        ExperimentConfig(n=2, x_grid=(5, 10), symmetrized=False, pairs_per_x=60, seed=8)
    )
    assert emit_report(other, "csv") != emit_report(run_experiment(SMALL), "csv")


def test_csv_shape(small_report):
    text = emit_report(small_report, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(SMALL.x_grid)


def test_csv_empty_grid_header_only():
    rep = ExperimentReport((), {"config": {}, "version": "0.1.0", "timing_seconds": None})
    text = emit_report(rep, "csv")
    assert text == ",".join(CSV_COLUMNS) + "\n"


def test_json_parse_then_emit_is_byte_identical(small_report):
    text = emit_report(small_report, "json")
    again = canonical_json(json.loads(text))
    assert again == text


def test_emit_writes_file(tmp_path, small_report):
    path = tmp_path / "report.csv"
    text = emit_report(small_report, "csv", str(path))
    assert path.read_text() == text
    with pytest.raises(ConfigError):
        emit_report(small_report, "xml")
    with pytest.raises(ConfigError):
        emit_report(small_report, "csv", str(tmp_path / "missing" / "report.csv"))


def test_degenerate_unit_ball_row():
    # X = 1: the ball is the four rotations; nothing is hyperbolic,
    # gapped, or certifiable
    cfg = ExperimentConfig(n=2, x_grid=(1,), symmetrized=False, pairs_per_x=50, seed=2)
    row = run_experiment(cfg).rows[0]
    assert row["count_ball"] == 4
    for col in ("frac_trace_large", "frac_gapped", "frac_very_proximal",
                "frac_pingpong", "frac_schottky"):
        assert row[col] == 0.0
    assert row["median_hausdorff_bound"] is None
    assert row["lyapunov_mean"] == pytest.approx(0.0, abs=1e-12)


def test_n3_symmetrized_small_run():
    cfg = ExperimentConfig(
        n=3,
        x_grid=(2, 3),
        symmetrized=True,
        pairs_per_x=40,
        eta=2**0.5,
        oracle_depth=6,
        seed=5,
    )
    rep = run_experiment(cfg)
    gapped = [row["frac_gapped"] for row in rep.rows]
    assert gapped[0] <= gapped[1] + 1e-12
    for row in rep.rows:
        assert row["frac_schottky"] is None
        assert row["oracle_falsifications"] == 0


def test_golden_csv_small_config():
    # regression fixture frozen from a deterministic run (seed 7)
    cfg = ExperimentConfig(n=2, x_grid=(5, 10, 20), symmetrized=False, pairs_per_x=100, seed=7)
    text = emit_report(run_experiment(cfg), "csv")
    assert text == (
        "x,count_ball,frac_trace_large,frac_gapped,frac_very_proximal,"
        "frac_pingpong,frac_schottky,median_hausdorff_bound,"
        "oracle_falsifications,control_falsified,lyapunov_mean\n"
        "5,132,0.18,0,0,0,0,,0,0,0.258544789382\n"
        "10,580,0.47,0.69,0.29,0.02,0.03,1.35475564568,0,4,0.658629811211\n"
        "20,2356,0.64,0.94,0.42,0.02,0.22,0.792481250361,0,2,0.872267626414\n"
    )


def test_is_gapped_matches_singular_gap():
    # the exact n = 2 test and the one-SVD n = 3 test against the
    # per-position gaps of one Jacobi pass over the ball's float stack,
    # with both outcomes at every eta
    cases = [
        (BallSpec(2, 60), 1, (1.1, 2.0, 4.9, 5.0, 12.0)),
        (BallSpec(3, 4, symmetrized=True), 10, (1.2, 1.5)),
    ]
    for spec, step, etas in cases:
        e = enumerate_ball(spec)
        sigma = svd_batch(e.entries[::step].astype(float)).sigma
        gaps = sigma[:, :-1] / sigma[:, 1:]
        outcomes = set()
        for g, gap in zip(e.members[::step], gaps):
            for eta in etas:
                expected = bool((gap >= eta * eta).all())
                assert _is_gapped(g, eta) == expected, (str(g), eta)
                outcomes.add((eta, expected))
        assert outcomes == {(eta, b) for eta in etas for b in (False, True)}


def test_experiment_takes_gaps_from_no_separate_jacobi(monkeypatch):
    def refuse(*args):
        raise AssertionError("the experiment ran a separate singular_gap")

    monkeypatch.setattr(harness, "singular_gap", refuse)
    run_experiment(ExperimentConfig(n=2, x_grid=(10,), symmetrized=False, pairs_per_x=30))
    run_experiment(
        ExperimentConfig(
            n=3, x_grid=(2,), symmetrized=True, pairs_per_x=20, eta=2**0.5, oracle_depth=4
        )
    )


def test_is_gapped_takes_precomputed_sigma():
    # the n = 3 gap test on the experiment's stack, as run_experiment builds it
    pairs = sample_pairs(enumerate_ball(BallSpec(3, 4, symmetrized=True)), 200, seed=[7, 0])
    gens = [m for g1, g2 in pairs for m in (g1, inverse(g1), g2, inverse(g2))]
    svds = svd_batch(np.array([m.to_float() for m in gens]))
    outcomes = set()
    for i, g in enumerate(gens):
        for eta in (1.2, 1.5):
            alone = _is_gapped(g, eta)
            assert _is_gapped(g, eta, svds.sigma[i]) == alone, (str(g), eta)
            outcomes.add((eta, alone))
    assert outcomes == {(eta, b) for eta in (1.2, 1.5) for b in (False, True)}
