"""Experiment orchestration, report emission, determinism."""

import json

import numpy as np
import pytest

from pingpong import certify, harness, wedge
from pingpong.errors import BudgetError, ConfigError, InvariantViolation
from pingpong.harness import (
    CODE_BLOCK,
    CSV_COLUMNS,
    MAX_PAIRS,
    ExperimentConfig,
    ExperimentReport,
    config_from_obj,
    emit_report,
    run_experiment,
)
from pingpong.matrices import IntMatrix
from pingpong.sampler import (
    BallSpec,
    enumerate_ball,
    gapped,
    in_ball,
    sample_pairs,
)
from pingpong.serialize import canonical_json
from pingpong.spectral import singular_gap

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
    with pytest.raises(BudgetError):
        ExperimentConfig(n=2, x_grid=(5,), symmetrized=False, pairs_per_x=MAX_PAIRS + 1)
    # JSON integers beyond the float range, for the keys whose checks need floats
    for key in ("eta", "r"):
        with pytest.raises(ConfigError, match="finite floats"):
            ExperimentConfig(n=2, x_grid=(5,), symmetrized=False, pairs_per_x=10, **{key: 10**400})


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
    # no pair is certified, so the oracle runs on two empty groups
    assert row["oracle_falsifications"] == row["control_falsified"] == 0
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
    # n = 2: the integer cap against the exact ball predicate sigma_1 > eta on
    # every member of the X = 60 ball; n = 3: the exact test on the experiment's
    # integer rows against the per-position singular_gap of each of 300 sampled
    # matrices.  Both outcomes occur at every eta
    e = enumerate_ball(BallSpec(2, 60))
    entries = e.take(np.arange(e.count))
    members = [IntMatrix.from_rows(g) for g in entries.tolist()]
    f = (entries * entries).sum(axis=(-2, -1))  # ||g^-1||_F = ||g||_F for n = 2
    for eta in (1.1, 2.0, 4.9, 5.0, 12.0):
        expected = [not in_ball(g, BallSpec(2, eta)) for g in members]
        assert gapped(2, f, f, eta).tolist() == expected, eta
        assert set(expected) == {False, True}, eta
    pairs = sample_pairs(enumerate_ball(BallSpec(3, 4, symmetrized=True)), 150, seed=[7, 0])
    gens = pairs.reshape(-1, 3, 3)
    inv = certify.with_inverses(gens)[1::2]  # the rows of g^-1, not g
    f, f_inv = ((m * m).sum(axis=(-2, -1)) for m in (gens, inv))
    for eta in (1.2, 1.5):
        expected = [
            all(singular_gap(IntMatrix.from_rows(g), i) >= eta * eta for i in (1, 2))
            for g in gens
        ]
        assert gapped(3, f, f_inv, eta).tolist() == expected, eta
        assert set(expected) == {False, True}, eta


def test_experiment_takes_gaps_from_no_separate_jacobi(monkeypatch):
    # every decomposition comes from the radius's one batch: no singular_gap
    # and no single-matrix svd, in the certifier or in the wedge geometry
    def refuse(*args):
        raise AssertionError("the experiment ran a separate single-matrix SVD")

    monkeypatch.setattr(harness, "singular_gap", refuse)
    monkeypatch.setattr(certify, "svd", refuse)
    monkeypatch.setattr(wedge, "svd", refuse)
    run_experiment(ExperimentConfig(n=2, x_grid=(10,), symmetrized=False, pairs_per_x=30))
    run_experiment(
        ExperimentConfig(
            n=3, x_grid=(2,), symmetrized=True, pairs_per_x=20, eta=2**0.5, oracle_depth=4
        )
    )


@pytest.mark.parametrize("eta, frac_gapped", [(5.0, "0"), (1.5, "0.375")])
def test_n3_experiment_runs_no_jacobi_for_its_decisions(monkeypatch, eta, frac_gapped):
    # the n = 3 acceptance config, whose rows the Jacobi decisions gave before: the
    # contraction theorem fixes every code and the gap test is exact, so only
    # Lyapunov's products see an SVD
    def refuse(*args):
        raise AssertionError("the n = 3 experiment ran a Jacobi decision")

    monkeypatch.setattr(harness, "decide_pairs", refuse)
    monkeypatch.setattr(certify, "svd_batch", refuse)
    cfg = ExperimentConfig(
        n=3, x_grid=(4,), symmetrized=True, pairs_per_x=1000, eta=eta, oracle_depth=8, seed=7
    )
    assert emit_report(run_experiment(cfg), "csv") == (
        ",".join(CSV_COLUMNS) + "\n"
        f"4,26232,0.057,{frac_gapped},0,0,,,0,0,0.228789613746\n"
    )


def test_n2_experiment_runs_no_jacobi_for_its_decisions(monkeypatch):
    # the n = 2 acceptance config, whose rows the Jacobi decisions gave before:
    # integer Gram entries decide every code, so only Lyapunov's products, through
    # dynamics.svd_batch, see an SVD
    def refuse(*args):
        raise AssertionError("the n = 2 experiment ran a Jacobi decision")

    monkeypatch.setattr(certify, "svd_batch", refuse)
    cfg = ExperimentConfig(n=2, x_grid=(20, 60, 180), symmetrized=False, pairs_per_x=1000, seed=7)
    assert emit_report(run_experiment(cfg), "csv") == (
        ",".join(CSV_COLUMNS) + "\n"
        "20,2356,0.644,0.894,0.437,0.037,0.225,0.792481250361,0,55,0.927256593262\n"
        "60,21316,0.851,0.989,0.453,0.032,0.605,0.411464947873,0,42,1.3718980862\n"
        "180,194116,0.952,0.999,0.429,0.043,0.837,0.25,0,14,2.09742143668\n"
    )


def test_n2_codes_come_in_blocks_equal_to_one_call(monkeypatch):
    # the n = 2 codes are decided CODE_BLOCK pairs at a time: three whole blocks and a
    # partial one cover the radius's with_inverses rows once, in order, and give the
    # codes of one decide_pairs call over the whole stack
    calls = []

    def recording(rows, k, r, eps):
        calls.append((rows, certify.decide_pairs(rows, k, r, eps)))
        return calls[-1][1]

    monkeypatch.setattr(harness, "decide_pairs", recording)
    cfg = ExperimentConfig(n=2, x_grid=(60,), symmetrized=False,
                           pairs_per_x=3 * CODE_BLOCK + 100, seed=7)
    run_experiment(cfg)
    assert [len(codes) for _, codes in calls] == [CODE_BLOCK] * 3 + [100]
    pairs = sample_pairs(enumerate_ball(BallSpec(2, 60)), cfg.pairs_per_x, seed=[7, 0])
    rows = certify.with_inverses(pairs.reshape(-1, 2, 2))
    assert np.array_equal(np.concatenate([r for r, _ in calls]), rows)
    whole = certify.decide_pairs(rows, 1, cfg.r, cfg.eps)
    assert np.array_equal(np.concatenate([codes for _, codes in calls]), whole)
    assert len(set(whole.tolist())) > 2  # the blocks hold several outcomes


def test_oracle_falsifying_a_certified_pair_aborts_the_run(monkeypatch):
    # an oracle that relates every pair: the first certified pair of the
    # radius is reported with its word, generators, radius and seed
    monkeypatch.setattr(harness, "find_relations", lambda letters, max_len: ["aB"] * len(letters))
    cfg = ExperimentConfig(n=2, x_grid=(20,), symmetrized=False, pairs_per_x=200, seed=7)
    with pytest.raises(InvariantViolation) as exc:
        run_experiment(cfg)
    assert str(exc.value).endswith(
        "word 'aB' is the identity for g1 = [12 -1; 13 -1], g2 = [1 13; -1 -12] "
        "(x = 20, seed = 7)"
    )


def test_fraction_chain_violation_aborts_the_run(monkeypatch):
    # with nothing gapped, the very proximal pairs break frac_very_proximal <= frac_gapped
    # at the first radius, which stops the run before the second is enumerated
    monkeypatch.setattr(harness, "gapped", lambda n, f, f_inv, eta: np.zeros(f.shape, bool))
    radii = []

    def recording(spec):
        radii.append(spec.x)
        return enumerate_ball(spec)

    monkeypatch.setattr(harness, "enumerate_ball", recording)
    cfg = ExperimentConfig(n=2, x_grid=(20, 60), symmetrized=False, pairs_per_x=200, seed=7)
    with pytest.raises(InvariantViolation, match=r"^fraction chain violated at x = 20\.0: "):
        run_experiment(cfg)
    assert radii == [20]
