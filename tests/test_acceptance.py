"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 07 asserts the literal claimed bound for the
plain-ball top-gap fraction; the quadrature-derived value is about twice
that bound (see the regression test in test_haar.py pinning the derived
constant), so the assertion is expected to fail and documents the
discrepancy rather than hiding it.
"""

import itertools
import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pingpong.certify import (
    Circle,
    ContractionWitness,
    decide_pairs,
    hausdorff_upper_bound,
    svd_with_inverses,
)
from pingpong.dynamics import (
    check_twoops,
    estimate_lyapunov,
    falsify_freeness,
    reduced_length_stats,
)
from pingpong.haar import CartanRegion, gap_fraction, integrate_region
from pingpong.harness import ExperimentConfig, emit_report, run_experiment
from pingpong.matrices import IntMatrix, free_reduce, inverse
from pingpong.sampler import BallSpec, enumerate_ball, in_ball, sample_pairs
from pingpong.spectral import svd
from pingpong.wedge import attractor_repeller, wedge_matrix

PHI = (1 + math.sqrt(5)) / 2
H = IntMatrix.from_rows([[2, 1], [1, 1]])
K = IntMatrix.from_rows([[1, 1], [1, 2]])

BIG = ExperimentConfig(n=2, x_grid=(20, 60, 180), symmetrized=False, pairs_per_x=1000, seed=7)


@pytest.fixture(scope="module")
def big_report():
    return run_experiment(BIG)


def _line(num, name, status="PASS"):
    print(f"\nACCEPTANCE {num:02d} {name}: {status}")


def test_criterion_01_exact_ball_counts():
    t0 = time.time()
    assert enumerate_ball(BallSpec(2, 1)).count == 4

    def brute(x):
        x = Fraction(x)
        cap = math.ceil(x)
        out = []
        for a, b, c, d in product(range(-cap, cap + 1), repeat=4):
            if a * d - b * c != 1:
                continue
            m = IntMatrix(((a, b), (c, d)))
            if in_ball(m, BallSpec(2, x)):
                out.append(m.entries)
        return sorted(out)

    for x in (1, Fraction(5, 2), 4, 5):
        rows = enumerate_ball(BallSpec(2, x)).entries.tolist()
        assert [IntMatrix.from_rows(g).entries for g in rows] == brute(x)

    c50 = enumerate_ball(BallSpec(2, 50)).count
    c100 = enumerate_ball(BallSpec(2, 100)).count
    assert 3.4 <= c100 / c50 <= 4.6
    elapsed = time.time() - t0
    assert elapsed < 60
    _line(1, f"exact ball counts ({elapsed:.1f}s, ratio {c100 / c50:.3f})")


def _certified_witnesses(count=100, eps=0.2):
    pool = []
    a3 = IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    b3 = IntMatrix.from_rows([[1, 0, 0], [0, 2, 1], [0, 1, 1]])
    c3 = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    for p in range(2, 18):
        pool += [H.power(p), K.power(p), (H @ K).power(p), (H @ K @ H).power(p)]
        pool += [(a3 @ b3).power(p), (a3 @ c3 @ b3).power(p), ((b3 @ a3).power(p)) @ c3]
    out = []
    for g in pool:
        # row g of the pair (g, g) fails with code 0 iff g is not eps-contracting
        code, _, gap, v, h = decide_pairs(svd_with_inverses([g, g])[1], 1, 1.0, eps)
        if code[0]:
            out.append((g, ContractionWitness(eps, 1, v[:, 0], h[:, 0], float(gap[0]))))
        if len(out) == count:
            break
    return out


def test_criterion_02_contraction_soundness():
    t0 = time.time()
    witnesses = _certified_witnesses(100)
    assert len(witnesses) == 100
    rng = np.random.default_rng(2024)
    violations = 0
    for g, w in witnesses:
        dim = math.comb(g.n, w.k)
        wk = wedge_matrix(g, w.k)
        pts = rng.normal(size=(1000, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        normal = w.h
        far = np.abs(pts @ normal) >= w.epsilon
        imgs = pts[far] @ wk.T
        imgs /= np.linalg.norm(imgs, axis=1, keepdims=True)
        cos = np.clip(np.abs(imgs @ w.v), 0.0, 1.0)
        dists = np.sqrt(1.0 - cos * cos)
        violations += int(np.sum(dists > w.epsilon + 1e-9))
    elapsed = time.time() - t0
    assert violations == 0
    assert elapsed < 30
    _line(2, f"contraction soundness (100 x 1000 points, {elapsed:.1f}s)")


def test_criterion_03_contraction_converse():
    rng = np.random.default_rng(31)
    fixtures = [H.power(p) for p in (1, 2, 3, 4, 6)] + [
        IntMatrix.from_rows([[1, 2], [0, 1]]),
        IntMatrix.from_rows([[1, 4], [0, 1]]),
        H @ K,
        (H @ K).power(2),
    ]
    checked = 0
    for g in fixtures:
        sigma = svd(g).sigma
        ratio = sigma[1] / sigma[0]
        v, h = attractor_repeller(g, 1)
        wk = wedge_matrix(g, 1)
        for eps in (0.05, 0.1, 0.15, 0.2, 0.24):
            pts = rng.normal(size=(1000, g.n))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            far = np.abs(pts @ h) >= eps
            imgs = pts[far] @ wk.T
            imgs /= np.linalg.norm(imgs, axis=1, keepdims=True)
            cos = np.clip(np.abs(imgs @ v), 0.0, 1.0)
            if np.all(np.sqrt(1.0 - cos * cos) <= eps):
                checked += 1
                assert ratio <= 4 * eps * eps + 1e-8
    assert checked >= 10
    _line(3, f"contraction converse ({checked} grid-verified fixtures)")


def test_criterion_04_oracle_consistency(big_report):
    for row in big_report.rows:
        assert row["oracle_falsifications"] == 0
    rot = IntMatrix.from_rows([[0, -1], [1, 0]])
    word = falsify_freeness(rot, IntMatrix.from_rows([[1, 1], [0, 1]]), 8)
    assert word is not None and len(word) == 4
    sanov = falsify_freeness(
        IntMatrix.from_rows([[1, 2], [0, 1]]), IntMatrix.from_rows([[1, 0], [2, 1]]), 12
    )
    assert sanov is None
    _line(4, "oracle consistency (certified pairs clean, rotation at 4, Sanov clean)")


def test_criterion_05_schottky_genericity_trend(big_report):
    t0 = time.time()
    fr = {row["x"]: row["frac_schottky"] for row in big_report.rows}
    assert fr[180.0] > fr[60.0] > fr[20.0]
    assert fr[180.0] >= 0.5
    _line(
        5,
        "schottky genericity trend "
        f"(fracs {fr[20.0]:.3f} < {fr[60.0]:.3f} < {fr[180.0]:.3f})",
    )
    assert time.time() - t0 < 600


def test_criterion_06_hausdorff_bounds(big_report):
    med = {row["x"]: row["median_hausdorff_bound"] for row in big_report.rows}
    assert med[180.0] < med[20.0]
    circles = tuple(Circle(2.0 * i, 0.01) for i in range(4))
    assert hausdorff_upper_bound(circles) == pytest.approx(0.1037, abs=1e-3)
    _line(6, f"hausdorff bounds (medians {med[20.0]:.3f} -> {med[180.0]:.3f}, fixture ok)")


def test_criterion_07_top_gap_fraction_plain_ball():
    t0 = time.time()
    eta = 5.0
    frac = gap_fraction(CartanRegion(3, 14.0), [(1, 2 * math.log(eta))], 512)
    elapsed = time.time() - t0
    assert elapsed < 120
    print(
        f"\nACCEPTANCE 07 top-gap fraction: measured {frac:.6g} vs claimed "
        f"bound {eta ** -4:.6g} (quadrature-derived asymptote is "
        f"2*eta^-4 - eta^-8 = {2 * eta ** -4 - eta ** -8:.6g})"
    )
    assert 0.0 < frac < eta**-4, (
        f"measured fraction {frac:.6g} exceeds the claimed bound {eta ** -4:.6g}; "
        "the signed-exponential expansion of the sinh density makes the true "
        "asymptote 2*eta^-4 - eta^-8, about twice the claimed constant"
    )
    _line(7, "top-gap fraction within claimed bound")


def test_criterion_08_middle_gap_fraction_symmetrized():
    eta = 5.0
    t = 2 * math.log(eta)
    hi = gap_fraction(CartanRegion(3, 14.0, symmetrized=True), [(1, t), (2, t)], 512)
    lo = gap_fraction(CartanRegion(3, 4.0, symmetrized=True), [(1, t), (2, t)], 512)
    assert hi > 0.9 > lo
    _line(8, f"middle-gap fraction trend ({lo:.3f} at logX=4, {hi:.3f} at logX=14)")


def test_criterion_09_n2_closed_form_volume():
    for log_x in (1.0, 3.0, 5.0):
        v = integrate_region(CartanRegion(2, log_x), 512)
        exact = (math.cosh(2 * log_x) - 1) / 2
        assert v == pytest.approx(exact, rel=1e-6)
    _line(9, "n=2 closed-form volume (1e-6 relative at logX in {1,3,5})")


def test_criterion_10_lyapunov_growth():
    means = []
    for radius in (5, 20, 100):
        e = enumerate_ball(BallSpec(2, radius, symmetrized=True))
        pairs = [map(IntMatrix.from_rows, p) for p in sample_pairs(e, 10, seed=[11, radius])]
        ests = [
            estimate_lyapunov(
                [g1, inverse(g1), g2, inverse(g2)], 200, 4, 11, extra_key=(radius, i)
            ).mean
            for i, (g1, g2) in enumerate(pairs)
        ]
        means.append(sum(ests) / len(ests))
    assert means[0] < means[1] < means[2]
    single = estimate_lyapunov([H], 400, 1, 0)
    assert single.mean == pytest.approx(math.log(PHI**2), rel=0.01)
    _line(10, f"lyapunov growth (means {means[0]:.3f} < {means[1]:.3f} < {means[2]:.3f})")


def test_criterion_11_twoops_fixture_set():
    A, B = H.power(8), K.power(8)
    lam = 0.9 * min(svd(A).sigma[0], svd(B).sigma[0])
    eps = 0.3
    failures = 0
    passes = 0
    words = [""]
    for _ in range(4):
        words = [
            w + x for w in words for x in "abAB" if not (w and x == w[-1].swapcase())
        ]
        for w in words:
            res = check_twoops(A, B, w, eps, lam)
            if res["status"] == "fail":
                failures += 1
            elif res["status"] == "pass":
                passes += 1
    assert failures == 0
    assert passes > 100
    _line(11, f"twoops inequality ({passes} precondition-satisfying words, 0 failures)")


def test_criterion_12_reduced_length_statistics():
    ratios = [len(free_reduce(a + b)) / 2 for a, b in itertools.product("aAbB", repeat=2)]
    assert sum(ratios) / len(ratios) == 0.75
    st = reduced_length_stats(200, 10000, 7)
    assert st.frac_ge_quarter >= 0.99
    print(
        f"\nACCEPTANCE 12 note: measured mean ratio {st.mean_ratio:.4f} at m=200 "
        "(reference claim is 3/4; the uniform 4-letter model walks with drift 1/2)"
    )
    _line(12, f"reduced-length statistics (mean {st.mean_ratio:.3f}, p>=1/4 {st.frac_ge_quarter:.4f})")


def test_criterion_13_determinism(big_report):
    again = run_experiment(BIG)
    assert emit_report(big_report, "csv") == emit_report(again, "csv")
    assert emit_report(big_report, "json") == emit_report(again, "json")
    _line(13, "determinism (full suite re-run byte-identical)")
