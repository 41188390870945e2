"""Word oracle, reduced-length statistics, Lyapunov estimation, twoops."""

import functools
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pingpong.dynamics import (
    _distinct_mod_2_64,
    _search,
    check_twoops,
    estimate_lyapunov,
    falsify_freeness,
    reduced_length_stats,
)
from pingpong.errors import BudgetError, ConfigError
from pingpong.matrices import IntMatrix, evaluate_word, free_reduce, inverse
from pingpong.spectral import svd

PHI = (1 + math.sqrt(5)) / 2

H = IntMatrix.from_rows([[2, 1], [1, 1]])
K = IntMatrix.from_rows([[1, 1], [1, 2]])
ROT = IntMatrix.from_rows([[0, -1], [1, 0]])
PARABOLIC = IntMatrix.from_rows([[1, 1], [0, 1]])
SANOV1 = IntMatrix.from_rows([[1, 2], [0, 1]])
SANOV2 = IntMatrix.from_rows([[1, 0], [2, 1]])
ORDER6 = IntMatrix.from_rows([[0, -1], [1, 1]])


def test_oracle_identical_generators():
    word = falsify_freeness(H, H, 4)
    assert word == "aB"
    assert evaluate_word(word, H, H) == IntMatrix.identity(2)
    # n = 5 has no hash multipliers and goes straight to the exact search
    e5 = IntMatrix.from_rows([[int(i == j or j == i + 1) for j in range(5)] for i in range(5)])
    assert falsify_freeness(e5, e5, 4) == "aB"
    assert falsify_freeness(e5, e5.transpose(), 4) is None


def test_oracle_finite_order_element():
    word = falsify_freeness(ROT, PARABOLIC, 6)
    assert word is not None
    assert len(word) == 4
    assert free_reduce(word) == word
    assert evaluate_word(word, ROT, PARABOLIC) == IntMatrix.identity(2)


def test_oracle_sanov_pair_survives_depth_12():
    assert falsify_freeness(SANOV1, SANOV2, 12) is None


def test_oracle_identity_generator():
    word = falsify_freeness(IntMatrix.identity(2), H, 4)
    assert word is not None
    assert evaluate_word(word, IntMatrix.identity(2), H) == IntMatrix.identity(2)


def test_oracle_budget():
    with pytest.raises(BudgetError):
        falsify_freeness(H, K, 13)
    with pytest.raises(ConfigError):
        falsify_freeness(H, K, 0)


def test_oracle_returned_words_reevaluate_exactly():
    # torsion-rich pairs produce relations at several depths
    pairs = [
        (ROT, H),
        (ORDER6, H),
        (ROT, ROT),
    ]
    for g1, g2 in pairs:
        word = falsify_freeness(g1, g2, 8)
        assert word is not None
        assert free_reduce(word) == word
        assert evaluate_word(word, g1, g2) == IntMatrix.identity(g1.n)


def test_oracle_rejects_mixed_sizes():
    g3 = IntMatrix.from_rows([[1, 0, 0], [0, 2, 1], [0, 1, 1]])
    for g1, g2 in ((H, g3), (g3, H)):
        with pytest.raises(ConfigError, match="dimension mismatch"):
            falsify_freeness(g1, g2, 4)


def test_oracle_pair_congruent_to_identity_mod_2_64():
    # every word is I mod 2^64, so every depth collides, yet the pair is
    # free (Sanov): only the exact search may answer
    g1 = IntMatrix.from_rows([[1, 2**64], [0, 1]])
    g2 = IntMatrix.from_rows([[1, 0], [2**64, 1]])
    letters = (g1, g2, inverse(g1), inverse(g2))
    for depth in range(1, 7):
        assert not _distinct_mod_2_64(letters, depth)
    for max_len in range(1, 13):
        assert _search(g1, g2, max_len) is None
        assert falsify_freeness(g1, g2, max_len) is None


def test_oracle_equal_huge_generators():
    g = H.power(100)  # entries near 10^41, far past 2^64
    assert falsify_freeness(g, g, 4) == "aB"


_SL2_FACTORS = [ROT, ORDER6, H, PARABOLIC, IntMatrix.identity(2), inverse(ROT), inverse(H)]
_SL3_FACTORS = [
    IntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, -1, 1]]),
    IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),  # order 3
    IntMatrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),  # order 2
]


def _product(factors):
    return st.lists(st.sampled_from(factors), max_size=3).map(
        lambda fs: functools.reduce(IntMatrix.__matmul__, fs, IntMatrix.identity(factors[0].n))
    )


@st.composite
def _relation_rich_pairs(draw):
    factors = draw(st.sampled_from([_SL2_FACTORS, _SL3_FACTORS]))
    g1 = draw(_product(factors))
    g2 = draw(st.one_of(_product(factors), st.sampled_from([g1, inverse(g1)])))
    return g1, g2


@settings(max_examples=300, deadline=None)
@given(_relation_rich_pairs(), st.integers(1, 8))
@example((H, ORDER6 @ ORDER6), 4)  # its -1 entries need the full mod 2^64 residue
def test_oracle_prefilter_keeps_search_answer(pair, max_len):
    g1, g2 = pair
    assert falsify_freeness(g1, g2, max_len) == _search(g1, g2, max_len)


def test_reduced_length_exact_16_cases():
    # brute-force oracle over all length-2 words: 4 cancel, 12 stay
    ratios = []
    for a, b in itertools.product("aAbB", repeat=2):
        ratios.append(len(free_reduce(a + b)) / 2)
    assert sum(ratios) / len(ratios) == 0.75


def test_reduced_length_stats_m1():
    st = reduced_length_stats(1, 500, 3)
    assert st.mean_ratio == 1.0
    assert st.min_ratio == 1.0


def test_reduced_length_stats_m2_matches_enumeration():
    st = reduced_length_stats(2, 40000, 5)
    # binomial(40000, 1/4): five sigma around 0.75 mean ratio
    assert st.mean_ratio == pytest.approx(0.75, abs=0.011)


def test_reduced_length_stats_long_words():
    st = reduced_length_stats(200, 10000, 7)
    # drift-1/2 reflected walk: mean ratio near 0.5
    assert st.mean_ratio == pytest.approx(0.5, abs=0.02)
    assert st.quantiles["p01"] >= 0.25
    assert st.frac_ge_quarter >= 0.99
    assert st.mean_ratio < 0.75  # markedly below the 3/4 reference claim


def test_reduced_length_stats_deterministic():
    a = reduced_length_stats(50, 200, 9)
    b = reduced_length_stats(50, 200, 9)
    assert a == b


def test_lyapunov_identity_generator():
    est = estimate_lyapunov([IntMatrix.identity(2)], 100, 3, 0)
    assert est.mean == 0.0
    assert est.stderr == 0.0


def test_lyapunov_single_symmetric_calibration():
    est = estimate_lyapunov([H], 400, 1, 0)
    assert est.mean == pytest.approx(math.log(PHI**2), rel=0.01)


def test_lyapunov_reflected_pair_strictly_inside():
    est = estimate_lyapunov([H, inverse(H)], 200, 16, 3)
    top = math.log(svd(H).sigma[0])
    assert 0.0 < est.mean < top


def test_lyapunov_deterministic_and_seed_sensitive():
    a = estimate_lyapunov([H, K], 60, 4, 21)
    b = estimate_lyapunov([H, K], 60, 4, 21)
    c = estimate_lyapunov([H, K], 60, 4, 22)
    assert a == b
    assert a.mean != c.mean


def test_lyapunov_exact_cross_check_below_length_50():
    # renormalized float path vs exact big-integer product
    from pingpong.spectral import log_spectral_norm

    gens = [H, inverse(H), K, inverse(K)]
    import numpy as np

    m = 40
    rng = np.random.default_rng([17, 0])
    idx = rng.choice(4, size=m, p=[0.25] * 4)
    exact = IntMatrix.identity(2)
    for i in idx:
        exact = exact @ gens[int(i)]
    expected = log_spectral_norm(exact) / m
    est = estimate_lyapunov(gens, m, 1, 17)
    assert est.mean == pytest.approx(expected, rel=1e-9)


def test_lyapunov_subadditive_trend():
    gens = [H, inverse(H), K, inverse(K)]
    e1 = estimate_lyapunov(gens, 100, 12, 5)
    e2 = estimate_lyapunov(gens, 200, 12, 5)
    assert e2.mean <= e1.mean + 10 * e1.stderr


def test_twoops_empty_word():
    res = check_twoops(H.power(8), K.power(8), "", 0.5, 10.0)
    assert res["status"] == "pass"


def test_twoops_repeated_letter_same_generator():
    A = H.power(8)
    lam = 0.9 * svd(A).sigma[0]
    res = check_twoops(A, A, "aa", 0.5, lam)
    assert res["status"] == "pass"
    assert res["lhs_log"] >= res["rhs_log"]


def test_twoops_fixture_set_never_fails_when_preconditions_hold():
    A, B = H.power(8), K.power(8)
    lam = 0.9 * min(svd(A).sigma[0], svd(B).sigma[0])
    eps = 0.3
    letters = "abAB"
    words = [""]
    for _ in range(3):
        words = [
            w + x for w in words for x in letters if not (w and x == w[-1].swapcase())
        ]
        for w in words:
            res = check_twoops(A, B, w, eps, lam)
            assert res["status"] in ("pass", "preconditions_unmet")
            if res["status"] == "pass":
                assert res["lhs_log"] >= res["rhs_log"] - 1e-6


def test_twoops_orthogonal_pair_reports_unmet():
    A = H.power(8)
    B = IntMatrix.from_rows([[1, -1], [-1, 2]]).power(8)  # top axis rotated 90 deg
    res = check_twoops(A, B, "ab", 0.3, 1.5)
    assert res["status"] == "preconditions_unmet"


def test_twoops_requires_reduced_word():
    with pytest.raises(ConfigError):
        check_twoops(H, K, "aA", 0.3, 1.0)
