"""Word oracle, reduced-length statistics, Lyapunov estimation, twoops."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pingpong import dynamics
from pingpong.certify import with_inverses
from pingpong.dynamics import (
    MAX_STEPS,
    _collisions_mod_2_64,
    _key_vectors,
    _screen_keys,
    check_twoops,
    estimate_lyapunov,
    falsify_freeness,
    find_relations,
    lyapunov_estimates,
    reduced_length_stats,
)
from pingpong.errors import BudgetError, ConfigError
from pingpong.harness import (
    LYAPUNOV_M,
    LYAPUNOV_PAIRS,
    LYAPUNOV_TRIALS,
    ExperimentConfig,
    run_experiment,
)
from pingpong.matrices import (
    ALPHABET,
    IntMatrix,
    evaluate_word,
    free_reduce,
    inverse,
    invert_word,
    is_reduced,
)
from pingpong.sampler import BallSpec, enumerate_ball, sample_pairs
from pingpong.spectral import svd, svd_batch

PHI = (1 + math.sqrt(5)) / 2

H = IntMatrix.from_rows([[2, 1], [1, 1]])
K = IntMatrix.from_rows([[1, 1], [1, 2]])
ROT = IntMatrix.from_rows([[0, -1], [1, 0]])
PARABOLIC = IntMatrix.from_rows([[1, 1], [0, 1]])
SANOV1 = IntMatrix.from_rows([[1, 2], [0, 1]])
SANOV2 = IntMatrix.from_rows([[1, 0], [2, 1]])
ORDER6 = IntMatrix.from_rows([[0, -1], [1, 1]])
E5 = IntMatrix.from_rows([[int(i == j or j == i + 1) for j in range(5)] for i in range(5)])


def _block(g, n):
    """g in the top-left corner of the n x n identity."""
    return IntMatrix.from_rows(
        [[g.entries[i][j] if max(i, j) < g.n else int(i == j) for j in range(n)] for i in range(n)]
    )


def test_oracle_identical_generators():
    word = falsify_freeness(H, H, 4)
    assert word == "aB"
    assert evaluate_word(word, H, H) == IntMatrix.identity(2)
    # n = 5 takes the same mat-vec screen as n = 2
    assert falsify_freeness(E5, E5, 4) == "aB"
    assert falsify_freeness(E5, E5.transpose(), 4) is None


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
    # free (Sanov): only the exact pass may answer
    g1 = IntMatrix.from_rows([[1, 2**64], [0, 1]])
    g2 = IntMatrix.from_rows([[1, 0], [2**64, 1]])
    quad = (g1, inverse(g1), g2, inverse(g2))  # in ALPHABET order
    letters = np.array([[[[x % 2**64 for x in row] for row in g.entries] for g in quad]], np.uint64)
    for depth in range(1, 7):
        assert _collisions_mod_2_64(letters, depth)[0]
    stack = np.array([[g.entries for g in quad]], dtype=object)
    for max_len in range(1, 13):
        assert find_relations(stack, max_len) == [None]
        assert falsify_freeness(g1, g2, max_len) is None


def test_oracle_skips_a_relation_longer_than_max_len():
    # at max_len 1 the words have length 1 and b repeats a, but "aB" is too long
    assert falsify_freeness(ROT, ROT, 1) is None
    assert falsify_freeness(ROT, ROT, 2) == "aB"


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


def _first_repeat(g1, g2, max_len):
    """Reference oracle by brute force: the reduced words of length <= ceil(max_len/2)
    in breadth-first order, each length lexicographic over "abAB"; the first word whose
    matrix an earlier word has gives (earlier word)(word)^-1, returned if it fits."""
    first = {}
    for k in range((max_len + 1) // 2 + 1):
        for word in map("".join, itertools.product("abAB", repeat=k)):
            if not is_reduced(word):
                continue
            prev = first.setdefault(evaluate_word(word, g1, g2), word)
            if prev != word:
                relation = free_reduce(prev + invert_word(word))
                if len(relation) <= max_len:
                    return relation
    return None


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
    assert falsify_freeness(g1, g2, max_len) == _first_repeat(g1, g2, max_len)


def test_screen_keys_tell_n_5_words_apart():
    # the 161 reduced words of length <= 4 in (e5, e5^T) are distinct matrices,
    # and their keys u (w v) mod 2^64 are distinct too, so the pair is cleared
    # by the screen alone; a key that ignored w would send it to the exact pass
    quad = (E5, inverse(E5), E5.transpose(), inverse(E5.transpose()))  # in ALPHABET order
    letters = np.array([[g.entries for g in quad]]).astype(np.uint64)  # residues mod 2^64
    assert not _collisions_mod_2_64(letters, 4)[0]
    assert _first_repeat(E5, E5.transpose(), 8) is None


@pytest.mark.parametrize(
    "g1, g2",
    [
        (IntMatrix.from_rows([[12, -1], [13, -1]]), IntMatrix.from_rows([[1, 13], [-1, -12]])),
        (_SL3_FACTORS[0] @ _SL3_FACTORS[2], _SL3_FACTORS[1] @ _SL3_FACTORS[3]),
        (E5, E5.transpose()),
    ],
)
def test_screen_keys_match_brute_force(g1, g2):
    # the keys the screen sorts, from prefix rows u a and suffix columns b v, are
    # u (w v) mod 2^64 over the reduced words w of length <= depth, the empty word
    # included, each word evaluated alone in Python ints
    u, v = (x.tolist() for x in _key_vectors(g1.n))
    quad = (g1, inverse(g1), g2, inverse(g2))  # in ALPHABET order
    letters = np.array([[[[x % 2**64 for x in row] for row in g.entries] for g in quad]], np.uint64)
    keys = {}
    for length in range(7):
        for word in map("".join, itertools.product("aAbB", repeat=length)):
            if is_reduced(word):
                m = evaluate_word(word, g1, g2).entries
                keys[word] = sum(u[i] * m[i][j] * v[j] for i in range(g1.n) for j in range(g1.n))
    for depth in range(1, 7):
        expected = sorted(key % 2**64 for word, key in keys.items() if len(word) <= depth)
        assert len(expected) == 2 * 3**depth - 1
        assert np.sort(_screen_keys(letters, depth)[:, 0]).tolist() == expected, depth


@pytest.mark.parametrize("spec", [BallSpec(2, 60), BallSpec(3, 3)])
def test_screen_keys_match_whole_words_per_pair(spec):
    # for each pair of a batch, the screen's keys are, as a multiset, u (w v) mod 2^64
    # over the reduced words w of length <= depth, each built whole in Python ints as
    # its parent word times its last letter, one length at a time
    n = spec.n
    pairs = sample_pairs(enumerate_ball(spec), 9, seed=[5, n])
    pairs[1, 1] = pairs[1, 0] @ pairs[1, 0]  # a commuting pair, whose keys repeat
    quads = with_inverses(pairs.reshape(-1, n, n)).reshape(-1, 4, n, n)  # ALPHABET order
    letters = dict(zip(ALPHABET, quads.astype(object).swapaxes(0, 1)))
    u, v = (np.array(x.tolist(), dtype=object) for x in _key_vectors(n))
    level = {"": np.array([np.eye(n, dtype=int).tolist()] * len(pairs), dtype=object)}
    keys = [u @ level[""] @ v]
    for depth in range(1, 7):
        level = {w + c: m @ letters[c] for w, m in level.items() for c in ALPHABET
                 if is_reduced(w + c)}
        keys += [u @ m @ v for m in level.values()]
        expected = np.sort(np.array(keys, dtype=object) % 2**64, axis=0)
        assert expected.shape == (2 * 3**depth - 1, len(pairs))
        got = np.sort(_screen_keys(quads.astype(np.uint64), depth), axis=0)
        assert got.tolist() == expected.tolist(), depth
        if depth >= 2:
            assert (got[1:, 1] == got[:-1, 1]).any()  # ab = ba


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("g1, g2", [(ROT, H), (ORDER6, H)])
def test_oracle_block_embeddings_match_reference(g1, g2, n):
    # relation-rich pairs past n = 4 go through the same screen and exact pass
    g1, g2 = _block(g1, n), _block(g2, n)
    for max_len in range(1, 9):
        assert falsify_freeness(g1, g2, max_len) == _first_repeat(g1, g2, max_len)


@pytest.mark.parametrize("spec, max_len", [(BallSpec(2, 20), 8), (BallSpec(2, 5), 12),
                                           (BallSpec(3, 2, symmetrized=True), 6)])
def test_batched_oracle_matches_each_pair_alone(spec, max_len):
    # ball pairs, with (g, g^2) pairs, which commute, so the exact pass runs inside
    # the batch.  A screen block holds 2^15 keys, 203 pairs at max_len 8 and 22 at
    # max_len 12, so the 520 pairs cross block boundaries and end on a partial block
    pairs = [tuple(map(IntMatrix.from_rows, p)) for p in sample_pairs(
        enumerate_ball(spec), 520, seed=[3, 0]).tolist()]
    pairs[5:7] = [(g1, g1 @ g1) for g1, _ in pairs[5:7]]
    letters = [[g.entries for g in (g1, inverse(g1), g2, inverse(g2))] for g1, g2 in pairs]
    alone = [falsify_freeness(g1, g2, max_len) for g1, g2 in pairs]
    assert find_relations(np.array(letters, dtype=np.int64), max_len) == alone
    assert find_relations(np.array(letters, dtype=object), max_len) == alone
    assert alone[5] is not None and alone[6] is not None
    assert find_relations(np.zeros((0, 4, spec.n, spec.n), dtype=np.int64), max_len) == []


def test_oracle_screen_peak_stays_cache_sized():
    # 2,000 X = 500 pairs at max_len 8: blocks of 2^15 keys, each summed into its (K, P)
    # keys a coordinate at a time, peak at 1.5 MB (2.7 MB with the (K, n, P) product
    # stacks of blocks of 2^16 keys)
    pairs = sample_pairs(enumerate_ball(BallSpec(2, 500)), 2000, seed=[7, 0])
    letters = with_inverses(pairs.reshape(-1, 2, 2)).reshape(-1, 4, 2, 2)
    tracemalloc.start()
    try:
        find_relations(letters, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8e6


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
    gens = [H, inverse(H), K, inverse(K)]
    import numpy as np

    m = 40
    rng = np.random.default_rng([17, 0])
    idx = rng.choice(4, size=m, p=[0.25] * 4)
    exact = IntMatrix.identity(2)
    for i in idx:
        exact = exact @ gens[int(i)]
    expected = math.log(svd(exact).sigma[0]) / m
    est = estimate_lyapunov(gens, m, 1, 17)
    assert est.mean == pytest.approx(expected, rel=1e-9)


def test_lyapunov_subadditive_trend():
    gens = [H, inverse(H), K, inverse(K)]
    e1 = estimate_lyapunov(gens, 100, 12, 5)
    e2 = estimate_lyapunov(gens, 200, 12, 5)
    assert e2.mean <= e1.mean + 10 * e1.stderr


def _loop_estimates(gens, m, trials, seed, extra_key=()):
    """Per-trial estimates as one product per trial, one 2-D ``@`` per step:
    the reference the stacked pass of lyapunov_estimates must match bit for bit."""
    mats = [np.array(g.entries, dtype=float) for g in gens]
    probs = [1.0 / len(mats)] * len(mats)
    n = gens[0].n
    prods = np.empty((trials, n, n))
    scales = []
    for t in range(trials):
        rng = np.random.default_rng([seed, *extra_key, t])
        prod = np.eye(n)
        log_scale = 0.0
        for step, i in enumerate(rng.choice(len(mats), size=m, p=probs), start=1):
            prod = prod @ mats[i]
            if step % 8 == 0:
                mx = float(np.max(np.abs(prod)))
                prod /= mx
                log_scale += math.log(mx)
        prods[t] = prod
        scales.append(log_scale)
    tops = svd_batch(prods).sigma[:, 0].tolist()
    return [(e + math.log(s)) / m for e, s in zip(scales, tops)]


@pytest.mark.parametrize(
    "n, x, symmetrized, pairs_per_x, seed",
    [
        (2, 180, False, 1000, 3),
        (2, 180, False, 1000, 7),
        (3, 4, True, 1000, 7),
        (3, 4, True, 1000, 11),
        (2, 20, False, 3, 7),  # fewer sampled pairs than LYAPUNOV_PAIRS
        (2, 20, False, 1, 42),
        (3, 3, True, 1, 3),
    ],
)
def test_lyapunov_batch_matches_loop_on_sampled_pairs(n, x, symmetrized, pairs_per_x, seed):
    cfg = ExperimentConfig(
        n=n, x_grid=(3, x), symmetrized=symmetrized, pairs_per_x=pairs_per_x, seed=seed
    )
    report = run_experiment(cfg)
    for xi, radius in enumerate(cfg.x_grid):
        ball = enumerate_ball(BallSpec(n, radius, symmetrized))
        pairs = sample_pairs(ball, pairs_per_x, [seed, xi])[:LYAPUNOV_PAIRS].tolist()
        quads = [[g1, inverse(g1), g2, inverse(g2)] for g1, g2 in
                 (map(IntMatrix.from_rows, p) for p in pairs)]
        keys = [(xi, pi) for pi in range(len(quads))]
        run = functools.partial(_loop_estimates, m=LYAPUNOV_M, trials=LYAPUNOV_TRIALS, seed=seed)
        loop = [run(q, extra_key=k) for q, k in zip(quads, keys)]
        stack = np.array([[g.entries for g in q] for q in quads], dtype=float)
        assert lyapunov_estimates(stack, LYAPUNOV_M, LYAPUNOV_TRIALS, seed, keys).tolist() == loop
        means = [float(np.mean(e)) for e in loop]
        for q, k, mean in zip(quads, keys, means):
            assert estimate_lyapunov(q, LYAPUNOV_M, LYAPUNOV_TRIALS, seed, k).mean == mean
        assert report.rows[xi]["lyapunov_mean"] == sum(means) / len(means)


@pytest.mark.parametrize("k", range(1, 9))
def test_lyapunov_draws_are_those_of_choice(k):
    # lyapunov_estimates spells out Generator.choice(k, size=m, p=[1/k] * k): the
    # normalized cumsum of p searched for random(m).  Pinned on 150 streams per k,
    # so that a numpy whose choice draws otherwise fails here
    probs = [1.0 / k] * k
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    for seed, m in itertools.product(range(50), (1, 7, 200)):
        want = np.random.default_rng([seed, k, m]).choice(k, size=m, p=probs)
        got = cdf.searchsorted(np.random.default_rng([seed, k, m]).random(m), side="right")
        assert np.array_equal(got, want)
    # and the stacked pass draws them, against the loop that calls choice
    gens = [H.power(j + 1) if j % 2 else inverse(K.power(j + 1)) for j in range(k)]
    stack = np.array([[g.entries for g in gens]], dtype=float)
    for m in (1, 7, 200):
        assert lyapunov_estimates(stack, m, 3, k, [()]).tolist() == [_loop_estimates(gens, m, 3, k)]


BLOCK_H = IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
BLOCK_K = IntMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 1, 2]])
SUM_HK = IntMatrix.from_rows([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 2]])
SUM_KH = IntMatrix.from_rows([[1, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])


@pytest.mark.parametrize(
    "g1, g2", [(H.power(8), K.power(8)), (BLOCK_H.power(8), BLOCK_K.power(8)), (SUM_HK, SUM_KH)]
)
@pytest.mark.parametrize(
    "m, trials, gather",
    [(200, 1, None), (200, 8, None), (257, 8, None), (257, 1, 20), (257, 8, 20)],
)
def test_lyapunov_batch_of_one_matches_loop(monkeypatch, g1, g2, m, trials, gather):
    # 257 steps is a multiple of neither the renormalization period nor, with
    # _GATHER = 20, of the steps gathered at a time (20 at 1 trial, 2 at 8)
    if gather is not None:
        monkeypatch.setattr(dynamics, "_GATHER", gather)
    gens = [g1, inverse(g1), g2, inverse(g2)]  # as the lyapunov command passes them
    loop = _loop_estimates(gens, m, trials, 5)
    stack = np.array([[g.entries for g in gens]], dtype=float)
    assert lyapunov_estimates(stack, m, trials, 5, [()]).tolist() == [loop]
    est = estimate_lyapunov(gens, m, trials, 5)
    assert est.mean == float(np.mean(loop))
    assert est.stderr == (float(np.std(loop, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0)


@pytest.mark.parametrize("n", [2, 3])
def test_lyapunov_estimates_on_an_empty_stack(n):
    # like every other batch pass, no pairs give an empty result instead of raising
    est = lyapunov_estimates(np.zeros((0, 4, n, n)), 40, 3, 5, [])
    assert est.shape == (0, 3) and est.dtype == np.float64


def test_lyapunov_budget_checked_before_any_draw(monkeypatch):
    class Drawn(Exception):
        pass

    def draw(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(dynamics.np.random, "default_rng", draw)
    gens = [H, inverse(H)]
    with pytest.raises(BudgetError):
        estimate_lyapunov(gens, 1, MAX_STEPS + 1, 0)
    with pytest.raises(BudgetError):
        lyapunov_estimates(np.zeros((1, 2, 2, 2)), 10, MAX_STEPS // 10 + 1, 0, [()])
    # the edge m * trials == MAX_STEPS is admitted and reaches the first draw
    with pytest.raises(Drawn):
        estimate_lyapunov(gens, 1, MAX_STEPS, 0)


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


def test_twoops_lhs_log_is_blas_free():
    # every product is a sequential sum, so these bits hold on any BLAS build
    A, B = H.power(8), K.power(8)
    lam = 0.9 * min(svd(A).sigma[0], svd(B).sigma[0])
    res = check_twoops(A, B, "abab", 0.3, lam)
    assert res["status"] == "pass"
    assert repr(res["lhs_log"]) == "30.3512698551635"


def test_twoops_top_singular_value_below_lam():
    A, B = H.power(8), K.power(8)
    top = min(svd(A).sigma[0], svd(B).sigma[0])
    assert "lhs_log" in check_twoops(A, B, "ab", 0.3, top)
    res = check_twoops(A, B, "ab", 0.3, math.nextafter(top, math.inf))
    assert res["status"] == "preconditions_unmet"
    assert res["reason"] == "top singular value below lam"
    assert res["min_top_singular"] == top
    assert "min_inner_product" not in res and "lhs_log" not in res


def test_twoops_requires_reduced_word():
    with pytest.raises(ConfigError):
        check_twoops(H, K, "aA", 0.3, 1.0)
