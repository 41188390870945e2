"""Norm-ball enumeration and pair sampling."""

import hashlib
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pingpong import sampler
from pingpong.errors import BudgetError, ConfigError
from pingpong.matrices import IntMatrix, det, inverse
from pingpong.sampler import (
    MAX_X,
    BallSpec,
    _frobenius_sq,
    _lambda_max_le_2x2,
    _member,
    _sigma1_sq_le,
    _sl2_interval,
    _sl2_octant,
    enumerate_ball,
    gapped,
    in_ball,
    sample_pairs,
)
from pingpong.spectral import singular_gap, svd_batch


def members(e):
    # from_rows makes every entry a Python int: exact arithmetic must never
    # see a wrapping np.int64
    return [IntMatrix.from_rows(rows) for rows in e.take(np.arange(e.count)).tolist()]


def brute_force_sl2(x):
    x = Fraction(x)
    cap = math.ceil(x)
    out = []
    for a, b, c, d in product(range(-cap, cap + 1), repeat=4):
        if a * d - b * c != 1:
            continue
        m = IntMatrix(((a, b), (c, d)))
        if in_ball(m, BallSpec(m.n, x)):
            out.append(m.entries)
    return sorted(out)


def test_sl2_unit_ball_is_the_four_rotations():
    e = enumerate_ball(BallSpec(2, 1))
    assert e.count == 4
    entries = {m.entries for m in members(e)}
    assert entries == {
        ((1, 0), (0, 1)),
        ((-1, 0), (0, -1)),
        ((0, -1), (1, 0)),
        ((0, 1), (-1, 0)),
    }


def test_sl2_unit_ball_symmetrized_same():
    assert enumerate_ball(BallSpec(2, 1, symmetrized=True)).count == 4


# at 17/7, s_cap = floor(X^2 + X^-2) = 6 exceeds floor(X^2) = 5, so the rows
# of squared norm floor(X^2) have members: [[1, 2], [0, 1]] is one
@pytest.mark.parametrize(
    "x", [1, 2, Fraction(7, 3), Fraction(5, 2), 3, 4, Fraction(9, 2), 5, Fraction(17, 7)]
)
def test_sl2_agrees_with_brute_force(x):
    e = enumerate_ball(BallSpec(2, x))
    assert [m.entries for m in members(e)] == brute_force_sl2(x)


# count and sha256 of the comma-joined row-major entries, in enumeration
# order; 999/2 is a non-integer radius and 500 the budget edge
PINNED_SL2 = [
    (60, 21316, "bcaa1d91c8f26a7d26aa3311a0b71efd0f36e344bdd2de6f51e5c81003aaeee5"),
    (180, 194116, "c5bd6eacf5e8b489c7b966aaf005ec9c95aa898813c72b4329889c9be706bed3"),
    (Fraction(999, 2), 1498052, "2301fc91cb1833214eecb71cd0283787629fbc14dd199f2859fc6cdc8b71e699"),
    (500, 1500740, "526acb06be0e22cf2599af22a899c684f1a107c8840d17ea96eaf79dba37a219"),
]


@pytest.mark.parametrize("x, count, digest", PINNED_SL2, ids=["60", "180", "499.5", "500"])
def test_sl2_pinned_balls(x, count, digest):
    e = enumerate_ball(BallSpec(2, x))
    assert e.count == count
    flat = e.take(np.arange(e.count)).ravel().tolist()
    assert hashlib.sha256(",".join(map(str, flat)).encode()).hexdigest() == digest


def test_take_reads_the_sorted_ball():
    e = enumerate_ball(BallSpec(2, 500))
    entries = e.take(np.arange(e.count))
    assert entries.shape == (e.count, 2, 2) and entries.dtype == np.int64
    idx = np.random.default_rng(0).integers(0, e.count, size=10**4)
    idx = np.concatenate([[0, e.count - 1], idx])
    assert np.array_equal(e.take(idx), entries[idx])
    assert np.array_equal(e.take(idx.reshape(-1, 2)), entries[idx].reshape(-1, 2, 2, 2))


def sl2_tables(x):
    # the n = 2 ball's completion table, its quadrant count grid and its line starts
    return enumerate_ball(BallSpec(2, x)).take.args[:3]


def signed_counts(grid):
    # the members per first row (a, b), at [a + w - 1, b + w - 1]: the quadrant's
    # count at [|a|, |b|], read back from its cumsum
    w = math.isqrt(len(grid) - 1)
    fold = np.abs(np.arange(1 - w, w))
    return np.diff(grid).reshape(w, w)[np.ix_(fold, fold)]


def test_sl2_tables_cover_every_primitive_row_with_a_bezout_completion():
    x = 500
    e = enumerate_ball(BallSpec(2, x))
    comp, grid, starts = e.take.args[:3]
    counts = signed_counts(grid)
    # each cell counts the sorted members with its first row, in all four
    # sign quadrants, and each line a starts after the members of the lines before it
    first = e.take(np.arange(e.count))[:, 0] + x
    cells = first[:, 0] * (2 * x + 1) + first[:, 1]
    assert np.array_equal(np.bincount(cells, minlength=counts.size), counts.ravel())
    line = np.bincount(first[:, 0], minlength=2 * x + 1)
    assert np.array_equal(line, counts.sum(axis=1))
    assert np.array_equal(starts, np.cumsum(line) - line)
    # only primitive rows of squared norm s1 <= X^2 have members.  The second
    # rows of (a, b) lie on a line at distance s1^-1/2 from 0 with lattice
    # points s1^1/2 apart, so one has squared norm <= 1/s1 + s1/4, and the rows
    # with s1 + 1/s1 + s1/4 <= s_cap all have members: the primitive rows
    # closer to the circle may have none (34,480 at X = 500)
    r = np.arange(-x, x + 1)
    ra, rb = np.meshgrid(r, r, indexing="ij")
    s1, s_cap = ra * ra + rb * rb, x * x + 1
    primitive = (s1 <= x * x) & (np.gcd(ra, rb) == 1)
    assert not (counts[~primitive]).any()
    assert (counts[primitive & (5 * s1 * s1 + 4 <= 4 * s_cap * s1)] > 0).all()
    assert np.count_nonzero(primitive & (counts == 0)) == 34480
    # the octant a >= b >= 0 has each such row once, completed by the
    # Stern-Brocot node's second column q for (a, b) = p + q, or by (0, 1) at
    # (1, 0): a d0 - b c0 = det [p q] = 1, and 0 <= q <= (a, b) keeps every t
    # and disc in range.  The table holds them at [:, a, b], their swaps
    # (-d0, -c0) at [:, b, a] off the diagonal, and nothing else
    a, b, c0, d0 = _sl2_octant(x * x)
    octant = np.zeros((x + 1, x + 1), dtype=bool)
    octant[a, b] = True
    assert np.count_nonzero(octant) == a.size
    assert np.array_equal(octant, (primitive & (ra >= rb))[x:, x:])
    assert np.array_equal(comp[:, a, b], [c0, d0])
    off = a != b
    assert np.array_equal(comp[:, b[off], a[off]], [-d0[off], -c0[off]])
    assert np.count_nonzero(comp[0] | comp[1]) == 2 * a.size - 1
    # take completes a signed row (a, b) by (sb c0, sa d0), with (c0, d0) the
    # completion of (|a|, |b|) and sa, sb the signs of a and b (+1 at 0)
    ga, gb = ra[primitive], rb[primitive]
    gc, gd = comp[:, np.abs(ga), np.abs(gb)]
    gc, gd = np.where(gb < 0, -gc, gc), np.where(ga < 0, -gd, gd)
    assert (ga * gd - gb * gc == 1).all()
    assert (np.abs(gc) <= np.maximum(np.abs(ga), 1)).all()
    assert (np.abs(gd) <= np.maximum(np.abs(gb), 1)).all()


def test_sl2_tables_are_built_in_place():
    # the counts of the quadrant |a|, |b| are summed in place, so the peak holds the
    # tables (4.0 MB at X = 500) beside the octant's columns and temporaries of their
    # size: 1.72x the tables, under 7.2 MB
    tracemalloc.start()
    try:
        tables = sl2_tables(500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(t.nbytes for t in tables)
    assert size < 4.1e6
    assert peak < 1.8 * size


def extended_gcd(a, b):
    """(g, u, v) with u a + v b = g = gcd(a, b) >= 0."""
    if b == 0:
        return abs(a), (1 if a >= 0 else -1), 0
    g, u, v = extended_gcd(b, a % b)
    return g, v, u - (a // b) * v


@settings(max_examples=300, deadline=None)
@given(st.integers(-500, 500), st.integers(-500, 500), st.integers(-600, 600))
def test_lagrange_identity_and_the_interval_of_t(a, b, shift):
    # every completion (c0, d0) of a primitive row (a, b), a d0 - b c0 = 1,
    # has s1 (c0^2 + d0^2) = m^2 + 1 with s1 = a^2 + b^2 and m = a c0 + b d0
    g, u, v = extended_gcd(a, b)
    assume(g == 1)
    c0, d0 = -v + shift * a, u + shift * b
    assert a * d0 - b * c0 == 1
    s1, m = a * a + b * b, a * c0 + b * d0
    assert s1 * (c0 * c0 + d0 * d0) == m * m + 1
    # (sb c0, sa d0) completes (|a|, |b|), and the interval of t holds exactly
    # the members of the X = 500 ball on that row, whichever completion it has
    sa, sb = (-1 if a < 0 else 1), (-1 if b < 0 else 1)
    row = (abs(a), abs(b), sb * c0, sa * d0)
    lo, hi = (int(e[0]) for e in _sl2_interval(*(np.array([e]) for e in row), 500**2 + 1))
    assert lo <= hi + 1

    def inside(t):
        return s1 + (row[2] + t * row[0]) ** 2 + (row[3] + t * row[1]) ** 2 <= 500**2 + 1

    assert not inside(lo - 1) and not inside(hi + 1)
    assert lo > hi or (inside(lo) and inside(hi))


@pytest.mark.parametrize("x", [Fraction(17, 7), Fraction(9, 2)])
def test_sl2_count_grid_is_symmetric_and_counts_each_row(x):
    _, grid, starts = sl2_tables(x)
    w = math.isqrt(len(grid) - 1)
    # (a, b) -> (b, a) keeps each row's count
    quad = np.diff(grid).reshape(w, w)
    assert np.array_equal(quad, quad.T)
    # and so do the sign flips: every signed row has its quadrant cell's count
    brute = np.zeros((2 * w - 1, 2 * w - 1), dtype=np.int64)
    for (a, b), _ in brute_force_sl2(x):
        brute[a + w - 1, b + w - 1] += 1
    assert np.array_equal(brute[w - 1 :, w - 1 :], quad)
    assert np.array_equal(signed_counts(grid), brute)
    assert np.array_equal(starts, np.cumsum(brute.sum(axis=1)) - brute.sum(axis=1))


def test_sl3_unit_ball_is_so3z():
    # 24 signed permutation matrices of determinant one
    assert enumerate_ball(BallSpec(3, 1)).count == 24


@pytest.mark.parametrize("symmetrized", [False, True], ids=["plain", "sym"])
def test_sl3_agrees_with_brute_force(symmetrized):
    x = Fraction(9, 5)
    e = enumerate_ball(BallSpec(3, x, symmetrized))
    cap = math.ceil(x)
    rows = np.array(list(product(range(-cap, cap + 1), repeat=3)))
    brute = []
    for r1 in rows:
        # det(r1; r2; r3) = (r1 x r2) . r3, exact in int64 for every row pair
        for i, j in zip(*np.nonzero(np.cross(r1, rows) @ rows.T == 1)):
            m = IntMatrix.from_rows([r1, rows[i], rows[j]])
            if in_ball(m, BallSpec(m.n, x, symmetrized)):
                brute.append(m.entries)
    assert [m.entries for m in members(e)] == sorted(brute)


def test_sl3_orbit_images_come_sorted_once_each():
    # the members come from P M(c1) Q over the orbits of first columns and one
    # sort of packed keys: strictly increasing row-major, so no image twice
    g = sampler._enumerate_sl3(BallSpec(3, 4, symmetrized=True)).reshape(-1, 9)
    assert g.dtype == np.int64
    diff = g[1:] - g[:-1]
    first = np.argmax(diff != 0, axis=1)  # the first entry where rows differ
    assert (diff[np.arange(len(diff)), first] > 0).all()


# radii just below and above 1 + sqrt(2), the sigma_1 of the elementary
# matrices with an entry +-2; their X^2 has a denominator too large for int64
BELOW, ABOVE = Fraction(241421, 100000), Fraction(120711, 50000)

# count and sha256 of the comma-joined member entries, in enumeration order;
# 5/2 is a non-integer radius and 6 the budget edge
PINNED_SL3 = [
    (Fraction(5, 2), False, 6072, "3717683a7a15bf215550a74db3a26863fbccbebcbc55ffd096c34b7448ed339f"),
    (Fraction(5, 2), True, 2616, "08dcf8b4b6a3f1369a774d9f78eea1e538143e5d1fc373d2d98187607e9d8f3b"),
    (BELOW, False, 3768, "676905444259e761900690812ddf599eb0d6adc8b32a892cae1b8199d62b6890"),
    (BELOW, True, 2040, "2b3b9a68bb29750bba9b7d9dbbf892ee225e5a4cc17f1b3bca181fb67fa43ea3"),
    (ABOVE, False, 4344, "7be6238f956979abf041bf4eda51a44120ceb9ff720622d3bf540d42e3c15f0b"),
    (3, False, 23064, "437160e2ee8409312935dce8f3f33d97b74bc376c054a9d11652a95cf951e253"),
    (3, True, 6360, "cf08c238a5365b20e94edd63ac24d52300d00f068cc5d82d37c6a7d655a502de"),
    (4, False, 135672, "14d8b0411f799f419de2ab160ed82d7138b86024860f1ea9ba20652ed457edf6"),
    (4, True, 26232, "b1123a76811e962538625707ce273c90ed5e13e9dfa03ba2b0e0f526d6759b58"),
    (6, True, 175704, "d1e6e97b3e2c463ea8907270a8c33bf7022a07078469dfc099d3721672774985"),
]


@pytest.mark.parametrize(
    "x, symmetrized, count, digest",
    PINNED_SL3,
    ids=[
        "2.5-plain", "2.5-sym", "2.41421-plain", "2.41421-sym", "2.41422-plain",
        "3-plain", "3-sym", "4-plain", "4-sym", "6-sym",
    ],
)
def test_sl3_pinned_balls(x, symmetrized, count, digest):
    e = enumerate_ball(BallSpec(3, x, symmetrized))
    flat = [v for m in members(e) for row in m.entries for v in row]
    # exact arithmetic downstream needs Python ints, not numpy scalars
    assert all(type(v) is int for v in flat)
    assert e.count == count
    assert hashlib.sha256(",".join(map(str, flat)).encode()).hexdigest() == digest


@pytest.mark.parametrize("x, dtype", [(Fraction(5, 2), np.int64), (BELOW, object)])
def test_sl3_predicates_take_int64_only_where_it_is_exact(monkeypatch, x, dtype):
    # the predicates at X^2 = p/q compare integers scaled by powers of q; with
    # q = 10^10 they would overflow int64, so they must see Python ints
    seen = set()

    def member(n, f, f_inv, bound, symmetrized):
        seen.update({f.dtype, f_inv.dtype})
        return _member(n, f, f_inv, bound, symmetrized)

    monkeypatch.setattr(sampler, "_member", member)
    enumerate_ball(BallSpec(3, x, symmetrized=True))
    assert seen == {np.dtype(dtype)}


@pytest.fixture(scope="module")
def sl3_norms_and_gaps():
    """(f, f_inv, ratios) of 572 members of the X = 4 symmetrized and X = 6 plain
    balls: their squared Frobenius norms and those of their inverses, and their
    singular_gap at positions 1 and 2."""
    gens = []
    for x, symmetrized, stride in ((4, True, 97), (6, False, 4999)):
        e = enumerate_ball(BallSpec(3, x, symmetrized))
        gens += e.take(np.arange(0, e.count, stride)).tolist()
    f, f_inv = np.array([_frobenius_sq(IntMatrix.from_rows(g)) for g in gens]).T
    ratios = np.array([[singular_gap(IntMatrix.from_rows(g), i) for i in (1, 2)] for g in gens])
    return f, f_inv, ratios


def _bezoutian_negative_definite(f, f_inv, mu):
    # B(p, q) from its definition, p(L) = L^3 - f L^2 + f_inv L - 1 and q(L) = P^3 p(L / mu)
    # for mu = P/Q, with coefficients a_k, c_k from the constant term up
    P, Q = mu.numerator, mu.denominator
    a = [-1, f_inv, -f, 1, 0, 0]
    c = [-(P**3), Q * P * P * f_inv, -Q * Q * P * f, Q**3, 0, 0]
    b = [
        [sum(a[i + j + 1 - k] * c[k] - a[k] * c[i + j + 1 - k] for k in range(min(i, j) + 1))
         for j in range(3)]
        for i in range(3)
    ]
    m2 = b[0][0] * b[1][1] - b[0][1] * b[1][0]
    return b[0][0] < 0 < m2 and det(IntMatrix.from_rows(b)) < 0


@pytest.mark.parametrize("eta", [1.1, 1.2, 1.5, 2.0, 2.4])
def test_sl3_gapped_matches_singular_gap(sl3_norms_and_gaps, eta):
    # the exact test, and the Bezoutian criterion from its definition, against the
    # Jacobi ratios; both outcomes occur, and some members that the sigma_1
    # pre-filter lets through are still not gapped
    f, f_inv, ratios = sl3_norms_and_gaps
    expected = (ratios >= eta * eta).all(axis=1).tolist()
    mu = Fraction(eta) ** 4
    assert gapped(3, f, f_inv, eta).tolist() == expected
    pairs = zip(f.tolist(), f_inv.tolist())
    assert [_bezoutian_negative_definite(a, b, mu) for a, b in pairs] == expected
    assert set(expected) == {False, True}
    passed = ~_sigma1_sq_le(3, f.astype(object), f_inv.astype(object), mu)
    assert not all(np.array(expected)[passed])


def test_sl3_gapped_takes_int64_only_where_it_is_exact(sl3_norms_and_gaps, monkeypatch):
    # the pre-filter keeps int64 while its terms stay below 2 top P^3 < 2^63 and the
    # minors while theirs stay below 3 top^4 P^6 < 2^63, top = max(f, f_inv): at
    # eta = 1.5 (P = 81) the minors' bound holds to top = 57, at eta = 5 (P = 625)
    # the pre-filter's alone, and at eta = 1.1 (P has 205 bits) neither.  Past
    # top = 57 the products E12(a) E23(b) E31(c) have minor terms r^3 (f f_inv)^2,
    # r = P Q = 1296, beyond 2^63.  The verdicts match those on Python ints throughout
    f, f_inv, _ = sl3_norms_and_gaps
    seen = []

    def sigma1_sq_le(n, f, f_inv, bound):
        seen.append((f.dtype, f_inv.dtype))
        return _sigma1_sq_le(n, f, f_inv, bound)

    monkeypatch.setattr(sampler, "_sigma1_sq_le", sigma1_sq_le)
    assert 3 * 57**4 * 81**6 < 2**63 <= 3 * 58**4 * 81**6
    small = (f <= 57) & (f_inv <= 57)
    words = [
        _elementary(0, 1, a) @ _elementary(1, 2, b) @ _elementary(2, 0, c)
        for a, b, c in product(range(-4, 5), repeat=3)
    ]
    wf, wf_inv = np.array([_frobenius_sq(g) for g in words]).T
    wide = (np.maximum(wf, wf_inv) > 57) & (np.maximum(wf, wf_inv) <= 600)
    assert 1296**3 * int((wf * wf_inv)[wide].max()) ** 2 >= 2**63
    cases = [
        (1.5, np.int64, f[small], f_inv[small]),
        (1.5, np.int64, wf[wide], wf_inv[wide]),
        (5.0, np.int64, f, f_inv),
        (1.1, object, f, f_inv),
    ]
    for eta, dtype, a, b in cases:
        verdict = gapped(3, a, b, eta)
        assert seen.pop() == (np.dtype(dtype),) * 2
        assert verdict.tolist() == gapped(3, a.astype(object), b.astype(object), eta).tolist()
        if eta == 1.5:
            assert 0 < verdict.sum() < len(verdict)


def test_membership_matches_float_norm():
    # exact boundary test must agree with the numeric norm away from ties
    for spec in (BallSpec(2, 7), BallSpec(3, 2)):
        e = enumerate_ball(spec)
        sigma = svd_batch(e.take(np.arange(e.count)).astype(float)).sigma
        assert (sigma[:, 0] <= float(spec.x) + 1e-9).all()


def test_monotonicity_in_x():
    c1 = enumerate_ball(BallSpec(2, 5)).count
    c2 = enumerate_ball(BallSpec(2, 12)).count
    assert c1 <= c2
    p = enumerate_ball(BallSpec(3, 2)).count
    s = enumerate_ball(BallSpec(3, 2, symmetrized=True)).count
    assert s <= p


def test_symmetrized_closed_under_inverse():
    e = enumerate_ball(BallSpec(3, 2, symmetrized=True))
    entries = {m.entries for m in members(e)}
    for m in members(e):
        assert inverse(m).entries in entries


@pytest.mark.parametrize("x", [2, Fraction(5, 2)])
def test_symmetrized_definition(x):
    spec = BallSpec(3, x, symmetrized=True)
    plain = enumerate_ball(BallSpec(3, x))
    expected = [
        m.entries for m in members(plain) if in_ball(inverse(m), BallSpec(3, spec.x))
    ]
    assert [m.entries for m in members(enumerate_ball(spec))] == expected


def _elementary(i, j, s):
    rows = [[int(r == c) for c in range(3)] for r in range(3)]
    rows[i][j] = s
    return IntMatrix.from_rows(rows)


ELEMENTARY = [
    _elementary(i, j, s) for i in range(3) for j in range(3) if i != j for s in (1, -1)
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(ELEMENTARY), max_size=16))
def test_gram_characteristic_polynomial(word):
    # Cauchy-Binet: on SL_3(Z), g^t g has characteristic polynomial
    # L^3 - ||g||_F^2 L^2 + ||g^-1||_F^2 L - 1, which ball membership relies on
    g = IntMatrix.identity(3)
    for e in word:
        g = g @ e
    gram = g.transpose() @ g
    m = gram.entries
    principal_minors = sum(
        m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2))
    )
    assert gram.trace() == sum(v * v for row in g.entries for v in row)
    assert principal_minors == sum(v * v for row in inverse(g).entries for v in row)
    assert det(gram) == 1


def test_budget_and_config_errors():
    with pytest.raises(BudgetError):
        enumerate_ball(BallSpec(2, 501))
    # the message names the budget and no other remedy
    with pytest.raises(BudgetError, match=r"^X = 7 exceeds the n = 3 enumeration budget X <= 6$"):
        enumerate_ball(BallSpec(3, 7))
    with pytest.raises(ConfigError):
        BallSpec(4, 2)
    with pytest.raises(ConfigError):
        BallSpec(2, Fraction(1, 2))


def test_sample_pairs_deterministic():
    e = enumerate_ball(BallSpec(2, 10))
    p1 = sample_pairs(e, 20, 42)
    p2 = sample_pairs(e, 20, 42)
    assert p1.shape == (20, 2, 2, 2) and p1.dtype == np.int64
    assert np.array_equal(p1, p2)
    # regression fixture: frozen first draw for seed 42 on the X=10 ball
    assert p1[0].tolist() == [[[-5, -1], [6, 1]], [[3, -8], [-1, 3]]]


def test_sample_pairs_edge_cases():
    e = enumerate_ball(BallSpec(2, 1))
    assert sample_pairs(e, 0, 1).shape == (0, 2, 2, 2)
    single = type(e)(e.spec, 1, e.take(np.arange(e.count))[:1].__getitem__)
    pairs = sample_pairs(single, 5, 3)
    assert len(pairs) == 5
    assert (pairs == e.take(np.arange(e.count))[0]).all()


@pytest.mark.parametrize("spec", [BallSpec(2, 20), BallSpec(3, 2, symmetrized=True)])
def test_members_and_samples_hold_python_ints(spec):
    # IntMatrix.power, inverse and the word oracle need exact integers; an
    # np.int64 entry would wrap silently.  Samples stay one int64 stack until
    # a matrix of them is built
    e = enumerate_ball(spec)
    drawn = [IntMatrix.from_rows(g) for g in sample_pairs(e, 50, 0).reshape(-1, spec.n, spec.n)]
    for g in members(e) + drawn:
        assert all(type(v) is int for row in g.entries for v in row)


@pytest.fixture(scope="module")
def gram_invariants():
    # the distinct (f, f_inv) of the X = 3 ball and every pair in a small
    # grid, which holds the cases where a predicate sits on its boundary
    pairs = {_frobenius_sq(g) for g in members(enumerate_ball(BallSpec(3, 3)))}
    pairs.update(product(range(40), repeat=2))
    return np.array(sorted(pairs), dtype=np.int64).T


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("symmetrized", [False, True])
@pytest.mark.parametrize("bound", [1, 4, 9, Fraction(25, 4), Fraction(196, 25)])
def test_member_on_arrays_matches_scalars(gram_invariants, n, symmetrized, bound):
    f, f_inv = gram_invariants
    inside = _member(n, f, f_inv, bound, symmetrized)
    expected = [
        _member(n, a, b, bound, symmetrized) for a, b in zip(f.tolist(), f_inv.tolist())
    ]
    assert all(type(v) is bool for v in expected)
    assert inside.dtype == bool
    assert inside.tolist() == expected
    assert 0 < sum(expected) < len(expected)
    if n == 2:
        # the Frobenius cap is the Gram polynomial's root test: its vertex test is redundant
        assert _sigma1_sq_le(2, f, f_inv, bound).tolist() == (
            _lambda_max_le_2x2(f, 1, bound).tolist()
        )


def test_scalar_predicates_return_python_bools():
    for g in (IntMatrix.identity(2), IntMatrix.identity(3), _elementary(0, 2, 5)):
        for x in (3, Fraction(5, 2)):
            assert type(in_ball(g, BallSpec(g.n, x))) is bool
            assert type(in_ball(g, BallSpec(g.n, x, symmetrized=True))) is bool


def test_int64_intermediates_fit_at_the_budget():
    # Raising MAX_X past these bounds must fail here instead of wrapping.
    # n = 3: columns of squared norm <= b = X^2 give f <= 3 X^2 and
    # f_inv <= 3 X^4, so ((b - f) b + f_inv) b, the largest term, is <= 5 X^6.
    # Scaled by powers of q for b = p/q, every term is below 12 floor(b)^2 p^3,
    # and _enumerate_sl3 keeps int64 while that is below 2^63: at every
    # integer X in the budget it is
    x = MAX_X[3]
    assert 5 * x**6 < 2**63
    assert 12 * (x * x) ** 2 * (x * x) ** 3 < 2**63
    # the sort key packs the nine entries e + X in [0, 2 X] as base-(2 X + 1) digits
    assert (2 * x + 1) ** 9 < 2**63
    # n = 2: each chain of the octant is the interval of t on the line v + t s,
    # s and v the columns of a node inside the disk of squared radius
    # cap = floor(X^2), so its s1 = |s|^2 <= cap and s_cap = cap + s1 give the
    # chain discriminant s1 cap - 1 < cap^2, which must stay exact as a float
    # (the corrected square root) and in int64, as |m| = |s . v| <= cap does
    x = MAX_X[2]
    assert (x * x) ** 2 < 2**53
    # a row's interval: s1 = a^2 + b^2 <= X^2 and s_cap <= X^2 + 1, so
    # disc = s1 (s_cap - s1) - 1 < 2^53.  The completions are at most (|a|, |b|)
    # in absolute value, which the int32 table holds, so |m| <= s1
    assert x * x * (x * x + 1) < 2**53
    assert x < 2**31
    # the count grid and line starts are int64: the count is below
    # (2 X + 1)^3 + 2 (2 X + 1), as a, b, c fix d unless a = 0, where b = -c = +-1
    for table in sl2_tables(1)[1:]:
        assert np.iinfo(table.dtype).max > (2 * x + 1) ** 3 + 2 * (2 * x + 1)
    # the experiment's int64 stacks of sampled members: every entry is at most
    # sigma_1 <= X in absolute value, so the cofactors (minors of order n - 1
    # <= 2) are at most 2 X^2, ||g||_F^2 <= n X^2, and the Schottky cross
    # products |p q' - p' q| <= 2 X^2 with |q| + |q'| <= 2 X
    e2, e3 = enumerate_ball(BallSpec(2, 60)), enumerate_ball(BallSpec(3, 3))
    assert np.abs(e2.take(np.arange(e2.count))).max() <= 60
    assert np.abs(e3.take(np.arange(e3.count))).max() <= 3
    for n, x in MAX_X.items():
        assert max(2 * x * x, n * x * x) + 2 * x < 2**63


def test_in_ball_spot_checks():
    spec = BallSpec(2, 3)
    assert in_ball(IntMatrix.identity(2), spec)
    assert not in_ball(IntMatrix.from_rows([[1, 5], [0, 1]]), spec)
