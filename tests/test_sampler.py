"""Norm-ball enumeration and pair sampling."""

import hashlib
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pingpong.errors import BudgetError, ConfigError
from pingpong.matrices import IntMatrix, det, inverse
from pingpong.sampler import (
    MAX_X,
    BallSpec,
    _bezout,
    _frobenius_sq,
    _member,
    enumerate_ball,
    in_ball,
    norm_at_most,
    sample_pairs,
)
from pingpong.spectral import spectral_norm


def brute_force_sl2(x):
    x = Fraction(x)
    cap = math.ceil(x)
    out = []
    for a, b, c, d in product(range(-cap, cap + 1), repeat=4):
        if a * d - b * c != 1:
            continue
        m = IntMatrix(((a, b), (c, d)))
        if norm_at_most(m, x):
            out.append(m.entries)
    return sorted(out)


def test_sl2_unit_ball_is_the_four_rotations():
    e = enumerate_ball(BallSpec(2, 1))
    assert e.count == 4
    entries = {m.entries for m in e.members}
    assert entries == {
        ((1, 0), (0, 1)),
        ((-1, 0), (0, -1)),
        ((0, -1), (1, 0)),
        ((0, 1), (-1, 0)),
    }


def test_sl2_unit_ball_symmetrized_same():
    assert enumerate_ball(BallSpec(2, 1, symmetrized=True)).count == 4


@pytest.mark.parametrize("x", [1, 2, Fraction(7, 3), Fraction(5, 2), 3, 4, Fraction(9, 2), 5])
def test_sl2_agrees_with_brute_force(x):
    e = enumerate_ball(BallSpec(2, x))
    assert [m.entries for m in e.members] == brute_force_sl2(x)


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
    flat = e.entries.ravel().tolist()
    assert hashlib.sha256(",".join(map(str, flat)).encode()).hexdigest() == digest


def test_sl3_unit_ball_is_so3z():
    # 24 signed permutation matrices of determinant one
    assert enumerate_ball(BallSpec(3, 1)).count == 24


def test_sl3_agrees_with_brute_force():
    x = Fraction(9, 5)
    e = enumerate_ball(BallSpec(3, x))
    cap = math.ceil(x)
    rows = np.array(list(product(range(-cap, cap + 1), repeat=3)))
    brute = []
    for r1 in rows:
        # det(r1; r2; r3) = (r1 x r2) . r3, exact in int64 for every row pair
        for i, j in zip(*np.nonzero(np.cross(r1, rows) @ rows.T == 1)):
            m = IntMatrix.from_rows([r1, rows[i], rows[j]])
            if norm_at_most(m, x):
                brute.append(m.entries)
    assert [m.entries for m in e.members] == sorted(brute)


# count and sha256 of the comma-joined member entries, in enumeration order;
# 5/2 is a non-integer radius (exact Fraction predicates) and 6 the budget edge
PINNED_SL3 = [
    (Fraction(5, 2), False, 6072, "3717683a7a15bf215550a74db3a26863fbccbebcbc55ffd096c34b7448ed339f"),
    (Fraction(5, 2), True, 2616, "08dcf8b4b6a3f1369a774d9f78eea1e538143e5d1fc373d2d98187607e9d8f3b"),
    (3, False, 23064, "437160e2ee8409312935dce8f3f33d97b74bc376c054a9d11652a95cf951e253"),
    (3, True, 6360, "cf08c238a5365b20e94edd63ac24d52300d00f068cc5d82d37c6a7d655a502de"),
    (4, False, 135672, "14d8b0411f799f419de2ab160ed82d7138b86024860f1ea9ba20652ed457edf6"),
    (4, True, 26232, "b1123a76811e962538625707ce273c90ed5e13e9dfa03ba2b0e0f526d6759b58"),
    (6, True, 175704, "d1e6e97b3e2c463ea8907270a8c33bf7022a07078469dfc099d3721672774985"),
]


@pytest.mark.parametrize(
    "x, symmetrized, count, digest",
    PINNED_SL3,
    ids=["2.5-plain", "2.5-sym", "3-plain", "3-sym", "4-plain", "4-sym", "6-sym"],
)
def test_sl3_pinned_balls(x, symmetrized, count, digest):
    e = enumerate_ball(BallSpec(3, x, symmetrized))
    flat = [v for m in e.members for row in m.entries for v in row]
    # exact arithmetic downstream needs Python ints, not numpy scalars
    assert all(type(v) is int for v in flat)
    assert e.count == count
    assert hashlib.sha256(",".join(map(str, flat)).encode()).hexdigest() == digest


def test_membership_matches_float_norm():
    # exact boundary test must agree with the numeric norm away from ties
    for spec in (BallSpec(2, 7), BallSpec(3, 2)):
        for m in enumerate_ball(spec).members:
            assert spectral_norm(m) <= float(spec.x) + 1e-9


def test_monotonicity_in_x():
    c1 = enumerate_ball(BallSpec(2, 5)).count
    c2 = enumerate_ball(BallSpec(2, 12)).count
    assert c1 <= c2
    p = enumerate_ball(BallSpec(3, 2)).count
    s = enumerate_ball(BallSpec(3, 2, symmetrized=True)).count
    assert s <= p


def test_symmetrized_closed_under_inverse():
    e = enumerate_ball(BallSpec(3, 2, symmetrized=True))
    entries = {m.entries for m in e.members}
    for m in e.members:
        assert inverse(m).entries in entries


@pytest.mark.parametrize("x", [2, Fraction(5, 2)])
def test_symmetrized_definition(x):
    spec = BallSpec(3, x, symmetrized=True)
    plain = enumerate_ball(BallSpec(3, x))
    expected = [
        m.entries for m in plain.members if norm_at_most(inverse(m), spec.x)
    ]
    assert [m.entries for m in enumerate_ball(spec).members] == expected


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
    with pytest.raises(BudgetError):
        enumerate_ball(BallSpec(3, 7))
    with pytest.raises(ConfigError):
        BallSpec(4, 2)
    with pytest.raises(ConfigError):
        BallSpec(2, Fraction(1, 2))


def test_sample_pairs_deterministic():
    e = enumerate_ball(BallSpec(2, 10))
    p1 = sample_pairs(e, 20, 42)
    p2 = sample_pairs(e, 20, 42)
    assert [(a.entries, b.entries) for a, b in p1] == [
        (a.entries, b.entries) for a, b in p2
    ]
    # regression fixture: frozen first draw for seed 42 on the X=10 ball
    g1, g2 = p1[0]
    assert g1.entries == ((-5, -1), (6, 1))
    assert g2.entries == ((3, -8), (-1, 3))


def test_sample_pairs_edge_cases():
    e = enumerate_ball(BallSpec(2, 1))
    assert sample_pairs(e, 0, 1) == []
    single = type(e)(e.spec, e.entries[:1])
    pairs = sample_pairs(single, 5, 3)
    assert len(pairs) == 5
    assert all(a.entries == b.entries == e.members[0].entries for a, b in pairs)


@pytest.mark.parametrize("spec", [BallSpec(2, 20), BallSpec(3, 2, symmetrized=True)])
def test_members_and_samples_hold_python_ints(spec):
    # IntMatrix.power, inverse and the word oracle need exact integers; an
    # np.int64 entry would wrap silently
    e = enumerate_ball(spec)
    drawn = [g for pair in sample_pairs(e, 50, 0) for g in pair]
    for g in list(e.members) + drawn:
        assert all(type(v) is int for row in g.entries for v in row)


@pytest.fixture(scope="module")
def gram_invariants():
    # the distinct (f, f_inv) of the X = 3 ball and every pair in a small
    # grid, which holds the cases where a predicate sits on its boundary
    pairs = {_frobenius_sq(g) for g in enumerate_ball(BallSpec(3, 3)).members}
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


def test_scalar_predicates_return_python_bools():
    for g in (IntMatrix.identity(2), IntMatrix.identity(3), _elementary(0, 2, 5)):
        for x in (3, Fraction(5, 2)):
            assert type(norm_at_most(g, x)) is bool
            assert type(in_ball(g, BallSpec(g.n, x, symmetrized=True))) is bool


def test_int64_intermediates_fit_at_the_budget():
    # Raising MAX_X past these bounds must fail here instead of wrapping.
    # n = 3: columns of squared norm <= b = X^2 give f <= 3 X^2 and
    # f_inv <= 3 X^4, so ((b - f) b + f_inv) b, the largest term, is <= 5 X^6
    x = MAX_X[3]
    assert 5 * x**6 < 2**63
    # n = 2: for a first row (a, b), s1 = a^2 + b^2 <= X^2 and s_cap <= X^2 + 1.
    # _bezout gives |c0| = |g y| <= |a| and |d0| = |g x| <= |b| (and
    # (c0, d0) = (-b, 0) or (0, a) when a = 0 or b = 0), so c0^2 + d0^2 <= s1
    # and |m| = |a c0 + b d0| <= s1 on every lane.  disc <= m^2 + s1 s_cap
    # must stay exact as a float
    x = MAX_X[2]
    assert x**4 + x * x * (x * x + 1) < 2**53


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-MAX_X[2], MAX_X[2])] * 2), min_size=1, max_size=50))
def test_bezout_identity_and_coefficient_bound(pairs):
    a, b = np.array(pairs + [(0, 0), (0, 7), (-7, 0), (0, -1), (1, 0)]).T
    g, x, y = _bezout(a, b)
    assert (x * a + y * b == g).all()
    assert (np.abs(g) == [math.gcd(*p) for p in zip(a.tolist(), b.tolist())]).all()
    # the bounds the n = 2 enumerator relies on, with (c0, d0) = (-g y, g x);
    # they imply |x| <= |b| and |y| <= |a|
    both = (a != 0) & (b != 0)
    assert (np.abs(g * x)[both] <= np.abs(b[both])).all()
    assert (np.abs(g * y)[both] <= np.abs(a[both])).all()
    assert ((g * y) ** 2 + (g * x) ** 2 <= a * a + b * b).all()


def test_in_ball_spot_checks():
    spec = BallSpec(2, 3)
    assert in_ball(IntMatrix.identity(2), spec)
    assert not in_ball(IntMatrix.from_rows([[1, 5], [0, 1]]), spec)
