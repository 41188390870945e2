"""Contraction witnesses, ping-pong and Schottky certificates."""

import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pingpong import certify
from pingpong.certify import (
    CERTIFIED,
    CODE_BLOCK,
    CROSS_SEPARATION,
    SCHOTTKY_CERTIFIED,
    VERY_PROXIMAL,
    Circle,
    ContractionWitness,
    _jacobi_readoff,
    choose_k,
    decide_pairs,
    decide_schottky,
    hausdorff_bounds,
    hausdorff_upper_bound,
    isometric_circles,
    ping_pong_pair,
    schottky_sl2,
    sl2_fixed_points,
    very_proximal,
    with_inverses,
)
from pingpong.dynamics import falsify_freeness
from pingpong.errors import ConfigError
from pingpong.matrices import IntMatrix, det, inverse
from pingpong.sampler import MAX_X, BallSpec, enumerate_ball, sample_pairs
from pingpong.spectral import DELTA_NUM, svd, svd_batch
from pingpong.wedge import point_hyperplane_distance, proj_distance, unit, wedge_matrix

PHI = (1 + math.sqrt(5)) / 2

H = IntMatrix.from_rows([[2, 1], [1, 1]])
K = IntMatrix.from_rows([[1, 1], [1, 2]])
ROT = IntMatrix.from_rows([[0, -1], [1, 0]])
SHEAR2 = IntMatrix.from_rows([[1, 2], [0, 1]])
SHEAR4 = IntMatrix.from_rows([[1, 4], [0, 1]])
PARABOLIC = IntMatrix.from_rows([[1, 1], [0, 1]])


def test_choose_k():
    assert choose_k(2) == 1
    assert choose_k(3) == 1
    assert choose_k(4) == 2
    assert choose_k(5) == 2
    with pytest.raises(ConfigError):
        choose_k(1)


def epsilon_contracting(g, k, eps):
    """The witness that g contracts P(wedge^k(R^n)) (gap <= eps^2 - DELTA_NUM), or None:
    decide_pairs on the pair (g, g) fails with code 0 iff g does not contract (r = 1.0
    is moot for that code), and row g of the Jacobi read-off is its witness."""
    rows = with_inverses([g, g])
    if not decide_pairs(rows, k, 1.0, eps)[0]:
        return None
    gap, v, h, _ = _jacobi_readoff(rows, k)
    return ContractionWitness(eps, k, v[:, 0], h[:, 0], float(gap[0]))


def test_epsilon_contracting_examples():
    assert epsilon_contracting(IntMatrix.identity(2), 1, 0.2) is None
    w = epsilon_contracting(SHEAR4, 1, 0.24)
    assert w is not None
    assert w.gap == pytest.approx(9 - 4 * math.sqrt(5), rel=1e-10)
    assert epsilon_contracting(SHEAR2, 1, 0.24) is None


def test_epsilon_contracting_validates_eps():
    with pytest.raises(ConfigError):
        epsilon_contracting(H, 1, 0.3)
    with pytest.raises(ConfigError):
        epsilon_contracting(H, 1, 0.0)


def _witness_fixtures():
    """A pool of certified witnesses across n = 2 and n = 3, k = 1."""
    out = []
    for p in range(4, 10):
        out.append((H.power(p), 1, 0.2))
        out.append((K.power(p), 1, 0.2))
        out.append(((H @ K).power(p), 1, 0.2))
    a3 = IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    b3 = IntMatrix.from_rows([[1, 0, 0], [0, 2, 1], [0, 1, 1]])
    c3 = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    for p in range(4, 8):
        out.append(((a3 @ b3).power(p), 1, 0.2))
        out.append(((a3 @ c3 @ b3).power(p), 1, 0.2))
        out.append((((a3 @ b3).power(p)) @ c3, 1, 0.2))
    return out


def test_contraction_soundness_mapping_property():
    # every witness maps points far from H into the eps-ball of v, exactly
    # as certified: zero violations beyond 1e-9 slack
    rng = np.random.default_rng(11)
    checked = 0
    for g, k, eps in _witness_fixtures():
        w = epsilon_contracting(g, k, eps)
        if w is None:
            continue
        checked += 1
        wk = wedge_matrix(g, k)
        dim = math.comb(g.n, k)
        pts = rng.normal(size=(200, dim))
        for row in pts:
            p = unit(row)
            if point_hyperplane_distance(p, w.h) < eps:
                continue
            img = unit(wk @ p)
            assert proj_distance(img, w.v) <= eps + 1e-9
    assert checked >= 20


def test_very_proximal_symmetric_power():
    pair = very_proximal(H.power(8), 1, 0.25, 0.1)
    assert pair is not None
    for w in pair:
        assert point_hyperplane_distance(w.v, w.h) == pytest.approx(1.0, abs=1e-8)


def test_very_proximal_rejects_identity_and_twisted():
    assert very_proximal(IntMatrix.identity(2), 1, 0.25, 0.1) is None
    # rot @ H^8 contracts strongly but its attractor lies in its own
    # repelling hyperplane, so proximality must fail
    twisted = ROT @ H.power(8)
    assert epsilon_contracting(twisted, 1, 0.1) is not None
    assert very_proximal(twisted, 1, 0.25, 0.1) is None


def test_very_proximal_validates_r():
    with pytest.raises(ConfigError):
        very_proximal(H, 1, 0.15, 0.1)


def test_ping_pong_pair_refuses_r_past_the_float_range():
    # an int r past the float range is a config error, not an OverflowError
    for r in (10**400, -(10**400), math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite floats"):
            ping_pong_pair(H.power(8), K.power(8), 1, r, 0.2)


def test_ping_pong_pair_identity_rejected():
    verdict = ping_pong_pair(IntMatrix.identity(2), IntMatrix.identity(2), 1, 0.25, 0.1)
    assert verdict.certificate is None
    assert verdict.reason == "g1 is not eps-contracting on the k = 1 exterior power"


def test_ping_pong_pair_transverse_hyperbolics():
    verdict = ping_pong_pair(H.power(8), K.power(8), 1, 0.25, 0.1)
    assert verdict.reason is None
    cert = verdict.certificate
    assert cert is not None
    assert cert.min_separation >= 0.25
    assert len(cert.witnesses) == 4
    # certified pairs must survive the exact word oracle
    assert falsify_freeness(H.power(8), K.power(8), 8) is None


def test_ping_pong_certificate_implies_oracle_silence():
    e_pairs = [
        (H.power(6), K.power(6)),
        (H.power(8), (H @ K).power(8)),
    ]
    for g1, g2 in e_pairs:
        if ping_pong_pair(g1, g2, 1, 0.25, 0.1).certificate is not None:
            assert falsify_freeness(g1, g2, 8) is None


def test_ping_pong_pair_sl3():
    block_h = IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    block_k = IntMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 1, 2]])
    g1, g2 = block_h.power(8), block_k.power(8)
    cert = ping_pong_pair(g1, g2, 1, 0.25, 0.1).certificate
    assert cert is not None
    assert cert.min_separation >= 0.25
    assert falsify_freeness(g1, g2, 8) is None


def test_certified_pair_takes_one_decomposition(monkeypatch):
    # at n >= 3 the certificate and the witnesses read off the Jacobi pass that
    # decided them; at n = 2 the decision is integer, and the read-off is the one pass
    calls = []

    def counted(a):
        calls.append(len(a))
        return svd_batch(a)

    monkeypatch.setattr(certify, "svd_batch", counted)
    block_h = IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    block_k = IntMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 1, 2]])
    for g1, g2 in ((block_h.power(8), block_k.power(8)), (H.power(8), K.power(8))):
        assert ping_pong_pair(g1, g2, 1, 0.25, 0.1).certificate is not None
        assert calls == [4]
        assert very_proximal(g1, 1, 0.25, 0.1) is not None
        assert calls == [4, 4]
        calls.clear()
    # a refused n = 2 pair takes none
    assert ping_pong_pair(IntMatrix.identity(2), H, 1, 0.25, 0.1).certificate is None
    assert calls == []


def test_sl2_fixed_points_golden_ratio():
    alpha, beta = sl2_fixed_points(H)
    assert alpha == pytest.approx(PHI, rel=1e-12)
    assert beta == pytest.approx((1 - math.sqrt(5)) / 2, rel=1e-12)
    # exact substitution: c x^2 + (d - a) x - b = 0
    for x in (alpha, beta):
        assert abs(1 * x * x + (1 - 2) * x - 1) <= 1e-10 * max(1.0, x * x)


def test_sl2_fixed_points_rejects_non_hyperbolic():
    with pytest.raises(ConfigError):
        sl2_fixed_points(PARABOLIC)
    with pytest.raises(ConfigError):
        sl2_fixed_points(ROT)
    # c = 0 with |trace| > 2 needs det != 1
    with pytest.raises(ConfigError):
        sl2_fixed_points(IntMatrix.from_rows([[2, 1], [0, 3]]))


def _pair_stack(*pairs):
    """The (P, 2, 2, 2) object stack of Python-int pairs."""
    return np.array([[g1.entries, g2.entries] for g1, g2 in pairs], dtype=object)


def test_isometric_circles():
    g = H.power(4)  # [[34, 21], [21, 13]]
    center, radius = isometric_circles(_pair_stack((g, K)))
    # C1 is g's circle and C3 g^-1's; C2 and C4 are K's and K^-1's
    assert center[0].tolist() == [-13 / 21, -2 / 1, 34 / 21, 1 / 1]
    assert radius[0].tolist() == [1 / 21, 1.0, 1 / 21, 1.0]
    # an int64 stack gives the same bits
    stacked = isometric_circles(np.array([[g.entries, K.entries]]))
    assert [a.tobytes() for a in stacked] == [center.tobytes(), radius.tobytes()]
    with pytest.raises(ConfigError, match="c != 0"):
        isometric_circles(_pair_stack((g, PARABOLIC)))


def test_schottky_certificate_issued():
    g1 = H.power(4)
    g2 = IntMatrix.from_rows([[34, -21], [-21, 13]])
    verdict = schottky_sl2(g1, g2)
    assert verdict.reason is None
    cert = verdict.certificate
    assert cert is not None
    assert cert.min_gap > 0
    assert cert.traces == (47, 47)
    assert falsify_freeness(g1, g2, 8) is None


def test_schottky_rejects_bad_pairs():
    cases = [
        ((H.power(4), H.power(4)), "isometric circles are not pairwise disjoint"),
        ((PARABOLIC, H.power(4)), "g1 is not hyperbolic (|trace| <= 2)"),
        ((ROT, H.power(4)), "g1 is not hyperbolic (|trace| <= 2)"),
        ((H.power(4), SHEAR2), "g2 is not hyperbolic (|trace| <= 2)"),
    ]
    for pair, reason in cases:
        verdict = schottky_sl2(*pair)
        assert verdict.certificate is None
        assert verdict.reason == reason


@st.composite
def hyperbolic_sl2(draw):
    """A hyperbolic SL_2(Z) matrix with c != 0: (c, d) coprime, then a, b solved."""
    d = draw(st.integers(-40, 40))
    # c is drawn among the values coprime to d, not filtered: two filtered
    # draws per example tripped hypothesis's filter_too_much health check
    c = draw(st.sampled_from([c for c in range(-40, 41) if c and math.gcd(c, d) == 1]))
    a = pow(d, -1, abs(c)) if abs(c) > 1 else 0  # a d = 1 (mod c)
    b = (a * d - 1) // c
    t = draw(st.integers(-5, 5))
    a, b = a + t * c, b + t * d  # row operation, keeps det = 1
    assume(abs(a + d) > 2)
    return IntMatrix.from_rows([[a, b], [c, d]])


def _unit_circle_point(p, q):
    """Rational point on |u| = 1, as (re, im), from a Pythagorean parametrization."""
    n = p * p + q * q
    return Fraction(p * p - q * q, n), Fraction(2 * p * q, n)


@settings(max_examples=200, deadline=None)
@given(
    hyperbolic_sl2(),
    st.integers(-20, 20),
    st.integers(1, 20),
    st.fractions(-50, 50, max_denominator=64),
    st.fractions(-50, 50, max_denominator=64),
)
def test_isometric_circle_mapping_property(g, p, q, x, y):
    # Ford: g maps the exterior of its isometric circle |cz + d| = 1 into the
    # closed interior of the isometric circle of g^-1, and the circle onto it.
    # Exact rational arithmetic on points z = x + iy.
    (a, b), (c, d) = g.entries
    assert det(g) == 1
    center, radius = isometric_circles(_pair_stack((g, g)))
    assert center[0].tolist() == [-d / c, -d / c, a / c, a / c]
    assert radius[0].tolist() == [1 / abs(c)] * 4

    def image_dist2(x, y):
        # |g(z) - a/c|^2 and |cz + d|^2
        nr, ni = a * x + b, a * y
        dr, di = c * x + d, c * y
        den2 = dr * dr + di * di
        wr = (nr * dr + ni * di) / den2 - Fraction(a, c)
        wi = (ni * dr - nr * di) / den2
        return wr * wr + wi * wi, den2

    assume(c * x + d != 0 or y != 0)
    dist2, den2 = image_dist2(x, y)
    if den2 >= 1:  # z on or outside the isometric circle of g
        assert dist2 <= Fraction(1, c * c)
    ur, ui = _unit_circle_point(p, q)
    dist2, den2 = image_dist2((ur - d) / c, ui / c)
    assert den2 == 1
    assert dist2 == Fraction(1, c * c)


T = IntMatrix.from_rows([[1, 1], [0, 1]])


def _shifted(g, s):
    """T^s g T^-s: the isometric circles of g moved right by s."""
    return T.power(s) @ g @ T.power(-s)


def test_schottky_near_tangent_pair_certified():
    # g1's two circles are 1/(a^2 - 3a + 1) ~ 1e-10 apart, far below the
    # 1e-8 float slack; the integer test still sees them disjoint
    a = 10**5
    g1 = IntMatrix.from_rows([[a, -1], [a * a - 3 * a + 1, 3 - a]])
    g2 = _shifted(g1, 10)
    verdict = schottky_sl2(g1, g2)
    assert verdict.reason is None
    assert 0 < verdict.certificate.min_gap < 1e-8
    assert falsify_freeness(g1, g2, 8) is None


def test_schottky_tangent_pair_refused():
    # circles [1, 3] (H^-1's) and [3, 5] (the shifted H's) touch at 3
    verdict = schottky_sl2(H, _shifted(H, 5))
    assert verdict.certificate is None
    assert verdict.reason == "isometric circles are not pairwise disjoint"


@settings(max_examples=300, deadline=None)
@given(hyperbolic_sl2(), hyperbolic_sl2())
def test_schottky_disjointness_matches_exact_gaps(g1, g2):
    # the integer test against the six circle gaps in exact rationals:
    # (center, radius) = (-d/c, 1/|c|) for g, (a/c, 1/|c|) for g^-1
    circles = [
        (Fraction(center, c), Fraction(1, abs(c)))
        for (a, _), (c, d) in (g1.entries, g2.entries)
        for center in (-d, a)
    ]
    gaps = [abs(u[0] - v[0]) - u[1] - v[1] for u, v in combinations(circles, 2)]
    verdict = schottky_sl2(g1, g2)
    assert (verdict.certificate is not None) == (min(gaps) > 0)
    if verdict.certificate is None:
        assert verdict.reason == "isometric circles are not pairwise disjoint"
    else:
        assert verdict.certificate.min_gap == pytest.approx(float(min(gaps)), abs=1e-12)


def test_schottky_attracting_point_inside_target_circle():
    g1 = H.power(4)
    g2 = IntMatrix.from_rows([[34, -21], [-21, 13]])
    cert = schottky_sl2(g1, g2).certificate
    a1, b1, a2, b2 = cert.fixed_points
    c1, c2, c3, c4 = cert.circles
    # attracting fixed point of g_i sits inside C_{i+2}, repelling inside C_i
    assert abs(a1 - c3.center) < c3.radius
    assert abs(b1 - c1.center) < c1.radius
    assert abs(a2 - c4.center) < c4.radius
    assert abs(b2 - c2.center) < c2.radius


def test_hausdorff_hand_fixture():
    circles = tuple(Circle(2.0 * i, 0.01) for i in range(4))
    bound = hausdorff_upper_bound(circles)
    lam = 0.01 / (2 - 0.01)
    assert bound == pytest.approx(-math.log(3) / (2 * math.log(lam)), rel=1e-12)
    assert bound == pytest.approx(0.1037, abs=1e-3)


def test_hausdorff_vacuous_cases():
    overlapping = (Circle(0.0, 0.5), Circle(0.6, 0.5), Circle(3.0, 0.1), Circle(5.0, 0.1))
    assert hausdorff_upper_bound(overlapping) is None


def test_hausdorff_monotone_in_radius():
    def bound(radius):
        return hausdorff_upper_bound(tuple(Circle(2.0 * i, radius) for i in range(4)))

    values = [bound(r) for r in (0.2, 0.1, 0.05, 0.01, 0.001)]
    assert all(b > a for a, b in zip(values[1:], values[:-1]))


def _hausdorff_loop(circles):
    """The per-circle-pair loop hausdorff_bounds replaced, as an independent reference."""
    lam = 0.0
    for i, ci in enumerate(circles):
        for j, cj in enumerate(circles):
            if i == j:
                continue
            denom = abs(ci.center - cj.center) - cj.radius
            if denom <= 0:
                return None
            lam = max(lam, ci.radius / denom)
    if not 0.0 < lam < 1.0:
        return None
    return -math.log(3.0) / (2.0 * math.log(lam))


def _assert_bounds_match_loop(center, radius):
    """hausdorff_bounds equals the loop on every row, bit for bit; returns the rows' bounds."""
    bounds = hausdorff_bounds(center, radius)
    assert len(bounds) == len(center)
    for row, bound in enumerate(bounds):
        circles = [Circle(*cr) for cr in zip(center[row].tolist(), radius[row].tolist())]
        expected = _hausdorff_loop(circles)
        assert (bound is None) == (expected is None)
        assert bound is None or bound.hex() == expected.hex()
    return bounds


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(hyperbolic_sl2(), hyperbolic_sl2()), min_size=1, max_size=8))
def test_hausdorff_bounds_match_loop_on_isometric_circles(pairs):
    _assert_bounds_match_loop(*isometric_circles(_pair_stack(*pairs)))


def test_hausdorff_bounds_match_loop_on_hand_fixtures():
    rows = [
        [Circle(2.0 * i, 0.01) for i in range(4)],
        # overlapping: a denominator <= 0
        [Circle(0.0, 0.5), Circle(0.6, 0.5), Circle(3.0, 0.1), Circle(5.0, 0.1)],
        # every denominator positive, but C1 reaches past C2's center: lambda >= 1
        [Circle(0.0, 1.0), Circle(1.5, 1.0), Circle(10.0, 0.1), Circle(20.0, 0.1)],
        # C1's center on C2: a denominator of exactly 0, never divided by
        [Circle(0.0, 1.0), Circle(1.0, 1.0), Circle(10.0, 0.1), Circle(20.0, 0.1)],
        *([Circle(2.0 * i, r) for i in range(4)] for r in (0.2, 0.1, 0.05, 0.001)),
    ]
    center = np.array([[c.center for c in row] for row in rows])
    radius = np.array([[c.radius for c in row] for row in rows])
    bounds = _assert_bounds_match_loop(center, radius)
    assert bounds[1:4] == [None] * 3 and None not in bounds[4:]
    assert bounds[0] == hausdorff_upper_bound(tuple(rows[0]))
    assert hausdorff_bounds(center[:0], radius[:0]) == []
    # the certified pairs of a sampled radius, as the experiment bounds them
    pairs = sample_pairs(enumerate_ball(BallSpec(2, 60)), 2000, seed=[7, 1])
    certified = pairs[decide_schottky(pairs) == SCHOTTKY_CERTIFIED]
    assert len(certified) > 100
    # disjoint circles give lambda < 1, so each of these rows has a bound
    assert None not in _assert_bounds_match_loop(*isometric_circles(certified))


def test_sl3_budget_ball_never_contracts():
    # for g in SL_3(Z), sigma_2^2 >= sigma_2 sigma_3 = 1/sigma_1, so
    # sigma_2/sigma_1 >= sigma_1^(-3/2) >= X^(-3/2); at the budget edge this
    # exceeds 1/16 > eps^2 for every admitted eps < 1/4, so no member of a
    # budgeted n = 3 ball is eps-contracting and none certifies ping-pong
    x = MAX_X[3]
    bound = float(x) ** -1.5
    assert bound > 1 / 16
    enum = enumerate_ball(BallSpec(3, x, symmetrized=True))
    assert enum.count == 175_704
    members = enum.take(np.arange(enum.count))
    sigma = svd_batch(members.astype(float)).sigma
    ratio = sigma[:, 1] / sigma[:, 0]
    assert ratio.min() >= bound
    assert ratio.min() < 0.0710  # measured 0.0709: the bound is nearly attained
    # so at the largest admitted eps every pair fails at g1's contraction
    code = decide_pairs(with_inverses(members[::100][:1000]), 1, 0.5, 0.2499)
    assert len(code) == 500 and (code == 0).all()


def _recording_sigma1_bounds(monkeypatch):
    """The bound c of every sigma_1^2 <= c test decide_pairs makes from here on."""
    bounds, sigma1_sq_le = [], certify._sigma1_sq_le
    monkeypatch.setattr(certify, "_sigma1_sq_le", lambda n, f, f_inv, c: bounds.append(c)
                        or sigma1_sq_le(n, f, f_inv, c))
    return bounds


def test_sl3_contraction_cap_covers_the_budget(monkeypatch):
    # at the largest admitted eps and k = 1, c is the largest integer with c^3 T^4 < 1
    # for T = eps^2 - DELTA_NUM, 40; every member of a budgeted n = 3 ball has
    # sigma_1^2 <= MAX_X[3]^2 = 36 <= c, so its g1 is ruled out with no decomposition
    bounds = _recording_sigma1_bounds(monkeypatch)
    members = enumerate_ball(BallSpec(3, MAX_X[3])).take(np.arange(1000) * 1_501)
    assert decide_pairs(with_inverses(members), 1, 0.5, 0.2499).tolist() == [0] * 500
    t = Fraction(0.2499**2 - DELTA_NUM)
    assert bounds == [40] and 40**3 * t**4 < 1 <= 41**3 * t**4
    assert bounds[0] >= MAX_X[3] ** 2
    del bounds[:]
    decide_pairs(with_inverses(members), 1, 0.5, 0.2)
    assert bounds == [73]


@pytest.mark.parametrize("symmetrized", [False, True])
def test_sl3_ruled_out_g1_do_not_contract(symmetrized):
    # the rule is sound: every g1 it rules out has, by an independent Jacobi pass,
    # sigma_{k+1}/sigma_k > eps^2 - DELTA_NUM, on sampled members of every n = 3 ball
    outcomes = set()
    for x in range(2, MAX_X[3] + 1):
        pairs = sample_pairs(enumerate_ball(BallSpec(3, x, symmetrized)), 300, seed=[11, x])
        rows = with_inverses(pairs.reshape(-1, 3, 3))
        sigma = svd_batch(rows[0::4]).sigma
        for eps in (0.05, 0.2, 0.2499):
            for k in (1, 2):
                ruled_out = certify._ruled_out(rows, k, Fraction(eps * eps - DELTA_NUM))
                gap = sigma[:, k] / sigma[:, k - 1]
                assert (gap[ruled_out] > eps * eps - DELTA_NUM).all(), (x, eps, k)
                outcomes.update(ruled_out.tolist())
    assert outcomes == {False, True}


def test_sl3_rule_on_large_int64_entries_is_exact():
    # int64 stacks whose Gram entries or predicate terms pass 2^63 decide as their
    # Python-int copies do: nothing wraps silently
    shears = [[[1, e, 0], [0, 1, 0], [0, 0, 1]] for e in (6, 3 * 10**4, 2**31, 2**61)]
    rows = shears + [[[1, 2**20, 0], [0, 1, 2**20], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    gens = [IntMatrix.from_rows(r) for r in rows]
    obj = with_inverses([g for g in gens for _ in range(2)])
    int64 = obj.astype(np.int64)
    assert (int64 == obj).all()
    outcomes = set()
    for eps in (0.2, 0.2499, 0.0101, 1.0000001e-4):
        for k in (1, 2):
            t = Fraction(eps * eps - DELTA_NUM)
            ruled_out = certify._ruled_out(int64, k, t)
            assert ruled_out.tolist() == certify._ruled_out(obj, k, t).tolist(), (eps, k)
            outcomes.update(ruled_out.tolist())
        codes = decide_pairs(int64, 1, 0.5, eps)
        assert codes.tolist() == decide_pairs(obj, 1, 0.5, eps).tolist(), eps
    assert outcomes == {False, True}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_empty_stack_gets_no_codes(n):
    for dtype in (np.int64, object):
        code = decide_pairs(np.zeros((0, n, n), dtype), 1, 0.5, 0.2)
        assert code.shape == (0,) and code.dtype.kind == "i"
    with pytest.raises(ConfigError):  # the arguments are still checked
        decide_pairs(np.zeros((0, n, n), np.int64), 1, 0.5, 0.3)


def _ruled_out_and_certified_sl3_pairs():
    """CODE_BLOCK ball pairs whose g1 are all ruled out at eps = 0.1, then 60 pairs
    mixing ruled-out ball pairs with block powers that certify, fail at a cross
    separation and fail at g2's contraction."""
    ball = enumerate_ball(BallSpec(3, 4, symmetrized=True))
    ball = sample_pairs(ball, 2 * CODE_BLOCK, seed=[7, 0])
    block_h = IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    block_k = IntMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 1, 2]])
    g2s = (block_k.power(8), block_h.power(-8), IntMatrix.identity(3))
    powers = [[block_h.power(8).entries, g2.entries] for g2 in g2s] * 10
    powers = np.array(powers, dtype=np.int64)
    mixed = np.concatenate([ball[CODE_BLOCK : CODE_BLOCK + 30], powers])
    return np.concatenate([ball[:CODE_BLOCK], mixed[np.random.default_rng(3).permutation(60)]])


@pytest.mark.parametrize("n", [2, 3])
def test_codes_come_in_blocks_equal_to_one_call(monkeypatch, n):
    # decide_pairs decides CODE_BLOCK pairs at a time: the slices cover the stack once,
    # in order, and give the codes of one unblocked _decide_pairs call.  At n = 3 the
    # first slice's g1 are all ruled out, so it takes no Jacobi pass, and the second
    # is decided by one, with its ruled-out g1 still at code 0
    if n == 2:
        pairs = sample_pairs(enumerate_ball(BallSpec(2, 60)), 3 * CODE_BLOCK + 100, seed=[7, 0])
        r, eps = 0.5, 0.2
    else:
        pairs, r, eps = _ruled_out_and_certified_sl3_pairs(), 0.25, 0.1
    rows = with_inverses(pairs.reshape(-1, n, n))
    whole = certify._decide_pairs(rows, 1, r, eps)[0]
    calls, svd_rows, decide, svd = [], [], certify._decide_pairs, certify.svd_batch
    monkeypatch.setattr(certify, "_decide_pairs", lambda x, *a: calls.append(x) or decide(x, *a))
    monkeypatch.setattr(certify, "svd_batch", lambda x: svd_rows.append(len(x)) or svd(x))
    code = decide_pairs(rows, 1, r, eps)
    whole_slices, rest = divmod(len(pairs), CODE_BLOCK)
    assert [len(c) for c in calls] == [4 * CODE_BLOCK] * whole_slices + [4 * rest]
    assert np.array_equal(np.concatenate(calls), rows)
    assert code.tolist() == whole.tolist()
    assert len(set(whole.tolist())) > 2  # the slices hold several outcomes
    assert svd_rows == ([] if n == 2 else [4 * 60])
    if n == 3:
        assert (code[:CODE_BLOCK] == 0).all()
        assert set(code[CODE_BLOCK:].tolist()) == {0, 4, VERY_PROXIMAL, CERTIFIED}


def test_ruled_out_g1_keeps_code_0_in_a_jacobi_slice(monkeypatch):
    # the rule decides per pair: in a slice that takes the Jacobi pass, a ruled-out g1
    # fails at its contraction even where the float gap reads below T
    readoff = certify._jacobi_readoff
    monkeypatch.setattr(
        certify, "_jacobi_readoff", lambda rows, k: (np.zeros(len(rows)), *readoff(rows, k)[1:])
    )
    h8 = IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, 1]]).power(8)
    k8 = IntMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 1, 2]]).power(8)
    rows = with_inverses([h8, k8, IntMatrix.identity(3), k8])
    assert decide_pairs(rows, 1, 0.25, 0.1).tolist() == [CERTIFIED, 0]


def test_pair_past_the_float_range_is_refused_first(monkeypatch):
    # an object stack with an entry past the float range is refused before any
    # decision, though its g1 would be ruled out, at n = 3 as at n = 2
    def refuse(*args):
        raise AssertionError("decided before the float-range check")

    monkeypatch.setattr(certify, "_ruled_out", refuse)
    monkeypatch.setattr(certify, "svd_batch", refuse)
    huge = IntMatrix.from_rows([[1, 10**400, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ConfigError, match="float range"):
        decide_pairs(with_inverses([IntMatrix.identity(3), huge]), 1, 0.5, 0.2)
    with pytest.raises(ConfigError, match="float range"):
        decide_pairs(with_inverses([H, IntMatrix.from_rows([[1, 10**400], [0, 1]])]), 1, 0.5, 0.2)


def test_contraction_converse_gap_bound():
    # any fixture passing an empirical eps-contraction grid satisfies
    # a2/a1 <= 4 eps^2 + 1e-8
    rng = np.random.default_rng(12)
    fixtures = [H.power(p) for p in (1, 2, 3, 4, 6)] + [
        SHEAR2,
        SHEAR4,
        H @ K,
        (H @ K).power(2),
    ]
    for g in fixtures:
        sigma = svd(g).sigma
        ratio = sigma[1] / sigma[0]
        from pingpong.wedge import attractor_repeller

        v, h = attractor_repeller(g, 1)
        wk = wedge_matrix(g, 1)
        for eps in (0.05, 0.1, 0.15, 0.2, 0.24):
            pts = rng.normal(size=(1000, g.n))
            ok = True
            for row in pts:
                p = unit(row)
                if point_hyperplane_distance(p, h) < eps:
                    continue
                if proj_distance(unit(wk @ p), v) > eps:
                    ok = False
                    break
            if ok:
                assert ratio <= 4 * eps * eps + 1e-8


def test_with_inverses_rows_and_float_range():
    # row 2i is gens[i] and row 2i + 1 its exact inverse; an int64 stack gives the
    # same rows through the stacked adjugate.  svd_batch decomposes object, int64
    # and float rows to the same bits, each bitwise the row's own svd
    block = IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, 1]]).power(5)
    for gens in ([H.power(8), K, ROT, SHEAR4], [block, inverse(block)]):
        rows = with_inverses(gens)
        stacked_rows = with_inverses(np.array([g.entries for g in gens]))
        assert rows.dtype == object
        assert stacked_rows.dtype == np.int64 and stacked_rows.tolist() == rows.tolist()
        batches = [svd_batch(x) for x in (rows, stacked_rows, rows.astype(float))]
        for i, m in enumerate(m for g in gens for m in (g, inverse(g))):
            alone = svd(m)
            assert rows[i].tolist() == [list(r) for r in m.entries]
            for svds in batches:
                assert svds.sigma[i].tobytes() == np.array(alone.sigma).tobytes()
                assert svds.k_g[i].tobytes() == alone.k_g.tobytes()
                assert svds.k_g_prime[i].tobytes() == alone.k_g_prime.tobytes()
    with pytest.raises(ConfigError, match="float range"):
        decide_pairs(with_inverses([H, IntMatrix.from_rows([[1, 10**400], [0, 1]])]), 1, 0.5, 0.2)


def _jacobi_codes(rows, r, eps):
    """decide_pairs codes from the certificates' Jacobi read-off, as n >= 3 takes them:
    per row, contraction then own separation, then any cross separation."""
    gap, _, _, sep = _jacobi_readoff(rows, 1)
    too_close = sep < r + DELTA_NUM
    failed = np.stack([gap.reshape(-1, 4) > eps * eps - DELTA_NUM, too_close[:, :4]], axis=2)
    failed = np.column_stack([failed.reshape(-1, 8), too_close[:, 4:].any(axis=1)])
    return np.where(failed.any(axis=1), failed.argmax(axis=1), CERTIFIED)


@pytest.mark.parametrize("r, eps", [(0.5, 0.2), (0.25, 0.1), (0.6, 0.24), (0.3, 0.05)])
def test_sl2_codes_match_the_jacobi_readoff(r, eps):
    # n = 2 codes come from integer Gram entries; on ball pairs they are the codes
    # of the Jacobi read-off that the certificates keep, certified or not
    codes = []
    for x in (1, 2, 5, 20, 60, 180, 500):
        pairs = sample_pairs(enumerate_ball(BallSpec(2, x)), 400, seed=[5, x])
        rows = with_inverses(pairs.reshape(-1, 2, 2))
        codes.append(decide_pairs(rows, 1, r, eps))
        assert codes[-1].tolist() == _jacobi_codes(rows, r, eps).tolist(), x
    codes = np.concatenate(codes)
    assert 0 < (codes == CERTIFIED).sum() and 0 < (codes < VERY_PROXIMAL).sum()


def _counting_exact_test(monkeypatch):
    """The arguments of every exact separation test decide_pairs makes from here on."""
    calls, exact_below = [], certify._exact_below
    monkeypatch.setattr(certify, "_exact_below", lambda *args: calls.append(args) or exact_below(*args))
    return calls


def test_sl2_separation_at_its_threshold_is_decided_exactly(monkeypatch):
    # g = [[2, 13], [1, 7]] has d(v, H) = 3/5 exactly: (N, D_v, D_h) = (-13923, 49725,
    # 49725), so 2 d^2 - 1 = -0.28.  At rho = r + DELTA_NUM within 1e-12 of 3/5 the
    # float comparison cannot tell, and the exact test decides, on an int64 stack
    g = IntMatrix.from_rows([[2, 13], [1, 7]])
    rows = with_inverses(np.array([g.entries, H.power(8).entries]))
    assert rows.dtype == np.int64
    calls = _counting_exact_test(monkeypatch)
    base = 0.6 - DELTA_NUM
    up = float(np.nextafter(base, 1))
    refused = []
    for r in (float(np.nextafter(base, 0)), base, up, float(np.nextafter(up, 1))):
        rho = Fraction(r + DELTA_NUM)
        assert abs(rho - Fraction(3, 5)) < 1e-12
        del calls[:]
        refused.append(decide_pairs(rows, 1, r, 0.2)[0] == 1)
        assert (-13923, 49725**2) in [(n, dd) for n, dd, _ in calls]
        assert refused[-1] == (Fraction(3, 5) < rho), r
    assert set(refused) == {False, True}
    # away from every threshold the float comparison decides alone
    del calls[:]
    decide_pairs(rows, 1, 0.5, 0.2)
    assert calls == []
    # H^8 is symmetric, so d(v, H) = 1, and at r = 1 - DELTA_NUM rho is 1.0: a
    # separation equal to rho is not below it
    r = 1 - DELTA_NUM
    assert r + DELTA_NUM == 1.0
    assert very_proximal(H.power(8), 1, r, 0.2) is not None
    del calls[:]
    rows = with_inverses(np.array([H.power(8).entries] * 2))
    assert decide_pairs(rows, 1, r, 0.2).tolist() == [VERY_PROXIMAL]
    assert calls  # on int64 too, whose float difference there is 0


def test_sl2_contraction_cap_is_a_ceiling():
    # g = [[4, 3], [1, 1]] has f = ||g||_F^2 = 27, and at eps = 0.1923 the cap T + 1/T is
    # 27.08: sigma_1^2 < 1/T, so g is not eps-contracting, as its Jacobi gap says
    g, eps = IntMatrix.from_rows([[4, 3], [1, 1]]), 0.1923
    t = Fraction(eps * eps - DELTA_NUM)
    assert 27 < t + 1 / t < 28
    rows = with_inverses(np.array([g.entries, H.power(8).entries]))
    assert _jacobi_codes(rows, 0.5, eps).tolist() == [0]
    assert decide_pairs(rows, 1, 0.5, eps).tolist() == [0]
    assert decide_pairs(with_inverses([g, H.power(8)]), 1, 0.5, eps).tolist() == [0]


def test_orthogonal_member_decides_without_a_warning():
    # ROT has D = 0 and no attractor; f = 2 fails its contraction first, and no
    # division or NaN is made on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert very_proximal(ROT, 1, 0.25, 0.1) is None
        assert ping_pong_pair(H.power(8), ROT, 1, 0.5, 0.2).reason == (
            "g2 is not eps-contracting on the k = 1 exterior power"
        )
        rows = with_inverses(np.array([ROT.entries, K.entries, H.power(8).entries, ROT.entries]))
        assert decide_pairs(rows, 1, 0.5, 0.2).tolist() == [0, 4]


def test_gram_entries_past_the_float_range_are_decided_exactly(monkeypatch):
    # g1's entries fit floats but its Gram entries (about 10^400) do not: a pair of
    # Python ints is decided exactly, and g1's attractor, near e1, lies within r of
    # its repelling hyperplane, whose normal is near e2
    calls = _counting_exact_test(monkeypatch)
    g1 = IntMatrix.from_rows([[1, 10**200], [0, 1]])
    verdict = ping_pong_pair(g1, IntMatrix.from_rows([[1, 0], [1, 1]]), 1, 0.5, 0.2)
    assert verdict.reason == "g1 has attractor within r of its own repelling hyperplane"
    assert len(calls) == 4 + 8  # every own and cross separation of the pair


def test_ping_pong_pair_refuses_mixed_sizes_and_any_det_not_one():
    block = IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(ConfigError, match="dimension mismatch"):
        ping_pong_pair(H, block, 1, 0.5, 0.2)
    # g1 = I would be refused first, but g2 lies outside SL_2(Z)
    with pytest.raises(ConfigError, match="det"):
        ping_pong_pair(IntMatrix.identity(2), IntMatrix.from_rows([[3, 1], [0, 1]]), 1, 0.5, 0.2)


def _decided(rows, k, r, eps):
    """decide_pairs on a with_inverses stack, and its Jacobi read-off."""
    return decide_pairs(rows, k, r, eps), _jacobi_readoff(rows, k)


def _decision_bits(decided, i):
    """Pair i of a _decided result as bytes: its code, its rows' gaps and witnesses,
    and its separations."""
    code, (gap, v, h, sep) = decided
    rows = slice(4 * i, 4 * i + 4)
    witnesses = gap[rows].tobytes(), v[:, rows].tobytes(), h[:, rows].tobytes()
    return code[i], witnesses, sep[i].tobytes()


def _block_sum(a, b):
    """The block-diagonal integer matrix a (+) b."""
    rows = [list(r) + [0] * b.n for r in a.entries] + [[0] * a.n + list(r) for r in b.entries]
    return IntMatrix.from_rows(rows)


def test_pair_decided_in_a_batch_matches_alone():
    # the experiment decides a radius's pairs in one pass over an int64 stack;
    # each pair must get the reason, separations and witness bits it gets alone
    block_h = IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    block_k = IntMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 1, 2]])
    n2 = sample_pairs(enumerate_ball(BallSpec(2, 60)), 200, seed=[7, 0])
    n3 = sample_pairs(enumerate_ball(BallSpec(3, 4, symmetrized=True)), 200, seed=[7, 0])
    as_matrices = [tuple(map(IntMatrix.from_rows, p)) for p in n2[:60].tolist()]
    readme = [(H.power(8), K.power(8))] + as_matrices
    block = [(block_h.power(8), block_k.power(8)), (block_h.power(6), block_k.power(6))]
    n4 = [(_block_sum(H.power(8), g1), _block_sum(K.power(8), g2)) for g1, g2 in as_matrices]
    cases = [(n4, 2, 0.25, 0.1), (n4, 2, 0.5, 0.2), (readme, 1, 0.25, 0.1), (block, 1, 0.25, 0.1)]
    cases += [(stack, 1, r, eps) for stack in (n2, n3) for r, eps in ((0.5, 0.2), (0.25, 0.1))]
    reasons = set()
    for pairs, k, r, eps in cases:
        if isinstance(pairs, np.ndarray):
            gens = pairs.reshape(-1, *pairs.shape[2:])
            pairs = [tuple(map(IntMatrix.from_rows, p)) for p in pairs.tolist()]
        else:
            gens = [g for pair in pairs for g in pair]
        decided = _decided(with_inverses(gens), k, r, eps)
        for i, (g1, g2) in enumerate(pairs):
            alone = _decided(with_inverses([g1, g2]), k, r, eps)
            assert _decision_bits(decided, i) == _decision_bits(alone, 0), (str(g1), str(g2))
            reasons.add(ping_pong_pair(g1, g2, k, r, eps).reason)
    # certified pairs, whose witnesses come in the order g1, g1^-1, g2, g2^-1,
    # and refusals at g1, at g2 and at the cross separations
    assert {None, CROSS_SEPARATION} <= reasons
    for label in ("g1 ", "g2 "):
        assert any(r and r.startswith(label) for r in reasons), label
    # the Schottky decision of the same int64 stack, pair by pair
    codes = decide_schottky(n2)
    for code, (g1, g2) in zip(codes, as_matrices):
        assert code == decide_schottky(np.array([[g1.entries, g2.entries]], dtype=object))[0]
        assert (code == SCHOTTKY_CERTIFIED) == (schottky_sl2(g1, g2).reason is None)
    assert 0 < (codes == SCHOTTKY_CERTIFIED).sum() < len(codes)
