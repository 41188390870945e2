"""Contraction witnesses, ping-pong and Schottky certificates."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pingpong.certify import (
    CROSS_SEPARATION,
    Circle,
    choose_k,
    epsilon_contracting,
    hausdorff_upper_bound,
    isometric_circles,
    ping_pong_pair,
    schottky_sl2,
    sl2_fixed_points,
    very_proximal,
)
from pingpong.dynamics import falsify_freeness
from pingpong.errors import ConfigError
from pingpong.matrices import IntMatrix, det, inverse
from pingpong.sampler import BallSpec, enumerate_ball, sample_pairs
from pingpong.spectral import svd_batch
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


def test_isometric_circles():
    g = H.power(4)  # [[34, 21], [21, 13]]
    ci, ci_inv = isometric_circles(g)
    assert ci.center == pytest.approx(-13 / 21)
    assert ci_inv.center == pytest.approx(34 / 21)
    assert ci.radius == pytest.approx(1 / 21)


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
    circle, circle_inv = isometric_circles(g)
    assert (circle.center, circle.radius) == (-d / c, 1 / abs(c))
    assert (circle_inv.center, circle_inv.radius) == (a / c, 1 / abs(c))

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
    from pingpong.spectral import svd

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


def _verdict_bits(verdict):
    """A Verdict as bytes: its reason, and each witness and min_separation bit for bit."""
    cert = verdict.certificate
    if cert is None:
        return verdict.reason
    witnesses = [(w.k, w.gap.hex(), w.v.tobytes(), w.h.tobytes()) for w in cert.witnesses]
    return cert.r, cert.epsilon, witnesses, cert.min_separation.hex()


def _pair_svds(pairs):
    # the experiment's stack: g1, g1^-1, g2, g2^-1 of every pair
    mats = [m.to_float() for g1, g2 in pairs for m in (g1, inverse(g1), g2, inverse(g2))]
    return svd_batch(np.array(mats))


def test_ping_pong_pair_takes_precomputed_triples():
    block_h = IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    block_k = IntMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 1, 2]])
    readme, block = (H.power(8), K.power(8)), (block_h.power(8), block_k.power(8))
    cases = [([readme], 0.25, 0.1), ([block], 0.25, 0.1)]
    for spec in (BallSpec(2, 60), BallSpec(3, 4, symmetrized=True)):
        sampled = sample_pairs(enumerate_ball(spec), 200, seed=[7, 0])
        cases += [(sampled, 0.5, 0.2), (sampled, 0.25, 0.1)]
    reasons = set()
    for pairs, r, eps in cases:
        svds = _pair_svds(pairs)
        for pi, (g1, g2) in enumerate(pairs):
            k = choose_k(g1.n)
            alone = ping_pong_pair(g1, g2, k, r, eps)
            given = ping_pong_pair(g1, g2, k, r, eps, svds[4 * pi : 4 * pi + 4])
            assert _verdict_bits(given) == _verdict_bits(alone), (str(g1), str(g2))
            reasons.add(alone.reason)
    # certified pairs, whose witnesses come in the order g1, g1^-1, g2, g2^-1,
    # and refusals at g1, at g2 and at the cross separations
    assert {None, CROSS_SEPARATION} <= reasons
    for label in ("g1 ", "g2 "):
        assert any(r and r.startswith(label) for r in reasons), label
