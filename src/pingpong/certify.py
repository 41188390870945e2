"""Freeness certificates: contraction, proximality, ping-pong, Schottky.

Every float inequality a ping-pong certificate relies on is checked with
the uniform numeric slack DELTA_NUM, so SVD residuals cannot flip a
boundary case into a spurious certificate.  Schottky disjointness needs
no slack: it is an integer inequality in the matrix entries.  A pair
certifier returns a ``Verdict``: the certificate, or the first condition
that failed.  A refusal is a value, never an error: it only means this
test could not vouch for the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigError
from .matrices import IntMatrix, det, inverse
from .spectral import DELTA_NUM, SvdTriple, svd
from .wedge import attractor_repeller_from_svd, point_hyperplane_distance

# unused here; kept as a module attribute because bench/spans.py wraps it
from .wedge import attractor_repeller  # noqa: F401

CROSS_SEPARATION = "a cross separation between attractors and repelling hyperplanes is below r"


@dataclass(frozen=True)
class ContractionWitness:
    epsilon: float
    k: int
    v: np.ndarray  # attracting point, a unit vector in wedge^k(R^n)
    h: np.ndarray  # unit normal of the repelling hyperplane
    gap: float  # a_{k+1}/a_k, the top-two ratio of the wedge action


@dataclass(frozen=True)
class PingPongCertificate:
    r: float
    epsilon: float
    witnesses: tuple[ContractionWitness, ContractionWitness, ContractionWitness, ContractionWitness]
    min_separation: float


@dataclass(frozen=True)
class Circle:
    center: float
    radius: float


@dataclass(frozen=True)
class SchottkyCertificate:
    traces: tuple[int, int]
    fixed_points: tuple[float, float, float, float]  # alpha1, beta1, alpha2, beta2
    circles: tuple[Circle, Circle, Circle, Circle]  # C1, C2, C3, C4
    min_gap: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of a pair certifier: the certificate, or the first failed condition."""

    certificate: PingPongCertificate | SchottkyCertificate | None
    reason: str | None = None


def choose_k(n: int) -> int:
    """Exterior power used for certification: n/2 (even) or (n-1)/2 (odd)."""
    if n < 2:
        raise ConfigError(f"need n >= 2, got {n}")
    return n // 2


def epsilon_contracting(g: IntMatrix | SvdTriple, k: int, eps: float) -> ContractionWitness | None:
    """Witness that g contracts P(wedge^k(R^n)), or None.

    g is a determinant-one integer matrix or its SvdTriple.  Issues a
    witness iff a_{k+1}(g)/a_k(g) <= eps^2 - DELTA_NUM; the
    attractor/repeller pair then realizes the contraction.
    """
    if not 0 < eps < 0.25:
        raise ConfigError(f"need 0 < eps < 1/4, got {eps}")
    triple = g if isinstance(g, SvdTriple) else svd(g)
    if not 1 <= k < len(triple.sigma):
        raise ConfigError(f"k must be in [1, {len(triple.sigma) - 1}], got {k}")
    gap = triple.sigma[k] / triple.sigma[k - 1]
    if gap > eps * eps - DELTA_NUM:
        return None
    v, h = attractor_repeller_from_svd(triple, k)
    return ContractionWitness(eps, k, v, h, gap)


def _very_proximal_or_reason(g: IntMatrix, name: str, k: int, r: float, eps: float, triples=None):
    """(witnesses for g and g^-1, None), or (None, the first failed condition)."""
    if not (math.isfinite(r) and r > 2 * eps):
        raise ConfigError(f"need a finite r > 2*eps, got r = {r}, eps = {eps}")
    out = []
    # g^-1 is inverted exactly and gets its own SVD: reading its small
    # singular values off g's decomposition loses relative accuracy
    for label, m in zip((name, f"{name}^-1"), triples or (g, inverse(g))):
        w = epsilon_contracting(m, k, eps)
        if w is None:
            return None, f"{label} is not eps-contracting on the k = {k} exterior power"
        if point_hyperplane_distance(w.v, w.h) < r + DELTA_NUM:
            return None, f"{label} has attractor within r of its own repelling hyperplane"
        out.append(w)
    return (out[0], out[1]), None


def very_proximal(
    g: IntMatrix, k: int, r: float, eps: float
) -> tuple[ContractionWitness, ContractionWitness] | None:
    """Witness pair for g and g^-1, each with d(v, H) >= r, or None."""
    return _very_proximal_or_reason(g, "g", k, r, eps)[0]


def ping_pong_pair(
    g1: IntMatrix, g2: IntMatrix, k: int, r: float, eps: float, triples=None
) -> Verdict:
    """Verdict on whether (g1, g2) plays ping-pong on P(wedge^k(R^n)).

    Conditions, in the order checked: g1, g1^-1, g2, g2^-1 each
    eps-contracting with its attractor at least r from its own repelling
    hyperplane (so both generators are (r, eps)-very proximal), then
    every attracting point of one generator at least r away from every
    repelling hyperplane of the other (reason ``CROSS_SEPARATION``).  A
    certificate implies the group generated is free.

    ``triples``, if given, are the SvdTriples of g1, g1^-1, g2 and g2^-1,
    in that order, for example four entries of a ``spectral.SvdBatch``.
    """
    t1, t2 = (None, None) if triples is None else (triples[:2], triples[2:])
    vp1, reason = _very_proximal_or_reason(g1, "g1", k, r, eps, t1)
    if vp1 is None:
        return Verdict(None, reason)
    vp2, reason = _very_proximal_or_reason(g2, "g2", k, r, eps, t2)
    if vp2 is None:
        return Verdict(None, reason)
    witnesses = (vp1[0], vp1[1], vp2[0], vp2[1])
    separations = [point_hyperplane_distance(w.v, w.h) for w in witnesses]
    for wa in vp1:
        for wb in vp2:
            separations.append(point_hyperplane_distance(wa.v, wb.h))
            separations.append(point_hyperplane_distance(wb.v, wa.h))
    min_sep = min(separations)
    if min_sep < r + DELTA_NUM:
        return Verdict(None, CROSS_SEPARATION)
    return Verdict(PingPongCertificate(r, eps, witnesses, min_sep))


def _entries_2x2(g: IntMatrix) -> tuple[int, int, int, int]:
    if g.n != 2:
        raise ConfigError(f"expected a 2x2 matrix, got n = {g.n}")
    (a, b), (c, d) = g.entries
    return a, b, c, d


def sl2_fixed_points(g: IntMatrix) -> tuple[float, float]:
    """(attracting, repelling) boundary fixed points of a hyperbolic g.

    Roots of c x^2 + (d - a) x - b = 0; the attracting one has Moebius
    derivative 1/(c x + d)^2 of modulus < 1.  In SL_2(Z), |trace| > 2
    forces c != 0 (c = 0 gives a d = 1, so a = d = +-1).
    """
    a, b, c, d = _entries_2x2(g)
    tr = a + d
    if abs(tr) <= 2:
        raise ConfigError(f"fixed points require |trace| > 2, got trace = {tr}")
    if c == 0:
        raise ConfigError(f"fixed points require det = 1, got c = 0 and det = {a * d}")
    try:
        disc = math.sqrt(tr * tr - 4)
    except OverflowError as exc:
        raise ConfigError(
            "fixed points need trace^2 - 4 within the float range (about 1.8e308)"
        ) from exc
    r1 = ((a - d) + disc) / (2 * c)
    r2 = ((a - d) - disc) / (2 * c)
    # attracting root: |c x + d| > 1
    if abs(c * r1 + d) > 1:
        return r1, r2
    return r2, r1


def isometric_circles(g: IntMatrix) -> tuple[Circle, Circle]:
    """(circle of g, circle of g^-1): centers -d/c and a/c, radius 1/|c|."""
    a, b, c, d = _entries_2x2(g)
    if c == 0:
        raise ConfigError("isometric circles require c != 0")
    return Circle(-d / c, 1 / abs(c)), Circle(a / c, 1 / abs(c))


def schottky_sl2(g1: IntMatrix, g2: IntMatrix) -> Verdict:
    """Verdict on a Schottky certificate from disjoint isometric circles.

    Both generators must have det 1 (ConfigError otherwise).  Conditions,
    in the order checked: g1 hyperbolic, g2 hyperbolic, the four
    isometric circles pairwise disjoint on the boundary line with
    positive gap, decided exactly.  With det 1, |trace| > 2 forces
    c != 0, so the circles are bounded; each generator then maps the
    exterior of its circle into the closed interior of its inverse's
    circle (Ford, Automorphic Functions, 1929).
    """
    for g in (g1, g2):
        _entries_2x2(g)
        d = det(g)
        if d != 1:
            raise ConfigError(f"schottky_sl2 requires det = 1, got det = {d}")
    for name, g in (("g1", g1), ("g2", g2)):
        if abs(g.trace()) <= 2:
            return Verdict(None, f"{name} is not hyperbolic (|trace| <= 2)")
    (a1, _), (q1, d1) = g1.entries
    (a2, _), (q2, d2) = g2.entries
    # circle (p, q) has center p/q and radius 1/|q|; two are disjoint iff
    # |p/q - p'/q'| > 1/|q| + 1/|q'|, i.e. |p q' - p' q| > |q| + |q'|
    exact = ((-d1, q1), (-d2, q2), (a1, q1), (a2, q2))
    for (p, q), (pp, qq) in combinations(exact, 2):
        if abs(p * qq - pp * q) <= abs(q) + abs(qq):
            return Verdict(None, "isometric circles are not pairwise disjoint")
    c1, c3 = isometric_circles(g1)
    c2, c4 = isometric_circles(g2)
    circles = (c1, c2, c3, c4)
    min_gap = min(
        abs(u.center - v.center) - u.radius - v.radius for u, v in combinations(circles, 2)
    )
    fixed = (*sl2_fixed_points(g1), *sl2_fixed_points(g2))  # alpha1, beta1, alpha2, beta2
    return Verdict(SchottkyCertificate((g1.trace(), g2.trace()), fixed, circles, min_gap))


def hausdorff_upper_bound(circles: tuple[Circle, ...]) -> float | None:
    """Upper bound -log 3 / (2 log lambda) on the limit-set dimension.

    lambda is the worst ratio radius(i) / (|center(i) - center(j)| -
    radius(j)) over ordered pairs of distinct Schottky circles.  Returns
    None when lambda falls outside (0, 1) and the bound is vacuous.
    """
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
