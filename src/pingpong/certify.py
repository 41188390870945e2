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
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import ConfigError
from .matrices import IntMatrix, adjugate, det, inverse
from .sampler import _sigma1_sq_le
from .spectral import DELTA_NUM, as_float, svd_batch
from .wedge import attractor_repeller_from_svd, point_hyperplane_distance

# unused here; kept as module attributes because bench/spans.py wraps them
from .spectral import svd  # noqa: F401
from .wedge import attractor_repeller  # noqa: F401

CROSS_SEPARATION = "a cross separation between attractors and repelling hyperplanes is below r"
# codes of decide_pairs (from VERY_PROXIMAL on, both generators passed their own
# checks) and decide_schottky for a pair with no failed condition
VERY_PROXIMAL, CERTIFIED, SCHOTTKY_CERTIFIED = 8, 9, 3
CODE_BLOCK = 512  # pairs per _decide_pairs slice, so its temporaries stay cache-sized


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


def _witnesses(gap, v, h, rows, k: int, eps: float) -> tuple[ContractionWitness, ...]:
    return tuple(ContractionWitness(eps, k, v[:, j], h[:, j], float(gap[j])) for j in rows)


def with_inverses(gens) -> np.ndarray:
    """Integer rows g, g^-1 for each g of gens: a pair gives g1, g1^-1, g2, g2^-1.
    gens is an (M, n, n) int64 stack of ball members (n <= 3, det 1), inverted at
    once by ``adjugate``, or a list of IntMatrix, each inverted by ``inverse``
    (which checks det = 1) into Python ints."""
    if isinstance(gens, np.ndarray):
        inv = np.moveaxis(np.array(adjugate(np.moveaxis(gens, 0, -1))), -1, 0)
        rows = np.stack([gens, inv], axis=1)
    else:
        if any(g.n != gens[0].n for g in gens):
            raise ConfigError("dimension mismatch")
        rows = np.array([(g.entries, inverse(g).entries) for g in gens], dtype=object)
    return rows.reshape(-1, *rows.shape[2:])


def check_r_eps(r: float, eps: float) -> None:
    """Refuse ping-pong parameters outside 0 < eps < 1/4 and 2 eps < r <= the
    largest float.  Comparisons, not float(), so an int past the float range
    is refused rather than overflowed."""
    if not 0 < eps < 0.25:
        raise ConfigError(f"need 0 < eps < 1/4, got {eps}")
    if not 2 * eps < r <= sys.float_info.max:
        raise ConfigError(f"need r > 2*eps, both finite floats, got r = {r}, eps = {eps}")


# the attractor and hyperplane rows of a pair's separations: 4 own, then 8 cross
_SEP_V, _SEP_H = [0, 1, 2, 3, 0, 0, 1, 1, 2, 2, 3, 3], [0, 1, 2, 3, 2, 3, 2, 3, 0, 1, 0, 1]


def _jacobi_readoff(rows: np.ndarray, k: int):
    """Per ``with_inverses`` row its witness's gap, v and h, per pair the 12 separations."""
    # each g^-1 is the exact inverse with its own SVD: reading its small
    # singular values off g's decomposition loses relative accuracy
    svds = svd_batch(rows)
    gap = svds.sigma[:, k] / svds.sigma[:, k - 1]
    v, h = attractor_repeller_from_svd(svds.k_g, svds.k_g_prime, k)
    vs, hs = v.reshape(-1, len(rows) // 4, 4), h.reshape(-1, len(rows) // 4, 4)
    return gap, v, h, point_hyperplane_distance(vs[..., _SEP_V], hs[..., _SEP_H])


def _exact_below(n: int, dd: int, c: Fraction) -> bool:
    """n < c sqrt(dd): for c = y/q and x = n q, x |x| < y |y| dd, as t |t| grows with t."""
    x, y = n * c.denominator, c.numerator
    return x * abs(x) < y * abs(y) * dd


def _ruled_out(rows: np.ndarray, k: int, t: Fraction) -> np.ndarray:
    """Per pair, whether g1 is proved not t-contracting: in SL_3(R), sigma_3 = 1/(sigma_1
    sigma_2) gives sigma_{k+1}/sigma_k >= sigma_1^(-3/(3 - k)) > t when t <= 0 or sigma_1^2 <= c,
    the largest integer with c^3 t^(6 - 2k) < 1 (the ball's predicate).  n >= 4 rules out none."""
    if rows.shape[-1] != 3 or t <= 0:
        return np.full(len(rows) // 4, rows.shape[-1] == 3)
    m = (t.denominator ** (6 - 2 * k) - 1) // t.numerator ** (6 - 2 * k)  # c^3 <= m
    c = 1 << (m.bit_length() // 3 + 1)
    while c**3 > m:  # integer Newton steps from above end at the floor of m^(1/3)
        c = (2 * c + m // (c * c)) // 3
    # the predicate's terms are at most 3 c^3 + 3 f c^2, and f <= 9 e^2 for entries up to e
    big = 3 * c**3 + 27 * c * c * int(np.abs(rows).max(initial=0)) ** 2 >= 2**63
    g = rows.reshape(-1, 4, 9)[:, :2].astype(object if big else rows.dtype)  # g1, g1^-1
    return _sigma1_sq_le(3, *np.einsum("pgi,pgi->gp", g, g), c)


def decide_pairs(rows: np.ndarray, k: int, r: float, eps: float) -> np.ndarray:
    """Per pair of integer rows g1, g1^-1, g2, g2^-1 from ``with_inverses`` (int64, or
    object for Python ints), the first failed condition in ping_pong_pair's order
    (2 j: row j is not eps-contracting; 2 j + 1: its attractor is within r of its own
    repelling hyperplane; VERY_PROXIMAL: a cross separation is below r) or CERTIFIED.

    Pairs whose g1 is ``_ruled_out`` get code 0 (a slice of only those, no decomposition); else
    n >= 3 takes one Jacobi pass, n = 2 integer Gram entries: gap = 1/sigma_1^2 <= T iff
    f = ||g||_F^2 = sigma_1^2 + 1/sigma_1^2 >= T + 1/T, and the top eigenvector of S =
    [[p, q], [q, s]] is at theta, (cos 2 theta, sin 2 theta) = (p - s, 2 q) / sqrt(D), D =
    (p - s)^2 + 4 q^2 = f^2 - 4 det S.  So for v of g g^T and h of g^T g, |<h, v>| < rho
    iff N = (p_v - s_v)(p_h - s_h) + 4 q_v q_h < (2 rho^2 - 1) sqrt(D_v D_h), in float and
    exactly near it or on Python ints.  An orthogonal g has D = 0; f = 2 fails it first.
    """
    step = 4 * CODE_BLOCK  # rows g1, g1^-1, g2, g2^-1 per pair; an empty stack is one slice
    return np.concatenate([_decide_pairs(rows[lo : lo + step], k, r, eps)[0]
                           for lo in range(0, max(len(rows), 1), step)])


def _decide_pairs(rows: np.ndarray, k: int, r: float, eps: float):
    """``decide_pairs`` on one slice, and the ``_jacobi_readoff`` it decided from (else None)."""
    check_r_eps(r, eps)
    if rows.dtype == object:
        as_float(rows)  # entries past the float range are refused first, at every n
    if not 1 <= k < rows.shape[-1]:
        raise ConfigError(f"k must be in [1, {rows.shape[-1] - 1}], got {k}")
    t, readoff = Fraction(eps * eps - DELTA_NUM), None  # T exactly
    if rows.shape[-1] > 2:
        if (ruled_out := _ruled_out(rows, k, t)).all():
            return np.zeros(len(ruled_out), dtype=int), None
        readoff = gap, _, _, sep = _jacobi_readoff(rows, k)
        not_contracting = (gap > eps * eps - DELTA_NUM).reshape(-1, 4)
        not_contracting[:, 0] |= ruled_out
        too_close = sep < r + DELTA_NUM
    else:
        a, b, c, d = (rows[:, i, j].reshape(-1, 4) for i in (0, 1) for j in (0, 1))
        f = a * a + b * b + c * c + d * d
        not_contracting = f < math.ceil(t + 1 / t) if t > 0 else np.ones(f.shape, bool)
        # (p - s, 2 q) of g g^T for the attractors and of g^T g for the repeller normals
        v = np.stack([a * a + b * b - c * c - d * d, 2 * (a * c + b * d)])[..., _SEP_V]
        h = np.stack([a * a + c * c - b * b - d * d, 2 * (a * b + c * d)])[..., _SEP_H]
        rho, dd = Fraction(r + DELTA_NUM), f * f - 4  # f <= X^2 + 1, so int64 holds f^2
        n, dv, dh, cos = (v * h).sum(0), dd[..., _SEP_V], dd[..., _SEP_H], 2 * rho * rho - 1
        too_close, exact = np.empty(n.shape, bool), np.ones(n.shape, bool)
        if n.dtype != object:
            s = np.sqrt(dv.astype(float) * dh.astype(float))
            # |N| <= s, so a cos past 1 decides as 2 does, and float(cos) is finite
            diff = n.astype(float) - float(min(cos, 2)) * s
            too_close, exact = diff < 0, np.abs(diff) < 1e-9 * s
        for i in zip(*exact.nonzero()):
            too_close[i] = _exact_below(int(n[i]), int(dv[i]) * int(dh[i]), cos)
    failed = np.stack([not_contracting, too_close[:, :4]], axis=2).reshape(len(too_close), 8)
    failed = np.column_stack([failed, too_close[:, 4:].any(axis=1)])
    return np.where(failed.any(axis=1), failed.argmax(axis=1), CERTIFIED), readoff


def very_proximal(
    g: IntMatrix, k: int, r: float, eps: float
) -> tuple[ContractionWitness, ContractionWitness] | None:
    """Witness pair for g and g^-1, each with d(v, H) >= r, or None."""
    rows = with_inverses([g, g])
    (code,), readoff = _decide_pairs(rows, k, r, eps)
    if code < VERY_PROXIMAL:
        return None
    return _witnesses(*(readoff or _jacobi_readoff(rows, k))[:3], [0, 1], k, eps)


def ping_pong_pair(g1: IntMatrix, g2: IntMatrix, k: int, r: float, eps: float) -> Verdict:
    """Verdict on whether (g1, g2) plays ping-pong on P(wedge^k(R^n)).

    Conditions, in the order checked: g1, g1^-1, g2, g2^-1 each
    eps-contracting with its attractor at least r from its own repelling
    hyperplane (so both generators are (r, eps)-very proximal), then
    every attracting point of one generator at least r away from every
    repelling hyperplane of the other (reason ``CROSS_SEPARATION``).  A
    certificate implies the group generated is free.  This is
    ``decide_pairs`` on a batch of one pair.
    """
    rows = with_inverses([g1, g2])
    (code,), readoff = _decide_pairs(rows, k, r, eps)
    if code == CERTIFIED:
        gap, v, h, sep = readoff or _jacobi_readoff(rows, k)
        witnesses = _witnesses(gap, v, h, range(4), k, eps)
        return Verdict(PingPongCertificate(r, eps, witnesses, float(sep.min())))
    if code == VERY_PROXIMAL:
        return Verdict(None, CROSS_SEPARATION)
    label = ("g1", "g1^-1", "g2", "g2^-1")[code // 2]
    if code % 2:
        return Verdict(None, f"{label} has attractor within r of its own repelling hyperplane")
    return Verdict(None, f"{label} is not eps-contracting on the k = {k} exterior power")


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


def _circle_ends(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, q), each (P, 4), per pair of a (P, 2, 2, 2) stack: isometric circle i has
    center p/q and radius 1/|q|.  In the order C1, C2, C3, C4 they are the circles
    of g1 and g2 (center -d/c) and of g1^-1 and g2^-1 (center a/c)."""
    a, c, d = pairs[:, :, 0, 0], pairs[:, :, 1, 0], pairs[:, :, 1, 1]
    return np.concatenate([-d, a], axis=1), np.concatenate([c, c], axis=1)


def isometric_circles(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(center, radius), each a (P, 4) float array of the circles C1..C4, per pair of
    a (P, 2, 2, 2) integer stack (int64, or object for Python ints)."""
    p, q = _circle_ends(pairs)
    if np.any(q == 0):
        raise ConfigError("isometric circles require c != 0")
    try:
        # int64 entries below 2^53 convert exactly, so p / q rounds as int / int does
        return (p / q).astype(float), (1 / np.abs(q)).astype(float)
    except OverflowError as exc:
        raise ConfigError("isometric circles exceed the float range (about 1.8e308)") from exc


def decide_schottky(pairs: np.ndarray) -> np.ndarray:
    """Per pair of a (P, 2, 2, 2) stack of det-1 integer matrices (int64, or object
    for Python ints), the index of schottky_sl2's first failed condition, or
    SCHOTTKY_CERTIFIED."""
    # two circles are disjoint iff |p/q - p'/q'| > 1/|q| + 1/|q'|,
    # i.e. |p q' - p' q| > |q| + |q'|
    p, q = _circle_ends(pairs)
    i, j = np.triu_indices(4, 1)
    gaps = np.abs(p[:, i] * q[:, j] - p[:, j] * q[:, i]) - np.abs(q[:, i]) - np.abs(q[:, j])
    trace = pairs[:, :, 0, 0] + pairs[:, :, 1, 1]
    failed = np.column_stack([np.abs(trace) <= 2, ~np.all(gaps > 0, axis=1)])
    return np.where(failed.any(axis=1), failed.argmax(axis=1), SCHOTTKY_CERTIFIED)


def schottky_sl2(g1: IntMatrix, g2: IntMatrix) -> Verdict:
    """Verdict on a Schottky certificate from disjoint isometric circles.

    Both generators must have det 1 (ConfigError otherwise).  Conditions,
    in the order checked: g1 hyperbolic, g2 hyperbolic, the four
    isometric circles pairwise disjoint on the boundary line with
    positive gap, decided exactly.  With det 1, |trace| > 2 forces
    c != 0, so the circles are bounded; each generator then maps the
    exterior of its circle into the closed interior of its inverse's
    circle (Ford, Automorphic Functions, 1929).  This is
    ``decide_schottky`` on a batch of one pair.
    """
    for g in (g1, g2):
        _entries_2x2(g)
        d = det(g)
        if d != 1:
            raise ConfigError(f"schottky_sl2 requires det = 1, got det = {d}")
    pair = np.array([[g1.entries, g2.entries]], dtype=object)
    code = decide_schottky(pair)[0]
    if code < 2:
        return Verdict(None, f"g{code + 1} is not hyperbolic (|trace| <= 2)")
    if code == 2:
        return Verdict(None, "isometric circles are not pairwise disjoint")
    center, radius = isometric_circles(pair)
    circles = tuple(map(Circle, center[0].tolist(), radius[0].tolist()))
    min_gap = min(
        abs(u.center - v.center) - u.radius - v.radius for u, v in combinations(circles, 2)
    )
    fixed = (*sl2_fixed_points(g1), *sl2_fixed_points(g2))  # alpha1, beta1, alpha2, beta2
    return Verdict(SchottkyCertificate((g1.trace(), g2.trace()), fixed, circles, min_gap))


def hausdorff_bounds(center: np.ndarray, radius: np.ndarray) -> list[float | None]:
    """Upper bound -log 3 / (2 log lambda) on the limit-set dimension, per row of
    (P, m) arrays of Schottky circle centers and radii.

    lambda is the worst ratio radius(i) / (|center(i) - center(j)| -
    radius(j)) over ordered pairs of distinct circles of the row.  A row
    gets None when a denominator is <= 0 or lambda falls outside (0, 1),
    where the bound is vacuous.
    """
    i, j = np.nonzero(~np.eye(center.shape[1], dtype=bool))
    # a difference beyond the float range is inf, as in Python floats: a far circle
    with np.errstate(over="ignore"):
        denom = np.abs(center[:, i] - center[:, j]) - radius[:, j]
        valid = (denom > 0).all(axis=1)
        lam = (radius[:, i] / np.where(denom > 0, denom, np.inf)).max(axis=1, initial=0.0)
    return [
        -math.log(3.0) / (2.0 * math.log(x)) if ok and 0.0 < x < 1.0 else None
        for x, ok in zip(lam.tolist(), valid.tolist())
    ]


def hausdorff_upper_bound(circles: tuple[Circle, ...]) -> float | None:
    """``hausdorff_bounds`` of one row of Schottky circles."""
    center = np.array([[c.center for c in circles]], dtype=float)
    radius = np.array([[c.radius for c in circles]], dtype=float)
    return hausdorff_bounds(center, radius)[0]
