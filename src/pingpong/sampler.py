"""Exact enumeration of spectral-norm balls in SL_2(Z) and SL_3(Z).

Membership sigma_1(g) <= X is decided exactly, in plain integers whenever
X is an integer.  For g in SL_n(Z) the Gram matrix g^t g has characteristic
polynomial L^2 - f L + 1 (n = 2) or L^3 - f L^2 + f' L - 1 (n = 3, by
Cauchy-Binet), with f = ||g||_F^2 and f' = ||g^-1||_F^2, and the test is a
sign condition on it at X^2.  (g^t g)^-1 has the same polynomial with f and
f' swapped, so the symmetrized ball's second test ||g^-1|| <= X is the same
predicate with its arguments swapped.  For n = 2 the test collapses to
||g||_F^2 <= X^2 + X^-2, so counts carry no floating-point ambiguity at
the boundary.

Enumeration backtracks over columns, pruning any partial column whose
Euclidean norm exceeds X; for n = 3 the third column is solved from
w . c3 = 1 with w = c1 x c2 instead of being enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError, ConfigError
from .matrices import IntMatrix

MAX_X = {2: 500, 3: 6}


@dataclass(frozen=True)
class BallSpec:
    n: int
    x: Fraction
    symmetrized: bool = False

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ConfigError(f"ball enumeration supports n in {{2, 3}}, got n = {self.n}")
        try:
            if isinstance(self.x, bool):  # Fraction(True) would be 1
                raise TypeError
            object.__setattr__(self, "x", Fraction(self.x))
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ConfigError(f"ball radius must be a number, got {self.x!r}") from exc
        if self.x < 1:
            raise ConfigError(f"ball radius must be >= 1, got {self.x}")


@dataclass(frozen=True)
class BallEnumeration:
    spec: BallSpec
    members: tuple[IntMatrix, ...]

    @property
    def count(self) -> int:
        return len(self.members)


def _squared_radius(x: int | Fraction) -> int | Fraction:
    # a plain int for integer X keeps every predicate below in ints
    if x.denominator == 1:
        return x.numerator * x.numerator
    return x * x


def _lambda_max_le_2x2(gram_trace: int, gram_det: int, bound) -> bool:
    # p(L) = L^2 - tr L + det; largest root <= bound iff p(bound) >= 0
    # and bound sits at or right of the parabola vertex.  bound may be an
    # int or a Fraction; both keep the test exact.
    p = bound * bound - gram_trace * bound + gram_det
    return p >= 0 and 2 * bound >= gram_trace


def _sigma1_sq_le(n: int, f: int, f_inv: int, bound) -> bool:
    """sigma_1(g)^2 <= bound for g in SL_n(Z), from f = ||g||_F^2, f_inv = ||g^-1||_F^2."""
    if n == 2:
        return _lambda_max_le_2x2(f, 1, bound)
    # p(L) = L^3 - f L^2 + f_inv L - 1 has only real roots, so its largest
    # root is <= bound iff p, p' and p'' are all >= 0 at bound
    return (
        ((bound - f) * bound + f_inv) * bound >= 1
        and (3 * bound - 2 * f) * bound + f_inv >= 0
        and 3 * bound >= f
    )


def _member(n: int, f: int, f_inv: int, bound, symmetrized: bool) -> bool:
    # (g^t g)^-1 has the polynomial of g^t g with f and f_inv swapped
    return _sigma1_sq_le(n, f, f_inv, bound) and (
        not symmetrized or _sigma1_sq_le(n, f_inv, f, bound)
    )


def _frobenius_sq(g: IntMatrix) -> tuple[int, int]:
    """(||g||_F^2, ||g^-1||_F^2) for g in SL_n(Z), n in {2, 3}.

    g^-1 is the adjugate, so ||g^-1||_F^2 is the sum of the squared
    (n-1)-minors of g: the entries for n = 2, |ci x cj|^2 over column
    pairs for n = 3.
    """
    f = sum(v * v for row in g.entries for v in row)
    if g.n == 2:
        return f, f
    c1, c2, c3 = g.transpose().entries
    f_inv = sum(v * v for u, w in ((c1, c2), (c1, c3), (c2, c3)) for v in _cross(u, w))
    return f, f_inv


def norm_at_most(g: IntMatrix, x: int | Fraction) -> bool:
    """Exact test sigma_1(g) <= x for g in SL_n(Z), n in {2, 3}."""
    return _sigma1_sq_le(g.n, *_frobenius_sq(g), _squared_radius(x))


def in_ball(g: IntMatrix, spec: BallSpec) -> bool:
    return _member(g.n, *_frobenius_sq(g), _squared_radius(spec.x), spec.symmetrized)


def _enumerate_sl2(spec: BallSpec) -> list[IntMatrix]:
    b = _squared_radius(spec.x)
    bfloor = math.floor(b)
    # _member(2, s, s, b, ...) holds for an integer s = ||g||_F^2 iff
    # s <= b + 1/b; with f = f_inv the symmetrized test adds nothing
    s_cap = (b * b + 1) // b
    amax = math.isqrt(bfloor)
    members = []
    for a in range(-amax, amax + 1):
        c_cap = math.isqrt(bfloor - a * a)
        for c in range(-c_cap, c_cap + 1):
            if math.gcd(a, c) != 1:
                continue
            # u a + v c = 1, so a d - b c = 1 is solved by (b, d) = (t a - v, t c + u)
            u, v = _egcd(a, c)
            s1 = a * a + c * c
            # s1 + (t a - v)^2 + (t c + u)^2 <= s_cap  iff  (s1 t + m)^2 <= disc
            m = u * c - v * a
            disc = m * m - s1 * (s1 + u * u + v * v - s_cap)
            if disc < 0:
                continue
            r = math.isqrt(disc)
            for t in range(-((m + r) // s1), (r - m) // s1 + 1):
                members.append(IntMatrix(((a, t * a - v), (c, t * c + u))))
    members.sort(key=lambda m: m.entries)
    return members


def _egcd(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _int_vectors_in_ball(norm_sq_cap: int) -> list[tuple[int, int, int]]:
    cap = math.isqrt(norm_sq_cap)
    out = []
    for x in range(-cap, cap + 1):
        for y in range(-cap, cap + 1):
            r = norm_sq_cap - x * x - y * y
            if r < 0:
                continue
            zc = math.isqrt(r)
            for z in range(-zc, zc + 1):
                if x or y or z:
                    out.append((x, y, z))
    return out


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _enumerate_sl3(spec: BallSpec) -> list[IntMatrix]:
    b = _squared_radius(spec.x)
    sym = spec.symmetrized
    norm_sq_cap = math.floor(b)
    cols = _int_vectors_in_ball(norm_sq_cap)
    cap = math.isqrt(norm_sq_cap)
    members = []
    # ||c1 x c2|| is a row norm of g^-1, bounded by sigma_1 sigma_2 <= X^2
    wn_cap = math.floor(b * b)
    for c1 in cols:
        n1 = c1[0] ** 2 + c1[1] ** 2 + c1[2] ** 2
        for c2 in cols:
            n2 = c2[0] ** 2 + c2[1] ** 2 + c2[2] ** 2
            d12 = c1[0] * c2[0] + c1[1] * c2[1] + c1[2] * c2[2]
            wn = n1 * n2 - d12 * d12  # |c1 x c2|^2, the 2-column Gram minor
            # interlacing: top eigenvalue of the 2-column Gram minor is a
            # lower bound for lambda_max(g^t g)
            if not _lambda_max_le_2x2(n1 + n2, wn, b):
                continue
            if wn > wn_cap or (sym and wn > norm_sq_cap):
                continue
            w = _cross(c1, c2)
            # also drops w = 0, whose gcd is 0
            if math.gcd(*w) != 1:
                continue
            for c3 in _solve_third_column(w, cap, norm_sq_cap):
                n3 = c3[0] ** 2 + c3[1] ** 2 + c3[2] ** 2
                d13 = c1[0] * c3[0] + c1[1] * c3[1] + c1[2] * c3[2]
                d23 = c2[0] * c3[0] + c2[1] * c3[1] + c2[2] * c3[2]
                # the rows of g^-1 are c2 x c3, c3 x c1 and c1 x c2, and
                # |u x v|^2 = |u|^2 |v|^2 - (u . v)^2
                f_inv = wn + n1 * n3 - d13 * d13 + n2 * n3 - d23 * d23
                if _member(3, n1 + n2 + n3, f_inv, b, sym):
                    members.append(IntMatrix(tuple(zip(c1, c2, c3))))
    members.sort(key=lambda m: m.entries)
    return members


def _solve_third_column(w, cap: int, norm_sq_cap: int):
    """Integer c3 with w . c3 = 1 and |c3|^2 <= norm_sq_cap.

    Solves the pivot coordinate from the other two; the congruence on the
    second coordinate restricts it to an arithmetic progression.
    """
    pivot = max(range(3), key=lambda i: abs(w[i]))
    o0, o1 = (i for i in range(3) if i != pivot)
    wp, w0, w1 = w[pivot], w[o0], w[o1]
    mp = abs(wp)
    g = math.gcd(abs(w1), mp)
    m = mp // g
    inv = pow((w1 // g) % m, -1, m) if m > 1 else 0
    out = []
    for u in range(-cap, cap + 1):
        rem_u = 1 - w0 * u
        if rem_u % g:
            continue
        if m == 1:
            v_start, v_step = -cap, 1
        else:
            v0 = (inv * ((rem_u // g) % m)) % m
            v_start = v0 - ((v0 + cap) // m) * m
            v_step = m
        for v in range(v_start, cap + 1, v_step):
            rem = rem_u - w1 * v
            if rem % wp:
                continue
            z = rem // wp
            c3 = [0, 0, 0]
            c3[o0] = u
            c3[o1] = v
            c3[pivot] = z
            if c3[0] ** 2 + c3[1] ** 2 + c3[2] ** 2 <= norm_sq_cap:
                out.append(tuple(c3))
    return out


def enumerate_ball(spec: BallSpec) -> BallEnumeration:
    """Complete, deterministic enumeration of the requested norm ball."""
    if spec.x > MAX_X[spec.n]:
        raise BudgetError(
            f"X = {spec.x} exceeds the n = {spec.n} enumeration budget "
            f"(X <= {MAX_X[spec.n]}); use sampling at larger radii"
        )
    members = _enumerate_sl2(spec) if spec.n == 2 else _enumerate_sl3(spec)
    return BallEnumeration(spec, tuple(members))


def sample_pairs(
    e: BallEnumeration, count: int, seed
) -> list[tuple[IntMatrix, IntMatrix]]:
    """Uniform ordered pairs with replacement; numpy PCG64 keyed by seed."""
    if e.count == 0:
        raise ConfigError("cannot sample from an empty enumeration")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, e.count, size=(count, 2))
    return [(e.members[int(i)], e.members[int(j)]) for i, j in idx]
