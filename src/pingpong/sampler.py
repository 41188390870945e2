"""Exact enumeration of spectral-norm balls in SL_2(Z) and SL_3(Z).

Membership sigma_1(g) <= X is decided exactly: it is equivalent to a sign
condition on the characteristic polynomial of the integer Gram matrix
g^t g at X^2, evaluated in rational arithmetic.  For n = 2 this collapses
to the single comparison  ||g||_F^2 <= X^2 + X^-2  (using sigma_1 sigma_2 = 1),
so counts carry no floating-point ambiguity at the boundary.

Enumeration backtracks over columns, pruning any partial column whose
Euclidean norm exceeds X; for n = 3 the third column is solved from
w . c3 = 1 with w = c1 x c2 instead of being enumerated.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import BudgetError, ConfigError
from .matrices import IntMatrix, det, inverse
from . import serialize

FORMAT_VERSION = 1

MAX_X = {2: 500, 3: 6}

CACHE_ENV_VAR = "PINGPONG_CACHE_DIR"


@dataclass(frozen=True)
class BallSpec:
    n: int
    x: Fraction
    symmetrized: bool = False

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ConfigError(f"ball enumeration supports n in {{2, 3}}, got n = {self.n}")
        try:
            object.__setattr__(self, "x", Fraction(self.x))
        except (TypeError, ValueError, OverflowError) as exc:
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


def _lambda_max_le_2x2(gram_trace: int, gram_det: int, bound) -> bool:
    # p(L) = L^2 - tr L + det; largest root <= bound iff p(bound) >= 0
    # and bound sits at or right of the parabola vertex.  bound may be an
    # int or a Fraction; both keep the test exact.
    p = bound * bound - gram_trace * bound + gram_det
    return p >= 0 and 2 * bound >= gram_trace


def _lambda_max_le_3x3(m: IntMatrix, bound) -> bool:
    # Characteristic polynomial of the SPD Gram matrix:
    # p(L) = L^3 - c2 L^2 + c1 L - c0.  All roots real, so
    # largest root <= bound iff p, p', p'' are all >= 0 at bound.
    e = m.entries
    c2 = e[0][0] + e[1][1] + e[2][2]
    c1 = (
        e[0][0] * e[1][1]
        - e[0][1] * e[1][0]
        + e[0][0] * e[2][2]
        - e[0][2] * e[2][0]
        + e[1][1] * e[2][2]
        - e[1][2] * e[2][1]
    )
    c0 = det(m)
    p = bound**3 - c2 * bound**2 + c1 * bound - c0
    dp = 3 * bound**2 - 2 * c2 * bound + c1
    ddp = 6 * bound - 2 * c2
    return p >= 0 and dp >= 0 and ddp >= 0


def norm_at_most(g: IntMatrix, x: Fraction) -> bool:
    """Exact test sigma_1(g) <= x for g in SL_n(Z), n in {2, 3}."""
    x = Fraction(x)
    b = x * x
    if g.n == 2:
        s = sum(v * v for row in g.entries for v in row)
        return s <= b + 1 / b
    gram = g.transpose() @ g
    return _lambda_max_le_3x3(gram, b)


def in_ball(g: IntMatrix, spec: BallSpec) -> bool:
    if not norm_at_most(g, spec.x):
        return False
    if spec.symmetrized and g.n != 2:
        return norm_at_most(inverse(g), spec.x)
    # for n = 2, det 1 forces ||g^-1|| = ||g||, so the symmetrized ball
    # coincides with the plain one
    return True


def _enumerate_sl2(spec: BallSpec) -> list[IntMatrix]:
    x = spec.x
    b = x * x
    bfloor = b.numerator // b.denominator
    amax = math.isqrt(bfloor)
    # integer fast path: for integer X >= 2, s <= X^2 + X^-2 iff s <= X^2
    int_bound = None
    if x.denominator == 1:
        int_bound = x.numerator * x.numerator + (1 if x.numerator == 1 else 0)
    frob_bound = b + 1 / b
    members = []
    for a in range(-amax, amax + 1):
        c_cap = math.isqrt(bfloor - a * a)
        for c in range(-c_cap, c_cap + 1):
            if math.gcd(a, c) != 1:
                continue
            # particular solution of a*d - b*c' = 1 via extended gcd
            d0, b0 = _egcd_pair(a, c)
            # general solution: (b, d) = (b0 + t a, d0 + t c)
            s1 = a * a + c * c
            # minimize (b0 + t a)^2 + (d0 + t c)^2 over t near the vertex
            t_center = -(b0 * a + d0 * c) / s1
            radius = math.sqrt(max(0.0, float(frob_bound - s1)) / s1) + 1.0
            for t in range(math.floor(t_center - radius), math.ceil(t_center + radius) + 1):
                bb = b0 + t * a
                dd = d0 + t * c
                s = s1 + bb * bb + dd * dd
                if int_bound is not None:
                    if s > int_bound:
                        continue
                elif s > frob_bound:
                    continue
                members.append(IntMatrix(((a, bb), (c, dd))))
    members.sort(key=lambda m: m.entries)
    return members


def _egcd_pair(a: int, c: int) -> tuple[int, int]:
    """Return (d0, b0) with a*d0 - b0*c = 1 for coprime (a, c)."""
    u, v = _egcd(a, c)
    # u*a + v*c = 1  ->  d0 = u, b0 = -v
    return u, -v


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
    x = spec.x
    b = x * x
    if b.denominator == 1:
        b = b.numerator  # plain ints keep the hot pair loop cheap
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
            dot = c1[0] * c2[0] + c1[1] * c2[1] + c1[2] * c2[2]
            # interlacing: top eigenvalue of the 2-column Gram minor is a
            # lower bound for lambda_max(g^t g)
            if not _lambda_max_le_2x2(n1 + n2, n1 * n2 - dot * dot, b):
                continue
            w = _cross(c1, c2)
            if w == (0, 0, 0):
                continue
            if math.gcd(math.gcd(abs(w[0]), abs(w[1])), abs(w[2])) != 1:
                continue
            wn = w[0] ** 2 + w[1] ** 2 + w[2] ** 2
            if wn > wn_cap:
                continue
            if spec.symmetrized and wn > norm_sq_cap:
                continue
            for c3 in _solve_third_column(w, cap, norm_sq_cap):
                g = IntMatrix(
                    (
                        (c1[0], c2[0], c3[0]),
                        (c1[1], c2[1], c3[1]),
                        (c1[2], c2[2], c3[2]),
                    )
                )
                if in_ball(g, spec):
                    members.append(g)
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


def enumerate_ball(spec: BallSpec, cache_dir: str | None = None) -> BallEnumeration:
    """Complete, deterministic enumeration of the requested norm ball."""
    if spec.x > MAX_X[spec.n]:
        raise BudgetError(
            f"X = {spec.x} exceeds the n = {spec.n} enumeration budget "
            f"(X <= {MAX_X[spec.n]}); use sampling at larger radii"
        )
    cached = _cache_load(spec, cache_dir)
    if cached is not None:
        return cached
    members = _enumerate_sl2(spec) if spec.n == 2 else _enumerate_sl3(spec)
    enum = BallEnumeration(spec, tuple(members))
    _cache_store(enum, cache_dir)
    return enum


def sample_pairs(
    e: BallEnumeration, count: int, seed
) -> list[tuple[IntMatrix, IntMatrix]]:
    """Uniform ordered pairs with replacement; numpy PCG64 keyed by seed."""
    if e.count == 0:
        raise ConfigError("cannot sample from an empty enumeration")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, e.count, size=(count, 2))
    return [(e.members[int(i)], e.members[int(j)]) for i, j in idx]


def _cache_path(spec: BallSpec, cache_dir: str | None) -> Path | None:
    root = cache_dir or os.environ.get(CACHE_ENV_VAR)
    if not root:
        return None
    key = f"ball_v{FORMAT_VERSION}_n{spec.n}_X{spec.x.numerator}-{spec.x.denominator}" + (
        "_sym" if spec.symmetrized else "_plain"
    )
    return Path(root) / f"{key}.jsonl"


def _cache_load(spec: BallSpec, cache_dir: str | None) -> BallEnumeration | None:
    path = _cache_path(spec, cache_dir)
    if path is None or not path.exists():
        return None
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("format_version") != FORMAT_VERSION:
            return None
        members = tuple(serialize.matrix_from_obj(json.loads(line)) for line in fh)
    if len(members) != header["count"]:
        return None
    return BallEnumeration(spec, members)


def _cache_store(enum: BallEnumeration, cache_dir: str | None):
    path = _cache_path(enum.spec, cache_dir)
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        header = {
            "format_version": FORMAT_VERSION,
            "n": enum.spec.n,
            "x": str(enum.spec.x),
            "symmetrized": enum.spec.symmetrized,
            "count": enum.count,
        }
        fh.write(json.dumps(header) + "\n")
        for m in enum.members:
            fh.write(json.dumps(serialize.matrix_to_obj(m)) + "\n")
    tmp.replace(path)
