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

Enumeration picks the first rows or columns and solves the last from the
one linear equation det = 1.  For n = 2 a primitive first row (a, b) fixes
the second up to a line (c0 + t a, d0 + t b), with a d0 - b c0 = 1 from a
vectorized extended Euclid, and the ball cuts out an interval of t.  Rows
come in lexicographic order and each interval runs the way (c, d) ascends,
so the ball is written sorted into one preallocated array.  For n = 3
every column of a member is a row of ``ball``, the array of integer
columns of squared norm <= floor(X^2).  One loop runs over c1; for each,
numpy cuts all c2 at once by the Gram minor of (c1, c2), reads the third
columns as the rows c3 with (c1 x c2) . c3 = 1, and applies the membership
predicate to every (c2, c3) together.  The predicates take ints and int64
arrays alike; a non-integer X turns the arrays into exact object arrays of
Fractions.

A ball is stored as one (N, n, n) int64 array sorted by row-major entries.
``IntMatrix`` objects, with Python-int entries for exact arithmetic, are
built only for the sampled members, or for ``members`` when asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError, ConfigError
from .matrices import IntMatrix, inverse

MAX_X = {2: 500, 3: 6}
_A_BLOCK = 8  # values of a per numpy block of n = 2 first rows (a, b)


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


@dataclass(frozen=True, eq=False)
class BallEnumeration:
    """The members of a ball as one (N, n, n) int64 array, sorted row-major."""

    spec: BallSpec
    entries: np.ndarray

    @property
    def count(self) -> int:
        return len(self.entries)

    @property
    def members(self) -> tuple[IntMatrix, ...]:
        return tuple(_matrix(rows) for rows in self.entries.tolist())


def _matrix(rows: list) -> IntMatrix:
    # rows come from .tolist(), so every entry is a Python int: exact
    # arithmetic downstream must never see a wrapping np.int64
    return IntMatrix(tuple(map(tuple, rows)))


def _squared_radius(x: int | Fraction) -> int | Fraction:
    # a plain int for integer X keeps every predicate below in ints
    if x.denominator == 1:
        return x.numerator * x.numerator
    return x * x


def _lambda_max_le_2x2(gram_trace, gram_det, bound):
    # p(L) = L^2 - tr L + det; largest root <= bound iff p(bound) >= 0
    # and bound sits at or right of the parabola vertex.  The predicates
    # join tests with &, not `and`, so they also take int64 arrays.
    p = bound * bound - gram_trace * bound + gram_det
    return (p >= 0) & (2 * bound >= gram_trace)


def _sigma1_sq_le(n: int, f, f_inv, bound):
    """sigma_1(g)^2 <= bound for g in SL_n(Z), from f = ||g||_F^2, f_inv = ||g^-1||_F^2."""
    if n == 2:
        return _lambda_max_le_2x2(f, 1, bound)
    # p(L) = L^3 - f L^2 + f_inv L - 1 has only real roots, so its largest
    # root is <= bound iff p, p' and p'' are all >= 0 at bound
    return (
        (((bound - f) * bound + f_inv) * bound >= 1)
        & ((3 * bound - 2 * f) * bound + f_inv >= 0)
        & (3 * bound >= f)
    )


def _member(n: int, f, f_inv, bound, symmetrized: bool):
    # (g^t g)^-1 has the polynomial of g^t g with f and f_inv swapped
    inside = _sigma1_sq_le(n, f, f_inv, bound)
    return inside & _sigma1_sq_le(n, f_inv, f, bound) if symmetrized else inside


def _frobenius_sq(g: IntMatrix) -> tuple[int, int]:
    """(||g||_F^2, ||g^-1||_F^2) for g in SL_n(Z), n in {2, 3}."""
    f = sum(v * v for row in g.entries for v in row)
    if g.n == 2:  # the adjugate permutes and negates the entries
        return f, f
    return f, sum(v * v for row in inverse(g).entries for v in row)


def norm_at_most(g: IntMatrix, x: int | Fraction) -> bool:
    """Exact test sigma_1(g) <= x for g in SL_n(Z), n in {2, 3}."""
    return _sigma1_sq_le(g.n, *_frobenius_sq(g), _squared_radius(x))


def in_ball(g: IntMatrix, spec: BallSpec) -> bool:
    return _member(g.n, *_frobenius_sq(g), _squared_radius(spec.x), spec.symmetrized)


def _bezout(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows (g, x, y) with x a + y b = g = +-gcd(a, b), lane by lane (extended
    Euclid); |g x| <= |b| and |g y| <= |a| when a and b are both nonzero."""
    # (r, x, y) at two consecutive steps; a finished lane swaps with quotient 0
    one, zero = np.ones_like(a), np.zeros_like(a)
    u, v = np.stack([a, one, zero]), np.stack([b, zero, one])
    while (u[0] * v[0]).any():
        q = np.floor_divide(u[0], v[0], out=np.zeros_like(a), where=v[0] != 0)
        u, v = v, u - q * v
    return np.where(v[0] != 0, v, u)  # a lane one swap past (g, 0) holds (0, g)


def _enumerate_sl2(spec: BallSpec) -> np.ndarray:
    bound = _squared_radius(spec.x)
    bfloor = math.floor(bound)
    # _member(2, s, s, bound, ...) holds for an integer s = ||g||_F^2 iff
    # s <= bound + 1/bound; with f = f_inv the symmetrized test adds nothing
    s_cap = (bound * bound + 1) // bound
    amax = math.isqrt(bfloor)
    # at X <= MAX_X[2] every intermediate (disc <~ 1.3e11) is far below 2^53, so
    # int64 arithmetic and the corrected float square root are exact
    blocks = []
    for a_lo in range(-amax, amax + 1, _A_BLOCK):
        # every row (a, b) of squared norm <= bfloor, for _A_BLOCK values of a
        a_run = range(a_lo, min(a_lo + _A_BLOCK, amax + 1))
        caps = np.array([math.isqrt(bfloor - a * a) for a in a_run])
        width = 2 * caps + 1
        a = np.repeat(a_run, width)
        b = np.arange(len(a)) - np.repeat(np.cumsum(width) - width + caps, width)
        g, x, y = _bezout(a, b)
        # for primitive rows g = +-1, so a d0 - b c0 = g (x a + y b) = 1
        c0, d0 = -g * y, g * x
        s1 = a * a + b * b
        # s1 + (c0 + t a)^2 + (d0 + t b)^2 <= s_cap  iff  (s1 t + m)^2 <= disc
        m = a * c0 + b * d0
        disc = m * m - s1 * (s1 + c0 * c0 + d0 * d0 - s_cap)
        keep = (np.abs(g) == 1) & (disc >= 0)
        a, b, c0, d0, s1, m, disc = (v[keep] for v in (a, b, c0, d0, s1, m, disc))
        r = np.sqrt(disc).astype(np.int64)
        r -= r * r > disc
        r += (r + 1) * (r + 1) <= disc
        lo, hi = -((m + r) // s1), (r - m) // s1
        # c = c0 + t a ascends with t iff a > 0; a = 0 forces b = +-1, c = -b,
        # and d = d0 + t b ascends iff b > 0.  t runs that way: rows come sorted
        step = np.where(a == 0, b, np.sign(a))
        k = hi + 1 - lo
        base = np.where(step > 0, lo, hi) - step * (np.cumsum(k) - k)
        blocks.append((a, b, c0, d0, step, base, k))
    out = np.empty((sum(int(k.sum()) for *_, k in blocks), 4), dtype=np.int64)
    end = 0
    for a, b, c0, d0, step, base, k in blocks:
        rows = out[end : (end := end + k.sum())]
        # the j-th member of the block has t = step j + base, per first row
        t = np.arange(len(rows)) * np.repeat(step, k) + np.repeat(base, k)
        rows[:, 0], rows[:, 1] = np.repeat(a, k), np.repeat(b, k)
        rows[:, 2] = rows[:, 0] * t + np.repeat(c0, k)
        rows[:, 3] = rows[:, 1] * t + np.repeat(d0, k)
    return out.reshape(-1, 2, 2)


def _enumerate_sl3(spec: BallSpec) -> np.ndarray:
    b = _squared_radius(spec.x)
    norm_sq_cap = math.floor(b)
    cap = math.isqrt(norm_sq_cap)
    r = np.arange(-cap, cap + 1)
    grid = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    ball = grid[(grid * grid).sum(axis=1) <= norm_sq_cap]
    norms = (ball * ball).sum(axis=1)
    # at integer X <= MAX_X[3] every intermediate is below about 3e5 (5 X^6
    # in general), so int64 arithmetic is exact
    chunks = []
    for c1, n1 in zip(ball, norms):
        d12 = ball @ c1
        wn = n1 * norms - d12 * d12  # |c1 x c2|^2, the 2-column Gram minor
        # the int64 cut first: ||c1 x c2|| is a row norm of g^-1.  Then
        # interlacing: the top eigenvalue of the 2-column Gram minor is a
        # lower bound for lambda_max(g^t g)
        keep = np.flatnonzero(wn <= norm_sq_cap) if spec.symmetrized else np.arange(len(ball))
        keep = keep[_lambda_max_le_2x2(n1 + norms[keep], wn[keep], b)]
        # the third columns c3 solve (c1 x c2) . c3 = 1; a non-primitive
        # c1 x c2, zero included, has none
        i, j = np.nonzero(np.cross(c1, ball[keep]) @ ball.T == 1)
        k = keep[i]
        c2, n2, c3, n3 = ball[k], norms[k], ball[j], norms[j]
        d13, d23 = c3 @ c1, (c2 * c3).sum(axis=1)
        # the rows of g^-1 are c2 x c3, c3 x c1 and c1 x c2, and
        # |u x v|^2 = |u|^2 |v|^2 - (u . v)^2
        f_inv = wn[k] + n1 * n3 - d13 * d13 + n2 * n3 - d23 * d23
        inside = _member(3, n1 + n2 + n3, f_inv, b, spec.symmetrized)
        g = np.stack([np.broadcast_to(c1, c2.shape), c2, c3], axis=2)[inside]
        chunks.append(g.reshape(-1, 9))
    flat = np.concatenate(chunks)
    return flat[np.lexsort(flat.T[::-1])].reshape(-1, 3, 3)


def check_budget(spec: BallSpec) -> None:
    """Raise BudgetError for a ball beyond the enumeration budget MAX_X."""
    if spec.x > MAX_X[spec.n]:
        raise BudgetError(
            f"X = {spec.x} exceeds the n = {spec.n} enumeration budget "
            f"(X <= {MAX_X[spec.n]}); use sampling at larger radii"
        )


def enumerate_ball(spec: BallSpec) -> BallEnumeration:
    """Complete, deterministic enumeration of the requested norm ball."""
    check_budget(spec)
    return BallEnumeration(spec, _enumerate_sl2(spec) if spec.n == 2 else _enumerate_sl3(spec))


def sample_pairs(e: BallEnumeration, count: int, seed) -> list[tuple[IntMatrix, IntMatrix]]:
    """Uniform ordered pairs with replacement; numpy PCG64 keyed by seed."""
    if e.count == 0:
        raise ConfigError("cannot sample from an empty enumeration")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, e.count, size=(count, 2))
    return [(_matrix(g1), _matrix(g2)) for g1, g2 in e.entries[idx].tolist()]
