"""Exact enumeration of spectral-norm balls in SL_2(Z) and SL_3(Z).

Membership sigma_1(g) <= X is decided in integers.  For g in SL_n(Z) the
Gram matrix g^t g has characteristic polynomial L^2 - f L + 1 (n = 2) or
L^3 - f L^2 + f' L - 1 (n = 3, by Cauchy-Binet), with f = ||g||_F^2 and
f' = ||g^-1||_F^2, and the test is a sign condition on it at X^2 = p/q,
scaled by powers of q.  Swapping f and f' gives the polynomial of
(g^t g)^-1, so the symmetrized ball's test ||g^-1|| <= X is the same one.

A ball is its ``count`` members sorted by row-major entries; ``take``
returns those at given positions.  For n = 2 a primitive first row (a, b)
fixes the second up to a line (c0 + t a, d0 + t b), a d0 - b c0 = 1, and
the ball cuts out a run of t.  One descent of the Stern-Brocot tree gives
each line and run of the quadrant a, b >= 0, which the signs of a and b
only flip.
The runs come in lexicographic order and each walks t the way (c, d)
ascends, so member i is read off the run that holds it; none is stored.
For n = 3 one loop runs over the first columns c1 = (x, y, z) with
0 <= x <= y <= z and squared norm <= floor(X^2); numpy cuts every c2 by
the Gram minor of (c1, c2), solves (c1 x c2) . c3 = 1 for the third
columns, and tests every (c2, c3) at once.  Each member g also gives
P g diag(1, 1, det P) for every signed permutation P and distinct P c1.
One sort of int64 keys packing the entries orders the whole ball.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import permutations, product

import numpy as np

from .errors import BudgetError, ConfigError
from .matrices import IntMatrix, inverse

MAX_X = {2: 500, 3: 6}
_A_BLOCK = 16  # signed values of a per numpy block of the n = 2 runs
# the 48 signed permutation matrices P, row i = +-e_pi(i), and det P = P_0 . (P_1 x P_2)
_B3 = np.eye(3, dtype=np.int64)[list(permutations(range(3)))][:, None]
_B3 = (_B3 * np.array(list(product((1, -1), repeat=3)))[..., None]).reshape(48, 3, 3)
_B3_DET = (_B3[:, 0] * np.cross(_B3[:, 1], _B3[:, 2])).sum(axis=1)


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
    """The ``count`` members of a ball, sorted row-major: ``take(idx)`` returns
    the members at the positions idx as an int64 array of shape idx.shape + (n, n)."""

    spec: BallSpec
    count: int
    take: Callable[[np.ndarray], np.ndarray]


def _lambda_max_le_2x2(gram_trace, gram_det, bound):
    # c(L) = L^2 - tr L + det; largest root <= bound = p/q iff q^2 c(p/q) >= 0
    # and p/q sits at or right of the parabola vertex.  Multiplying through by
    # powers of q keeps each test in integers.  The predicates join tests with
    # &, not `and`, so they also take int64 and object arrays.
    p, q = bound.numerator, bound.denominator
    return (p * p + gram_det * (q * q) >= gram_trace * (p * q)) & (2 * p >= gram_trace * q)


def _sigma1_sq_le(n: int, f, f_inv, bound):
    """sigma_1(g)^2 <= bound for g in SL_n(Z), from f = ||g||_F^2, f_inv = ||g^-1||_F^2."""
    if n == 2:
        return _lambda_max_le_2x2(f, 1, bound)
    # c(L) = L^3 - f L^2 + f_inv L - 1 has only real roots, so its largest
    # root is <= bound = p/q iff q^3 c, q^2 c' and q c'' are all >= 0 at p/q
    p, q = bound.numerator, bound.denominator
    return (
        (p**3 + f_inv * (p * q * q) >= f * (p * p * q) + q**3)
        & (3 * p * p + f_inv * (q * q) >= f * (2 * p * q))
        & (3 * p >= f * q)
    )


def _member(n: int, f, f_inv, bound, symmetrized: bool):
    # (g^t g)^-1 has the polynomial of g^t g with f and f_inv swapped
    inside = _sigma1_sq_le(n, f, f_inv, bound)
    return inside & _sigma1_sq_le(n, f_inv, f, bound) if symmetrized else inside


def _frobenius_sq(g: IntMatrix) -> tuple[int, int]:
    """(||g||_F^2, ||g^-1||_F^2) for g in SL_n(Z), n in {2, 3}."""
    f = sum(v * v for row in g.entries for v in row)
    return f, sum(v * v for row in inverse(g).entries for v in row)


def in_ball(g: IntMatrix, spec: BallSpec) -> bool:
    return _member(g.n, *_frobenius_sq(g), spec.x**2, spec.symmetrized)


def sl2_frobenius_cap(bound) -> int:
    """floor(bound + 1/bound), exact for an int or Fraction bound >= 1: g in SL_2(Z)
    has sigma_1(g)^2 <= bound iff ||g||_F^2 = sigma_1^2 + sigma_1^-2 is at most that."""
    return (bound * bound + 1) // bound


def _sl2_runs(spec: BallSpec) -> np.ndarray:
    """The ball's runs as int32 columns (a, b, c0, d0, step, base, end), one per
    primitive first row (a, b) whose line meets the ball, in lexicographic order:
    the members at sorted positions end - k <= i < end are (a, b, c0 + t a,
    d0 + t b) with t = step i + base."""
    # ||g^-1||_F = ||g||_F, so the symmetrized test adds nothing
    cap, s_cap = math.floor(spec.x**2), sl2_frobenius_cap(spec.x**2)
    w = math.isqrt(cap) + 1
    # (c0, d0, lo, hi) at [:, a, b] for the rows of the quadrant a, b >= 0, or
    # zeros where the row is not primitive or its line misses the ball
    quad = np.zeros((4, w, w), dtype=np.int32)
    quad[:2, 0, 1], quad[:2, 1, 0] = (-1, 0), (0, 1)
    # the Stern-Brocot tree has one node per matrix [p q] of SL_2(Z) with
    # entries >= 0, p = (pa, pb) and q = (qa, qb) its columns, and children
    # [p q] L = [p + q, q] and [p q] R = [p, p + q].  So each coprime row
    # (a, b) = p + q with a, b >= 1 is one node, completed by (c0, d0) = q:
    # a d0 - b c0 = det [p q] = 1 and 0 <= q <= (a, b).  A child's row
    # dominates its parent's, so the descent stops at the disk
    pa, pb, qa, qb = (np.array([v]) for v in (1, 0, 0, 1))
    while pa.size:
        a, b = pa + qa, pb + qb
        keep = a * a + b * b <= cap
        pa, pb, qa, qb, a, b = (v[keep] for v in (pa, pb, qa, qb, a, b))
        quad[0, a, b], quad[1, a, b] = qa, qb
        pa, pb, qa, qb = (np.concatenate(v) for v in ((a, pa), (b, pb), (qa, a), (qb, b)))
    a, b = np.nonzero(quad[0] | quad[1])
    c0, d0 = quad[:2, a, b]
    s1 = a * a + b * b
    # s1 + (c0 + t a)^2 + (d0 + t b)^2 <= s_cap  iff  (s1 t + m)^2 <= disc.
    # At X <= MAX_X[2], |disc| < 1e12 keeps int64 and the corrected float
    # square root exact, and int32 holds the rest
    m = a * c0 + b * d0
    disc = m * m - s1 * (s1 + c0 * c0 + d0 * d0 - s_cap)
    r = np.sqrt(np.maximum(disc, 0)).astype(np.int64)
    r -= r * r > disc
    r += (r + 1) * (r + 1) <= disc
    quad[:, a, b] = np.where(disc >= 0, [c0, d0, -((m + r) // s1), (r - m) // s1], 0)
    del s1, m, disc, r  # so the runs' peak below holds none of them
    quad, signed = np.concatenate([quad[..., :0:-1], quad], axis=2), np.arange(1 - w, w)
    kept = np.count_nonzero(quad[0] | quad[1], axis=1)[np.abs(signed)]  # runs per signed a
    runs, at = np.empty((7, kept.sum()), dtype=np.int32), 0
    for i in range(0, len(signed), _A_BLOCK):
        rows = quad[:, np.abs(signed[i : i + _A_BLOCK])]  # at [:, a, b + w - 1]
        ia, ib = np.nonzero(rows[0] | rows[1])
        a, b, (c0, d0, lo, hi) = signed[i + ia], signed[ib], rows[:, ia, ib]
        # with sa, sb the signs of a and b (+1 at 0), (sb c0, sa d0) completes
        # (a, b), and m turns into sa sb m, so t runs over sa sb [lo, hi].
        # c = c0 + t a ascends with t iff a > 0; a = 0 forces b = +-1, c = -b,
        # and d = d0 + t b ascends iff b > 0.  t runs that way: rows come sorted
        sa, sb = np.where(a < 0, -1, 1), np.where(b < 0, -1, 1)
        step, u = np.where(a == 0, b, sa), sa * sb
        first = u * np.where(step * u > 0, lo, hi)
        runs[:, at : at + ia.size] = a, b, sb * c0, sa * d0, step, first, hi + 1 - lo
        at += ia.size
    del quad, rows  # the peak is at the cumsum's int64 temporaries below
    # a run of k members starts at position end - k, with t = first
    runs[5] -= runs[4] * (np.cumsum(runs[6]) - runs[6])
    np.cumsum(runs[6], out=runs[6])
    return runs


def _take_sl2(runs: np.ndarray, idx: np.ndarray) -> np.ndarray:
    a, b, c0, d0, step, base = runs[:6, np.searchsorted(runs[6], idx, side="right")]
    t = step * idx + base
    return np.stack([a, b, a * t + c0, b * t + d0], axis=-1).reshape(*np.shape(idx), 2, 2)


def _enumerate_sl3(spec: BallSpec) -> np.ndarray:
    b = spec.x**2
    norm_sq_cap = math.floor(b)
    cap = math.isqrt(norm_sq_cap)
    r = np.arange(-cap, cap + 1)
    grid = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    ball = grid[(grid * grid).sum(axis=1) <= norm_sq_cap]
    norms = (ball * ball).sum(axis=1)
    # the predicates scale b = p/q by powers of q, and their arguments are at
    # most 3 floor(b)^2, so every term is below 12 floor(b)^2 p^3.  Past 2^63
    # (never at an integer X <= MAX_X[3]) the arrays hold Python ints
    if 12 * norm_sq_cap**2 * b.numerator**3 >= 2**63:
        norms = norms.astype(object)
    # every entry lies in [-cap, cap], so the base-(2 cap + 1) number with the
    # digits e + cap of the row-major entries orders members lexicographically
    base = 2 * cap + 1
    weights = base ** np.arange(8, -1, -1)
    # P g Q keeps det = 1, sigma_1 and ||g^-1|| for P in _B3, Q = diag(1, 1, det P),
    # so the members with first column P c1 are P M(c1) Q, M(c1) those with first
    # column c1: the search runs for one c1 = (x, y, z), 0 <= x <= y <= z, per orbit
    reps = (ball >= 0).all(axis=1) & (np.diff(ball, axis=1) >= 0).all(axis=1)
    keys = []
    for c1, n1 in zip(ball[reps], norms[reps]):
        d12 = ball @ c1
        wn = n1 * norms - d12 * d12  # |c1 x c2|^2, the 2-column Gram minor
        # the cheap cut first: ||c1 x c2|| is a row norm of g^-1.  Then
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
        _, first = np.unique(_B3 @ c1, axis=0, return_index=True)  # a P per column P c1
        images = _B3[first, None] @ g
        images[..., 2] *= _B3_DET[first, None, None]
        keys.append((images.reshape(-1, 9) + cap) @ weights)
    flat = np.sort(np.concatenate(keys))[:, None] // weights
    flat %= base  # in place: new (N, 9) temporaries raised the X = 4 run's peak RSS
    flat -= cap
    return flat.reshape(-1, 3, 3)


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
    if spec.n == 2:
        runs = _sl2_runs(spec)
        return BallEnumeration(spec, int(runs[6, -1]), partial(_take_sl2, runs))
    entries = _enumerate_sl3(spec)
    return BallEnumeration(spec, len(entries), entries.__getitem__)


def sample_pairs(e: BallEnumeration, count: int, seed) -> np.ndarray:
    """Uniform ordered pairs with replacement, as a (count, 2, n, n) int64 stack;
    numpy PCG64 keyed by seed."""
    if e.count == 0:
        raise ConfigError("cannot sample from an empty enumeration")
    rng = np.random.default_rng(seed)
    return e.take(rng.integers(0, e.count, size=(count, 2)))
