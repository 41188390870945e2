"""Exact enumeration of spectral-norm balls in SL_2(Z) and SL_3(Z).

Membership sigma_1(g) <= X is decided in integers.  For g in SL_n(Z) the
Gram matrix g^t g has characteristic polynomial L^2 - f L + 1 (n = 2) or
L^3 - f L^2 + f' L - 1 (n = 3, by Cauchy-Binet), with f = ||g||_F^2 and
f' = ||g^-1||_F^2, and the test is a sign condition on it at X^2 = p/q,
scaled by powers of q.  Swapping f and f' gives the polynomial of
(g^t g)^-1, so the symmetrized ball's test ||g^-1|| <= X is the same one.
The experiment's gap test ``gapped`` reads the same f and f': for n = 2 it
negates the sigma_1 test at eta^2; for n = 3 it rules a member out by the
sigma_1 test, then decides it exactly by the signs of a Bezoutian.

A ball is its ``count`` members sorted by row-major entries; ``take``
returns those at given positions.  For n = 2 a primitive first row (a, b)
fixes the second up to a line (c0 + t a, d0 + t b), a d0 - b c0 = 1, and
the ball cuts out an interval of t.  A chain-wise Stern-Brocot descent
completes the rows of the octant a >= b >= 0, whose counts, one per cell
(|a|, |b|) of a quadrant, give every signed row's, and ``take`` builds only
the members it is asked for.
For n = 3 one loop runs over the first columns c1 = (x, y, z) with
0 <= x <= y <= z and squared norm <= floor(X^2); numpy cuts every c2 by
the Gram minor of (c1, c2), solves (c1 x c2) . c3 = 1 for the third
columns, and tests every (c2, c3) at once.  Each member g also gives
P g diag(1, 1, det P) for every signed permutation P and distinct P c1.
An int64 key, the row-major entries as signed digits, is linear in g, so
the search yields the keys of the images without building them: the ball
is one sorted array of keys, and ``take`` decodes only those it is given.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import permutations, product

import numpy as np

from .errors import BudgetError, ConfigError
from .matrices import IntMatrix, inverse

MAX_X = {2: 500, 3: 6}
# the 48 signed permutation matrices P, row i = +-e_pi(i), and det P = P_0 . (P_1 x P_2)
_B3 = np.eye(3, dtype=np.int8)[list(permutations(range(3)))][:, None]
_B3 = (_B3 * np.array(list(product((1, -1), repeat=3)), np.int8)[..., None]).reshape(48, 3, 3)
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
        return f <= sl2_frobenius_cap(bound)
    # c(L) = L^3 - f L^2 + f_inv L - 1 has only real roots, so its largest
    # root is <= bound = p/q iff q^3 c, q^2 c' and q c'' are all >= 0 at p/q
    p, q = bound.numerator, bound.denominator
    return (
        (p**3 + f_inv * (p * q * q) >= f * (p * p * q) + q**3)
        & (3 * p * p + f_inv * (q * q) >= f * (2 * p * q))
        & (3 * p >= f * q)
    )


def gapped(n: int, f, f_inv, eta: float):
    """sigma_i/sigma_{i+1} >= eta^2 at every i for g in SL_n(Z), n in {2, 3}, from int64
    arrays f = ||g||_F^2 and f_inv = ||g^-1||_F^2; exact, with eta^2 from the float eta."""
    mu = Fraction(eta) ** (2 * n - 2)
    if n == 2:
        # sigma_1/sigma_2 = sigma_1^2, and sigma_1^2 = eta^2 is moot: ||g||_F^2 would be
        # (p^4 + q^4)/(p^2 q^2) = eta^2 + eta^-2, no integer for eta = p/q > 1
        return ~_sigma1_sq_le(2, f, f_inv, mu)
    # the eigenvalues l1 > l2 > l3 of g^t g are the roots of p(L) = L^3 - f L^2 + f_inv L - 1,
    # and no l_i/l_j is the rational mu = eta^4 > 1 (an irreducible p has a 3-cycle in its
    # Galois group, giving mu^3 = 1; else the roots are 1, l, 1/l with l, l^2 irrational).
    # Gapped, l1 > mu l2 > mu^2 l3, gives l1^3 > mu^3 l1 l2 l3 = mu^3: sigma_1^2 <= mu rules g out
    P, Q = mu.numerator, mu.denominator
    top = max(int(f.max(initial=3)), int(f_inv.max(initial=3)))
    # with P > Q, the pre-filter's terms are at most 2 top P^3 and those of the minors
    # below at most 3 top^4 P^6; past 2^63 the arrays hold Python ints
    if 2 * top * P**3 >= 2**63:
        f, f_inv = f.astype(object), f_inv.astype(object)
    verdict = ~_sigma1_sq_le(3, f, f_inv, mu)
    f, f_inv = f[verdict], f_inv[verdict]
    if 3 * top**4 * P**6 >= 2**63:
        f, f_inv = f.astype(object), f_inv.astype(object)
    # q(L) = Q^3 L^3 - Q^2 P f L^2 + Q P^2 f_inv L - P^3 has the roots mu l_i, so g is
    # gapped iff the roots of p and q interlace, and by Hermite (Krein and Naimark 1936)
    # iff their Bezoutian B(p, q) is definite, here negative.  With a_k, c_k the
    # coefficients of p, q from the constant term up, b_ij = sum_{k <= min(i, j)}
    # a_{i+j+1-k} c_k - a_k c_{i+j+1-k}.  With s = P + Q, e = P^2 + P Q + Q^2 and r = P Q,
    # its leading principal minors are m1 = -P^2 (P - Q) f_inv < 0, and P^2 (P - Q)^2
    # and (P - Q)^3 times the m2 and m3 below
    s, e, r = P + Q, P * P + P * Q + Q * Q, P * Q
    m2 = e * f_inv + r * f * f_inv * f_inv - s * s * f * f
    m3 = e**3 + r * r * s * s * (f**3 + f_inv**3)
    m3 -= r * e * (e + 3 * r) * f * f_inv + r**3 * (f * f_inv) ** 2
    verdict[verdict] = (m2 > 0) & (m3 < 0)
    return verdict


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


def _sl2_interval(a, b, c0, d0, s_cap):
    """(lo, hi), lo = hi + 1 if empty: the t with s1 + |(c0, d0) + t (a, b)|^2 <= s_cap,
    s1 = a^2 + b^2 >= 1, given a d0 - b c0 = +-1 and s1 (s_cap - s1) < 2^53."""
    # the test is (s1 t + m)^2 <= disc, m = a c0 + b d0, and Lagrange's identity
    # s1 (c0^2 + d0^2) = m^2 + 1 makes disc a function of s1.  At disc < 0,
    # r = 0 leaves no t: m^2 = -1 mod s1, and s1 = 1 has disc >= 0 at s_cap >= 2
    s1, m = a * a + b * b, a * c0 + b * d0
    disc = np.maximum(s1 * (s_cap - s1) - 1, 0)
    r = np.sqrt(disc).astype(np.int64)  # exact, or rounded up by one
    r -= r * r > disc
    return -((m + r) // s1), (r - m) // s1


def _sl2_octant(cap: int) -> Iterator[np.ndarray]:
    """Int64 columns (a, b, c0, d0), one per primitive row a >= b >= 0 of squared
    norm <= cap, with a d0 - b c0 = 1 and 0 <= (c0, d0) <= (a, b), one level at a time."""
    # Stern-Brocot: each coprime row (a, b) >= 1 is p + q for one [p q] of SL_2(Z)
    # with entries >= 0, completed by q; [p q] has children [p + q, q] (L) and
    # [p, p + q] (R), whose rows dominate its row, and the rows a > b are the R
    # subtree of [1 0; 0 1].  A node with step column s (p for R, q for L) and other
    # column v emits its chain [s, v + j s], 1 <= j <= j_max, of rows v + (j + 1) s
    # (det [s v] = +-1), completed by v + j s (R) or s (L); each goes on with step v + j s
    root = int(cap >= 2)  # the row (1, 1)
    yield np.array([[1, 1], [0, 1], [0, 0], [1, 1]])[:, : 1 + root]
    sa, sb, va, vb = (np.full(root, v) for v in (1, 0, 0, 1))
    right = True
    while sa.size:
        j_max = _sl2_interval(sa, sb, va, vb, cap + sa * sa + sb * sb)[1] - 1
        node = np.repeat(np.arange(sa.size), j_max)
        j = np.arange(node.size) - np.repeat(np.cumsum(j_max) - j_max, j_max) + 1
        sa, sb, va, vb = va[node] + j * sa[node], vb[node] + j * sb[node], sa[node], sb[node]
        yield np.stack([sa + va, sb + vb, *((sa, sb) if right else (va, vb))])
        right = not right


def _sl2_ball(spec: BallSpec) -> BallEnumeration:
    # ||g^-1||_F = ||g||_F, so the symmetrized test adds nothing
    cap, s_cap = math.floor(spec.x**2), sl2_frobenius_cap(spec.x**2)
    w = math.isqrt(cap) + 1
    # under MAX_X[2] = 500 the ball has at most 1,500,740 members and |c0|, |d0| <= 500
    grid = np.zeros(w * w + 1, dtype=np.int32)
    comp = np.zeros((2, w, w), dtype=np.int16)
    # g -> diag(1, -1) g [[0, 1], [1, 0]] keeps det g = 1 and sigma_1 and maps the
    # row (a, b) and completion (c0, d0) to (b, a) and (-d0, -c0)
    for a, b, c0, d0 in _sl2_octant(cap):
        lo, hi = _sl2_interval(a, b, c0, d0, s_cap)
        grid[1 + a * w + b] = grid[1 + b * w + a] = hi - lo + 1
        comp[0, b, a], comp[1, b, a], comp[0, a, b], comp[1, a, b] = -d0, -c0, c0, d0
    # a signed row (a, b) has the members of cell 1 + |a| w + |b| (see _sl2_take), and
    # line a those of row |a| twice but (|a|, 0) once; grid and starts count those before
    np.cumsum(grid[1:], out=grid[1:])
    line = (2 * grid[w::w] - grid[:-1:w] - grid[1::w])[np.abs(np.arange(1 - w, w))]
    starts = np.cumsum(line) - line
    return BallEnumeration(spec, int(line.sum()), partial(_sl2_take, comp, grid, starts, s_cap))


def _sl2_take(comp, grid, starts, s_cap: int, idx: np.ndarray) -> np.ndarray:
    w = comp.shape[1]
    a = np.searchsorted(starts, idx, side="right") - w
    ua, r = np.abs(a), idx - starts[a + w - 1]
    row, end = ua * w, grid[ua * w + w]
    # line a runs over b = 1 - w..w - 1, so its first end - grid[row + 1] members have
    # b < 0: those are ranked from the right among the cells |b| >= 1 of row |a| of grid
    neg = r < end - grid[row + 1]
    key = np.where(neg, end - 1 - r, r - end + grid[row + 1] + grid[row])
    cell = np.searchsorted(grid, key.astype(grid.dtype), side="right") - 1
    ub, pos = cell - row, key - grid[cell]
    c0, d0 = comp[:, ua, ub]
    lo, hi = _sl2_interval(ua, ub, c0, d0, s_cap)
    # g -> diag(1, sa sb) g diag(sa, sb), sa and sb the signs of a and b (+1 at 0),
    # keeps det and sigma_1: (a, b)'s members are (a, b, sb (c0 + t |a|), sa (d0 + t |b|)),
    # lo <= t <= hi.  A row b < 0 runs backwards in grid and has c descend with t, so pos
    # ascends with t unless a = 0 > b, where c = 1 and d ascends with t
    t = np.where((a == 0) & neg, hi - pos, lo + pos)
    c, d = np.where(neg, -c0 - t * ua, c0 + t * ua), np.where(a < 0, -d0 - t * ub, d0 + t * ub)
    return np.stack([a, np.where(neg, -ub, ub), c, d], axis=-1).reshape(*np.shape(idx), 2, 2)


def _sl3_ball(spec: BallSpec) -> BallEnumeration:
    b = spec.x**2
    norm_sq_cap = math.floor(b)
    cap = math.isqrt(norm_sq_cap)
    grid = np.indices((2 * cap + 1,) * 3).reshape(3, -1).T - cap  # row-major order
    ball = grid[(grid * grid).sum(axis=1) <= norm_sq_cap]
    norms = (ball * ball).sum(axis=1)
    # the predicates scale b = p/q by powers of q, and their arguments are at
    # most 3 floor(b)^2, so every term is below 12 floor(b)^2 p^3.  Past 2^63
    # (never at an integer X <= MAX_X[3]) the arrays hold Python ints
    if 12 * norm_sq_cap**2 * b.numerator**3 >= 2**63:
        norms = norms.astype(object)
    # every entry lies in [-cap, cap], so the key of g, the base-(2 cap + 1) number
    # <w, g> with the signed digits e of the row-major entries, orders members
    # lexicographically: the digits below a place add up to less than one unit of it
    w = (2 * cap + 1) ** np.arange(8, -1, -1).reshape(3, 3)
    # P g Q keeps det = 1, sigma_1 and ||g^-1|| for P in _B3, Q = diag(1, 1, det P), so
    # the search runs for one c1 = (x, y, z), 0 <= x <= y <= z, per orbit, primitive as
    # a column of g is; key(P g Q) = <P^t w Q, g> = sum_j c_j . weights[:, :, j]
    weights = _B3.transpose(0, 2, 1) @ w
    weights[..., 2] *= _B3_DET[:, None]
    reps = (np.diff(ball, axis=1, prepend=0) >= 0).all(axis=1) & (np.gcd.reduce(ball, axis=1) == 1)
    fball, keys = ball.astype(float), []
    for c1, n1, c1x in zip(ball[reps], norms[reps], np.cross(ball[reps, None], np.eye(3))):
        d12 = ball @ c1
        wn = n1 * norms - d12 * d12  # |c1 x c2|^2, the 2-column Gram minor
        # the cheap cut first: ||c1 x c2|| and ||c3 x c1|| are row norms of g^-1,
        # so c2 and c3 are near c1.  Then interlacing: the top eigenvalue of the
        # 2-column Gram minor is a lower bound for lambda_max(g^t g)
        near = np.flatnonzero(wn <= norm_sq_cap) if spec.symmetrized else np.arange(len(ball))
        keep = near[_lambda_max_le_2x2(n1 + norms[near], wn[near], b)]
        # c1x holds the rows c1 x e_i, so c2 @ c1x = c1 x c2, and the third columns c3
        # solve (c1 x c2) . c3 = 1; a non-primitive c1 x c2, zero included, has none.
        # Floats are exact: |c1 x c2| |c3| <= X^3 bounds each partial sum
        i, j = np.divmod(np.flatnonzero(fball[keep] @ c1x @ fball[near].T == 1), len(near))
        k, j = keep[i], near[j]
        c2, n2, c3, n3 = ball[k], norms[k], ball[j], norms[j]
        d13, d23 = c3 @ c1, (c2 * c3).sum(axis=1)
        # the rows of g^-1 are c2 x c3, c3 x c1 and c1 x c2, and
        # |u x v|^2 = |u|^2 |v|^2 - (u . v)^2
        f_inv = wn[k] + n1 * n3 - d13 * d13 + n2 * n3 - d23 * d23
        inside = _member(3, n1 + n2 + n3, f_inv, b, spec.symmetrized)
        # a P per column P c1, and the (members, P) keys of the images
        _, first = np.unique(_B3 @ c1 @ w[2], return_index=True)
        key = c2[inside] @ weights[first, :, 1].T + weights[first, :, 0] @ c1
        key += c3[inside] @ weights[first, :, 2].T
        keys.append(key.ravel())
    store = np.concatenate(keys)
    store.sort()
    return BallEnumeration(spec, len(store), partial(_sl3_take, store, cap))


def _sl3_take(store: np.ndarray, cap: int, idx: np.ndarray) -> np.ndarray:
    # cap in each of the 9 places makes every digit >= 0; digits is the one (..., 9) array
    base, key = 2 * cap + 1, store.take(idx)
    key += cap * (base**9 - 1) // (base - 1)
    digits = np.empty(key.shape + (9,), dtype=np.int64)
    for place in range(8, -1, -1):
        np.divmod(key, base, out=(key, digits[..., place]))
    return np.subtract(digits, cap, out=digits).reshape(*key.shape, 3, 3)


def check_budget(spec: BallSpec) -> None:
    """Raise BudgetError for a ball beyond the enumeration budget MAX_X."""
    if spec.x > MAX_X[spec.n]:
        raise BudgetError(
            f"X = {spec.x} exceeds the n = {spec.n} enumeration budget X <= {MAX_X[spec.n]}"
        )


def enumerate_ball(spec: BallSpec) -> BallEnumeration:
    """Complete, deterministic enumeration of the requested norm ball."""
    check_budget(spec)
    return _sl2_ball(spec) if spec.n == 2 else _sl3_ball(spec)


def sample_pairs(e: BallEnumeration, count: int, seed) -> np.ndarray:
    """Uniform ordered pairs with replacement, as a (count, 2, n, n) int64 stack;
    numpy PCG64 keyed by seed."""
    if e.count == 0:
        raise ConfigError("cannot sample from an empty enumeration")
    rng = np.random.default_rng(seed)
    return e.take(rng.integers(0, e.count, size=(count, 2)))
