"""Exterior-power action and the projective sine metric.

A matrix g acts on the k-th exterior power of R^n through its compound
matrix: the entry at (S, T) is the k x k minor of g with row set S and
column set T, where k-subsets are ordered lexicographically.  Points and
hyperplanes of the projectivized wedge space are plain unit coordinate
arrays (a hyperplane by its unit normal), so every distance is a single
inner product.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ConfigError
from .matrices import IntMatrix, minor
from .spectral import seq_sum, svd


def subset_basis(n: int, k: int) -> list[tuple[int, ...]]:
    """Lexicographically ordered k-subsets of {0, ..., n-1}."""
    return list(itertools.combinations(range(n), k))


def unit(coords) -> np.ndarray:
    """``coords`` as a float array scaled to length 1 along axis 0, column by column."""
    v = np.asarray(coords, dtype=float)
    norm = np.sqrt(seq_sum(v * v))
    if np.any(norm == 0):
        raise ConfigError("cannot normalize the zero wedge vector")
    return v / norm


def _float_minor(a: np.ndarray, rows, cols):
    # orders 1 and 2 are matrices.minor's direct products; larger orders use
    # LAPACK, since Bareiss elimination divides exactly only on integers.
    # An (n, n, M) stack, the member axis last, gives M minors at once
    if len(rows) <= 2:
        return minor(a, rows, cols)
    return np.linalg.det(np.moveaxis(a[np.ix_(rows, cols)], (0, 1), (-2, -1)))


def _check_power(n: int, k: int):
    if not 1 <= k <= n - 1:
        raise ConfigError(f"wedge power k must be in [1, {n - 1}], got {k}")


def wedge_matrix(m, k: int) -> np.ndarray:
    """Compound matrix of the wedge^k action, size C(n,k) x C(n,k).

    Integer inputs use exact minors; float inputs fall back to numpy
    determinants of the submatrices.
    """
    if isinstance(m, IntMatrix):
        entries, det_of = m.entries, minor
    else:
        entries, det_of = np.asarray(m, dtype=float), _float_minor
    n = len(entries)
    _check_power(n, k)
    basis = subset_basis(n, k)
    return np.array([[float(det_of(entries, s, t)) for t in basis] for s in basis])


def proj_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sine of the angle between two unit points, in [0, 1]."""
    c = min(1.0, abs(float(seq_sum(a * b))))
    return math.sqrt(max(0.0, 1.0 - c * c))


def point_hyperplane_distance(v: np.ndarray, h: np.ndarray):
    """|<h, v>| for a unit point v and unit normal h (or columns of them): 0 iff v is on H."""
    return np.minimum(1.0, np.abs(seq_sum(v * h)))


def attractor_repeller(g: IntMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Attracting point and repelling hyperplane's normal of g on P(wedge^k(R^n))."""
    triple = svd(g)
    v, h = attractor_repeller_from_svd(triple.k_g[None], triple.k_g_prime[None], k)
    return v[:, 0], h[:, 0]


def attractor_repeller_from_svd(k_g: np.ndarray, k_g_prime: np.ndarray, k: int):
    """Attractors and repellers read off the Cartan decompositions g = k_g a_g k_g'.

    The attractor is the image of the lex-first basis vector under the
    wedge action of k_g: the k x k minors of the first k columns of k_g.
    The repelling hyperplane's normal is the lex-first row of the wedge
    action of k_g': the k x k minors of its first k rows.  The factors are
    (M, n, n) stacks; v and h have one unit column per matrix.
    """
    n = k_g.shape[-1]
    _check_power(n, k)
    first = tuple(range(k))
    basis = subset_basis(n, k)
    u, vt = np.moveaxis(k_g, 0, -1), np.moveaxis(k_g_prime, 0, -1)
    v = unit([_float_minor(u, s, first) for s in basis])
    h = unit([_float_minor(vt, first, t) for t in basis])
    return v, h
