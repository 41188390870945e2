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
from .spectral import SvdTriple, seq_sum, svd


def subset_basis(n: int, k: int) -> list[tuple[int, ...]]:
    """Lexicographically ordered k-subsets of {0, ..., n-1}."""
    return list(itertools.combinations(range(n), k))


def unit(coords) -> np.ndarray:
    """``coords`` as a float array scaled to length 1."""
    v = np.asarray(coords, dtype=float)
    norm = math.sqrt(seq_sum(v * v))
    if norm == 0:
        raise ConfigError("cannot normalize the zero wedge vector")
    return v / norm


def _float_minor(a: np.ndarray, rows, cols) -> float:
    # orders 1 and 2 are matrices.minor's direct products; larger orders use
    # LAPACK, since Bareiss elimination divides exactly only on integers
    if len(rows) <= 2:
        return minor(a, rows, cols)
    return np.linalg.det(a[np.ix_(rows, cols)])


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


def point_hyperplane_distance(v: np.ndarray, h: np.ndarray) -> float:
    """|<h, v>| for a unit point v and unit normal h: 0 iff v lies on the hyperplane."""
    return min(1.0, abs(float(seq_sum(v * h))))


def attractor_repeller(g: IntMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Attracting point and repelling hyperplane's normal of g on P(wedge^k(R^n))."""
    return attractor_repeller_from_svd(svd(g), k)


def attractor_repeller_from_svd(triple: SvdTriple, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Attractor and repeller read off the Cartan decomposition g = k_g a_g k_g'.

    The attractor is the image of the lex-first basis vector under the
    wedge action of k_g: the k x k minors of the first k columns of k_g.
    The repelling hyperplane's normal is the lex-first row of the wedge
    action of k_g': the k x k minors of its first k rows.
    """
    n = len(triple.sigma)
    _check_power(n, k)
    first = tuple(range(k))
    basis = subset_basis(n, k)
    v = unit([_float_minor(triple.k_g, s, first) for s in basis])
    h = unit([_float_minor(triple.k_g_prime, first, t) for t in basis])
    return v, h
