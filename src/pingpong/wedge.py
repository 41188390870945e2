"""Exterior-power action and the projective sine metric.

A matrix g acts on the k-th exterior power of R^n through its compound
matrix: the entry at (S, T) is the k x k minor of g with row set S and
column set T, where k-subsets are ordered lexicographically.  Points and
hyperplanes of the projectivized wedge space are stored as unit coordinate
vectors (hyperplanes by their unit normal covector), so every distance is
a single inner product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .matrices import IntMatrix, det
from .spectral import SvdTriple, svd


def subset_basis(n: int, k: int) -> list[tuple[int, ...]]:
    """Lexicographically ordered k-subsets of {0, ..., n-1}."""
    return list(itertools.combinations(range(n), k))


@dataclass(frozen=True)
class WedgeVector:
    """Coordinate vector in wedge^k(R^n), indexed by sorted k-subsets."""

    n: int
    k: int
    coords: np.ndarray

    def unit(self) -> "WedgeVector":
        norm = float(np.linalg.norm(self.coords))
        if norm == 0:
            raise ConfigError("cannot normalize the zero wedge vector")
        return WedgeVector(self.n, self.k, self.coords / norm)


@dataclass(frozen=True)
class ProjElement:
    """Point or hyperplane in P(wedge^k(R^n)); rep is unit-normalized."""

    kind: str  # "point" | "hyperplane"
    rep: WedgeVector

    def __post_init__(self):
        if self.kind not in ("point", "hyperplane"):
            raise ConfigError(f"unknown kind {self.kind!r}")


def point(n: int, k: int, coords) -> ProjElement:
    return ProjElement("point", WedgeVector(n, k, np.asarray(coords, dtype=float)).unit())


def hyperplane(n: int, k: int, normal) -> ProjElement:
    return ProjElement("hyperplane", WedgeVector(n, k, np.asarray(normal, dtype=float)).unit())


def _exact_minor(entries, rows, cols) -> int:
    k = len(rows)
    if k == 1:
        return entries[rows[0]][cols[0]]
    if k == 2:
        r0, r1 = rows
        c0, c1 = cols
        return entries[r0][c0] * entries[r1][c1] - entries[r0][c1] * entries[r1][c0]
    sub = IntMatrix(tuple(tuple(entries[r][c] for c in cols) for r in rows))
    return det(sub)


def _float_minor(a: np.ndarray, rows, cols) -> float:
    sub = a[np.ix_(rows, cols)]
    if len(rows) == 1:
        return sub[0, 0]
    if len(rows) == 2:
        return sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]
    return np.linalg.det(sub)


def _check_power(n: int, k: int):
    if not 1 <= k <= n - 1:
        raise ConfigError(f"wedge power k must be in [1, {n - 1}], got {k}")


def wedge_matrix(m, k: int) -> np.ndarray:
    """Compound matrix of the wedge^k action, size C(n,k) x C(n,k).

    Integer inputs use exact minors; float inputs fall back to numpy
    determinants of the submatrices.
    """
    if isinstance(m, IntMatrix):
        entries, minor = m.entries, _exact_minor
    else:
        entries, minor = np.asarray(m, dtype=float), _float_minor
    n = len(entries)
    _check_power(n, k)
    basis = subset_basis(n, k)
    return np.array([[float(minor(entries, s, t)) for t in basis] for s in basis])


def _check_compatible(a: ProjElement, b: ProjElement):
    if (a.rep.n, a.rep.k) != (b.rep.n, b.rep.k):
        raise ConfigError("projective elements live in different wedge spaces")


def proj_distance(a: ProjElement, b: ProjElement) -> float:
    """Sine of the angle between two projective points, in [0, 1]."""
    _check_compatible(a, b)
    if a.kind != "point" or b.kind != "point":
        raise ConfigError("proj_distance expects two points")
    c = float(np.dot(a.rep.coords, b.rep.coords))
    c = min(1.0, abs(c))
    return math.sqrt(max(0.0, 1.0 - c * c))


def point_hyperplane_distance(v: ProjElement, h: ProjElement) -> float:
    """|<normal, v>| for unit vectors: 0 iff the point lies on the hyperplane."""
    _check_compatible(v, h)
    if v.kind != "point" or h.kind != "hyperplane":
        raise ConfigError("expected (point, hyperplane)")
    return min(1.0, abs(float(np.dot(v.rep.coords, h.rep.coords))))


def apply_wedge(w: np.ndarray, p: ProjElement) -> ProjElement:
    """Image of a projective point under a wedge-action matrix."""
    if p.kind != "point":
        raise ConfigError("apply_wedge expects a point")
    img = w @ p.rep.coords
    return ProjElement("point", WedgeVector(p.rep.n, p.rep.k, img).unit())


def attractor_repeller(g: IntMatrix, k: int) -> tuple[ProjElement, ProjElement]:
    """Attracting point and repelling hyperplane of g on P(wedge^k(R^n))."""
    return attractor_repeller_from_svd(svd(g), k)


def attractor_repeller_from_svd(triple: SvdTriple, k: int) -> tuple[ProjElement, ProjElement]:
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
    v = point(n, k, [_float_minor(triple.k_g, s, first) for s in basis])
    h = hyperplane(n, k, [_float_minor(triple.k_g_prime, first, t) for t in basis])
    return v, h
