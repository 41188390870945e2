"""Singular value / Cartan decomposition via one-sided Jacobi.

One-sided Jacobi orthogonalizes the columns of a working copy by plane
rotations, which preserves high relative accuracy in the small singular
values -- exactly what the gap ratios a_k/a_{k+1} downstream need.  The
decomposition is g = k_g  diag(sigma)  k_g' with both k-factors special
orthogonal and sigma sorted descending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError
from .matrices import IntMatrix
from .matrices import det as exact_det

# Uniform numeric slack for every certificate comparison: an inequality
# "x >= y" certifies only if x >= y + DELTA_NUM.
DELTA_NUM = 1e-8

_JACOBI_TOL = 1e-14
_MAX_SWEEPS = 64


@dataclass(frozen=True)
class SvdTriple:
    """Cartan/KAK data: k_g @ diag(sigma) @ k_g_prime reconstructs g."""

    k_g: np.ndarray
    sigma: tuple[float, ...]
    k_g_prime: np.ndarray
    residual: float


def _as_array(m) -> np.ndarray:
    if isinstance(m, IntMatrix):
        return m.to_float()
    return np.asarray(m, dtype=float)


def _jacobi(a: np.ndarray):
    """One-sided Jacobi on columns; returns (u, sigma, vt) unsorted-fixed.

    Rotations are applied on the right until all column pairs are
    orthogonal to relative tolerance _JACOBI_TOL.
    """
    n = a.shape[0]
    scale = np.max(np.abs(a))
    if scale == 0:
        raise ConvergenceError("zero matrix has no SVD with positive sigma")
    b = a / scale
    v = np.eye(n)
    for _ in range(_MAX_SWEEPS):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                bi, bj = b[:, i], b[:, j]
                gamma = float(bi @ bj)
                alpha = float(bi @ bi)
                beta = float(bj @ bj)
                denom = np.sqrt(alpha * beta)
                rel = abs(gamma) / denom if denom > 0 else 0.0
                off = max(off, rel)
                if rel <= _JACOBI_TOL:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                b[:, i], b[:, j] = c * bi - s * bj, s * bi + c * bj
                v[:, i], v[:, j] = c * v[:, i] - s * v[:, j], s * v[:, i] + c * v[:, j]
        if off <= _JACOBI_TOL:
            break
    else:
        raise ConvergenceError(f"Jacobi SVD did not converge in {_MAX_SWEEPS} sweeps")

    norms = np.sqrt(np.sum(b * b, axis=0))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    # columns that underflowed to zero stay zero in u; sigma keeps the 0
    safe = np.where(norms > 0, norms, 1.0)
    u = b[:, order] / safe
    v = v[:, order]
    # keep both K-factors special orthogonal (flips cancel in the product)
    if np.linalg.det(u) < 0:
        u[:, -1] = -u[:, -1]
        v[:, -1] = -v[:, -1]
    return u, norms * scale, v.T


def _singular_values(m) -> np.ndarray:
    _, sigma, _ = _jacobi(_as_array(m))
    return sigma


def svd(m: IntMatrix) -> SvdTriple:
    """Cartan decomposition of a determinant-one integer matrix."""
    d = exact_det(m)
    if d != 1:
        raise ConfigError(f"svd requires det = 1, got det = {d}")
    a = m.to_float()
    u, sigma, vt = _jacobi(a)
    residual = float(np.max(np.abs(u @ np.diag(sigma) @ vt - a)))
    # guard the reported bound against rounding in the residual computation
    residual += m.n * np.finfo(float).eps * float(sigma[0])
    return SvdTriple(u, tuple(float(s) for s in sigma), vt, residual)


def spectral_norm(m) -> float:
    """Largest singular value (works for any square real/integer matrix)."""
    return float(_singular_values(m)[0])


def log_spectral_norm(m: IntMatrix) -> float:
    """log of the spectral norm, safe for huge integer entries.

    Scales by the max-abs entry exactly before converting to float, so
    products far beyond float range still yield a finite log.
    """
    scale = m.max_abs()
    if scale == 0:
        raise ConvergenceError("zero matrix")
    bits = scale.bit_length() - 53
    if bits > 0:
        shifted = IntMatrix(tuple(tuple(x >> bits for x in row) for row in m.entries))
        a = shifted.to_float()
        return math.log(spectral_norm(a)) + bits * math.log(2.0)
    return math.log(spectral_norm(m.to_float()))


def singular_gap(m, k: int) -> float:
    """Ratio a_k / a_{k+1} >= 1 of consecutive singular values (1-based k)."""
    sigma = _singular_values(m)
    n = len(sigma)
    if not 1 <= k <= n - 1:
        raise ConfigError(f"gap position k must be in [1, {n - 1}], got {k}")
    return float(sigma[k - 1] / sigma[k])


__all__ = [
    "DELTA_NUM",
    "SvdTriple",
    "svd",
    "spectral_norm",
    "log_spectral_norm",
    "singular_gap",
]
