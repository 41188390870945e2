"""Singular value / Cartan decomposition via one-sided Jacobi.

One-sided Jacobi orthogonalizes the columns of a working copy by plane
rotations, which preserves high relative accuracy in the small singular
values -- exactly what the gap ratios a_k/a_{k+1} downstream need.  The
decomposition is g = k_g  diag(sigma)  k_g' with both k-factors orthogonal
(det +-1: readers take only the first k <= n - 1 columns of k_g and rows of
k_g') and sigma sorted descending.

One Jacobi runs over a whole (M, n, n) stack, and one matrix is the
stack of one, with the same bits.  An integer stack becomes float in the
pass.  Each dot product is a sequential sum, not a BLAS kernel, so no
result depends on the host's BLAS build.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True)
class SvdBatch:
    """SvdTriple fields stacked over M matrices: [i] builds triple i."""

    k_g: np.ndarray
    sigma: np.ndarray
    k_g_prime: np.ndarray
    residual: np.ndarray

    def __getitem__(self, i):
        sigma = tuple(self.sigma[i].tolist())
        return SvdTriple(self.k_g[i], sigma, self.k_g_prime[i], float(self.residual[i]))


def seq_sum(p: np.ndarray) -> np.ndarray:
    """Sum over axis 0 as (p_0 + p_1) + p_2 ..., never a BLAS kernel or a pairwise sum."""
    return functools.reduce(np.add, p)


def as_float(a: np.ndarray) -> np.ndarray:
    """A float, int64 or object array as float, refusing entries past the float range."""
    try:
        return np.asarray(a, dtype=float)
    except OverflowError as exc:
        raise ConfigError("matrix entries exceed the float range (about 1.8e308)") from exc


def svd_batch(a: np.ndarray) -> SvdBatch:
    """Cartan decompositions of an (M, n, n) stack by one-sided Jacobi, in one pass.

    The stack is float, int64, or object for Python ints; ``as_float`` makes it
    float here.  Each matrix gets the rotations it would get alone: pairs (i, j)
    in order, each rotated where the columns' cosine exceeds _JACOBI_TOL, until
    a sweep rotates nothing and the matrix leaves the active set.
    """
    a = as_float(a)
    m, n, _ = a.shape
    scale = np.max(np.abs(a), axis=(1, 2))
    if np.any(scale == 0):
        raise ConvergenceError("zero matrix has no SVD with positive sigma")
    # the working copy b above v: each rotation acts on the columns of both
    w = np.concatenate([a / scale[:, None, None], np.tile(np.eye(n), (m, 1, 1))], axis=1)
    active = np.arange(m)
    for _ in range(_MAX_SWEEPS):
        rotated = np.zeros(active.size, dtype=bool)
        for i in range(n - 1):
            for j in range(i + 1, n):
                bi, bj = w[active, :n, i].T, w[active, :n, j].T
                gamma, alpha, beta = seq_sum(bi * bj), seq_sum(bi * bi), seq_sum(bj * bj)
                denom = np.sqrt(alpha * beta)
                rot = np.abs(gamma) / np.where(denom > 0, denom, np.inf) > _JACOBI_TOL
                if not rot.any():
                    continue
                rotated |= rot
                zeta = (beta[rot] - alpha[rot]) / (2.0 * gamma[rot])
                t = np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                t[zeta == 0.0] = 1.0
                c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                s = c * t[:, None]
                idx = active[rot]
                wi, wj = w[idx, :, i], w[idx, :, j]
                w[idx, :, i], w[idx, :, j] = c * wi - s * wj, s * wi + c * wj
        active = active[rotated]
        if not active.size:
            break
    else:
        raise ConvergenceError(f"Jacobi SVD did not converge in {_MAX_SWEEPS} sweeps")

    norms = np.sqrt(seq_sum((w[:, :n] * w[:, :n]).swapaxes(0, 1)))
    order = np.argsort(-norms, axis=1, kind="stable")
    norms = np.take_along_axis(norms, order, axis=1)
    w = np.take_along_axis(w, order[:, None, :], axis=2)
    # columns that underflowed to zero stay zero in u; sigma keeps the 0
    u, v = w[:, :n] / np.where(norms > 0, norms, 1.0)[:, None, :], w[:, n:]
    sigma, vt = norms * scale[:, None], v.transpose(0, 2, 1)
    err = (u * sigma[:, None, :]) @ vt
    err -= a
    residual = np.max(np.abs(err, out=err), axis=(1, 2))
    # guard the reported bound against rounding in the residual computation
    residual += a.shape[1] * np.finfo(float).eps * sigma[:, 0]
    return SvdBatch(u, sigma, vt, residual)


def svd(m: IntMatrix) -> SvdTriple:
    """Cartan decomposition of a determinant-one integer matrix."""
    d = exact_det(m)
    if d != 1:
        raise ConfigError(f"svd requires det = 1, got det = {d}")
    return svd_batch(m.to_float()[None])[0]


def singular_gap(m: IntMatrix, k: int) -> float:
    """Ratio a_k / a_{k+1} >= 1 of consecutive singular values (1-based k)."""
    sigma = svd_batch(m.to_float()[None]).sigma[0]
    n = len(sigma)
    if not 1 <= k <= n - 1:
        raise ConfigError(f"gap position k must be in [1, {n - 1}], got {k}")
    return float(sigma[k - 1] / sigma[k])
