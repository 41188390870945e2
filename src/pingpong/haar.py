"""Cartan-coordinate Haar density and polytope quadrature.

In KAK coordinates the A-part carries the density prod_{k<i} sinh(j_k -
j_i) over the descending chamber j_1 >= ... >= j_n with sum zero.  The
regions of interest are cut out by linear constraints (norm bounds, gap
thresholds), so every inner integration range is an exact interval and
midpoint sums stay clean; a Richardson step on a half-resolution grid
upgrades the order and yields an error estimate.

Only ratios and growth rates of these integrals are meaningful here: the
overall Haar normalization constant cancels in every reported quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class CartanRegion:
    n: int
    log_x: float
    symmetrized: bool = False
    gap_constraints: tuple = ()  # (position k, threshold T) meaning j_k - j_{k+1} >= T

    def __post_init__(self):
        if self.n not in (2, 3, 4):
            raise ConfigError(f"regions support n in {{2, 3, 4}}, got {self.n}")
        if self.log_x <= 0:
            raise ConfigError("log_x must be positive")
        object.__setattr__(self, "gap_constraints", tuple(self.gap_constraints))
        for k, t in self.gap_constraints:
            if not 1 <= k <= self.n - 1:
                raise ConfigError(f"gap position {k} out of range for n = {self.n}")
            if t < 0:
                raise ConfigError("gap thresholds must be >= 0")


def haar_density(j) -> np.ndarray | float:
    """prod over positive roots of sinh(j_k - j_i), k < i; zero on walls."""
    arr = np.asarray(j, dtype=float)
    n = arr.shape[-1]
    out = np.ones(arr.shape[:-1])
    for k in range(n - 1):
        for i in range(k + 1, n):
            out = out * np.sinh(arr[..., k] - arr[..., i])
    return out if out.shape else float(out)


def _gap_threshold(region: CartanRegion, k: int) -> float:
    t = 0.0
    for pos, thr in region.gap_constraints:
        if pos == k:
            t = max(t, thr)
    return t


def _midpoints(lo, hi, cells: int):
    h = (hi - lo) / cells
    return lo + h * (np.arange(cells) + 0.5), h


def _integrate_n2(region: CartanRegion, cells: int) -> float:
    # j = (t, -t): density sinh(2t); t in [max(0, T/2), L]
    lo = max(0.0, _gap_threshold(region, 1) / 2.0)
    hi = region.log_x
    if hi <= lo:
        return 0.0
    t, h = _midpoints(lo, hi, cells)
    return float(np.sum(np.sinh(2.0 * t)) * h)


def _j2_interval(region: CartanRegion, j1: float) -> tuple[float, float]:
    lo = -j1 / 2.0  # j2 >= j3 = -j1 - j2
    hi = j1  # chamber
    t1 = _gap_threshold(region, 1)
    t2 = _gap_threshold(region, 2)
    if t1 > 0:
        hi = min(hi, j1 - t1)
    if t2 > 0:
        lo = max(lo, (t2 - j1) / 2.0)
    if region.symmetrized:
        hi = min(hi, region.log_x - j1)  # j3 >= -L
    return lo, hi


def _integrate_n3(region: CartanRegion, cells: int) -> float:
    l = region.log_x
    j1, h1 = _midpoints(0.0, l, cells)
    total = 0.0
    for a in j1:
        lo, hi = _j2_interval(region, float(a))
        if hi <= lo:
            continue
        j2, h2 = _midpoints(lo, hi, cells)
        j3 = -a - j2
        dens = np.sinh(a - j2) * np.sinh(a - j3) * np.sinh(j2 - j3)
        total += float(np.sum(dens)) * h2 * h1
    return total


def _j3_interval(region: CartanRegion, j1: float, j2: float) -> tuple[float, float]:
    lo = -(j1 + j2) / 2.0  # j3 >= j4 = -(j1 + j2 + j3)
    hi = j2  # chamber
    t2 = _gap_threshold(region, 2)
    t3 = _gap_threshold(region, 3)
    if t2 > 0:
        hi = min(hi, j2 - t2)
    if t3 > 0:
        lo = max(lo, (t3 - j1 - j2) / 2.0)
    if region.symmetrized:
        hi = min(hi, region.log_x - j1 - j2)  # j4 >= -L
    return lo, hi


def _integrate_n4(region: CartanRegion, cells: int) -> float:
    l = region.log_x
    t1 = _gap_threshold(region, 1)
    j1, h1 = _midpoints(0.0, l, cells)
    total = 0.0
    for a in j1:
        j2_hi = a - t1
        j2_lo = -a  # loose; infeasible cells give empty j3 intervals
        if j2_hi <= j2_lo:
            continue
        j2, h2 = _midpoints(j2_lo, j2_hi, cells)
        for b in j2:
            lo, hi = _j3_interval(region, float(a), float(b))
            if hi <= lo:
                continue
            j3, h3 = _midpoints(lo, hi, cells)
            j4 = -a - b - j3
            dens = (
                np.sinh(a - b)
                * np.sinh(a - j3)
                * np.sinh(a - j4)
                * np.sinh(b - j3)
                * np.sinh(b - j4)
                * np.sinh(j3 - j4)
            )
            total += float(np.sum(dens)) * h3 * h2 * h1
    return total


_DISPATCH = {2: _integrate_n2, 3: _integrate_n3, 4: _integrate_n4}


def integrate_region_raw(region: CartanRegion, cells: int) -> float:
    """Plain midpoint estimate at the given per-dimension resolution."""
    if cells < 2:
        raise ConfigError("resolution must be >= 2")
    return _DISPATCH[region.n](region, cells)


def integrate_region(region: CartanRegion, resolution: int = 512) -> float:
    """Richardson-extrapolated midpoint integral of the Haar density."""
    value, _ = integrate_region_with_error(region, resolution)
    return value


def integrate_region_with_error(region: CartanRegion, resolution: int = 512):
    """(value, est_error) from grids at resolution/2 and resolution."""
    if resolution < 64:
        raise ConfigError("resolution must be >= 64 grid points per dimension")
    coarse = integrate_region_raw(region, resolution // 2)
    fine = integrate_region_raw(region, resolution)
    value = fine + (fine - coarse) / 3.0
    if not np.isfinite(value):
        raise ConfigError(f"region volume is not a finite float at log_x = {region.log_x}")
    return value, abs(fine - coarse) / 3.0


def gap_fraction(
    r_base: CartanRegion, gaps, resolution: int = 512
) -> float:
    """Haar-volume fraction of the base region satisfying the gap cuts."""
    constrained = replace(
        r_base, gap_constraints=tuple(r_base.gap_constraints) + tuple(gaps)
    )
    denom = integrate_region(r_base, resolution)
    if denom <= 0:
        raise ConfigError("base region has zero volume")
    return integrate_region(constrained, resolution) / denom
