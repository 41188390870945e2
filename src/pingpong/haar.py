"""Cartan-coordinate Haar density and polytope quadrature.

In KAK coordinates the A-part carries the density prod_{k<i} sinh(j_k -
j_i) over the descending chamber j_1 >= ... >= j_n with sum zero.  The
regions of interest are cut out by linear constraints (norm bounds, gap
thresholds).  One nested midpoint sum handles every n: the innermost
coordinate gets its exact interval, the outer ones loose ranges whose
infeasible cells contribute nothing.  A Richardson step on a
half-resolution grid upgrades the order and yields an error estimate.

Only ratios and growth rates of these integrals are meaningful here: the
overall Haar normalization constant cancels in every reported quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from operator import mul, sub

import numpy as np

from .errors import BudgetError, ConfigError

MAX_RESOLUTION = 1024  # grid points per dimension; n = 4 at the cap takes about 40 s


@dataclass(frozen=True)
class CartanRegion:
    n: int
    log_x: float
    symmetrized: bool = False
    gap_constraints: tuple = ()  # (position k, threshold T) meaning j_k - j_{k+1} >= T

    def __post_init__(self):
        # the nested grid costs cells^(n-1) points; n <= 4 is the budget
        if self.n not in (2, 3, 4):
            raise ConfigError(f"regions support n in {{2, 3, 4}}, got {self.n}")
        if not self.log_x > 0:  # NaN included
            raise ConfigError("log_x must be positive")
        object.__setattr__(self, "gap_constraints", tuple(self.gap_constraints))
        for k, t in self.gap_constraints:
            if not 1 <= k <= self.n - 1:
                raise ConfigError(f"gap position {k} out of range for n = {self.n}")
            if not t >= 0:  # NaN included
                raise ConfigError("gap thresholds must be >= 0")


def _sinh_product(j):
    """prod_{a<b} sinh(j_a - j_b) over coordinate arrays, in lexicographic order."""
    out = 1.0
    for a in range(len(j) - 1):
        for b in range(a + 1, len(j)):
            out = out * np.sinh(j[a] - j[b])
    return out


def haar_density(j) -> np.ndarray | float:
    """prod over positive roots of sinh(j_k - j_i), k < i; zero on walls."""
    arr = np.asarray(j, dtype=float)
    out = np.ones(arr.shape[:-1]) * _sinh_product([arr[..., k] for k in range(arr.shape[-1])])
    return out if out.shape else float(out)


def _gap_threshold(region: CartanRegion, k: int) -> float:
    t = 0.0
    for pos, thr in region.gap_constraints:
        if pos == k:
            t = max(t, thr)
    return t


def _integrate(region: CartanRegion, cells: int) -> float:
    """Nested midpoint sum, one grid per free coordinate j_1, ..., j_{n-1}.

    j_n = -(j_1 + ... + j_{n-1}) is fixed by the trace condition.  The
    outer coordinates run over loose ranges (j_1 in [0, L], then j_{m+1}
    in [-j_m, j_m - T_m]); cells outside the region get an empty innermost
    interval.  The innermost coordinate j_{n-1} gets the exact interval
    cut out by the chamber, the gap cuts T_{n-2} and T_{n-1}, and for the
    symmetrized ball j_n >= -L.
    """
    n, l = region.n, region.log_x
    cut = [_gap_threshold(region, k) for k in range(n)]  # cut[k] = T_k; T_0 = 0
    offsets = np.arange(cells) + 0.5
    total = 0.0

    def walk(js, widths):
        nonlocal total
        m = len(js)
        if m < n - 2:  # outer coordinate j_{m+1}
            lo, hi = (-js[-1], js[-1] - cut[m]) if js else (0.0, l)
            if hi > lo:
                h = (hi - lo) / cells
                for p in (lo + h * offsets).tolist():
                    walk(js + [p], [h] + widths)
            return
        # innermost j_{n-1}: j_{n-1} >= j_n and the gap cuts on both sides.
        # The rounding order (coordinates subtracted one at a time, one
        # running total in grid order) is the one the pinned volumes used.
        lo = max(-sum(js) / 2, reduce(sub, js, cut[n - 1]) / 2)
        hi = js[-1] - cut[n - 2] if js else l
        if region.symmetrized and js:
            hi = min(hi, reduce(sub, js, l))
        if hi > lo:
            h = (hi - lo) / cells
            pts = lo + h * offsets
            dens = _sinh_product(js + [pts, reduce(sub, js, 0.0) - pts])
            total += reduce(mul, [h] + widths, float(dens.sum()))

    walk([], [])
    return total


def integrate_region_raw(region: CartanRegion, cells: int) -> float:
    """Plain midpoint estimate at the given per-dimension resolution."""
    if cells < 2:
        raise ConfigError("resolution must be >= 2")
    return _integrate(region, cells)


def integrate_region(region: CartanRegion, resolution: int = 512) -> float:
    """Richardson-extrapolated midpoint integral of the Haar density."""
    value, _ = integrate_region_with_error(region, resolution)
    return value


def integrate_region_with_error(region: CartanRegion, resolution: int = 512):
    """(value, est_error) from grids at resolution/2 and resolution."""
    if resolution < 64:
        raise ConfigError("resolution must be >= 64 grid points per dimension")
    if resolution > MAX_RESOLUTION:
        raise BudgetError(f"quadrature budget is resolution <= {MAX_RESOLUTION}, got {resolution}")
    # a density beyond the float range is inf or nan, reported once as the error below
    with np.errstate(over="ignore", invalid="ignore"):
        coarse = integrate_region_raw(region, resolution // 2)
        fine = integrate_region_raw(region, resolution)
        value = fine + (fine - coarse) / 3.0
    if not np.isfinite(value):
        raise ConfigError(f"region volume is not a finite float at log_x = {region.log_x}")
    return value, abs(fine - coarse) / 3.0


def gap_fraction(r_base: CartanRegion, gaps, resolution: int = 512) -> float:
    """Haar-volume fraction of the base region satisfying the gap cuts."""
    constrained = replace(r_base, gap_constraints=tuple(r_base.gap_constraints) + tuple(gaps))
    denom = integrate_region(r_base, resolution)
    if denom <= 0:
        raise ConfigError("base region has zero volume")
    return integrate_region(constrained, resolution) / denom
