"""Experiment orchestration: enumerate, sample, certify, cross-check, report.

A run walks a grid of radii; per radius it enumerates the ball, samples
generator pairs, measures trace/gap/proximality/certificate fractions,
runs the exact word oracle on every certified pair (any falsification
there aborts the run -- it would disprove the implementation, so it is an
invariant violation, not a data point) and on an equal-sized control
group of uncertified pairs, and attaches Lyapunov estimates for a few
sampled pairs.  Everything derives from the config seed, so a re-run is
byte-identical.
"""

from __future__ import annotations

import io
import math
import statistics
from dataclasses import MISSING, asdict, dataclass, fields
from fractions import Fraction

import numpy as np

from . import __version__, serialize
from .certify import (
    CROSS_SEPARATION,
    choose_k,
    hausdorff_upper_bound,
    ping_pong_pair,
    schottky_sl2,
)

from .dynamics import MAX_ORACLE_LEN, estimate_lyapunov, falsify_freeness
from .errors import BudgetError, ConfigError, InvariantViolation
from .matrices import IntMatrix, inverse
from .sampler import BallSpec, check_budget, enumerate_ball, norm_at_most, sample_pairs
from .spectral import svd, svd_batch

# unused here; kept as module attributes because bench/spans.py wraps them
from .certify import very_proximal  # noqa: F401
from .spectral import singular_gap  # noqa: F401

LYAPUNOV_PAIRS = 10
LYAPUNOV_M = 200
LYAPUNOV_TRIALS = 4

CSV_COLUMNS = [
    "x",
    "count_ball",
    "frac_trace_large",
    "frac_gapped",
    "frac_very_proximal",
    "frac_pingpong",
    "frac_schottky",
    "median_hausdorff_bound",
    "oracle_falsifications",
    "control_falsified",
    "lyapunov_mean",
]


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    x_grid: tuple
    symmetrized: bool
    pairs_per_x: int
    eps: float = 0.2
    r: float = 0.5
    eta: float = 5.0
    oracle_depth: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "pairs_per_x", "oracle_depth", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("eps", "r", "eta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if type(self.symmetrized) is not bool:
            raise ConfigError(f"symmetrized must be true or false, got {self.symmetrized!r}")
        if not isinstance(self.x_grid, (list, tuple)):
            raise ConfigError(f"x_grid must be an array of radii, got {self.x_grid!r}")
        object.__setattr__(self, "x_grid", tuple(self.x_grid))
        if not self.x_grid:
            raise ConfigError("x_grid must be non-empty")
        # reject a bad radius before any work
        specs = [BallSpec(self.n, x, self.symmetrized) for x in self.x_grid]
        if not 0 < self.eps < 0.25:
            raise ConfigError(f"need 0 < eps < 1/4, got {self.eps}")
        if not (math.isfinite(self.r) and math.isfinite(self.eta)):
            raise ConfigError(f"r and eta must be finite, got r = {self.r}, eta = {self.eta}")
        if not self.r > 2 * self.eps:
            raise ConfigError(f"need r > 2*eps, got r = {self.r}, eps = {self.eps}")
        if self.eta <= 1:
            raise ConfigError("eta must be > 1")
        if self.oracle_depth < 1:
            raise ConfigError("oracle_depth must be >= 1")
        if self.pairs_per_x < 1:
            raise ConfigError("pairs_per_x must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        # budgets last, so a malformed config is a config error at any size
        for spec in specs:
            check_budget(spec)
        if self.oracle_depth > MAX_ORACLE_LEN:
            raise BudgetError(
                f"oracle budget is oracle_depth <= {MAX_ORACLE_LEN}, got {self.oracle_depth}"
            )


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple
    provenance: dict


def _is_gapped(g: IntMatrix, eta: float, sigma=None) -> bool:
    """sigma_i(g) / sigma_{i+1}(g) >= eta^2 at every position i (n in {2, 3})."""
    if g.n == 2:
        # sigma_1/sigma_2 = sigma_1^2, so the exact ball predicate decides it.
        # Strict or not is moot: sigma_1 = eta = p/q > 1 needs the integer
        # ||g||_F^2 = eta^2 + eta^-2 = (p^4 + q^4)/(p^2 q^2), which it never is.
        return not norm_at_most(g, Fraction(eta))
    sigma = svd(g).sigma if sigma is None else sigma
    return all(sigma[i] / sigma[i + 1] >= eta * eta for i in range(g.n - 1))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    k = choose_k(cfg.n)
    rows = []
    for xi, x in enumerate(cfg.x_grid):
        enum = enumerate_ball(BallSpec(cfg.n, x, cfg.symmetrized))
        pairs = sample_pairs(enum, cfg.pairs_per_x, seed=[cfg.seed, xi])
        n_pairs = len(pairs)
        row = {"x": float(enum.spec.x), "count_ball": enum.count}
        del enum  # the ball array is the largest object of the radius
        # g1, g1^-1, g2, g2^-1 of each pair in one Jacobi pass; each exact inverse gets its own SVD
        mats = (m.entries for g1, g2 in pairs for m in (g1, inverse(g1), g2, inverse(g2)))
        svds = svd_batch(np.fromiter(mats, np.dtype((float, (cfg.n, cfg.n))), 4 * n_pairs))

        trace_large = 0
        gapped = 0
        very_prox = 0
        pingpong = 0
        schottky_count = 0
        certified_pairs = []
        uncertified_pairs = []
        hausdorff_bounds = []

        for pi, (g1, g2) in enumerate(pairs):
            if abs(g1.trace()) > 2 and abs(g2.trace()) > 2:
                trace_large += 1
            triples = svds[4 * pi : 4 * pi + 4]
            sigma = triples.sigma
            if _is_gapped(g1, cfg.eta, sigma[0]) and _is_gapped(g2, cfg.eta, sigma[2]):
                gapped += 1
            # both generators are checked before the cross separations, so
            # they are very proximal iff the verdict gets that far
            pp = ping_pong_pair(g1, g2, k, cfg.r, cfg.eps, triples)
            certified = pp.certificate is not None
            if certified or pp.reason == CROSS_SEPARATION:
                very_prox += 1
            if certified:
                pingpong += 1
            if cfg.n == 2:
                sc = schottky_sl2(g1, g2).certificate
                if sc is not None:
                    schottky_count += 1
                    certified = True
                    bound = hausdorff_upper_bound(sc.circles)
                    if bound is not None:
                        hausdorff_bounds.append(bound)
            if certified:
                certified_pairs.append((g1, g2))
            else:
                uncertified_pairs.append((g1, g2))

        falsifications = 0
        for g1, g2 in certified_pairs:
            word = falsify_freeness(g1, g2, cfg.oracle_depth)
            if word is not None:
                raise InvariantViolation(
                    "certified pair falsified by the exact word oracle: "
                    f"word {word!r} is the identity for g1 = {g1}, g2 = {g2} "
                    f"(x = {x}, seed = {cfg.seed})"
                )
        control_falsified = 0
        for g1, g2 in uncertified_pairs[: len(certified_pairs)]:
            if falsify_freeness(g1, g2, cfg.oracle_depth) is not None:
                control_falsified += 1

        lyap_means = []
        for pi, (g1, g2) in enumerate(pairs[:LYAPUNOV_PAIRS]):
            gens = [g1, inverse(g1), g2, inverse(g2)]
            est = estimate_lyapunov(
                gens, LYAPUNOV_M, LYAPUNOV_TRIALS, cfg.seed, extra_key=(xi, pi)
            )
            lyap_means.append(est.mean)

        rows.append(
            {
                **row,
                "frac_trace_large": trace_large / n_pairs,
                "frac_gapped": gapped / n_pairs,
                "frac_very_proximal": very_prox / n_pairs,
                "frac_pingpong": pingpong / n_pairs,
                "frac_schottky": (schottky_count / n_pairs) if cfg.n == 2 else None,
                "median_hausdorff_bound": (
                    statistics.median(hausdorff_bounds) if hausdorff_bounds else None
                ),
                "oracle_falsifications": falsifications,
                "control_falsified": control_falsified,
                "lyapunov_mean": (
                    sum(lyap_means) / len(lyap_means) if lyap_means else None
                ),
            }
        )

    # gap thresholds imply contraction thresholds only when eta <= 1/eps
    if cfg.eta <= 1.0 / cfg.eps:
        for row in rows:
            chain = (
                row["frac_pingpong"] <= row["frac_very_proximal"] + 1e-12
                and row["frac_very_proximal"] <= row["frac_gapped"] + 1e-12
            )
            if not chain:
                raise InvariantViolation(
                    f"fraction chain violated at x = {row['x']}: {row}"
                )

    provenance = {
        "config": asdict(cfg),
        "version": __version__,
        # wall-clock timing stays out of the canonical report so identical
        # configs re-emit byte-identical files
        "timing_seconds": None,
    }
    return ExperimentReport(tuple(rows), provenance)


def report_to_json(rep: ExperimentReport) -> str:
    # rows are built in CSV_COLUMNS order; canonical_json writes tuples as lists
    return serialize.canonical_json({"rows": list(rep.rows), "provenance": rep.provenance})


def report_to_csv(rep: ExperimentReport) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rep.rows:
        cells = []
        for col in CSV_COLUMNS:
            v = row[col]
            if v is None:
                cells.append("")
            elif isinstance(v, int):
                cells.append(str(v))
            else:
                cells.append(serialize.format_float(v))
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def emit_report(rep: ExperimentReport, fmt: str, path: str | None = None) -> str:
    """Render the report as 'csv' or 'json'; optionally write it to path."""
    if fmt == "csv":
        text = report_to_csv(rep)
    elif fmt == "json":
        text = report_to_json(rep)
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {path}: {exc}") from exc
    return text


def config_from_obj(obj) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("experiment config must be a JSON object")
    unknown = set(obj) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {f.name for f in fields(ExperimentConfig) if f.default is MISSING} - set(obj)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    try:
        return ExperimentConfig(**obj)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
