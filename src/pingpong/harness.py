"""Experiment orchestration: enumerate, sample, certify, cross-check, report.

A run walks a grid of radii; per radius it enumerates the ball, samples
generator pairs, measures trace/gap/proximality/certificate fractions,
runs the exact word oracle on every certified pair (any falsification
there aborts the run -- it would disprove the implementation, so it is an
invariant violation, not a data point) and on an equal-sized control
group of uncertified pairs, and attaches Lyapunov estimates for a few
sampled pairs.  Everything derives from the config seed, so a re-run is
byte-identical.  Each radius only calls library passes (``sampler.gapped`` for the
gaps, ``decide_pairs`` for the codes), and only Lyapunov takes an SVD.
"""

from __future__ import annotations

import io
import statistics
import sys
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import __version__, serialize
from .certify import CERTIFIED, SCHOTTKY_CERTIFIED, VERY_PROXIMAL, check_r_eps, decide_pairs
from .certify import choose_k, decide_schottky, hausdorff_bounds, isometric_circles, with_inverses
from .dynamics import MAX_ORACLE_LEN, find_relations, lyapunov_estimates
from .errors import BudgetError, ConfigError, InvariantViolation
from .matrices import IntMatrix
from .sampler import BallSpec, check_budget, enumerate_ball, gapped, sample_pairs

# unused here; kept as module attributes because bench/spans.py wraps them
from .certify import hausdorff_upper_bound, ping_pong_pair, schottky_sl2  # noqa: F401
from .certify import very_proximal  # noqa: F401
from .dynamics import estimate_lyapunov, falsify_freeness  # noqa: F401
from .matrices import inverse  # noqa: F401
from .spectral import singular_gap  # noqa: F401

LYAPUNOV_PAIRS = 10
LYAPUNOV_M = 200
LYAPUNOV_TRIALS = 4
MAX_PAIRS = 10**5  # pairs_per_x; 2 * 10^8 would be 1.6 GB of indices alone

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
        check_r_eps(self.r, self.eps)
        if not 1 < self.eta <= sys.float_info.max:
            raise ConfigError(f"need eta > 1 among the finite floats, got {self.eta}")
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
        if self.pairs_per_x > MAX_PAIRS:
            raise BudgetError(
                f"sampling budget is pairs_per_x <= {MAX_PAIRS}, got {self.pairs_per_x}"
            )


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple
    provenance: dict


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    k = choose_k(cfg.n)
    rows = []
    for xi, x in enumerate(cfg.x_grid):
        enum = enumerate_ball(BallSpec(cfg.n, x, cfg.symmetrized))
        pairs = sample_pairs(enum, cfg.pairs_per_x, seed=[cfg.seed, xi])  # (P, 2, n, n) int64
        n_pairs = len(pairs)
        row = {"x": float(enum.spec.x), "count_ball": enum.count}
        del enum  # else its n = 3 array or n = 2 tables live on through the radius's peak
        quads = with_inverses(pairs.reshape(-1, cfg.n, cfg.n))  # g1, g1^-1, g2, g2^-1
        code = decide_pairs(quads, k, cfg.r, cfg.eps)
        quads = quads.reshape(n_pairs, 4, cfg.n, cfg.n)

        trace_large = int((abs(pairs.trace(axis1=2, axis2=3)) > 2).all(axis=1).sum())
        f = np.einsum("...ij,...ij->...", quads, quads)  # ||g||_F^2 of g1, g1^-1, g2, g2^-1
        gapped_count = int(gapped(cfg.n, f[:, 0::2], f[:, 1::2], cfg.eta).all(axis=1).sum())
        very_prox = int((code >= VERY_PROXIMAL).sum())
        certified = code == CERTIFIED
        pingpong = int(certified.sum())
        bounds = []
        if cfg.n == 2:
            schottky = decide_schottky(pairs) == SCHOTTKY_CERTIFIED
            schottky_count = int(schottky.sum())
            circles = isometric_circles(pairs[schottky])  # C1..C4 of each certified pair
            bounds = [b for b in hausdorff_bounds(*circles) if b is not None]
            certified |= schottky

        # the control group is the first len(chosen) uncertified pairs in sample order
        chosen, control = certified.nonzero()[0], (~certified).nonzero()[0]
        for i, word in zip(chosen, find_relations(quads[chosen], cfg.oracle_depth)):
            if word is not None:
                g1, g2 = (IntMatrix.from_rows(m) for m in pairs[i].tolist())
                raise InvariantViolation(
                    "certified pair falsified by the exact word oracle: "
                    f"word {word!r} is the identity for g1 = {g1}, g2 = {g2} "
                    f"(x = {x}, seed = {cfg.seed})"
                )
        relations = find_relations(quads[control[: len(chosen)]], cfg.oracle_depth)
        control_falsified = sum(word is not None for word in relations)

        gens = quads[:LYAPUNOV_PAIRS].astype(float)  # g1, g1^-1, g2, g2^-1
        keys = [(xi, pi) for pi in range(len(gens))]
        estimates = lyapunov_estimates(gens, LYAPUNOV_M, LYAPUNOV_TRIALS, cfg.seed, keys)
        lyap_means = estimates.mean(axis=1).tolist()

        rows.append(
            {
                **row,
                "frac_trace_large": trace_large / n_pairs,
                "frac_gapped": gapped_count / n_pairs,
                "frac_very_proximal": very_prox / n_pairs,
                "frac_pingpong": pingpong / n_pairs,
                "frac_schottky": (schottky_count / n_pairs) if cfg.n == 2 else None,
                "median_hausdorff_bound": statistics.median(bounds) if bounds else None,
                "oracle_falsifications": 0,  # a falsification raises above
                "control_falsified": control_falsified,
                "lyapunov_mean": sum(lyap_means) / len(lyap_means),
            }
        )
        # gap thresholds imply contraction thresholds only when eta <= 1/eps
        if cfg.eta <= 1.0 / cfg.eps and not pingpong <= very_prox <= gapped_count:
            raise InvariantViolation(f"fraction chain violated at x = {row['x']}: {rows[-1]}")

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


def _csv_cell(v) -> str:
    return "" if v is None else str(v) if isinstance(v, int) else serialize.format_float(v)


def report_to_csv(rep: ExperimentReport) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rep.rows:
        out.write(",".join(_csv_cell(row[col]) for col in CSV_COLUMNS) + "\n")
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
