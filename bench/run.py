#!/usr/bin/env python3
"""Benchmark of the pingpong genericity experiment (stdlib only).

    python3 bench/run.py --workload sl2-grid --seed 7 --seconds 40 --trace 0

Runs the ``pingpong experiment`` path (config_from_obj -> run_experiment
-> emit_report) on one named workload as a closed loop with one client:
one experiment at a time, each in a fresh interpreter (worker.py) with
BLAS threads pinned to 1, the next started only after the previous one
has ended and only while it is expected to finish within --seconds.  A
run makes at least one experiment, two when traced.  Every experiment
passes the correctness gate or counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from plain
experiments.  --trace 1 alternates plain and traced experiments, reports
the per-layer metrics and writes the spans of the traced experiments to
bench/out/<workload>.trace.jsonl, replacing the file of the last traced
run.  The last line of stdout is the JSON result; the lines before it
hold the context block and a readable summary.  README.md says why each
workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 7
# setup_s is the median over these probes and the experiments' own set-up;
# one more probe before them fills the bytecode caches and is discarded
SETUP_PROBES = 7
# a run must end within 180 s whatever its workers do
HARD_LIMIT_S = 170.0
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    config: dict  # experiment config without the seed
    counts: tuple  # count_ball per radius, the same for every seed
    digest: str | None = None  # sha256 of the CSV report at DEFAULT_SEED


_ACCEPTANCE = {"eps": 0.2, "r": 0.5, "eta": 5.0, "oracle_depth": 8}

WORKLOADS = {
    "sl2-grid": Workload(
        {"n": 2, "x_grid": [20, 60, 180], "symmetrized": False, "pairs_per_x": 1000, **_ACCEPTANCE},
        (2356, 21316, 194116),
        "752218d8dc359eda888fc00bc3b0eda3c0349e826bb73253f823b3492f060621",
    ),
    "sl2-wide": Workload(
        {"n": 2, "x_grid": [500], "symmetrized": False, "pairs_per_x": 2000, **_ACCEPTANCE},
        (1500740,),
        "5d8c142fa3dd97d9ab88e79cc0ca87e50428c5fdf6959daee712f3fb14a04ecb",
    ),
    "sl3-sym": Workload(
        {"n": 3, "x_grid": [4], "symmetrized": True, "pairs_per_x": 1000, **_ACCEPTANCE},
        (26232,),
        "9cb48ad1f52410783099fbe347f57883188323018ed61bf7cdd986b0d9e944b7",
    ),
}


class RunFailed(Exception):
    """An experiment raised, timed out or failed the correctness gate."""


def _worker_env() -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC), **{v: "1" for v in BLAS_THREAD_VARS}}
    # a ball cache on disk would skip the enumeration being measured
    env.pop("PINGPONG_CACHE_DIR", None)
    return env


def spawn(job: dict, timeout: float) -> dict:
    """Run worker.py on job in a fresh interpreter; return its JSON result."""
    argv = [sys.executable, str(BENCH / "worker.py")]
    try:
        proc = subprocess.run(
            argv + [json.dumps({**job, "spawn_ns": time.monotonic_ns()})],
            env=_worker_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker still running after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RunFailed(f"worker printed no result: {exc}") from exc


def check(result: dict, workload: Workload, seed: int, digest: str | None):
    """Raise RunFailed unless the report passes the correctness gate.

    digest is the CSV digest of the run's first report: every report of
    one seed must be byte-identical.
    """
    if result["counts"] != list(workload.counts):
        raise RunFailed(f"count_ball {result['counts']} != pinned {list(workload.counts)}")
    if any(result["oracle_falsifications"]):
        raise RunFailed(f"oracle_falsifications {result['oracle_falsifications']}")
    sha = result["csv_sha256"]
    if digest is not None and sha != digest:
        raise RunFailed(f"CSV digest {sha} differs from this run's first report {digest}")
    if seed == DEFAULT_SEED and workload.digest and sha != workload.digest:
        raise RunFailed(f"CSV digest {sha} != pinned {workload.digest} at seed {seed}")


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool, context: dict):
    """Closed loop of experiments; returns (setups, plain, traced, failed, attempted)."""
    start = time.monotonic()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    cfg = {**workload.config, "seed": seed}
    min_experiments = 2 if trace else 1
    setups = []
    sidecar = OUT / f"{name}.trace.jsonl"
    if trace:
        OUT.mkdir(exist_ok=True)
        sidecar.unlink(missing_ok=True)
    else:
        for probe in range(SETUP_PROBES + 1):
            s = spawn({"mode": "setup", "config": cfg}, hard - time.monotonic())["setup_s"]
            if probe:
                setups.append(s)
    plain, traced, walls = [], [], []
    failed, digest = 0, None
    while True:
        k = len(walls)
        job = {"mode": "plain", "config": cfg}
        if trace and k % 2 == 1:
            job.update(
                mode="traced",
                run_id=f"{name}-seed{seed}-{k}",
                sidecar=str(sidecar),
                context=context,
            )
        t0 = time.monotonic()
        try:
            result = spawn(job, hard - t0)
            check(result, workload, seed, digest)
            digest = result["csv_sha256"]
            (traced if job["mode"] == "traced" else plain).append(result)
        except RunFailed as exc:
            failed += 1
            print(f"{name} seed {seed} experiment {k} failed: {exc}", file=sys.stderr)
        now = time.monotonic()
        walls.append(now - t0)
        if now >= hard or (
            len(walls) >= min_experiments and now + statistics.median(walls) > deadline
        ):
            return setups, plain, traced, failed, len(walls)


def end_to_end(setups: list, plain: list) -> dict:
    return {
        "experiment_s": statistics.median(r["experiment_s"] for r in plain),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain: list, traced: list) -> dict:
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    out["trace.overhead"] = (
        statistics.median(r["experiment_s"] for r in traced)
        / statistics.median(r["experiment_s"] for r in plain)
        - 1
    )
    return out


def context_block() -> dict:
    """Facts about the code and host; recorded, never gated."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "git_sha": sha or None,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "pingpong").glob("*.py"))
        ),
    }


def main(argv=None, workloads=WORKLOADS) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "pingpong" / "__init__.py").is_file():
        print(f"no pingpong sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    context = context_block()
    try:
        setups, plain, traced, failed, attempted = measure(
            args.workload, workloads[args.workload], args.seed, args.seconds, args.trace, context
        )
    except RunFailed as exc:
        print(f"set-up probe failed: {exc}", file=sys.stderr)
        return 1
    if not plain or (args.trace and not traced):
        print("no experiment passed, so there is nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        values, section = per_layer(plain, traced), spec["per_layer"]
    else:
        values, section = end_to_end(setups, plain), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}

    print(json.dumps({"context": {**context, "numpy": plain[0]["numpy"]}}))
    print(
        f"{args.workload} seed {args.seed}: {len(plain)} plain and {len(traced)} traced "
        f"experiments, {len(setups)} set-up probes"
    )
    print("  plain experiment_s: " + ", ".join(f"{r['experiment_s']:.3f}" for r in plain) + " s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  runs_failed = {failed / attempted:.6g} share ({failed} of {attempted})")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
