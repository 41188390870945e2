"""Smoke test of the benchmark: every workload in a reduced form, untraced and traced.

Run with ``python3 -m pytest -q bench``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# not run.DEFAULT_SEED, so only the seed-independent gates apply
SEED = 11


def _reduced(name, x_grid, pairs, counts):
    cfg = {**run.WORKLOADS[name].config, "x_grid": x_grid, "pairs_per_x": pairs}
    return run.Workload(cfg, counts)


REDUCED = {
    "sl2-grid": _reduced("sl2-grid", [5, 10, 20], 100, (132, 580, 2356)),
    "sl2-wide": _reduced("sl2-wide", [60], 200, (21316,)),
    "sl3-sym": _reduced("sl3-sym", [2], 50, (888,)),
}


def _spans(path: Path) -> dict:
    spans = {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if "context" not in rec:
            spans[rec["run"], rec["id"]] = rec
    return spans


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduced_workload(name, trace, capsys):
    argv = ["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, workloads=REDUCED) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + trace

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    if trace:
        spans = _spans(run.OUT / f"{name}.trace.jsonl")
        roots = {s["name"] for s in spans.values() if s["parent"] is None}
        assert roots == {"harness.run_experiment", "harness.emit_report"}
        nested = [s for s in spans.values() if s["parent"] is not None]
        assert nested
        for s in nested:
            parent = spans[s["run"], s["parent"]]
            assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]
