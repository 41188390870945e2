"""Spans around the calls into pingpong's layers, and the metrics they give.

A span is recorded by replacing a function's binding in the module that
calls it.  A call resolves through the name its caller imported, so every
binding a call goes through is wrapped: ``ping_pong_pair`` reaches
``very_proximal`` through ``pingpong.certify``, the harness through
``pingpong.harness``.  Each wrapper calls the original function, never
another wrapper, so no call is counted twice.  Spans stay in memory until
the run ends; nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

# binding module -> names looked up there on the experiment path
BINDINGS = {
    "harness": (
        "run_experiment",
        "emit_report",
        "enumerate_ball",
        "sample_pairs",
        "singular_gap",
        "very_proximal",
        "ping_pong_pair",
        "schottky_sl2",
        "hausdorff_upper_bound",
        "falsify_freeness",
        "estimate_lyapunov",
        "inverse",
    ),
    "certify": ("very_proximal", "svd", "inverse", "attractor_repeller"),
    "wedge": ("svd",),
}

# what a span keeps of its call besides timing; by default whether the
# call returned a verdict (certificate, witness or relation) or None
NOTES = {
    "sampler.enumerate_ball": lambda args, result: result.count,
    "spectral.svd": lambda args, result: args[0].entries,
}


def _accepted(args, result):
    return result is not None


class Tracer:
    """Records one span per wrapped call: [name, start_ns, end_ns, parent, note].

    ``parent`` is the index of the innermost enclosing span, or None.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int | None] = [None]

    def wrap(self, module, attr: str):
        fn = getattr(module, attr)
        name = f"{fn.__module__.removeprefix('pingpong.')}.{fn.__name__}"
        note = NOTES.get(name, _accepted)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, open_[-1], None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                span[2] = clock()
            span[4] = note(args, result)
            return result

        setattr(module, attr, traced)

    def instrument(self):
        for mod, attrs in BINDINGS.items():
            module = importlib.import_module(f"pingpong.{mod}")
            for attr in attrs:
                self.wrap(module, attr)

    def write(self, path, run_id: str, header: dict):
        """Append the header, then one JSON line per span, to a sidecar file."""
        with open(path, "a") as fh:
            fh.write(json.dumps({"run": run_id, **header}) + "\n")
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "run": run_id,
                            "note": note,
                        }
                    )
                    + "\n"
                )


def _quantile(values, q: int) -> float:
    """q-th percentile; 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans) -> dict:
    """Per-layer counts, seconds and ratios, named <module>.<function>.<stat>.

    ``self_s`` is a span's duration minus the durations of its direct child
    spans; ``share`` divides by the traced ``run_experiment`` span.  Ratios
    over no calls are reported as 0.
    """
    by_name = defaultdict(list)
    covered = [0] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        by_name[name].append(i)
        if parent is not None:
            covered[parent] += end - start

    def calls(name):
        return len(by_name[name])

    def durations(name):
        return [spans[i][2] - spans[i][1] for i in by_name[name]]

    def total_s(name):
        return sum(durations(name)) / 1e9

    def self_s(name):
        return sum(spans[i][2] - spans[i][1] - covered[i] for i in by_name[name]) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    def accept_ratio(name):
        return ratio(sum(1 for i in by_name[name] if spans[i][4]), calls(name))

    experiment_s = total_s("harness.run_experiment")
    members = sum(spans[i][4] for i in by_name["sampler.enumerate_ball"])
    distinct = len({spans[i][4] for i in by_name["spectral.svd"]})
    oracle_ms = sorted(d / 1e6 for d in durations("dynamics.falsify_freeness"))
    vp_nested = sum(
        1
        for i in by_name["certify.very_proximal"]
        if spans[i][3] is not None and spans[spans[i][3]][0] == "certify.ping_pong_pair"
    )

    out = {
        "sampler.enumerate_ball.calls": calls("sampler.enumerate_ball"),
        "sampler.enumerate_ball.s": total_s("sampler.enumerate_ball"),
        "sampler.enumerate_ball.share": ratio(total_s("sampler.enumerate_ball"), experiment_s),
        "sampler.members": members,
        "sampler.members_per_s": ratio(members, total_s("sampler.enumerate_ball")),
        "sampler.sample_pairs.s": total_s("sampler.sample_pairs"),
        "spectral.svd.calls": calls("spectral.svd"),
        "spectral.svd.s": total_s("spectral.svd"),
        "spectral.svd.distinct": distinct,
        "spectral.svd.calls_per_distinct": ratio(calls("spectral.svd"), distinct),
        "spectral.singular_gap.calls": calls("spectral.singular_gap"),
        "spectral.singular_gap.s": total_s("spectral.singular_gap"),
        "wedge.attractor_repeller.calls": calls("wedge.attractor_repeller"),
        "wedge.attractor_repeller.self_s": self_s("wedge.attractor_repeller"),
        "certify.very_proximal.calls_in_ping_pong_pair": vp_nested,
        "certify.hausdorff_upper_bound.calls": calls("certify.hausdorff_upper_bound"),
        "dynamics.falsify_freeness.calls": calls("dynamics.falsify_freeness"),
        "dynamics.falsify_freeness.s": total_s("dynamics.falsify_freeness"),
        "dynamics.falsify_freeness.share": ratio(
            total_s("dynamics.falsify_freeness"), experiment_s
        ),
        "dynamics.falsify_freeness.p50_ms": _quantile(oracle_ms, 50),
        "dynamics.falsify_freeness.p99_ms": _quantile(oracle_ms, 99),
        "dynamics.falsify_freeness.relation_ratio": accept_ratio("dynamics.falsify_freeness"),
        "dynamics.estimate_lyapunov.calls": calls("dynamics.estimate_lyapunov"),
        "dynamics.estimate_lyapunov.s": total_s("dynamics.estimate_lyapunov"),
        "matrices.inverse.calls": calls("matrices.inverse"),
        "matrices.inverse.s": total_s("matrices.inverse"),
        "harness.run_experiment.self_s": self_s("harness.run_experiment"),
        "harness.emit_report.s": total_s("harness.emit_report"),
    }
    for name in ("certify.very_proximal", "certify.ping_pong_pair", "certify.schottky_sl2"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.accept_ratio"] = accept_ratio(name)
    return out
