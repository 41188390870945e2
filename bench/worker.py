"""One benchmark run of the pingpong experiment, in a fresh interpreter.

Takes one JSON argument from ``run.py``:

    {"spawn_ns": <parent's time.monotonic_ns() just before the spawn>,
     "mode": "setup" | "plain" | "traced",
     "config": <experiment config object>,
     "run_id": ..., "sidecar": ..., "context": ...}   # traced mode only

and prints one JSON line with what it measured.  ``setup_s`` runs from
the spawn to ``pingpong`` imported and the config parsed; "setup" mode
stops there.  The other modes run ``run_experiment`` and ``emit_report``
as the ``pingpong experiment`` command does; "traced" mode first wraps
the layers in spans (see spans.py) and writes them to the sidecar file.
"""

import hashlib
import json
import resource
import sys
import time


def main():
    job = json.loads(sys.argv[1])
    from pingpong import harness

    cfg = harness.config_from_obj(job["config"])
    setup_s = (time.monotonic_ns() - job["spawn_ns"]) / 1e9
    if job["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if job["mode"] == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.instrument()
    start = time.perf_counter()
    rep = harness.run_experiment(cfg)
    experiment_s = time.perf_counter() - start
    csv = harness.emit_report(rep, "csv")

    import numpy

    out = {
        "setup_s": setup_s,
        "experiment_s": experiment_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counts": [row["count_ball"] for row in rep.rows],
        "oracle_falsifications": [row["oracle_falsifications"] for row in rep.rows],
        "csv_sha256": hashlib.sha256(csv.encode()).hexdigest(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer.spans)
        context = dict(job["context"], numpy=numpy.__version__)
        tracer.write(job["sidecar"], job["run_id"], {"context": context})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
