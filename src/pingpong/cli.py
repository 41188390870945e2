"""Command-line interface.

Subcommands mirror the library surface: enumerate, certify, schottky,
hausdorff, oracle, lyapunov, wordstats, volume, experiment.  All output
is JSON on stdout (reports may also be CSV); exit codes are 0 ok,
2 config error, 3 budget error or non-convergence, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict

from . import serialize
from .certify import Circle, choose_k, hausdorff_upper_bound, ping_pong_pair, schottky_sl2
from .dynamics import estimate_lyapunov, falsify_freeness, reduced_length_stats
from .errors import BudgetError, ConfigError, ConvergenceError, InvariantViolation
from .harness import config_from_obj, emit_report, run_experiment
from .matrices import inverse
from .sampler import BallSpec, enumerate_ball


def _emit(obj):
    sys.stdout.write(serialize.canonical_json(obj))


def _witness_obj(w):
    return {
        "epsilon": w.epsilon,
        "k": w.k,
        "gap": w.gap,
        "attractor": [float(c) for c in w.v],
        "repeller_normal": [float(c) for c in w.h],
    }


def cmd_enumerate(args):
    spec = BallSpec(args.n, args.X, args.symmetrized)
    enum = enumerate_ball(spec)
    if args.members_out:
        with open(args.members_out, "w") as fh:
            # one row at a time, so no IntMatrix and no list of the whole ball
            for m in enum.entries:
                fh.write(json.dumps(serialize.matrix_to_obj(m.tolist())) + "\n")
    _emit(
        {
            "n": spec.n,
            "x": str(spec.x),
            "symmetrized": spec.symmetrized,
            "count": enum.count,
            "members_file": args.members_out,
        }
    )


def cmd_certify(args):
    g1, g2 = serialize.load_pair(args.pair)
    k = args.k if args.k is not None else choose_k(g1.n)
    verdict = ping_pong_pair(g1, g2, k, args.r, args.eps)
    cert = verdict.certificate
    if cert is None:
        _emit(
            {
                "certified": False,
                "reason": verdict.reason,
                "k": k,
                "eps": args.eps,
                "r": args.r,
            }
        )
        return
    _emit(
        {
            "certified": True,
            "kind": "ping-pong",
            "k": k,
            "eps": cert.epsilon,
            "r": cert.r,
            "min_separation": cert.min_separation,
            "witnesses": [_witness_obj(w) for w in cert.witnesses],
        }
    )


def cmd_schottky(args):
    g1, g2 = serialize.load_pair(args.pair)
    verdict = schottky_sl2(g1, g2)
    cert = verdict.certificate
    if cert is None:
        _emit({"certified": False, "reason": verdict.reason})
        return
    _emit(
        {
            "certified": True,
            "kind": "schottky",
            "traces": list(cert.traces),
            "fixed_points": list(cert.fixed_points),
            "circles": [{"center": c.center, "radius": c.radius} for c in cert.circles],
            "min_gap": cert.min_gap,
            "hausdorff_upper_bound": hausdorff_upper_bound(cert.circles),
        }
    )


def cmd_hausdorff(args):
    obj = serialize.load_json(args.certificate)
    try:
        circles = tuple(Circle(float(c["center"]), float(c["radius"])) for c in obj["circles"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"not a valid Schottky certificate: {exc}") from exc
    # the bound is for the four circles of a rank-2 Schottky certificate
    if len(circles) != 4 or not all(
        math.isfinite(c.center) and math.isfinite(c.radius) and c.radius > 0 for c in circles
    ):
        raise ConfigError(
            "a Schottky certificate has exactly four circles, each with a finite center "
            "and a finite positive radius"
        )
    bound = hausdorff_upper_bound(circles)
    _emit({"bound": bound, "vacuous": bound is None})


def cmd_oracle(args):
    g1, g2 = serialize.load_pair(args.pair)
    word = falsify_freeness(g1, g2, args.max_len)
    _emit(
        {
            "max_len": args.max_len,
            "relation": word,
            "free_up_to_depth": word is None,
        }
    )


def cmd_lyapunov(args):
    g1, g2 = serialize.load_pair(args.pair)
    gens = [g1, inverse(g1), g2, inverse(g2)]
    est = estimate_lyapunov(gens, args.m, args.trials, args.seed)
    _emit(asdict(est))


def cmd_wordstats(args):
    stats = reduced_length_stats(args.m, args.trials, args.seed)
    obj = asdict(stats)
    # the claimed high-probability reduced-length fraction, for comparison
    obj["reference_ratio_three_quarters"] = 0.75
    _emit(obj)


def cmd_volume(args):
    from .haar import CartanRegion, integrate_region_with_error

    gaps = []
    if args.gaps:
        for part in args.gaps.split(","):
            k, _, t = part.partition(":")
            try:
                gaps.append((int(k), float(t)))
            except ValueError as exc:
                raise ConfigError(f"--gaps entry {part!r} is not k:T") from exc
    region = CartanRegion(args.n, args.logX, args.symmetrized, tuple(gaps))
    value, err = integrate_region_with_error(region, args.resolution)
    _emit({"value": value, "est_error": err})


def cmd_experiment(args):
    cfg = config_from_obj(serialize.load_json(args.config))
    start = time.time()
    rep = run_experiment(cfg)
    elapsed = time.time() - start
    text = emit_report(rep, args.format, args.out)
    if args.out:
        print(f"report written to {args.out} ({elapsed:.1f} s)", file=sys.stderr)
    else:
        sys.stdout.write(text)
        print(f"experiment finished in {elapsed:.1f} s", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pingpong", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    e = sub.add_parser("enumerate", help="enumerate a norm ball in SL_n(Z)")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--X", type=str, required=True)
    e.add_argument("--symmetrized", action="store_true")
    e.add_argument("--members-out", type=str, default=None)
    e.set_defaults(func=cmd_enumerate)

    c = sub.add_parser("certify", help="ping-pong certificate for a pair")
    c.add_argument("--pair", type=str, required=True)
    c.add_argument("--k", type=int, default=None)
    c.add_argument("--eps", type=float, default=0.2)
    c.add_argument("--r", type=float, default=0.5)
    c.set_defaults(func=cmd_certify)

    s = sub.add_parser("schottky", help="Schottky certificate for an SL_2 pair")
    s.add_argument("--pair", type=str, required=True)
    s.set_defaults(func=cmd_schottky)

    h = sub.add_parser("hausdorff", help="dimension bound from a Schottky certificate")
    h.add_argument("--certificate", type=str, required=True)
    h.set_defaults(func=cmd_hausdorff)

    o = sub.add_parser("oracle", help="exact search for a relation")
    o.add_argument("--pair", type=str, required=True)
    o.add_argument("--max-len", type=int, default=8)
    o.set_defaults(func=cmd_oracle)

    ly = sub.add_parser("lyapunov", help="Lyapunov exponent estimate for a pair")
    ly.add_argument("--pair", type=str, required=True)
    ly.add_argument("--m", type=int, default=200)
    ly.add_argument("--trials", type=int, default=8)
    ly.add_argument("--seed", type=int, default=0)
    ly.set_defaults(func=cmd_lyapunov)

    wsp = sub.add_parser("wordstats", help="reduced-length statistics of random words")
    wsp.add_argument("--m", type=int, required=True)
    wsp.add_argument("--trials", type=int, default=10000)
    wsp.add_argument("--seed", type=int, default=0)
    wsp.set_defaults(func=cmd_wordstats)

    v = sub.add_parser("volume", help="Haar volume of a Cartan region")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--logX", type=float, required=True)
    v.add_argument("--symmetrized", action="store_true")
    v.add_argument("--gaps", type=str, default="", help="k:T,k:T gap constraints")
    v.add_argument("--resolution", type=int, default=512)
    v.set_defaults(func=cmd_volume)

    x = sub.add_parser("experiment", help="run a full experiment from a JSON config")
    x.add_argument("--config", type=str, required=True)
    x.add_argument("--format", choices=("csv", "json"), default="csv")
    x.add_argument("--out", type=str, default=None)
    x.set_defaults(func=cmd_experiment)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
