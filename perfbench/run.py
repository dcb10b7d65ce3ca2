#!/usr/bin/env python3
"""dp3kit benchmark: one seeded workload, timed, checked, reported.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports dp3 from its ``src/``.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs every item twice, untraced then traced, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The other lines
name every metric with its unit and record the environment.  See README.md
in this directory for why each workload exists.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark is one client in one thread, and the
# level solves call LAPACK
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# a run keeps drawing items until --seconds have passed and at least this
# many items are done, so the tail percentile always has items beyond it
MIN_ITEMS = 20
# traced runs report counts per item over this many first items, so the
# same seed gives exactly the same counts; six covers every solve class
COUNT_ITEMS = 6
# set-up is repeated in this many fresh processes; setup_s is the median
SETUP_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "item_s.p50": "s",
    "item_s.tail": "s",
    "items_per_s": "1/s",
    "digits_min": "digits",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "series.power_coeffs.calls": "count",
    "series.power_coeffs.self_s": "s",
    "series.reglog_coeffs.self_s": "s",
    "series.irreglog_coeffs.self_s": "s",
    "series.coeffs_per_s": "1/s",
    "series.eval_expansion.calls": "count",
    "series.eval_expansion.us_per_call": "us",
    "genfun.calls": "count",
    "genfun.self_s": "s",
    "kernels.calls": "count",
    "kernels.accepted_steps": "count",
    "kernels.us_per_step": "us",
    "kernels.self_s": "s",
    "kernels.guard_trips": "count",
    "kernels.stalls": "count",
    "dynamics.integrate.self_s": "s",
    "dynamics.fit.calls": "count",
    "dynamics.fit.self_s": "s",
    "dynamics.fit.residual_max": "ratio",
    "dynamics.arc.calls": "count",
    "dynamics.arc.steps": "count",
    "dynamics.census.probe_yield": "ratio",
    "dynamics.steps_per_pole": "count",
    "dynamics.lattice_orbit.self_s": "s",
    "asymptotics.self_s": "s",
    "asymptotics.build_profile.calls": "count",
    "monodromy.self_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
    "fail_ratio": "ratio",
}


def _import_dp3():
    """Import dp3 from this checkout's src/, never from anywhere else."""
    if not (SRC / "dp3" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dp3 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import dp3

    if Path(dp3.__file__).resolve().parent != SRC / "dp3":
        raise SystemExit(f"perfbench: imported dp3 from {dp3.__file__}, not {SRC}")


def setup(workload: str):
    """Import dp3 and the workload, warm up its code paths, and return
    (draw, run).  Inputs are drawn per item, outside the item's timing."""
    _import_dp3()
    import workloads

    workloads.warm_up(workload)
    return workloads.WORKLOADS[workload]


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: host speed, for diagnosis only;
    no metric is ever divided by it."""
    t0 = time.perf_counter()
    acc = 0j
    z = 0.999 + 0.001j
    for _ in range(200_000):
        acc = acc * z + 1
    return time.perf_counter() - t0


def environment(seed: int) -> dict:
    import numpy
    from dp3 import kernels

    try:
        # the ceiling keeps git from reading a repository above the checkout
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "n/a"
    except (OSError, subprocess.TimeoutExpired):
        describe = "n/a"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": "numba" if kernels.NUMBA_ENABLED else "python",
        "nproc": len(os.sched_getaffinity(0)),
        "git_describe": describe,
        "seed": seed,
    }


def child_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of one fresh process, measured inside it from before its
    first dp3 import to the end of the warm-up."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND items
    beyond it; with too few items, the maximum at its own percentile."""
    s = sorted(values)
    j = len(s) - TAIL_BEYOND - 1 if len(s) > TAIL_BEYOND else len(s) - 1
    return s[j], 100.0 * (j + 1) / len(s)


def run_loop(draw, run, seed, seconds, tracer=None):
    """Closed loop: next item only when the previous one is done."""
    items = []  # (index, seconds, ItemResult | None, traced seconds)
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < seconds or i < (
        COUNT_ITEMS if tracer else MIN_ITEMS
    ):
        inp = draw(seed, i)
        t0 = time.perf_counter()
        try:
            res = run(inp)
        except Exception as exc:  # a raising item is a failed item
            print(f"item {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
            res = None
        dt = time.perf_counter() - t0
        dt_traced = None
        if tracer is not None:
            tracer.install()
            t0 = time.perf_counter()
            try:
                tres = tracer.run_item(i, run, inp)
            except Exception as exc:
                print(f"item {i} traced: {type(exc).__name__}: {exc}", file=sys.stderr)
                tres = None
            dt_traced = time.perf_counter() - t0
            tracer.uninstall()
            if tres is None or (res is not None and tres.passed != res.passed):
                res = None
        items.append((i, dt, res, dt_traced))
        i += 1
    return items, time.perf_counter() - t_start


def end_to_end_metrics(items, wall, setup_s):
    times = [dt for _i, dt, _r, _t in items]
    results = [r for _i, _dt, r, _t in items if r is not None]
    tail_v, tail_p = tail(times)
    digits = min((r.digits for r in results), default=0.0)
    return {
        "setup_s": setup_s,
        "item_s.p50": statistics.median(times),
        "item_s.tail": tail_v,
        "items_per_s": len(items) / wall,
        "digits_min": digits,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, f"item_s.tail is p{tail_p:.1f} of n={len(items)} items"


def per_layer_metrics(tracer, items):
    from tracing import LAYERS, layer_of

    self_s, item_s = tracer.self_times()
    traced_ids = [i for i, _dt, _r, t in items if t is not None]
    n = len(traced_ids)
    first = traced_ids[:COUNT_ITEMS]
    totals = {}  # span name -> self seconds over every traced item
    for i in traced_ids:
        for name, v in self_s[i].items():
            totals[name] = totals.get(name, 0.0) + v

    def per_item(key):  # count per item over the first COUNT_ITEMS items
        return sum(tracer.counts[i][key] for i in first) / len(first)

    def layer_self(layer):
        return sum(v for k, v in totals.items() if layer_of(k) == layer)

    def self_of(*names):
        return sum(totals.get(x, 0.0) for x in names)

    gen = ("series.power_coeffs", "series.reglog_coeffs", "series.irreglog_coeffs")
    gen_s = self_of(*gen)
    ev_calls = sum(tracer.counts[i]["series.eval_expansion.calls"] for i in traced_ids)
    k_steps = sum(tracer.counts[i]["kernels.accepted_steps"] for i in traced_ids)
    coeffs = sum(tracer.counts[i]["series.coeffs"] for i in traced_ids)
    probes = per_item("dynamics.census.probes")
    poles = per_item("dynamics.census.probe_hits") + per_item(
        "dynamics.detect_and_step_over.calls"
    )
    genfun_calls = sum(
        per_item(f"genfun.{f}.calls") for f in ("genfun", "_power_gf", "_reglog_gf", "_irreglog_gf")
    )
    item_total = sum(item_s[i] for i in traced_ids)
    untraced = statistics.median(dt for i, dt, _r, t in items if t is not None)
    traced = statistics.median(t for _i, _dt, _r, t in items if t is not None)
    m = {
        "series.power_coeffs.calls": per_item("series.power_coeffs.calls"),
        "series.power_coeffs.self_s": self_of(gen[0]) / n,
        "series.reglog_coeffs.self_s": self_of(gen[1]) / n,
        "series.irreglog_coeffs.self_s": self_of(gen[2]) / n,
        "series.coeffs_per_s": coeffs / gen_s if gen_s else 0.0,
        "series.eval_expansion.calls": per_item("series.eval_expansion.calls"),
        "series.eval_expansion.us_per_call": (
            1e6 * self_of("series.eval_expansion") / ev_calls if ev_calls else 0.0
        ),
        "genfun.calls": genfun_calls,
        "genfun.self_s": layer_self("genfun") / n,
        "kernels.calls": per_item("kernels.integrate_segment.calls"),
        "kernels.accepted_steps": per_item("kernels.accepted_steps"),
        "kernels.us_per_step": (
            1e6 * self_of("kernels.integrate_segment") / k_steps if k_steps else 0.0
        ),
        "kernels.self_s": layer_self("kernels") / n,
        "kernels.guard_trips": per_item("kernels.guard_trips"),
        "kernels.stalls": per_item("kernels.stalls"),
        "dynamics.integrate.self_s": self_of("dynamics.integrate") / n,
        "dynamics.fit.calls": per_item("dynamics.fit_local_expansion.calls"),
        "dynamics.fit.self_s": self_of("dynamics.fit_local_expansion") / n,
        "dynamics.fit.residual_max": max(
            (tracer.counts[i]["dynamics.fit.residual_max"] for i in first), default=0.0
        ),
        "dynamics.arc.calls": per_item("dynamics.detect_and_step_over.calls"),
        "dynamics.arc.steps": per_item("dynamics.arc.steps"),
        "dynamics.census.probe_yield": (
            per_item("dynamics.census.probe_hits") / probes if probes else 0.0
        ),
        "dynamics.steps_per_pole": (
            per_item("kernels.accepted_steps") / poles if poles else 0.0
        ),
        "dynamics.lattice_orbit.self_s": self_of("dynamics.lattice_orbit") / n,
        "asymptotics.self_s": layer_self("asymptotics") / n,
        "asymptotics.build_profile.calls": per_item("asymptotics.build_profile.calls"),
        "monodromy.self_s": layer_self("monodromy") / n,
        "trace.unattributed_share": self_of("item") / item_total,
        "trace.overhead": traced / untraced - 1.0,
        "fail_ratio": sum(r is None or not r.passed for _i, _dt, r, _t in items) / len(items),
    }
    shares = {layer: layer_self(layer) / item_total for layer in LAYERS}
    shares["(unattributed)"] = m["trace.unattributed_share"]
    # the split inside series: generation (with the _expand algebra) vs reads
    shares["series: generation"] = gen_s / item_total
    shares["series: eval_expansion"] = self_of("series.eval_expansion") / item_total
    return m, shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    draw, run = setup(args.workload)
    if args.setup_only:
        print(repr(time.perf_counter() - t0))
        return 0

    env = environment(args.seed)
    env["host_probe_start_s"] = host_probe()
    setup_s = statistics.median(
        child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS)
    )
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    items, wall = run_loop(draw, run, args.seed, args.seconds, tracer)
    env["host_probe_end_s"] = host_probe()

    if args.trace:
        metrics, shares = per_layer_metrics(tracer, items)
        units = PER_LAYER_UNITS
        note = "self-time share of item time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items()
        )
    else:
        metrics, note = end_to_end_metrics(items, wall, setup_s)
        units = END_TO_END_UNITS
    failed = sum(r is None or not r.passed for _i, _dt, r, _t in items)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "env": env,
        "note": note,
        "items": [
            {
                "index": i,
                "seconds": dt,
                "traced_seconds": t,
                "passed": bool(r and r.passed),
                "rel_err": r.rel_err if r else None,
                "detail": r.detail if r else None,
            }
            for i, dt, r, t in items
        ],
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        tracer.dump(out_dir / f"{stem}.spans.json.gz")

    for k, v in env.items():
        print(f"env {k} = {v}")
    print(note)
    for name, v in metrics.items():
        print(f"metric {name} = {v:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
