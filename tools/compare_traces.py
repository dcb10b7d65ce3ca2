#!/usr/bin/env python3
"""Compare the integration results two source trees give, item by item.

    python3 tools/compare_traces.py OLD_SRC NEW_SRC poles:0:0-3 solve:0:0-29

Each WORKLOAD:SEED:ITEMS argument names perfbench `poles` or `solve` items
(ITEMS is one index or a range lo-hi).  Each tree runs every item in its
own interpreter with its own `src/` on the path.  Per item it records the
`ItemResult` (pass flag, error, detail), the number of RK45 kernel calls,
the accepted steps (the benchmark's Σ(n_recorded − 1)) and a digest of
every value the kernel returned.  The report lists each item on which any
of these differs, or that raised on one side.  A refactor that keeps the
arithmetic reports no differing item.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("poles", "solve")


def parse_items(specs):
    items = []
    for spec in specs:
        workload, seed, rng = spec.split(":")
        if workload not in WORKLOADS:
            raise SystemExit(f"unknown workload {workload!r}; use one of {WORKLOADS}")
        lo, _, hi = rng.partition("-")
        items += [(workload, int(seed), i) for i in range(int(lo), int(hi or lo) + 1)]
    return items


def dump(items):
    """Results of every item as JSON: {"workload:seed:item": {...}}."""
    from dp3 import dynamics
    from perfbench.workloads import WORKLOADS as RUNNERS

    inner = dynamics.integrate_segment
    calls = []

    def spy(*args):
        out = inner(*args)
        calls.append(out)
        return out

    dynamics.integrate_segment = spy
    out = {}
    for workload, seed, item in items:
        draw, run = RUNNERS[workload]
        calls.clear()
        try:
            res = run(draw(seed, item))
            result = repr((res.passed, res.rel_err, sorted(res.detail.items())))
        except Exception as exc:  # a raise on one side is a difference too
            result = f"raised {type(exc).__name__}: {exc}"
        out[f"{workload}:{seed}:{item}"] = {
            "result": result,
            "kernel_calls": len(calls),
            "accepted_steps": sum(max(c[1] - 1, 0) for c in calls),
            "kernel_digest": hashlib.sha256(repr(calls).encode()).hexdigest()[:16],
        }
    json.dump(out, sys.stdout)


def run_tree(src, specs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT)]))
    cmd = [sys.executable, __file__, "--dump", *specs]
    res = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(res.stdout)


def main(argv):
    if argv[:1] == ["--dump"]:
        dump(parse_items(argv[1:]))
        return 0
    if len(argv) < 3:
        print(__doc__)
        return 2
    old_src, new_src, specs = argv[0], argv[1], argv[2:]
    parse_items(specs)  # reject a bad spec before any tree runs
    old, new = run_tree(old_src, specs), run_tree(new_src, specs)
    ndiff = 0
    for key, a in old.items():
        b = new[key]
        if a != b:
            ndiff += 1
            print(f"{key} differs:")
            for field in a:
                if a[field] != b[field]:
                    print(f"  {field}: {a[field]} -> {b[field]}")
    print(f"{ndiff} of {len(old)} items differ")
    return 1 if ndiff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
