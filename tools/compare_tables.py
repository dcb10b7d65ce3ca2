#!/usr/bin/env python3
"""Compare the coefficient tables two source trees build, coefficient by coefficient.

    python3 tools/compare_tables.py OLD_SRC NEW_SRC 0:0-11 39:6 22:30

Each SEED:ITEMS argument names perfbench `tables` draws (ITEMS is one index
or a range lo-hi).  For every draw both trees build the three tables that a
`tables` item builds (power K=9, reglog K=8, irreglog K=6 M=12), each tree
in its own interpreter with its own `src/` on the path.  The report gives,
per family, how many coefficients differ at all and the largest difference,
both normalised by max(1, |c|) and purely relative (|c'-c|/|c|, which also
shows changes on coefficients far below 1).  A refactor that keeps the
arithmetic reports 0 differing coefficients.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("power", "reglog", "irreglog")


def parse_draws(specs):
    draws = []
    for spec in specs:
        seed, items = spec.split(":")
        lo, _, hi = items.partition("-")
        draws += [(int(seed), i) for i in range(int(lo), int(hi or lo) + 1)]
    return draws


def dump(draws):
    """Tables of every draw as JSON: {"seed:item": {family: [[k, m, re, im]]}}."""
    from dp3 import series as ser
    from dp3.monodromy import ProblemParams
    from perfbench.workloads import draw_tables

    out = {}
    for seed, item in draws:
        inp = draw_tables(seed, item)
        params = ProblemParams(inp["a"], 1.0, 1)
        tables = (
            ser.power_coeffs(params, inp["sigma"], b11=inp["b11"], K=9),
            ser.reglog_coeffs(params, inp["c"], K=8),
            ser.irreglog_coeffs(params, inp["ctilde"], K=6, M=12),
        )
        out[f"{seed}:{item}"] = {
            fam: [[k, m, c.real, c.imag] for (k, m), c in t.coeffs.items()]
            for fam, t in zip(FAMILIES, tables)
        }
    json.dump(out, sys.stdout)


def build(src, specs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT)]))
    cmd = [sys.executable, __file__, "--dump", *specs]
    res = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(res.stdout)


def main(argv):
    if argv[:1] == ["--dump"]:
        dump(parse_draws(argv[1:]))
        return 0
    if len(argv) < 3:
        print(__doc__)
        return 2
    old_src, new_src, specs = argv[0], argv[1], argv[2:]
    old, new = build(old_src, specs), build(new_src, specs)
    any_diff = False
    for fam in FAMILIES:
        total = ndiff = 0
        worst = worst_rel = 0.0
        for draw in old:
            a = {(k, m): complex(re, im) for k, m, re, im in old[draw][fam]}
            b = {(k, m): complex(re, im) for k, m, re, im in new[draw][fam]}
            if a.keys() != b.keys():
                raise SystemExit(f"{draw} {fam}: the trees return different keys")
            for key, c in a.items():
                total += 1
                if b[key] != c:
                    ndiff += 1
                    d = abs(b[key] - c)
                    worst = max(worst, d / max(1.0, abs(c)))
                    worst_rel = max(worst_rel, d / abs(c) if c else math.inf)
        any_diff |= ndiff > 0
        print(
            f"{fam:9s} {ndiff} of {total} coefficients differ, "
            f"max rel diff {worst:.2e} (pure relative {worst_rel:.2e})"
        )
    return 1 if any_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
