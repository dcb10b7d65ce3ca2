#!/usr/bin/env python3
"""Compare the coefficient tables and generating functions two source trees build.

    python3 tools/compare_tables.py OLD_SRC NEW_SRC 0:0-11 39:6 22:30

Each SEED:ITEMS argument names perfbench `tables` draws (ITEMS is one index
or a range lo-hi).  For every draw both trees build, each in its own
interpreter with its own `src/` on the path:

* the three tables that a `tables` item builds (power K=9, reglog K=8,
  irreglog K=6 M=12);
* the closed-form Taylor data the `tables` check reads: the builders
  `_power_gf` (n <= 2), `_reglog_gf` (n <= 4) and `_irreglog_gf` (n <= 3)
  at 30 digits, through the depth the check reads;
* the public `genfun()` output of every member n <= 4 at the same depth.

Each part is reported per family: how many coefficients differ at all and
the largest difference, both normalised by max(1, |c|) and purely relative
(|c'-c|/|c|, which also shows changes on coefficients far below 1).  For
the public output it also gives each tree's largest error against its own
30-digit closed forms (normalised by max(1, |c|)).  The exit status is 1
when a table coefficient differs: a refactor that keeps the table
arithmetic reports 0 differing table coefficients.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import mpmath

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
    """Every draw as JSON: {"seed:item": {part: {family: [[i, j, re, im]]}}},
    with (i, j) = (k, m) for tables and (n, order) for generating functions;
    the 30-digit closed forms carry re and im as decimal strings."""
    from dp3 import genfun as gf
    from dp3 import series as ser
    from dp3.monodromy import ProblemParams
    from perfbench import workloads as wl

    out = {}
    for seed, item in draws:
        inp = wl.draw_tables(seed, item)
        params = ProblemParams(inp["a"], 1.0, 1)
        tables = (
            ser.power_coeffs(params, inp["sigma"], b11=inp["b11"], K=9),
            ser.reglog_coeffs(params, inp["c"], K=8),
            ser.irreglog_coeffs(params, inp["ctilde"], K=6, M=12),
        )
        seeds = {
            "power": dict(sigma=inp["sigma"], b11=inp["b11"]),
            "reglog": dict(c=inp["c"]),
            "irreglog": dict(ctilde=inp["ctilde"]),
        }
        depth = {"power": 9, "reglog": 8, "irreglog": wl.TABLES_IRREGLOG_MMAX}
        closed_n = {
            "power": wl.TABLES_POWER_N,
            "reglog": wl.TABLES_REGLOG_N,
            "irreglog": wl.TABLES_IRREGLOG_N,
        }
        closed = {fam: [] for fam in FAMILIES}
        with mpmath.workdps(wl._MP_DPS):
            mpc = mpmath.mpc
            p_mp = SimpleNamespace(a=mpc(inp["a"]), beff=mpmath.mpf(1))
            builders = {
                "power": lambda n: gf._power_gf(n, p_mp, mpc(inp["sigma"]), mpc(inp["b11"])),
                "reglog": lambda n: gf._reglog_gf(n, p_mp, mpc(inp["c"])),
                "irreglog": lambda n: gf._irreglog_gf(n, p_mp, mpc(inp["ctilde"])),
            }
            for fam in FAMILIES:
                for n in closed_n[fam]:
                    for k, v in builders[fam](n).taylor(depth[fam]).items():
                        v = mpc(v)
                        closed[fam].append([n, k, str(v.real), str(v.imag)])
        public = {fam: [] for fam in FAMILIES}
        for fam in FAMILIES:
            for n in range(5):
                t = gf.genfun(fam, n, params, **seeds[fam]).taylor(depth[fam])
                public[fam] += [[n, k, v.real, v.imag] for k, v in t.items()]
        out[f"{seed}:{item}"] = {
            "tables": {
                fam: [[k, m, c.real, c.imag] for (k, m), c in t.coeffs.items()]
                for fam, t in zip(FAMILIES, tables)
            },
            "closed": closed,
            "public": public,
        }
    json.dump(out, sys.stdout)


def build(src, specs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT)]))
    cmd = [sys.executable, __file__, "--dump", *specs]
    res = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(res.stdout)


def entries(tree, draw, part, fam):
    conv = mpmath.mpf if part == "closed" else float
    return {(i, j): mpmath.mpc(conv(re), conv(im)) for i, j, re, im in tree[draw][part][fam]}


def diff(old, new, part, fam):
    """(number differing, total, worst by max(1, |c|), worst pure relative)."""
    total = ndiff = 0
    worst = worst_rel = 0.0
    for draw in old:
        a, b = entries(old, draw, part, fam), entries(new, draw, part, fam)
        if a.keys() != b.keys():
            raise SystemExit(f"{draw} {part} {fam}: the trees return different keys")
        for key, c in a.items():
            total += 1
            if b[key] != c:
                ndiff += 1
                d = abs(b[key] - c)
                worst = max(worst, float(d / max(1, abs(c))))
                worst_rel = max(worst_rel, float(d / abs(c)) if c else math.inf)
    return ndiff, total, worst, worst_rel


def public_error(tree, fam):
    """Largest error of the public output against the same tree's 30-digit
    closed forms, normalised by max(1, |c|)."""
    worst = 0.0
    for draw in tree:
        ref = entries(tree, draw, "closed", fam)
        got = entries(tree, draw, "public", fam)
        for key, c in ref.items():
            worst = max(worst, float(abs(got[key] - c) / max(1, abs(c))))
    return worst


def main(argv):
    if argv[:1] == ["--dump"]:
        dump(parse_draws(argv[1:]))
        return 0
    if len(argv) < 3:
        print(__doc__)
        return 2
    mpmath.mp.dps = 40  # the 30-digit closed forms are read and diffed exactly
    old_src, new_src, specs = argv[0], argv[1], argv[2:]
    old, new = build(old_src, specs), build(new_src, specs)
    any_diff = False
    titles = {
        "tables": "series tables",
        "closed": "closed forms at 30 digits (the tables check's references)",
        "public": "public genfun() output, n <= 4",
    }
    for part, title in titles.items():
        print(title)
        for fam in FAMILIES:
            ndiff, total, worst, worst_rel = diff(old, new, part, fam)
            if part == "tables":
                any_diff |= ndiff > 0
            line = (
                f"  {fam:9s} {ndiff} of {total} coefficients differ, "
                f"max rel diff {worst:.2e} (pure relative {worst_rel:.2e})"
            )
            if part == "public":
                line += (
                    f"; error against the 30-digit closed forms "
                    f"{public_error(old, fam):.2e} -> {public_error(new, fam):.2e}"
                )
            print(line)
    return 1 if any_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
