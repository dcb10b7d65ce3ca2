#!/usr/bin/env python3
"""Compare the leading asymptotics two source trees give, regime by regime.

    python3 tools/compare_regimes.py OLD_SRC NEW_SRC

Both trees evaluate `eval_u` and `eval_phi` on a fixed list of monodromy
points at tau in {1e-4, 1e-3, 1e-2, 5e-2}, each in its own interpreter with
its own `src/` on the path.  The points cover every regime tag, both signs
of each special family (the closed-form side |Im a| < 1, the series side
|Im a| > 1 and the pole variants), and the half-integer meromorphic
families with n, m = 1..3 and their mirrors.  Per point the report gives
the regime each tree classifies, the largest relative difference of u and
of exp(i*phi) over the four tau, whether the returned correction orders
differ, and whether the completed data (s00, s0inf, s1inf, G) or the
profile coefficients differ at all.  Coefficient keys that only one tree
builds are listed but not counted: a key nothing reads can go without
moving a number, and one that is read moves u or exp(i*phi).

The completion grid runs `complete_special` for both half-integer tags at
a = i(m - 1/2), m = -4..5, with each of the inputs in GRID_INPUTS; a
completed point is compared entry by entry and a raised error by its type
and message.

A raise on one side is reported as a difference.  The exit status is 1
when any value or order differs by more than 1e-14 relative, or when any
completed datum, shared coefficient or grid case is not `==`.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

TAUS = (1e-4, 1e-3, 1e-2, 5e-2)
TOL = 1e-14
PI = math.pi


# the special families at Re a = 0.4: the closed-form side (|Im a| < 1), the
# series side with n = 0..3, and the pole variants (odd integer Im a)
SPECIAL_IM_A = (0.3, 1.3, 2.6, 4.6, 6.6, 1.0, 3.0)
# the Stokes data of the half-integer meromorphic families and their mirrors
HALF_V = dict(g12=0.9 + 0.2j, s0inf=0.4 - 0.1j)
HALF_V_MIRROR = dict(g21=0.8 - 0.3j, s1inf=0.5 + 0.2j)
HALF_NV = dict(g21=0.7 + 0.1j, s1inf=0.6 - 0.2j)
HALF_NV_MIRROR = dict(g12=0.9 - 0.2j, s0inf=0.45 + 0.3j)
# the completion grid's inputs: each side alone, with and without a Stokes
# multiplier, a zero multiplier and nothing at all
GRID_M = range(-4, 6)
GRID_INPUTS = {
    "g12,s0inf": HALF_V,
    "g21,s1inf": HALF_V_MIRROR,
    "g12": dict(g12=0.9 + 0.2j),
    "g21": dict(g21=0.8 - 0.3j),
    "g12,s0inf=0": dict(g12=0.9 + 0.2j, s0inf=0),
    "g21,s1inf=0": dict(g21=0.8 - 0.3j, s1inf=0),
    "none": {},
}


def points():
    """{label: MonodromyData} for every regime point."""
    from dp3 import monodromy as mon
    from dp3.monodromy import ProblemParams, RegimeTag

    def special(tag, a, **kw):
        return mon.complete_special(tag, ProblemParams(a, 1.0, 1), **kw)

    def from_s00(a, g11, g21, s00):
        return mon.complete_from_g11_g21_s00(ProblemParams(a, 1.0, 1), g11, g21, s00)

    vanishing = RegimeTag.MEROMORPHIC_VANISHING
    nonvanishing = RegimeTag.MEROMORPHIC_NONVANISHING
    out = {
        "Generic": mon.complete_from_G(
            ProblemParams(0.25 + 0.1j, 1.0, 1), 0.95 + 0.15j, 0.25 - 0.1j, 0.2 + 0.1j
        ),
        "Generic eps=-1": mon.complete_from_G(
            ProblemParams(0.3 - 0.2j, -1.0, -1), 0.9 + 0.1j, 0.3 + 0.2j, 0.1 - 0.2j
        ),
        "LogRho0": from_s00(0.3, 0.9 + 0.1j, 0.4j, 2j),
        "LogVarrhoHalf": from_s00(0.3, 1.05j, 1.0, -2j),
        "PoleAccumulation": from_s00(0.1, 0.9, 0.4 + 0.2j, -2j * math.cosh(2 * PI)),
        "MeromorphicVanishing odd": special(vanishing, 0.3, g21=1.0),
        "MeromorphicNonvanishing generic": from_s00(0.3, 0.9 + 0.2j, 0.35 + 0.1j, 0j),
    }
    for im in SPECIAL_IM_A:
        for a in (0.4 + 1j * im, 0.4 - 1j * im):
            out[f"SpecialPowerPlus a={a}"] = special(
                RegimeTag.SPECIAL_POWER_PLUS, a, g21=0.8, s1inf=0.5
            )
            out[f"SpecialPowerMinus a={a}"] = special(
                RegimeTag.SPECIAL_POWER_MINUS, a, g12=0.8, s0inf=0.5
            )
    for n in (1, 2, 3):
        a = 1j * (n - 0.5)
        out[f"MeromorphicVanishing half n={n}"] = special(vanishing, a, **HALF_V)
        out[f"MeromorphicVanishing half mirror n={n}"] = special(
            vanishing, -a, **HALF_V_MIRROR
        )
        out[f"MeromorphicNonvanishing half m={n}"] = special(nonvanishing, a, **HALF_NV)
        out[f"MeromorphicNonvanishing half mirror m={n}"] = special(
            nonvanishing, -a, **HALF_NV_MIRROR
        )
    return out


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _datum(data):
    """(s00, s0inf, s1inf, g11, g12, g21, g22) of a point as [re, im] pairs."""
    return [_pair(v) for v in (data.s00, data.s0inf, data.s1inf, *data.g)]


def _coefficient(v):
    return _pair(v) if isinstance(v, complex) else v


def completion_grid():
    """{"tag m=.. inputs": datum or error string} over the completion grid."""
    from dp3 import monodromy as mon
    from dp3.monodromy import ProblemParams, RegimeTag

    out = {}
    for tag in (RegimeTag.MEROMORPHIC_VANISHING, RegimeTag.MEROMORPHIC_NONVANISHING):
        for m in GRID_M:
            params = ProblemParams(1j * (m - 0.5), 1.0, 1)
            for label, kw in GRID_INPUTS.items():
                key = f"{tag.value} m={m} {label}"
                try:
                    out[key] = _datum(mon.complete_special(tag, params, **kw))
                except Exception as exc:
                    out[key] = f"raised {type(exc).__name__}: {exc}"
    return out


def dump():
    """Every point as JSON: {"points": {label: {"regime": str, "data": datum,
    "coefficients": {key: value}, "u"/"phi": [[re, im, orders]] per tau, or
    an error string}}, "grid": completion_grid()}."""
    from dp3 import asymptotics as asy

    out = {}
    for label, data in points().items():
        prof = asy.build_profile(data)
        rec = {
            "regime": f"{prof.regime.tag.value} {prof.regime.subcase}",
            "data": _datum(data),
            "coefficients": {k: _coefficient(v) for k, v in prof.coefficients.items()},
        }
        for name, fn in (("u", asy.eval_u), ("phi", asy.eval_phi)):
            try:
                vals = []
                for tau in TAUS:
                    v, orders = fn(prof, tau)
                    vals.append([v.real, v.imag, list(orders)])
                rec[name] = vals
            except Exception as exc:  # a raise on one side is a difference too
                rec[name] = f"raised {type(exc).__name__}: {exc}"
        out[label] = rec
    json.dump({"points": out, "grid": completion_grid()}, sys.stdout)


def run_tree(src):
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, __file__, "--dump"]
    res = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(res.stdout)


def compare(old, new):
    """(largest relative difference, orders differ) of one evaluator."""
    if isinstance(old, str) or isinstance(new, str):
        return (0.0, False) if old == new else (math.inf, True)
    worst, orders = 0.0, False
    for (ore, oim, oord), (nre, nim, nord) in zip(old, new):
        o, n = complex(ore, oim), complex(nre, nim)
        if o != n:
            worst = max(worst, abs(n - o) / abs(o) if o else math.inf)
        orders |= oord != nord
    return worst, orders


def compare_coefficients(old, new):
    """(shared keys whose values differ, keys only old has, keys only new has)."""
    differ = sorted(k for k in old.keys() & new.keys() if old[k] != new[k])
    return differ, sorted(old.keys() - new.keys()), sorted(new.keys() - old.keys())


def main(argv):
    if argv[:1] == ["--dump"]:
        dump()
        return 0
    if len(argv) != 2:
        print(__doc__)
        return 2
    old, new = run_tree(argv[0]), run_tree(argv[1])
    old_pts, new_pts = old["points"], new["points"]
    any_diff = False
    width = max(map(len, old_pts))
    print(
        f"{'point':{width}s}  {'max rel diff u':>14s}  {'exp(i phi)':>10s}  orders"
        "  data/coeffs"
    )
    for label in old_pts:
        o, n = old_pts[label], new_pts[label]
        du, ou = compare(o["u"], n["u"])
        dp, op = compare(o["phi"], n["phi"])
        differ, only_old, only_new = compare_coefficients(
            o["coefficients"], n["coefficients"]
        )
        data_diff = o["data"] != n["data"] or bool(differ)
        flag = max(du, dp) > TOL or ou or op or data_diff
        any_diff |= flag
        orders = "differ" if ou or op else "same"
        data = "differ" if data_diff else "same"
        mark = "  <--" if flag else ""
        print(f"{label:{width}s}  {du:14.2e}  {dp:10.2e}  {orders:6s}  {data}{mark}")
        pad = " " * width
        if o["regime"] != n["regime"]:
            print(f"{pad}  regime {o['regime']} -> {n['regime']}")
        if o["data"] != n["data"]:
            print(f"{pad}  completed data {o['data']} -> {n['data']}")
        for key in differ:
            print(f"{pad}  coefficient {key}: {o['coefficients'][key]} -> "
                  f"{n['coefficients'][key]}")
        for keys, side in ((only_old, "old"), (only_new, "new")):
            if keys:
                print(f"{pad}  coefficients only on {side} (not counted): {keys}")
        for name in ("u", "phi"):
            for rec, side in ((o, "old"), (n, "new")):
                if isinstance(rec[name], str):
                    print(f"{pad}  {name} on {side}: {rec[name]}")
    grid_diff = [k for k in old["grid"] if old["grid"][k] != new["grid"].get(k)]
    any_diff |= bool(grid_diff)
    print(f"completion grid: {len(old['grid'])} cases, {len(grid_diff)} differ")
    for key in grid_diff:
        print(f"  {key}: {old['grid'][key]} -> {new['grid'].get(key)}  <--")
    return 1 if any_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
