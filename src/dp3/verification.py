"""The acceptance/verification suite: every criterion as a check function.

Each check returns CheckRecords carrying the measured value, the expected
value with its provenance tag ('paper-table', 'trivial', or
'derived-oracle'), the tolerance, and pass/fail.  The CLI `verify`
subcommand and tests/test_acceptance.py both run these.

All randomness is driven by an explicit seed; no network, no external data.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from dp3 import asymptotics as asy
from dp3 import dynamics as dyn
from dp3 import genfun as gf
from dp3 import monodromy as mon
from dp3 import series as ser
from dp3._expand import equation_defect
from dp3.monodromy import ProblemParams, RegimeTag

__all__ = ["CheckRecord", "Report", "run_suite", "CHECKS", "report_to_json"]

_XP = np.clongdouble


@dataclass
class CheckRecord:
    name: str
    measured: float
    expected: float
    tolerance: float
    passed: bool
    provenance: str  # paper-table | trivial | derived-oracle
    runtime_s: float
    inputs_digest: str
    detail: str = ""


@dataclass
class Report:
    suite: str
    seed: int
    checks: list
    all_passed: bool
    runtime_s: float


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:12]


class _Lap:
    """Clock of one check group: each lap is the time since the group's
    previous record (or its start), so the records' runtime_s sum to the
    group's time instead of repeating it."""

    def __init__(self):
        self._last = time.perf_counter()

    def __call__(self) -> float:
        now = time.perf_counter()
        dt, self._last = now - self._last, now
        return dt


def _record(name, measured, tol, provenance, lap, digest, detail="", expected=0.0):
    return CheckRecord(
        name,
        float(measured),
        float(expected),
        float(tol),
        bool(measured <= tol) if expected == 0.0 else bool(abs(measured - expected) <= tol),
        provenance,
        lap(),
        digest,
        detail,
    )


def _sample_generic(rng, a=None, scale=1.2):
    if a is None:
        a = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        if abs(a.real) < 0.05:
            a += 0.1
    params = ProblemParams(a, 1.0, 1)

    def rnd():
        return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))

    while True:
        g11 = rnd()
        if abs(g11) > 0.2:
            break
    return mon.complete_from_G(params, g11, rnd(), rnd())


# ---------------------------------------------------------------------------
# criterion 1


def check_manifold_dependency(seed=0):
    lap = _Lap()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        data = _sample_generic(rng)
        worst = max(worst, abs(mon.residuals(data)[0]))
    return [
        _record(
            "manifold-dependency: implied Stokes product relation (1000 pts)",
            worst,
            1e-10,
            "derived-oracle",
            lap,
            _digest("c1", seed),
        )
    ]


# criterion 2


def check_w_identities(seed=0):
    lap = _Lap()
    rng = np.random.default_rng(seed + 1)
    worst_prod = worst_ratio = 0.0
    n = 0
    while n < 200:
        data = _sample_generic(rng)
        try:
            reg = mon.classify(data)
        except mon.AmbiguousRegimeError:
            continue
        if reg.tag is not RegimeTag.GENERIC_POWER or reg.subcase.get("varrho_ray"):
            continue
        br = mon.branching(data, reg)
        w1, w2, w3, w4 = asy.w_amplitudes(data, br.varrho)
        a = data.params.a
        worst_prod = max(
            worst_prod, abs(w1 * w2 * w3 * w4 * cmath.exp(math.pi * a) / (2 * math.pi) ** 2 - 1)
        )
        worst_ratio = max(worst_ratio, abs(w1 * w4 - w2 * w3) / abs(w2 * w3))
        n += 1
    d = _digest("c2", seed)
    return [
        _record("w-identities: product (200 pts)", worst_prod, 1e-11, "derived-oracle", lap, d),
        _record("w-identities: cross-ratio (200 pts)", worst_ratio, 1e-11, "derived-oracle", lap, d),
    ]


# criterion 3


def check_coefficient_oracles(seed=0):
    lap = _Lap()
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    trials = 0
    while trials < 20:
        a = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        if abs(a) < 0.05:
            a += 0.2
        sigma = complex(rng.uniform(-1.8, 1.8), rng.uniform(-0.6, 0.6))
        if min(abs(sigma - s) for s in (0, 2, -2)) < 0.15:
            continue
        b11 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(b11) < 0.1:
            b11 += 0.3
        params = ProblemParams(a, 1.0, 1)
        exp = ser.power_coeffs(params, sigma, b11=b11, K=9)
        b1m1 = exp.seeds["b1m1"]
        ax, sx = _XP(a), _XP(sigma)
        b11x, b1m1x = _XP(b11), _XP(b1m1)
        for k in range(1, 9):
            pairs = [
                (
                    exp.coeffs[(k + 1, k + 1)],
                    (-1) ** k * _XP(2) ** (2 * k) * (k + 1) * b11x ** (k + 1) / (sx + 2) ** (2 * k),
                ),
                (
                    exp.coeffs[(k + 1, k)],
                    (-1) ** k
                    * _XP(2) ** (2 * k + 2)
                    * (2 * k + 2 + k * sx) ** 2
                    * ax
                    * b11x**k
                    / (sx**2 * (sx + 4) ** 2 * (sx + 2) ** (2 * k - 1)),
                ),
                (
                    exp.coeffs[(k + 1, -k - 1)],
                    (-1) ** k * _XP(2) ** (2 * k) * (k + 1) * b1m1x ** (k + 1) / (sx - 2) ** (2 * k),
                ),
                (
                    exp.coeffs[(k + 1, -k)],
                    (-1) ** (k - 1)
                    * _XP(2) ** (2 * k + 2)
                    * (2 * k + 2 - k * sx) ** 2
                    * ax
                    * b1m1x**k
                    / (sx**2 * (sx - 4) ** 2 * (sx - 2) ** (2 * k - 1)),
                ),
            ]
            for got, want in pairs:
                worst = max(worst, float(abs(_XP(got) - want) / abs(want)))
        # explicit level-2/3 members
        b30 = 4 * (20 * ax**2 * sx**2 + 3 * sx**4 - 48 * ax**2 - 4 * sx**2) / (
            sx**4 * (sx + 2) ** 2 * (sx - 2) ** 2
        )
        worst = max(worst, float(abs(_XP(exp.coeffs[(2, 0)]) - b30) / abs(b30)))
        b51 = (
            4
            * b11x
            * (
                (32 * sx**5 + 8 * sx**4 - 748 * sx**3 - 1120 * sx**2 + 1680 * sx + 2880) * ax**2
                - 12 * sx**6
                - 71 * sx**5
                - 80 * sx**4
                + 84 * sx**3
                + 144 * sx**2
            )
            / ((sx - 2) ** 2 * (sx + 4) * (sx + 2) ** 4 * sx**4)
        )
        worst = max(worst, float(abs(_XP(exp.coeffs[(3, 1)]) - b51) / abs(b51)))
        b5m1 = (
            4
            * b1m1x
            * (
                (32 * sx**5 - 8 * sx**4 - 748 * sx**3 + 1120 * sx**2 + 1680 * sx - 2880) * ax**2
                + 12 * sx**6
                - 71 * sx**5
                + 80 * sx**4
                + 84 * sx**3
                - 144 * sx**2
            )
            / ((sx + 2) ** 2 * (sx - 4) * (sx - 2) ** 4 * sx**4)
        )
        worst = max(worst, float(abs(_XP(exp.coeffs[(3, -1)]) - b5m1) / abs(b5m1)))
        b50 = (
            192
            * ax
            * (7 * sx**6 + 36 * ax**2 * sx**4 - 100 * sx**4 - 560 * ax**2 * sx**2 + 192 * sx**2 + 1280 * ax**2)
            / (sx**6 * (sx - 4) ** 2 * (sx + 4) ** 2 * (sx - 2) ** 2 * (sx + 2) ** 2)
        )
        worst = max(worst, float(abs(_XP(exp.coeffs[(3, 0)]) - b50) / abs(b50)))
        trials += 1
    return [
        _record(
            "coefficient-oracles: recurrence vs closed forms (k<=8, 20 configs)",
            worst,
            1e-12,
            "derived-oracle",
            lap,
            _digest("c3", seed),
        )
    ]


# criterion 4


def check_genfun_equivalence(seed=0):
    lap = _Lap()
    rng = np.random.default_rng(seed + 3)
    a = complex(rng.uniform(0.2, 0.6), rng.uniform(0.1, 0.4))
    params = ProblemParams(a, 1.0, 1)
    sigma = complex(rng.uniform(0.5, 1.2), rng.uniform(-0.4, 0.4))
    b11 = complex(rng.uniform(0.4, 1.0), rng.uniform(-0.5, 0.5))
    c = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5))
    ct = complex(rng.uniform(0.2, 0.5), rng.uniform(-0.3, 0.3))
    worst = 0.0
    pexp = ser.power_coeffs(params, sigma, b11=b11, K=8)
    for n in range(3):
        t = gf.genfun("power", n, params, sigma=sigma, b11=b11).taylor(6)
        for k, v in t.items():
            ref = pexp.coeffs.get((k, k - n))
            if ref is None or k < 1:
                continue
            worst = max(worst, abs(v - ref) / max(1e-30, abs(ref)))
    rexp = ser.reglog_coeffs(params, c, K=6)
    for n in range(5):
        t = gf.genfun("reglog", n, params, c=c).taylor(6)
        for k, v in t.items():
            ref = rexp.coeffs.get((k, 2 * k - n))
            if ref is None:
                continue
            worst = max(worst, abs(v - ref) / max(1.0, abs(ref)))
    iexp = ser.irreglog_coeffs(params, ct, K=4, M=12)
    for n in range(4):
        t = gf.genfun("irreglog", n, params, ctilde=ct).taylor(10)
        for m, v in t.items():
            ref = iexp.coeffs.get((n, m))
            if ref is None:
                continue
            worst = max(worst, abs(v - ref) / max(1.0, abs(ref)))
    xi = gf.a2_residues(params, sigma, b11)
    xisum = abs(xi[0] + xi[-1] + xi[-2] + xi[-3] + xi[-4])
    d = _digest("c4", seed)
    return [
        _record("genfun-equivalence: Taylor vs recurrence tables", worst, 1e-12, "derived-oracle", lap, d),
        _record("genfun-equivalence: pole-residue sum identity", xisum, 1e-13, "derived-oracle", lap, d),
    ]


# criterion 5 (the exact-algebra defect of the truncation; identically-zero
# low rows excluded so the measured slope is the mathematical one)


def _defect_slope_power(params, sigma, b11, K, taus):
    exp = ser.power_coeffs(params, sigma, b11=b11, K=K)
    E = equation_defect(exp.algebra_terms(), params.a, params.beff, sigma)
    E = {k: v for k, v in E.items() if k[0] >= 2 * K}
    out = []
    for tau in taus:
        Ev = sum(cv * tau ** (p + m * sigma) for (p, m, j), cv in E.items())
        uv = ser.eval_expansion(exp, tau).value
        out.append(abs(Ev / uv))
    return np.array(out)


def _defect_slope_log(exp, params, taus, irregular=False):
    E = equation_defect(exp.algebra_terms(), params.a, params.beff, 0j)
    pmin = 2 * exp.K if not irregular else 2 * exp.K - 2
    E = {k: v for k, v in E.items() if k[0] >= pmin}
    vals = []
    lpow = []
    for tau in taus:
        lt = cmath.log(tau)
        Ev = sum(cv * tau**p * lt**j for (p, m, j), cv in E.items())
        uv = ser.eval_expansion(exp, tau).value
        vals.append(abs(Ev / uv))
        lpow.append(abs(lt))
    return np.array(vals), np.array(lpow)


def check_defect_slopes(seed=0):
    lap = _Lap()
    rng = np.random.default_rng(seed + 4)
    K = 6
    taus = np.logspace(-4, -2, 9)
    claimed_dev = 0.0
    details = []
    trials = 0
    while trials < 10:
        a = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.5, 0.5))
        if abs(a) < 0.05:
            a += 0.2
        sigma = complex(rng.uniform(-1.8, 1.8), rng.uniform(-0.5, 0.5))
        if min(abs(sigma - s) for s in (0, 2, -2)) < 0.2:
            continue
        b11 = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.4, 0.4))
        params = ProblemParams(a, 1.0, 1)
        res = _defect_slope_power(params, sigma, b11, K, taus)
        slope = float(np.polyfit(np.log(taus), np.log(res), 1)[0])
        claimed = 2 * K + 1 - abs(sigma.real)
        claimed_dev = max(claimed_dev, abs(slope - claimed))
        details.append(f"Re(sigma)={sigma.real:+.2f}: slope={slope:.2f}")
        trials += 1
    # regular-log analogue: claim 2K+1 after removing the log envelope
    params = ProblemParams(0.3 + 0.1j, 1.0, 1)
    rexp = ser.reglog_coeffs(params, 0.4 - 0.2j, K=K)
    vals, lpow = _defect_slope_log(rexp, params, taus)
    A = np.stack([np.log(taus), np.log(lpow), np.ones_like(taus)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(vals), rcond=None)
    slope_log = float(coef[0])
    # irregular-log analogue at the finite-level point ct = 0
    iexp = ser.irreglog_coeffs(params, 0.0, K=K, M=K + 4)
    ivals, ilpow = _defect_slope_log(iexp, params, taus, irregular=True)
    A = np.stack([np.log(taus), np.log(ilpow), np.ones_like(taus)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(ivals), rcond=None)
    slope_ilog = float(coef[0])

    # diagnostics of the derived laws: local slopes deep in tau, where the
    # dominant grading column has taken over (the stated window mixes
    # competing columns)
    deep = np.logspace(-7, -5, 5)
    true_dev = 0.0
    rng2 = np.random.default_rng(seed + 40)
    for _ in range(6):
        sigma = complex(rng2.uniform(-1.7, 1.7), rng2.uniform(-0.4, 0.4))
        if min(abs(sigma - s) for s in (0, 2, -2)) < 0.25:
            continue
        res = _defect_slope_power(params, sigma, 0.5 + 0.2j, K, deep)
        slope = float(np.polyfit(np.log(deep), np.log(res), 1)[0])
        true_dev = max(true_dev, abs(slope - (2 * K - 1 - (K + 1) * abs(sigma.real))))
    rvals, rlp = _defect_slope_log(rexp, params, deep)
    A = np.stack([np.log(deep), np.log(rlp), np.ones_like(deep)], axis=1)
    slope_log_deep = float(np.linalg.lstsq(A, np.log(rvals), rcond=None)[0][0])
    ivals2, ilp2 = _defect_slope_log(iexp, params, deep, irregular=True)
    A = np.stack([np.log(deep), np.log(ilp2), np.ones_like(deep)], axis=1)
    slope_ilog_deep = float(np.linalg.lstsq(A, np.log(ivals2), rcond=None)[0][0])
    d = _digest("c5", seed)
    recs = [
        _record(
            "defect-slope (power, as specified 2K+1-|Re sigma|)",
            claimed_dev,
            0.2,
            "derived-oracle",
            lap,
            d,
            detail="; ".join(details),
        ),
        _record(
            "defect-slope (reglog, as specified 2K+1, ln-corrected fit)",
            abs(slope_log - (2 * K + 1)),
            0.2,
            "derived-oracle",
            lap,
            d,
            detail=f"fitted {slope_log:.2f}",
        ),
        _record(
            "defect-slope (irreglog, as specified 2K+1, ln-corrected fit)",
            abs(slope_ilog - (2 * K + 1)),
            0.2,
            "derived-oracle",
            lap,
            d,
            detail=f"fitted {slope_ilog:.2f}",
        ),
        _record(
            "defect-slope (power, derived law 2K-1-(K+1)|Re sigma|) [diagnostic]",
            true_dev,
            0.2,
            "derived-oracle",
            lap,
            d,
        ),
        _record(
            "defect-slope (reglog, derived law 2K-1) [diagnostic]",
            abs(slope_log_deep - (2 * K - 1)),
            0.3,
            "derived-oracle",
            lap,
            d,
            detail=f"fitted {slope_log_deep:.2f}",
        ),
        _record(
            "defect-slope (irreglog, derived law 2K-1) [diagnostic]",
            abs(slope_ilog_deep - (2 * K - 1)),
            0.3,
            "derived-oracle",
            lap,
            d,
            detail=f"fitted {slope_ilog_deep:.2f}",
        ),
    ]
    return recs


# ---------------------------------------------------------------------------
# shared integration plumbing


def _phi_anchor_seed(prof, exp, tau0, anchor):
    """phi at tau0 = formula value at the anchor plus the quadrature of
    2a/tau + b/u over the series, so both seeds share the anchor error."""
    params = prof.data.params
    phi = -1j * cmath.log(asy.eval_phi(prof, anchor)[0])
    if tau0 == anchor:
        return phi
    x, w = np.polynomial.legendre.leggauss(32)
    s0, s1 = math.log(abs(anchor)), math.log(abs(tau0))
    nseg = 8
    for i in range(nseg):
        lo = s0 + (s1 - s0) * i / nseg
        hi = s0 + (s1 - s0) * (i + 1) / nseg
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        for xx, ww in zip(x, w):
            t = math.exp(mid + half * xx)
            uval = ser.eval_expansion(exp, t).value
            phi += ww * half * (2 * params.a + params.b * t / uval)
    return phi


def _closure_datasets(seed=0):
    p1 = ProblemParams(0.25 + 0.1j, 1.0, 1)
    generic = mon.complete_from_G(p1, 0.95 + 0.15j, 0.25 - 0.1j, 0.2 + 0.1j)
    p2 = ProblemParams(0.4, 1.0, 1)
    spp = mon.complete_special(RegimeTag.SPECIAL_POWER_PLUS, p2, g21=0.8, s1inf=0.6)
    p3 = ProblemParams(0.3, 1.0, 1)
    logrho0 = mon.complete_from_g11_g21_s00(p3, 0.9 + 0.1j, 0.4j, 2j)
    # small |c_minus| keeps the irregular seed series converged at 1e-3
    logvh = mon.complete_from_g11_g21_s00(p3, 1.05j, 1.0, -2j)
    merov = mon.complete_special(RegimeTag.MEROMORPHIC_VANISHING, p3, g21=1.0)
    meron = mon.complete_from_g11_g21_s00(p3, 0.9 + 0.2j, 0.35 + 0.1j, 0j)
    return {
        "Generic": generic,
        "SpecialPowerPlus(2)": spp,
        "LogRho0": logrho0,
        "LogVarrhoHalf": logvh,
        "MeromorphicVanishing": merov,
        "MeromorphicNonvanishing": meron,
    }


def check_integration_closure(seed=0):
    lap = _Lap()
    recs = []
    for name, data in _closure_datasets(seed).items():
        prof = asy.build_profile(data)
        exp = asy.series_for_regime(prof, K=6, M=12)
        params = data.params
        traces = {}
        anchor = 1e-4
        for tau0 in (1e-3, 1e-4):
            r = ser.eval_expansion(exp, tau0)
            phi0 = _phi_anchor_seed(prof, exp, tau0, anchor)
            st = dyn.SolutionState(tau0, r.value, r.derivative, phi0)
            tr = dyn.integrate(
                st, params, [1e-3, 2e-3, 5e-2], dyn.IntegrateOptions(rtol=1e-11)
            )
            traces[tau0] = tr
        t1, t2 = traces[1e-3], traces[1e-4]
        du = abs(t1.u[-1] - t2.u[-1]) / abs(t2.u[-1])
        e1p = cmath.exp(1j * t1.phi[-1])
        e2p = cmath.exp(1j * t2.phi[-1])
        dphi = abs(e1p - e2p) / abs(e2p)
        d = _digest("c7", name, seed)
        recs.append(
            _record(f"closure[{name}]: two-seed endpoint u", du, 1e-6, "derived-oracle", lap, d)
        )
        recs.append(
            _record(
                f"closure[{name}]: two-seed endpoint exp(i*phi)", dphi, 1e-6, "derived-oracle", lap, d
            )
        )
        # leading formula vs the 1e-4-seeded trace, two-point exponent check
        i1 = int(np.argmin(np.abs(t2.tau - 1e-3)))
        i2 = int(np.argmin(np.abs(t2.tau - 2e-3)))
        uf1, orders = asy.eval_u(prof, 1e-3)
        uf2, _ = asy.eval_u(prof, 2e-3)
        e1 = abs(uf1 - t2.u[i1]) / abs(t2.u[i1])
        e2 = abs(uf2 - t2.u[i2]) / abs(t2.u[i2])
        q = min(o for o in orders if o > 0)
        if q >= 8:  # series-exact regime: correction below double resolution
            measured = e1
            rec = _record(
                f"closure[{name}]: formula at 1e-3 (series-exact regime)",
                measured,
                1e-9,
                "derived-oracle",
                lap,
                d,
            )
        else:
            bound = 2 * e2 * (1e-3 / 2e-3) ** q + 1e-12
            rec = _record(
                f"closure[{name}]: correction order (two-point, stated q={q:.2f})",
                e1,
                bound,
                "derived-oracle",
                lap,
                d,
                detail=f"e(1e-3)={e1:.2e} e(2e-3)={e2:.2e}",
            )
        recs.append(rec)
    return recs


def check_backlund_covariance(seed=0):
    # Im(a) = -0.5 keeps the digamma arguments of both images away from
    # poles, so the mapped-family series converge fast at tau = 1e-3
    lap = _Lap()
    p = ProblemParams(0.3 - 0.5j, 1.0, 1)
    data = mon.complete_from_g11_g21_s00(p, 0.9 + 0.1j, 0.4j, 2j)
    prof = asy.build_profile(data)
    exp = asy.series_for_regime(prof, K=6)
    tau0, tau1 = 1e-4, 1e-3
    r = ser.eval_expansion(exp, tau0)
    phi0 = -1j * cmath.log(asy.eval_phi(prof, tau0)[0])
    st = dyn.SolutionState(tau0, r.value, r.derivative, phi0)
    tr = dyn.integrate(st, p, [tau1], dyn.IntegrateOptions(rtol=1e-12))
    state1 = tr.end_state
    recs = []
    d = _digest("c8", seed)
    for shift, label in ((-1, "down (c_- form)"), (1, "up (c_+ form)")):
        simg, pimg = dyn.backlund_fn(state1, p, shift)
        dimg = mon.backlund_data(data, shift)
        pimg_prof = asy.build_profile(dimg)
        # u against the transform-family formula completed by its expansion
        iexp = asy.series_for_regime(pimg_prof, K=6, M=12)
        rimg = ser.eval_expansion(iexp, tau1)
        du = abs(simg.u - rimg.value) / abs(rimg.value)
        recs.append(
            _record(
                f"backlund-covariance[{label}]: u vs mapped-data formula",
                du,
                1e-6,
                "derived-oracle",
                lap,
                d,
            )
        )
        # exp(i*phi) against the mapped-data leading formula
        co = pimg_prof.coefficients
        a1 = dimg.params.a
        g11, g12, g21, g22 = dimg.g
        lt = cmath.log(tau1)
        beff = dimg.params.beff
        if shift == -1:
            cm = co["c_minus"]
            expo = -2j * dimg.params.epsilon * dimg.params.b * tau1**2 * (
                (lt + cm / 2 - 0.5) ** 2 + 0.25
            )
            ef = (
                -2
                * math.pi
                * cmath.exp(-math.pi * a1 / 2)
                * asy.pow_principal(2 * tau1 * tau1, 1j * a1)
                * cmath.exp(expo)
                / (asy.gamma(0.5 + 0.5j * a1) * (g11 + 1j * g21)) ** 2
            )
        else:
            cp = co["c_plus"]
            expo = -2j * dimg.params.epsilon * dimg.params.b * tau1**2 * (
                (lt + cp / 2 - 0.5) ** 2 + 0.25
            )
            ef = (
                cmath.exp(math.pi * a1 / 2)
                / (2 * math.pi)
                * asy.gamma(0.5 - 0.5j * a1) ** 2
                * (g12 + 1j * g22) ** 2
                * asy.pow_principal(2 * tau1 * tau1, 1j * a1)
                * cmath.exp(expo)
            )
        dphi = abs(cmath.exp(1j * simg.phi) - ef) / abs(ef)
        recs.append(
            _record(
                f"backlund-covariance[{label}]: exp(i*phi) vs mapped-data formula",
                dphi,
                1e-6,
                "derived-oracle",
                lap,
                d,
            )
        )
    return recs


def check_log_constants(seed=0):
    lap = _Lap()
    rng = np.random.default_rng(seed + 9)
    worst = 0.0
    n = 0
    while n < 50:
        a = complex(rng.uniform(-0.8, 0.8), rng.uniform(-1.9, 1.9))
        if abs(a.real) < 0.05:
            a += 0.1
        if min(abs(a.imag - 1), abs(a.imag + 1)) < 0.05:
            continue
        params = ProblemParams(a, 1.0, 1)
        g11 = complex(rng.uniform(0.4, 1.2), rng.uniform(-0.6, 0.6))
        g21 = complex(rng.uniform(-0.8, 0.8), rng.uniform(0.2, 0.9))
        try:
            data = mon.complete_from_g11_g21_s00(params, g11, g21, -2j)
            prof = asy.build_profile(data)
        except (mon.UnderdeterminedError, ValueError):
            continue
        worst = max(
            worst, abs(prof.coefficients["c_minus"] - prof.coefficients["c_plus"])
        )
        n += 1
    return [
        _record(
            "log-shift constants: c_- = c_+ (50 pts, Im a in (-2,2) minus {+-1})",
            worst,
            1e-11,
            "derived-oracle",
            lap,
            _digest("c9", seed),
        )
    ]


def check_G_roots(seed=0):
    lap = _Lap()
    roots = asy.find_G_pm_roots(2.0, (-1, 1, -3, 0), "plus", grid=12)
    want = [
        (0.2381378288 - 0.6358442252j, 1.5e-10),
        (0.1144878083 - 1.714583576j, 1.5e-9),
        (0.09349464758 - 2.744016682j, 1.5e-9),
    ]
    recs = []
    d = _digest("c10", seed)
    for i, (wv, tol) in enumerate(want):
        if i < len(roots):
            err = max(abs(roots[i].real - wv.real), abs(roots[i].imag - wv.imag))
        else:
            err = float("inf")
        recs.append(
            _record(
                f"truncation-indicator root #{i + 1} (eb = 2)",
                err,
                tol,
                "paper-table",
                lap,
                d,
                detail=f"found {roots[i]:.11f}" if i < len(roots) else "not found",
            )
        )
    return recs


def check_pole_census(seed=0):
    lap = _Lap()
    recs = []
    for kappa, rtol in ((0.7, 1e-13), (1.3, 1e-12)):
        params = ProblemParams(0.1, 1.0, 1)
        s00 = -2j * math.cosh(2 * math.pi * kappa)
        data = mon.complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, s00)
        prof = asy.build_profile(data)
        chart = asy.pole_chart(prof, range(3, 9), 1.0)
        t_seed = chart.tau_p[0] * cmath.exp(math.pi / (4 * kappa))
        u0, du0 = asy.eval_uniform(prof, t_seed, with_correction=True, derivative=True)
        st = dyn.SolutionState(t_seed, u0, du0, 0j)
        dets, zeros, clean = dyn.pole_census(
            st, params, chart, dyn.IntegrateOptions(rtol=rtol, atol=1e-300)
        )
        d = _digest("c11", kappa, seed)
        if len(dets) == 6 and not zeros and clean:
            worst = max(
                abs(det.center - tp) / rp
                for det, tp, rp in zip(dets, chart.tau_p, chart.radii)
            )
        else:
            worst = float("inf")
        recs.append(
            _record(
                f"pole census kappa={kappa}: one pole per disc, |c - tau_p|/R_p",
                worst,
                1.0,
                "derived-oracle",
                lap,
                d,
                detail=f"poles={len(dets)} zeros={len(zeros)} clean={clean}",
            )
        )
    return recs


def check_lattice(seed=0):
    lap = _Lap()
    p = ProblemParams(0.25 + 0.1j, 1.0, 1)
    data = mon.complete_from_G(p, 0.95 + 0.15j, 0.25 - 0.1j, 0.2 + 0.1j)
    prof = asy.build_profile(data)
    exp = asy.series_for_regime(prof, K=6)
    r = ser.eval_expansion(exp, 1e-3)
    st = dyn.SolutionState(1e-3, r.value, r.derivative, 0j)
    grid = list(np.linspace(0.05, 0.5, 50))
    tr = dyn.integrate(st, p, grid, dyn.IntegrateOptions(rtol=1e-11))
    idx = [int(np.argmin(np.abs(tr.tau - g))) for g in grid]
    states = [dyn.SolutionState(tr.tau[i], tr.u[i], tr.du[i], tr.phi[i]) for i in idx]
    orb = dyn.lattice_orbit(states, p, range(-2, 4))
    d = _digest("c12", seed)
    recs = []
    # criterion 6 rides on the same trace
    worst_u = worst_phi = 0.0
    for s in states:
        s1, p1 = dyn.backlund_fn(s, p, 1)
        s2, _ = dyn.backlund_fn(s1, p1, -1)
        worst_u = max(worst_u, abs(s2.u - s.u) / abs(s.u))
        worst_phi = max(worst_phi, abs(s2.phi - s.phi))
    recs.append(
        _record("backlund round-trip: u (50-pt trace)", worst_u, 1e-8, "derived-oracle", lap, d)
    )
    recs.append(
        _record("backlund round-trip: phi (50-pt trace)", worst_phi, 1e-8, "derived-oracle", lap, d)
    )
    for k, v in orb.residuals.items():
        recs.append(
            _record(f"lattice identity [{k}]", v, 1e-7, "derived-oracle", lap, d)
        )
    return recs


def check_w1_limit_oracle(seed=0):
    lap = _Lap()
    params = ProblemParams(0.4 + 0.7j, 1.0, 1)
    data = mon.complete_special(
        RegimeTag.SPECIAL_POWER_PLUS, params, g21=1.2 - 0.3j, s1inf=0.8 + 0.5j
    )
    prof = asy.build_profile(data)
    closed = prof.coefficients["w1"]
    oracle = asy.perturbed_w1_oracle(data, 1e-6)
    return [
        _record(
            "special-power amplitude: delta = 1e-6 limit oracle vs closed form",
            abs(closed - oracle) / abs(closed),
            1e-4,
            "derived-oracle",
            lap,
            _digest("c13", seed),
        )
    ]


def check_uniform_consistency(seed=0):
    lap = _Lap()
    rng = np.random.default_rng(seed + 14)
    recs = []
    d = _digest("c14", seed)
    # (a) tail comparison against the generic leading term for Re sigma_gen
    #     in (2.2, 3.8), i.e. Re varrho in (0.55, 0.95): the canonical
    #     varrho has Re <= 1/2, so the window is read through its mirror
    #     1 - varrho, Re varrho in (0.05, 0.45), and the difference decays
    #     like tau^(4 Re varrho)
    worst_pair = 0.0
    found = 0
    for _ in range(400):
        data = _sample_generic(rng)
        try:
            reg = mon.classify(data)
        except mon.AmbiguousRegimeError:
            continue
        if reg.tag is not RegimeTag.GENERIC_POWER or reg.subcase.get("varrho_ray"):
            continue
        br = mon.branching(data, reg)
        if not 0.05 < br.varrho.real < 0.45:
            continue
        prof = asy.build_profile(data)
        q = 4 * br.varrho.real
        e = []
        for tau in (1e-3, 2e-3):
            uu = asy.eval_uniform(prof, tau)
            ug, _ = asy.eval_u(prof, tau)
            e.append(abs(uu - ug) / abs(ug))
        bound = 2 * e[1] * (1e-3 / 2e-3) ** q + 1e-14
        worst_pair = max(worst_pair, e[0] / bound)
        found += 1
        if found >= 10:
            break
    recs.append(
        _record(
            "uniform vs generic leading term (Re sigma in (2.2,3.8), 10 pts)",
            worst_pair if found >= 10 else math.inf,
            1.0,
            "derived-oracle",
            lap,
            d,
            detail=f"{found} points",
        )
    )
    # (b) b11 = 0 reduction to the one-parameter power form
    params = ProblemParams(0.4, 1.0, 1)
    data = mon.complete_special(RegimeTag.SPECIAL_POWER_PLUS, params, g21=0.8, s1inf=0.6)
    prof = asy.build_profile(data)
    worst_red = 0.0
    for tau in (1e-3, 3e-3):
        uu = asy.eval_uniform(prof, tau)
        u2, _ = asy.eval_u(prof, tau)
        worst_red = max(worst_red, abs(uu - u2) / abs(u2))
    recs.append(
        _record(
            "uniform reduces to the one-parameter form at b11 = 0",
            worst_red,
            1e-12,
            "trivial",
            lap,
            d,
        )
    )
    return recs


CHECKS = {
    "manifold": check_manifold_dependency,
    "w-identities": check_w_identities,
    "coefficients": check_coefficient_oracles,
    "genfun": check_genfun_equivalence,
    "defect-slopes": check_defect_slopes,
    "closure": check_integration_closure,
    "covariance": check_backlund_covariance,
    "log-constants": check_log_constants,
    "roots": check_G_roots,
    "pole-census": check_pole_census,
    "lattice": check_lattice,
    "limit-oracle": check_w1_limit_oracle,
    "uniform": check_uniform_consistency,
}

FAST = ["manifold", "w-identities", "log-constants", "limit-oracle", "roots"]


def run_suite(names=None, seed: int = 0, verbose: bool = True) -> Report:
    t0 = time.perf_counter()
    if names is None or names == "all":
        selected = list(CHECKS)
    elif names == "fast":
        selected = FAST
    elif isinstance(names, str):
        selected = [names]
    else:
        selected = list(names)
    checks = []
    for nm in selected:
        for rec in CHECKS[nm](seed):
            checks.append(rec)
            if verbose:
                mark = "PASS" if rec.passed else "FAIL"
                print(
                    f"[{mark}] {rec.name}: measured {rec.measured:.3e} "
                    f"(tol {rec.tolerance:.3e}, {rec.provenance}, {rec.runtime_s:.2f}s)"
                )
    return Report(
        suite=",".join(selected),
        seed=seed,
        checks=checks,
        all_passed=all(c.passed for c in checks),
        runtime_s=time.perf_counter() - t0,
    )


def report_to_json(report: Report) -> str:
    return json.dumps(
        {
            "suite": report.suite,
            "seed": report.seed,
            "all_passed": report.all_passed,
            "runtime_s": report.runtime_s,
            "checks": [asdict(c) for c in report.checks],
        },
        indent=2,
    )
