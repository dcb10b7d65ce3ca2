"""Small-tau expansion families: generation by recurrence and evaluation.

Three convergent local families cover the solution landscape near tau = 0
(eps-normalized: coefficients are those of eps*u built with beff = eps*b):

* power-like      eps*u = sum_k tau^(2k-1) sum_{|m|<=k} b[2k-1,m] tau^(m*sigma)
* regular log     eps*u = sum_k tau^(2k-1) sum_{0<=m<=2k} c[2k-1,m] log(tau)^m
* irregular log   eps*u = sum_{k>=0} tau^(2k-1) sum_{m>=-2*floor(k/2)}
                          ct[2k-1,m] log(tau)^(-m)

Level-1 anchors fix the free data; every higher level follows from the
equation itself by collecting rows of the polynomial defect (see _expand).

phi_exponent gives the exponent of exp(i*phi) from a Taylor table of eps*u
(phi' = 2a/tau + b/u): the special and meromorphic regimes regroup their
table onto integer powers (regrouped_taylor) or read its middle column.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Tuple

import numpy as np

from dp3._expand import LevelRows, Series
from dp3.monodromy import OutOfScopeError, ProblemParams

__all__ = [
    "ExpansionKind",
    "SeriesExpansion",
    "EvalResult",
    "ResonanceError",
    "power_coeffs",
    "reglog_coeffs",
    "irreglog_coeffs",
    "eval_expansion",
    "regrouped_taylor",
    "phi_exponent",
    "export_csv",
]


class ResonanceError(ValueError):
    """sigma at (or too close to) a small denominator of the recurrence."""


# coefficient tables are built in 80-bit extended precision: the level
# systems are solved sequentially and double precision loses 3-5 digits to
# accumulation, which would break the 1e-12 closed-form anchors
_XP = np.clongdouble


def _qr_xp(A: np.ndarray):
    """Householder QR in extended precision: returns solve(b), the least-squares
    solution, which applies the stored reflectors (v, 2/|v|^2) and back-substitutes."""
    R = A.astype(_XP)
    n = R.shape[1]
    reflectors = []
    for j in range(n):
        x = R[j:, j]
        nx = np.sqrt(np.sum((x * x.conjugate()).real))
        if nx == 0:
            continue
        alpha = -nx if x[0] == 0 else -(x[0] / abs(x[0])) * nx
        v = x.copy()
        v[0] -= alpha
        vn = np.sum((v * v.conjugate()).real)
        if vn == 0:
            continue
        scale = 2.0 / vn
        R[j:, j:] -= np.outer(v, (v.conjugate() @ R[j:, j:]) * scale)
        reflectors.append((j, v, scale))

    def solve(b: np.ndarray) -> np.ndarray:
        b = b.astype(_XP)
        for j, v, scale in reflectors:
            b[j:] -= v * ((v.conjugate() @ b[j:]) * scale)
        sol = np.zeros(n, dtype=_XP)
        for i in range(n - 1, -1, -1):
            s = b[i] - R[i, i + 1 :] @ sol[i + 1 :]
            d = R[i, i]
            if abs(d) == 0:
                raise ResonanceError("singular level system (resonant sigma?)")
            sol[i] = s / d
        return sol

    return solve


class ExpansionKind(Enum):
    POWER_LIKE = "PowerLike"
    REGULAR_LOG = "RegularLog"
    IRREGULAR_LOG = "IrregularLog"


@dataclass
class SeriesExpansion:
    kind: ExpansionKind
    params: ProblemParams
    sigma: complex | None
    seeds: dict
    coeffs: Dict[Tuple[int, int], complex]
    K: int

    def algebra_terms(self) -> Series:
        """Coefficients as graded-algebra terms (of eps*u)."""
        return {_term_key(self.kind, k, m): c for (k, m), c in self.coeffs.items()}


def _term_key(kind: ExpansionKind, k: int, m: int) -> Tuple[int, int, int]:
    """Graded-algebra key (p, m, j) of table entry (k, m): the term
    tau^(p + m*sigma) log(tau)^j."""
    if kind is ExpansionKind.POWER_LIKE:
        return (2 * k - 1, m, 0)
    if kind is ExpansionKind.REGULAR_LOG:
        return (2 * k - 1, 0, m)
    return (2 * k - 1, 0, -m)


@dataclass
class EvalResult:
    value: complex
    derivative: complex
    order_estimate: float
    level_mags: list[float]
    divergent: bool


def eval_expansion(exp: SeriesExpansion, tau: complex) -> EvalResult:
    """Truncated value of u (eps folded back in) plus truncation metadata.

    The order estimate is the magnitude of the first omitted level,
    extrapolated geometrically from the last two computed levels; the
    divergent flag goes up when successive level contributions fail to
    decrease by at least a factor of two.
    """
    tau = complex(tau)
    if tau == 0 or abs(cmath.phase(tau)) >= math.pi:
        raise ValueError("tau must satisfy |arg tau| < pi, tau != 0")
    logtau = cmath.log(tau)
    sig = exp.sigma if exp.sigma is not None else 0j
    eps = exp.params.epsilon
    lv: Dict[int, complex] = {}
    dlv: Dict[int, complex] = {}
    for (k, mk), c in exp.coeffs.items():
        p, m, j = _term_key(exp.kind, k, mk)
        e = p + (m * sig if m else 0)
        v = c * tau**e
        d = c * e * tau ** (e - 1)
        if j:
            v *= logtau**j
            d = d * logtau**j + c * j * tau ** (e - 1) * logtau ** (j - 1)
        lv[k] = lv.get(k, 0j) + v
        dlv[k] = dlv.get(k, 0j) + d
    total = 0j
    dtotal = 0j
    mags = []
    for k in sorted(lv):
        total += lv[k]
        dtotal += dlv[k]
        mags.append(abs(lv[k]))
    divergent = any(
        m2 > 0.5 * m1 for m1, m2 in zip(mags, mags[1:]) if m1 > 0
    )
    if len(mags) >= 2 and mags[-2] > 0:
        est = mags[-1] * (mags[-1] / mags[-2])
    else:
        est = mags[-1] if mags else 0.0
    return EvalResult(eps * total, eps * dtotal, est, mags, divergent)


# ---------------------------------------------------------------------------
# family builders


_EVEN_RESONANCES = (0.0, 2.0, -2.0, 4.0, -4.0, 6.0, -6.0)


def _check_resonance(sigma: complex):
    for s in _EVEN_RESONANCES:
        if abs(sigma - s) < 1e-6:
            raise ResonanceError(
                f"sigma within 1e-6 of {s:+.0f}: recurrence denominators vanish; "
                "use the logarithmic families or the rearranged special series"
            )


def _solve_level_lstsq(
    u_known: Series,
    a: complex,
    beff: float,
    sigma: complex,
    p_unknown: int,
    p_row: int,
    unknown_keys: list,
    row_keys: list,
    gauges: tuple = (1,),
) -> dict:
    """One level of a coupled family: the (consistent, slightly overdetermined)
    row system, assembled once and least-squares solved in each gauge lam of the
    exact symmetry b[2k-1,m] -> lam^m b[2k-1,m] (column m scaled by lam^m, row
    m by lam^-m).  The absolute solver error scales with the level maximum, so
    each unknown is read from the gauge where it is most prominent in its level.
    """
    # the exponents p + m*sigma enter every derivative and cancel near
    # sigma = -2 (2k - 1 + k*sigma ~ 1); formed in double precision, that
    # cancellation alone costs the level-9 diagonals ~1e-11
    rows = LevelRows(u_known, a, beff, _XP(sigma))
    base = rows.defect(p_row)
    A = np.zeros((len(row_keys), len(unknown_keys)), dtype=_XP)
    for jcol, uk in enumerate(unknown_keys):
        col = rows.linearization((p_unknown, uk[0], uk[1]), p_row)
        for irow, rk in enumerate(row_keys):
            A[irow, jcol] = col.get(rk, 0j)
    rhs = np.array([-base.get(rk, 0j) for rk in row_keys], dtype=_XP)
    col_m = np.array([uk[0] for uk in unknown_keys])
    row_m = np.array([rk[0] for rk in row_keys])
    best = np.zeros(len(unknown_keys), dtype=_XP)
    best_prom = np.full(len(unknown_keys), -1.0)
    for lam in gauges:
        cg = _XP(lam) ** col_m
        rg = _XP(lam) ** -row_m
        Ag = A * rg[:, None] * cg[None, :]
        bg = rhs * rg
        # equilibrate: coefficient magnitudes span many decades across rows
        # and columns (geometric growth in the seeds)
        rsc = np.maximum(np.max(np.abs(Ag), axis=1), np.longdouble(1e-300))
        As = Ag / rsc[:, None]
        rs = bg / rsc
        csc = np.maximum(np.max(np.abs(As), axis=0), np.longdouble(1e-300))
        As = As / csc[None, :]
        solve = _qr_xp(As)
        sol = solve(rs) / csc
        # one refinement pass on the same factors: conditions up to ~1e7
        # appear at awkward sigma
        corr = solve(rs - As @ (sol * csc)) / csc
        sol = sol + corr
        resid = float(np.max(np.abs(Ag @ sol - bg)))
        if resid > 1e-10 * float(max(np.max(np.abs(bg)), 1e-30)):
            raise ResonanceError(
                f"inconsistent level system at tau-grade {p_row}: residual {resid:.2e}"
            )
        prom = np.abs(sol) / max(np.max(np.abs(sol)), np.longdouble(1e-300))
        take = prom > best_prom
        best[take] = (sol * cg)[take]
        best_prom[take] = prom[take]
    return dict(zip(unknown_keys, best))


def power_coeffs(
    params: ProblemParams,
    sigma: complex,
    b11: complex | None = None,
    b1m1: complex | None = None,
    K: int = 6,
) -> SeriesExpansion:
    """Power-like family from the seed b[1,1] or b[1,-1].

    The level-1 anchors are b[1,0] = 2 a beff / sigma^2 and the product
    constraint b[1,1]*b[1,-1] = beff^2 (4a^2 + sigma^2) / (4 sigma^4); the
    unsupplied seed is derived from it (either seed may be zero only when
    the constraint right-hand side vanishes).
    """
    sigma = complex(sigma)
    if sigma == 0:
        raise ResonanceError("sigma = 0 is the regular-log family")
    _check_resonance(sigma)
    a, beff = params.a, params.beff
    prod = beff**2 * (4 * a * a + sigma * sigma) / (4 * sigma**4)
    if b11 is None and b1m1 is None:
        raise ValueError("supply b11 or b1m1")
    if b11 is not None and b1m1 is None:
        b11 = complex(b11)
        if b11 == 0:
            if abs(prod) > 1e-13 * max(1.0, abs(beff) ** 2):
                raise ValueError("b11 = 0 inconsistent with the product constraint")
            b1m1 = 0j
        else:
            b1m1 = prod / b11
    elif b1m1 is not None and b11 is None:
        b1m1 = complex(b1m1)
        if b1m1 == 0:
            if abs(prod) > 1e-13 * max(1.0, abs(beff) ** 2):
                raise ValueError("b1m1 = 0 inconsistent with the product constraint")
            b11 = 0j
        else:
            b11 = prod / b1m1
    else:
        b11, b1m1 = complex(b11), complex(b1m1)
        if abs(b11 * b1m1 - prod) > 1e-10 * max(1.0, abs(prod)):
            raise ValueError("seeds violate the product constraint")
    b10 = 2 * a * beff / sigma**2
    coeffs = {(1, 1): b11, (1, 0): b10, (1, -1): b1m1}
    u: Series = {(1, 0, 0): _XP(b10)}
    u.update({(1, m, 0): _XP(c) for m, c in ((1, b11), (-1, b1m1)) if c != 0})
    # one-sided seeds keep their side exactly zero
    m_lo = lambda k: -k if b1m1 != 0 or b11 == 0 else 0
    m_hi = lambda k: k if b11 != 0 or b1m1 == 0 else 0
    # A two-sided level is solved in the two edge-flattened gauges, in which
    # the edge b[2k-1,k] resp. b[2k-1,-k] grows only linearly in k; a growth-
    # balanced third gauge bought nothing measurable.
    gauges = (1,)
    if b11 != 0 and b1m1 != 0:
        gauges = (4 * b11 / (sigma + 2) ** 2, (sigma - 2) ** 2 / (4 * b1m1))
    for k in range(2, K + 1):
        unknown = [(m, 0) for m in range(m_lo(k), m_hi(k) + 1)]
        rows = [(m, 0) for m in range(m_lo(k + 1) - 1, m_hi(k + 1) + 2)]
        sol = _solve_level_lstsq(
            u, a, beff, sigma, 2 * k - 1, 2 * k - 2, unknown, rows, gauges
        )
        for (m, _j), v in sol.items():
            coeffs[(k, m)] = complex(v)
            if v != 0:
                u[(2 * k - 1, m, 0)] = v
    return SeriesExpansion(
        ExpansionKind.POWER_LIKE,
        params,
        sigma,
        {"b11": b11, "b1m1": b1m1},
        coeffs,
        K,
    )


def reglog_coeffs(params: ProblemParams, c: complex, K: int = 6) -> SeriesExpansion:
    """Regular logarithmic family (branching exponent 0), parameter c."""
    a, beff = params.a, params.beff
    if abs(a) < 1e-12:
        raise OutOfScopeError("regular-log family needs a != 0")
    c = complex(c)
    c12 = -a * beff
    c11 = -a * beff * c
    c10 = -beff * (a * a * c * c + 1) / (4 * a)
    coeffs: Dict[Tuple[int, int], complex] = {(1, 2): c12, (1, 1): c11, (1, 0): c10}
    u: Series = {(1, 0, 2): _XP(c12), (1, 0, 1): _XP(c11), (1, 0, 0): _XP(c10)}
    for k in range(2, K + 1):
        unknown = [(0, m) for m in range(0, 2 * k + 1)]
        rows = [(0, m) for m in range(0, 2 * k + 3)]
        sol = _solve_level_lstsq(u, a, beff, 0j, 2 * k - 1, 2 * k - 2, unknown, rows)
        for (_m, j), v in sol.items():
            coeffs[(k, j)] = complex(v)
            u[(2 * k - 1, 0, j)] = v
    return SeriesExpansion(
        ExpansionKind.REGULAR_LOG, params, None, {"c": c}, coeffs, K
    )


def _binom(x: int, j: int) -> int:
    """Binomial coefficient x choose j for any integer x and j >= 0."""
    return math.comb(x, j) if x >= 0 else (-1) ** j * math.comb(j - x - 1, j)


def irreglog_coeffs(
    params: ProblemParams, ctilde: complex, K: int = 6, M: int = 12
) -> SeriesExpansion:
    """Irregular logarithmic family, single parameter ct[-1,3].

    Valid for every value of the formal monodromy.  At ct[-1,3] = 0 every
    level is finite: level k spans the log indices -2*floor(k/2) .. k+2 (1,
    4, 7, 8, 11, 12, 15 terms for k = 0..6).  Those levels are solved index
    by index, each index dividing by its own diagonal.  The family at any
    ct[-1,3] is that table with log(tau) replaced by log(tau) + 2 ct[-1,3],
    exactly, because a constant shift of log(tau) commutes with d/dtau; the
    returned table is its binomial re-expansion in 1/log(tau), level k
    through index M + 2(K-k) + 2 (level 0 through M + 2K + 2).

    Against the n <= 3 closed forms at 40 digits (K = 6, M = 12, down to
    index 24 on level 1) the table agrees to 1e-16 relative to max(1, |c|),
    also at ct[-1,3] = 1.5+1i, where the coefficients reach 1e14.
    """
    a, beff = params.a, params.beff
    ctilde = complex(ctilde)
    # the finite levels t[k, n] at ct[-1,3] = 0
    t: Dict[Tuple[int, int], complex] = {(0, 2): _XP(-0.25)}
    u: Series = {(-1, 0, -2): t[(0, 2)]}
    for k in range(1, K + 1):
        p_unknown = 2 * k - 1
        p_row = 2 * k - 4
        rows = LevelRows(u, a, beff, 0j)
        rowvals = rows.defect(p_row)
        for m in range(-2 * (k // 2), k + 3):
            col = rows.linearization((p_unknown, 0, -m), p_row)
            jdiag = (0, -(m + 2))
            diag = col.get(jdiag, 0j)
            if abs(diag) < 1e-12:
                raise ResonanceError(f"vanishing diagonal at level {k}, index {m}")
            val = -(rowvals.get(jdiag, 0j)) / diag
            t[(k, m)] = u[(p_unknown, 0, -m)] = val
            for key, cv in col.items():
                rowvals[key] = rowvals.get(key, 0j) + val * cv
    # (log(tau) + 2 ct)^(-n) = sum_j binom(-n, j) (2 ct)^j log(tau)^(-n-j)
    m_top = M + 2 * K + 2
    pw = [_XP(1)]
    for _ in range(m_top):
        pw.append(pw[-1] * _XP(2 * ctilde))
    coeffs: Dict[Tuple[int, int], complex] = {}
    for k in range(K + 1):
        level = [(n, c) for (kn, n), c in t.items() if kn == k]
        for m in range(-2 * (k // 2) if k else 2, m_top - 2 * k + 1):
            v = sum(_binom(-n, m - n) * pw[m - n] * c for n, c in level if n <= m)
            coeffs[(k, m)] = complex(v)
    return SeriesExpansion(
        ExpansionKind.IRREGULAR_LOG,
        params,
        None,
        {"ctilde": ctilde},
        coeffs,
        K,
    )


# ---------------------------------------------------------------------------
# exponent series for exp(i*phi)


def regrouped_taylor(exp: SeriesExpansion, step: int, n_max: int) -> Dict[int, complex]:
    """Taylor coefficients of eps*u when sigma is the integer ``step``:
    the grading tau^(2k-1+m*step) collapses onto integer powers."""
    out: Dict[int, complex] = {}
    for (k, m), c in exp.coeffs.items():
        p = 2 * k - 1 + m * step
        if p <= n_max:
            out[p] = out.get(p, 0j) + c
    return out


def inverse_power_sums(ratios: Dict[int, complex], weight: complex, n_max: int):
    """[x^n] of 1/(1 - weight*R(x)), R(x) = sum_i ratios[i] x^i, for n = 1..n_max:
    sum_k weight^k sum_{M(k,n)} multinomial prod ratios[i]^(m_i)."""
    S = [1 + 0j]
    for n in range(1, n_max + 1):
        S.append(weight * sum(ratios.get(i, 0j) * S[n - i] for i in range(1, n + 1)))
    return {n: S[n] for n in range(1, n_max + 1)}


def phi_exponent(
    taylor: Dict[int, complex], beff: float, tau: complex, n_max: int
) -> complex:
    """The exponent of exp(i*phi) that a Taylor table of eps*u gives.

    phi' = 2a/tau + b/u, so i*phi = 2ia log(tau) + i*beff * int dtau/(eps*u).
    For eps*u = sum_p taylor[p] tau^p whose lowest nonzero power p0 is 0 or
    1 this returns the integral's series through tau^(n_max + 1 - p0), read
    from taylor[p0..p0 + n_max]; its log term (p0 = 1) and its constant are
    left to the caller's prefactor.
    """
    p0 = min(p for p, c in taylor.items() if c != 0)
    if p0 not in (0, 1):
        raise ValueError(f"lowest power {p0} of eps*u is not 0 or 1")
    f0 = taylor[p0]
    ratios = {i: taylor.get(p0 + i, 0j) / f0 for i in range(1, n_max + 1)}
    recip = {0: 1.0, **inverse_power_sums(ratios, -1.0, n_max)}
    # [tau^n] of f0/(eps*u) integrates to tau^e/e, e = n + 1 - p0 (e = 0: the log)
    s = sum(c * tau**e / e for n, c in recip.items() if (e := n + 1 - p0))
    return 1j * beff / f0 * s


def export_csv(exp: SeriesExpansion, path: str):
    """Coefficient table as CSV (columns: k, m, re, im)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "m", "re", "im"])
        for (k, m) in sorted(exp.coeffs):
            c = exp.coeffs[(k, m)]
            w.writerow([k, m, repr(c.real), repr(c.imag)])
