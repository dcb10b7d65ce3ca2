"""Small-tau expansion families: generation by recurrence and evaluation.

Three convergent local families cover the solution landscape near tau = 0
(eps-normalized: coefficients are those of eps*u built with beff = eps*b):

* power-like      eps*u = sum_k tau^(2k-1) sum_{|m|<=k} b[2k-1,m] tau^(m*sigma)
* regular log     eps*u = sum_k tau^(2k-1) sum_{0<=m<=2k} c[2k-1,m] log(tau)^m
* irregular log   eps*u = sum_{k>=0} tau^(2k-1) sum_{m>=-2*floor(k/2)}
                          ct[2k-1,m] log(tau)^(-m)

Level-1 anchors fix the free data; every higher level follows from the
equation itself by collecting rows of the polynomial defect (see _expand).
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
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
    "summation_sets",
    "PhiExpansion",
    "phi_series",
    "regrouped_taylor",
    "export_csv",
]


class ResonanceError(ValueError):
    """sigma at (or too close to) a small denominator of the recurrence."""


# coefficient tables are built in 80-bit extended precision: the level
# systems are solved sequentially and double precision loses 3-5 digits to
# accumulation, which would break the 1e-12 closed-form anchors
_XP = np.clongdouble


def _qr_lstsq_xp(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least squares via Householder QR in extended precision."""
    A = A.astype(_XP).copy()
    b = b.astype(_XP).copy()
    m, n = A.shape
    for j in range(n):
        x = A[j:, j]
        nx = np.sqrt(np.sum((x * x.conjugate()).real))
        if nx == 0:
            continue
        alpha = -nx if x[0] == 0 else -(x[0] / abs(x[0])) * nx
        v = x.copy()
        v[0] -= alpha
        vn = np.sum((v * v.conjugate()).real)
        if vn == 0:
            continue
        w = (v.conjugate() @ A[j:, j:]) * (2.0 / vn)
        A[j:, j:] -= np.outer(v, w)
        b[j:] -= v * ((v.conjugate() @ b[j:]) * (2.0 / vn))
    sol = np.zeros(n, dtype=_XP)
    for i in range(n - 1, -1, -1):
        s = b[i] - A[i, i + 1 :] @ sol[i + 1 :]
        d = A[i, i]
        if abs(d) == 0:
            raise ResonanceError("singular level system (resonant sigma?)")
        sol[i] = s / d
    return sol


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
    M: int | None = None

    def algebra_terms(self) -> Series:
        """Coefficients as graded-algebra terms (of eps*u)."""
        out: Series = {}
        if self.kind is ExpansionKind.POWER_LIKE:
            for (k, m), c in self.coeffs.items():
                out[(2 * k - 1, m, 0)] = c
        elif self.kind is ExpansionKind.REGULAR_LOG:
            for (k, m), c in self.coeffs.items():
                out[(2 * k - 1, 0, m)] = c
        else:
            for (k, m), c in self.coeffs.items():
                out[(2 * k - 1, 0, -m)] = c
        return out

    def level_terms(self, k: int) -> Series:
        if self.kind is ExpansionKind.POWER_LIKE:
            return {(2 * k - 1, m, 0): c for (k_, m), c in self.coeffs.items() if k_ == k}
        if self.kind is ExpansionKind.REGULAR_LOG:
            return {(2 * k - 1, 0, m): c for (k_, m), c in self.coeffs.items() if k_ == k}
        return {(2 * k - 1, 0, -m): c for (k_, m), c in self.coeffs.items() if k_ == k}

    @property
    def levels(self) -> list[int]:
        return sorted({k for (k, _m) in self.coeffs})


@dataclass
class EvalResult:
    value: complex
    derivative: complex
    order_estimate: float
    level_mags: list[float]
    divergent: bool


def _term_value(key, coeff, tau, logtau, sigma):
    p, m, j = key
    e = p + (m * sigma if m else 0)
    v = coeff * tau**e
    if j:
        v *= logtau**j
    return v


def _term_derivative(key, coeff, tau, logtau, sigma):
    p, m, j = key
    e = p + (m * sigma if m else 0)
    v = coeff * e * tau ** (e - 1)
    if j:
        v = v * logtau**j + coeff * j * tau ** (e - 1) * logtau ** (j - 1)
    return v


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
    total = 0j
    dtotal = 0j
    mags = []
    for k in exp.levels:
        lv = 0j
        dlv = 0j
        for key, c in exp.level_terms(k).items():
            lv += _term_value(key, c, tau, logtau, sig)
            dlv += _term_derivative(key, c, tau, logtau, sig)
        total += lv
        dtotal += dlv
        mags.append(abs(lv))
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
) -> dict:
    """One level of a coupled family: least-squares solve of the (consistent,
    slightly overdetermined) row system."""
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
    A = A.astype(_XP)
    # equilibrate: coefficient magnitudes span many decades across rows and
    # columns (geometric growth in the seeds)
    rsc = np.maximum(np.max(np.abs(A), axis=1), np.longdouble(1e-300))
    As = A / rsc[:, None]
    rs = rhs / rsc
    csc = np.maximum(np.max(np.abs(As), axis=0), np.longdouble(1e-300))
    As = As / csc[None, :]
    sol = _qr_lstsq_xp(As, rs) / csc
    # one refinement pass: conditions up to ~1e7 appear at awkward sigma
    corr = _qr_lstsq_xp(As, rs - As @ (sol * csc)) / csc
    sol = sol + corr
    resid = float(np.max(np.abs(A @ sol - rhs)))
    scale = float(max(np.max(np.abs(rhs)), 1e-30))
    if resid > 1e-10 * scale:
        raise ResonanceError(
            f"inconsistent level system at tau-grade {p_row}: residual {resid:.2e}"
        )
    return dict(zip(unknown_keys, sol))


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

    def build(s11, s1m1):
        coeffs = {(1, 1): _XP(s11), (1, 0): _XP(b10), (1, -1): _XP(s1m1)}
        u: Series = {(1, 0, 0): _XP(b10)}
        if s11 != 0:
            u[(1, 1, 0)] = _XP(s11)
        if s1m1 != 0:
            u[(1, -1, 0)] = _XP(s1m1)
        # one-sided seeds keep their side exactly zero
        m_lo = lambda k: -k if s1m1 != 0 or s11 == 0 else 0
        m_hi = lambda k: k if s11 != 0 or s1m1 == 0 else 0
        for k in range(2, K + 1):
            unknown = [(m, 0) for m in range(m_lo(k), m_hi(k) + 1)]
            rows = [(m, 0) for m in range(m_lo(k + 1) - 1, m_hi(k + 1) + 2)]
            sol = _solve_level_lstsq(
                u, a, beff, sigma, 2 * k - 1, 2 * k - 2, unknown, rows
            )
            for (m, _j), v in sol.items():
                coeffs[(k, m)] = v
                if v != 0:
                    u[(2 * k - 1, m, 0)] = v
        return coeffs

    # The seed rescaling b[2k-1,m] -> lam^m b[2k-1,m] is an exact symmetry.
    # A coefficient comes out with full relative accuracy in a gauge where
    # it is prominent within its level (absolute solver error scales with
    # the level maximum).  Build in the growth-balanced gauge and the two
    # edge-flattened gauges and keep, per coefficient, the most prominent
    # determination.
    if b11 != 0 and b1m1 != 0:
        lam_bal = complex(
            math.sqrt(
                abs(b11) * abs(sigma - 2) ** 2 / (abs(b1m1) * abs(sigma + 2) ** 2)
            )
        )
        gauges = [
            lam_bal,
            4 * b11 / (sigma + 2) ** 2,
            (sigma - 2) ** 2 / (4 * b1m1),
        ]
        best: Dict[Tuple[int, int], tuple] = {}
        for lam in gauges:
            lam_x = _XP(lam)
            raw = build(b11 / lam, b1m1 * lam)
            lvl_max = {}
            for (k, m), c in raw.items():
                lvl_max[k] = max(lvl_max.get(k, 0.0), float(abs(c)))
            for (k, m), c in raw.items():
                prom = float(abs(c)) / lvl_max[k] if lvl_max[k] > 0 else 0.0
                if (k, m) not in best or prom > best[(k, m)][0]:
                    best[(k, m)] = (prom, complex(c * lam_x**m))
        coeffs = {km: v for km, (_p, v) in best.items()}
    else:
        coeffs = {km: complex(c) for km, c in build(b11, b1m1).items()}
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
        M,
    )


# ---------------------------------------------------------------------------
# exponent series for exp(i*phi)


@lru_cache(maxsize=None)
def summation_sets(k: int, N: int) -> tuple:
    """All (m_1..m_N) with m_i >= 0, sum m_i = k and sum i*m_i = N."""
    sols = []

    def rec(i, rem_k, rem_N, acc):
        if i > N:
            if rem_k == 0 and rem_N == 0:
                sols.append(tuple(acc))
            return
        # m_i can be at most min(rem_k, rem_N // i)
        for mi in range(min(rem_k, rem_N // i) + 1):
            rec(i + 1, rem_k - mi, rem_N - i * mi, acc + [mi])

    rec(1, k, N, [])
    return tuple(sols)


def _multinomial(ms) -> float:
    tot = sum(ms)
    out = math.factorial(tot)
    for m in ms:
        out //= math.factorial(m)
    return float(out)


def regrouped_taylor(exp: SeriesExpansion, step: int, n_max: int) -> Dict[int, complex]:
    """Taylor coefficients of eps*u when sigma is the integer ``step``:
    the grading tau^(2k-1+m*step) collapses onto integer powers."""
    out: Dict[int, complex] = {}
    for (k, m), c in exp.coeffs.items():
        p = 2 * k - 1 + m * step
        if p <= n_max:
            out[p] = out.get(p, 0j) + c
    return out


@dataclass
class PhiExpansion:
    """Exponent series of exp(i*phi) for the power-like special regimes.

    kind selects the normalization:
      'even'  : phi ~ const - sum p_N tau^(2N)           (middle-column data)
      'xi'    : exponent -(2n-1) sum xi_n tau^n / n      (vanishing, Im a>0)
      'nu'    : exponent -(2n-1) sum nu_n tau^n / n      (vanishing, Im a<0)
      'eta'   : exponent  i beff/f0 (tau + sum eta_n tau^(n+1)/(n+1))
    """

    kind: str
    coeffs: Dict[int, complex]
    prefactor: complex | None = None
    meta: dict = field(default_factory=dict)

    def exponent_value(self, tau: complex) -> complex:
        """The argument of the exponential (the i is included per kind)."""
        if self.kind == "even":
            s = sum(c * tau ** (2 * N) for N, c in self.coeffs.items())
            return -1j * s
        if self.kind in ("xi", "nu"):
            scale = self.meta["scale"]  # -(2n-1)
            s = sum(c * tau**n / n for n, c in self.coeffs.items())
            return scale * s
        if self.kind == "eta":
            f0 = self.meta["f0"]
            beff = self.meta["beff"]
            s = tau + sum(c * tau ** (n + 1) / (n + 1) for n, c in self.coeffs.items())
            return 1j * beff / f0 * s
        raise ValueError(self.kind)


def pn_coefficients(params: ProblemParams, middle: Dict[int, complex], N_max: int):
    """p_N of the exp(i*phi) exponent for the middle-column families:
    p_N = (a/N) sum_k (2a/beff)^k sum_{M(k,N)} multinomial * prod b[2l+1,0]^m_l."""
    a, beff = params.a, params.beff
    sums = inverse_power_sums(middle, 2 * a / beff, N_max)
    return {N: a / N * tot for N, tot in sums.items()}


def inverse_power_sums(ratios: Dict[int, complex], weight: complex, n_max: int):
    """sum_k weight^k sum_{M(k,n)} multinomial prod ratios[i]^(m_i), n=1..n_max.

    The common combinatorial core of the xi/nu/eta exponent series."""
    out: Dict[int, complex] = {}
    for n in range(1, n_max + 1):
        tot = 0j
        for k in range(1, n + 1):
            inner = 0j
            for ms in summation_sets(k, n):
                term = _multinomial(ms)
                for i, mi in enumerate(ms, start=1):
                    if mi:
                        term *= ratios.get(i, 0j) ** mi
                inner += term
            tot += weight**k * inner
        out[n] = tot
    return out


def phi_series(regime_kind: str, exp: SeriesExpansion, N: int) -> PhiExpansion:
    """Exponent series of exp(i*phi) built from an expansion table.

    regime_kind in {'middle', 'vanishing-plus', 'vanishing-minus',
    'nonvanishing'}; the caller supplies the matching expansion (power-like
    with sigma = -2ia, the half-integer specialization, or sigma = 1).
    """
    params = exp.params
    a, beff = params.a, params.beff
    if regime_kind == "middle":
        middle = {
            l: exp.coeffs.get((l + 1, 0), 0j) for l in range(1, N + 1)
        }
        if exp.K < N + 1:
            raise ValueError("expansion too short for the requested order")
        return PhiExpansion("even", pn_coefficients(params, middle, N))
    if regime_kind in ("vanishing-plus", "vanishing-minus"):
        # sigma = 2n-1 (plus: a = i(n-1/2)) or -(2n-1) (minus)
        step = round(exp.sigma.real) if exp.sigma else 0
        taylor = regrouped_taylor(exp, step, N + 1)
        nn = (abs(step) + 1) // 2
        ratios = {i: taylor.get(i + 1, 0j) for i in range(1, N + 1)}
        coeffs = inverse_power_sums(ratios, 2 * a / beff, N)
        return PhiExpansion(
            "xi" if regime_kind == "vanishing-plus" else "nu",
            coeffs,
            meta={"scale": -(2 * nn - 1)},
        )
    if regime_kind == "nonvanishing":
        taylor = regrouped_taylor(exp, 1, N + 1)
        f0 = taylor.get(0, 0j)
        ratios = {i: taylor.get(i, 0j) / f0 for i in range(1, N + 1)}
        coeffs = inverse_power_sums(ratios, -1.0 + 0j, N)
        return PhiExpansion("eta", coeffs, meta={"f0": f0, "beff": beff})
    raise ValueError(regime_kind)


def export_csv(exp: SeriesExpansion, path: str):
    """Coefficient table as CSV (columns: k, m, re, im)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "m", "re", "im"])
        for (k, m) in sorted(exp.coeffs):
            c = exp.coeffs[(k, m)]
            w.writerow([k, m, repr(c.real), repr(c.imag)])
