"""Leading small-tau asymptotics of u and exp(i*phi) for every regime.

Each classified monodromy point gets an AsymptoticProfile holding the
closed-form amplitude data of its regime (the w/omega amplitudes of the
power regimes, the log-shift constants of the logarithmic regimes, the
oscillator amplitudes of the pole-accumulation regime, or the Taylor seeds
of the meromorphic ones).  Evaluators return the leading value together
with the correction exponents the formula is valid to.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from dp3.monodromy import (
    BranchingParams,
    MonodromyData,
    Regime,
    RegimeTag,
    branching,
    classify,
    residual_norm,
)
from dp3.series import (
    SeriesExpansion,
    eval_expansion,
    irreglog_coeffs,
    phi_exponent,
    power_coeffs,
    regrouped_taylor,
    reglog_coeffs,
)
from dp3.specfun import EULER_GAMMA, digamma, gamma, pow_principal

__all__ = [
    "AsymptoticProfile",
    "PoleChart",
    "DomainError",
    "build_profile",
    "eval_u",
    "eval_phi",
    "eval_uniform",
    "uniform_terms",
    "pole_chart",
    "G_plus_minus",
    "find_G_pm_roots",
    "identify_from_asymptotics",
    "w_amplitudes",
    "series_for_regime",
    "perturbed_w1_oracle",
]

PI = math.pi


class DomainError(ValueError):
    """Evaluation requested inside an excluded disc; carries the nearest
    predicted pole."""

    def __init__(self, msg, nearest=None):
        super().__init__(msg)
        self.nearest = nearest


@dataclass
class AsymptoticProfile:
    regime: Regime
    branching: BranchingParams
    data: MonodromyData
    coefficients: dict
    correction_orders: tuple


@dataclass
class PoleChart:
    """Predicted second-order pole sites accumulating at the origin, with
    the excluded discs D_p of radius R_p = J |tau_p|^(1+delta_d)."""

    tau_p: list
    p_range: range
    J: float
    delta_d: float
    radii: list
    varkappa: float
    ray_angle: float

    def nearest(self, tau: complex):
        d, best = min((abs(tau - t), t) for t in self.tau_p)
        return best, d

    def in_disc(self, tau: complex) -> bool:
        return any(abs(tau - t) < r for t, r in zip(self.tau_p, self.radii))


# ---------------------------------------------------------------------------
# amplitude coefficients


def w_amplitudes(data: MonodromyData, varrho: complex):
    """The four generic power amplitudes at the branching representative
    varrho; they satisfy w1 w2 w3 w4 = (2 pi)^2 e^{-pi a} and w1/w2 = w3/w4,
    and w_k(varrho) = -w_{k+1}(1 - varrho) for k = 1, 3."""
    a = data.params.a
    beff = data.params.beff
    q = cmath.exp(0.25j * PI)
    ev = cmath.exp(1j * PI * varrho)
    base_p = 0.5 * beff * 1j  # (eps b/2) e^{i pi/2}
    base_m = -0.5 * beff * 1j
    g11, g12, g21, g22 = data.g
    gr = gamma(2 * varrho) / gamma(2 - 2 * varrho)
    w1 = (
        pow_principal(base_p, 0.5 - varrho)
        * gr
        * gamma(1 - varrho + 0.5j * a)
        * (g11 * q / ev + g21 / q * ev)
    )
    w2 = (
        pow_principal(base_p, varrho - 0.5)
        / gr
        * gamma(varrho + 0.5j * a)
        * (g11 * q * ev + g21 / q / ev)
    )
    w3 = (
        pow_principal(base_m, 0.5 - varrho)
        * gr
        * gamma(1 - varrho - 0.5j * a)
        * (g12 * q / ev + g22 / q * ev)
    )
    w4 = (
        pow_principal(base_m, varrho - 0.5)
        / gr
        * gamma(varrho - 0.5j * a)
        * (g12 * q * ev + g22 / q / ev)
    )
    return w1, w2, w3, w4


def _stokes_side(data: MonodromyData, side: int):
    """(g, s) of a Stokes side: (g21, s1inf) for side = +1, whose family has
    s0inf = 0, and (g12, s0inf) for side = -1, whose family has s1inf = 0."""
    return (data.g21, data.s1inf) if side > 0 else (data.g12, data.s0inf)


# the closed-form seed a special-power profile carries on each Stokes side
_SEED_KEYS = {1: "b1m1", -1: "b11"}


def _seed_side(co: dict) -> int:
    """+1 for a b1m1-seeded profile, -1 for a b11-seeded one, else 0."""
    return 1 if "b1m1" in co else -1 if "b11" in co else 0


def _special_power_hats(data: MonodromyData, br: BranchingParams, side: int):
    """Amplitudes (w1, w2) for side = +1 or (w3, w4) for side = -1 of the
    one-parameter power families (the gamma-pole indeterminacy of the
    generic w resolved in closed form), with the family index n."""
    a = data.params.a
    g, s = _stokes_side(data, side)
    varrho = br.varrho
    gr = gamma(2 * varrho) / gamma(2 - 2 * varrho)
    n = max(0, round((varrho - 1 - side * 0.5j * a).real))
    base = side * 0.5 * data.params.beff * 1j
    wa = (
        pow_principal(base, 0.5 - varrho)
        * (2 * PI / math.factorial(n))
        * gr
        * cmath.exp((0.5 + 0.25 * side) * 1j * PI - (0.5 + side) * PI * a)
        / (s * g)
    )
    wb = (
        pow_principal(base, varrho - 0.5)
        * cmath.exp(side * 1j * PI * (varrho - 0.25))
        / gr
        * gamma(2 * varrho - n - 1)
        * 2
        * cmath.sinh(PI * a)
        * g
    )
    return wa, wb, n


def _pole_amplitudes(data: MonodromyData, varkappa: float):
    """Oscillator amplitudes of the pole-accumulation regime (generic
    Stokes data); A-route and B-route give identical asymptotics."""
    a = data.params.a
    beff = data.params.beff
    g11, g12, g21, g22 = data.g
    q = cmath.exp(-0.25j * PI)

    def A(k):
        return (
            math.exp(PI * k / 2)
            * pow_principal(beff / 2, -1j * k)
            * gamma(1 + 2j * k)
            / gamma(1 - 2j * k)
            * gamma(0.5 + 0.5j * a - 1j * k)
            * (g11 * q * math.exp(PI * k) + g21 / q * math.exp(-PI * k))
        )

    def B(k):
        return (
            math.exp(-PI * k / 2)
            * pow_principal(beff / 2, -1j * k)
            * gamma(1 + 2j * k)
            / gamma(1 - 2j * k)
            * gamma(0.5 - 0.5j * a - 1j * k)
            * (g12 * q * math.exp(PI * k) + g22 / q * math.exp(-PI * k))
        )

    return {
        "A+": A(varkappa),
        "A-": A(-varkappa),
        "B+": B(varkappa),
        "B-": B(-varkappa),
    }


def _pole_variant_amplitudes(data: MonodromyData, varkappa: float, n: int, plus: bool):
    """Amplitudes of the special-power pole variants a = 2k +- i(2n+1)."""
    beff = data.params.beff
    k = varkappa
    gr = gamma(1 + 2j * k) / gamma(1 - 2j * k)
    if plus:
        w1 = (
            pow_principal(beff / 2, -1j * k)
            * cmath.exp(0.25j * PI + 1j * PI * (n + 1))
            * (2 * PI / math.factorial(n))
            * gr
            * math.exp(-2.5 * PI * k)
            / (data.s1inf * data.g21)
        )
        w2 = (
            pow_principal(beff / 2, 1j * k)
            * cmath.exp(-0.25j * PI - 1j * PI * (n + 1))
            * (2 * PI / gamma(n + 1 - 2j * k))
            / gr
            * math.exp(-1.5 * PI * k)
            * data.g21
        )
        return {"o1": w1, "o2": w2}
    w3 = (
        pow_principal(beff / 2, 1j * k)
        * cmath.exp(-0.25j * PI - 1j * PI * n)
        * (2 * PI / math.factorial(n))
        / gr
        * math.exp(1.5 * PI * k)
        / (data.s0inf * data.g12)
    )
    w4 = (
        pow_principal(beff / 2, -1j * k)
        * cmath.exp(0.25j * PI + 1j * PI * (n + 1))
        * (2 * PI / gamma(n + 1 + 2j * k))
        * gr
        * math.exp(-1.5 * PI * k)
        * data.g12
    )
    return {"o3": w3, "o4": w4}


def _log_constants(data: MonodromyData):
    """The log-shift constants: c for the branching-exponent-0 family,
    c_-/c_+ for the exponent-1/2 family (they coincide on the manifold)."""
    a = data.params.a
    beff = data.params.beff
    g11, g12, g21, g22 = data.g
    lb = math.log(beff / 2)
    out = {}
    if abs(data.s00 - 2j) < 1e-6 * max(1.0, abs(data.s00)):
        out["c"] = (
            4 * EULER_GAMMA
            + 1j / a
            + digamma(-0.5j * a)
            - 0.5j * PI
            + 1j * PI * (g12 + 1j * g22) / (g12 - 1j * g22)
            + lb
        )
    if abs(data.s00 + 2j) < 1e-6 * max(1.0, abs(data.s00)):
        out["c_minus"] = (
            4 * EULER_GAMMA
            + digamma(0.5 + 0.5j * a)
            + 0.5j * PI
            + 1j * PI * (g11 - 1j * g21) / (g11 + 1j * g21)
            + lb
        )
        out["c_plus"] = (
            4 * EULER_GAMMA
            + digamma(0.5 - 0.5j * a)
            - 0.5j * PI
            + 1j * PI * (g12 - 1j * g22) / (g12 + 1j * g22)
            + lb
        )
    return out


def G_plus_minus(a: complex, eb: float):
    """The pair of truncation indicators of the exponent-1/2 log family
    (zero iff the log-shift constant vanishes).

    The digamma arguments are 1 +- ia/2: that convention reproduces the
    reference root table for eb = 2 (the 1/2 +- ia/2 variant does not)."""
    ema = cmath.exp(-PI * a)
    psi_sym = 0.5 * (digamma(1 + 0.5j * a) + digamma(1 - 0.5j * a))
    core = (1 + ema) / PI * (math.log(eb / 2) + 4 * EULER_GAMMA + psi_sym)
    return core + 1j * ema, core - 1j * ema


# ---------------------------------------------------------------------------
# profile construction


def build_profile(data: MonodromyData, tol: float = 1e-9) -> AsymptoticProfile:
    """Fill the regime-specific coefficient record from the closed forms.

    The special and half-integer families come in mirrored pairs, written
    once with the Stokes side as a sign: side = +1 reads (g21, s1inf) and
    has s0inf = 0, side = -1 reads (g12, s0inf) and has s1inf = 0.  Off the
    pole line a special-power profile stores sigma = -2ia and its seed, b1m1
    on side +1 (SpecialPowerPlus) or b11 on side -1, plus the hats (w1, w2)
    or (w3, w4) and n when side * Im a > 0; the pole variants store
    (o1, o2) or (o3, o4).  The half vanishing family stores b11_hat on
    side -1 (Im a > 0) or b1m1_check on side +1.
    """
    if residual_norm(data) > 1e-6:
        raise ValueError("data too far off the monodromy manifold")
    regime = classify(data, tol=tol)
    br = branching(data, regime, tol=tol)
    a = data.params.a
    beff = data.params.beff
    tag = regime.tag
    co: dict = {}

    if tag is RegimeTag.GENERIC_POWER:
        if regime.subcase.get("varrho_ray"):
            raise DomainError("excluded ray: use uniform or rho-based evaluation")
        w1, w2, w3, w4 = w_amplitudes(data, br.varrho)
        co.update(w1=w1, w2=w2, w3=w3, w4=w4)
        re = br.varrho.real
        orders = (4 * re, 4 - 4 * re)
    elif tag in (RegimeTag.SPECIAL_POWER_PLUS, RegimeTag.SPECIAL_POWER_MINUS):
        side = 1 if tag is RegimeTag.SPECIAL_POWER_PLUS else -1
        if regime.subcase.get("poles"):
            co.update(_pole_variant_amplitudes(data, regime.subcase["varkappa"],
                                               regime.subcase["n"], side > 0))
            orders = (2.0,)
        else:
            sigma = -2j * a
            g, s = _stokes_side(data, side)
            co["sigma"] = sigma
            co[_SEED_KEYS[side]] = (
                -1j
                * pow_principal(beff / 2, 1 + side * 1j * a)
                * PI
                * cmath.exp((side - 0.5) * PI * a)
                / cmath.sinh(PI * a)
                * s
                * g**2
                / gamma(1 + side * 1j * a) ** 3
            )
            if side * a.imag > 0:
                wa, wb, n = _special_power_hats(data, br, side)
                ka, kb = ("w1", "w2") if side > 0 else ("w3", "w4")
                co.update({ka: wa, kb: wb, "n": n})
            orders = (2.0, abs(2 - side * 2 * sigma.real))
    elif tag in (RegimeTag.LOG_RHO0, RegimeTag.LOG_VARRHO_HALF):
        co.update(_log_constants(data))
        orders = (2.0,)
    elif tag is RegimeTag.POLE_ACCUMULATION:
        co.update(_pole_amplitudes(data, regime.subcase["varkappa"]))
        co["varkappa"] = regime.subcase["varkappa"]
        orders = (2.0,)  # 2 - delta_d once a chart is chosen
    elif tag is RegimeTag.MEROMORPHIC_VANISHING:
        co["sigma"] = -2j * a
        if regime.subcase.get("family") == "half":
            n = regime.subcase["n"]
            co["n"] = n
            dfac = float(_double_factorial(2 * n - 1))
            # b11_hat on the g12 side (Im a > 0), b1m1_check on the g21 side
            side = -1 if a.imag > 0 else 1
            g, s = _stokes_side(data, side)
            co["b11_hat" if side < 0 else "b1m1_check"] = (
                cmath.exp(-side * 0.75j * PI)
                * cmath.exp(side * 0.5j * PI * n)
                * beff ** (n + 0.5)
                * 2 ** (2 * n)
                * s
                * g**2
                / (math.sqrt(2 * PI) * dfac**3)
            )
        orders = (float("inf"),)
    elif tag is RegimeTag.MEROMORPHIC_NONVANISHING:
        co["sigma"] = 1.0 + 0j
        g11, g12, g21, g22 = data.g
        if regime.subcase.get("family") == "generic":
            co["b1m1_tilde"] = (
                math.sqrt(beff / 2)
                * cmath.exp(PI * a / 2)
                / (2 * PI)
                * gamma(0.75 - 0.5j * a)
                * gamma(0.75 + 0.5j * a)
                * (g11 + g21)
                * (g12 + g22)
            )
        else:
            m = regime.subcase["m"]
            co["m"] = m
            if m >= 1:
                # a = i(m - 1/2), s0inf = 0
                if m % 2 == 0:
                    n = (m - 2) // 2  # a = i(2n + 3/2)
                    co["b1m1_tilde"] = (
                        -math.sqrt(2 * PI)
                        / 4
                        * math.sqrt(beff)
                        / (data.s1inf * g21**2)
                        * _double_factorial(2 * n + 1)
                        / _double_factorial(2 * n)
                    )
                else:
                    n = (m - 1) // 2  # a = i(2n + 1/2)
                    co["b1m1_tilde"] = (
                        -4
                        * cmath.exp(0.25j * PI)
                        * math.sqrt(beff)
                        / math.sqrt(2 * PI)
                        * _double_factorial(2 * n)
                        / _double_factorial(2 * n - 1)
                        * data.s1inf
                        * g21**2
                    )
            else:
                nn = 1 - m
                if nn % 2 == 0:
                    n = (nn - 2) // 2  # a = -i(2n + 3/2)
                    co["b1m1_tilde"] = (
                        cmath.exp(-0.25j * PI)
                        * math.sqrt(2 * PI)
                        / 4
                        * math.sqrt(beff)
                        / (data.s0inf * g12**2)
                        * _double_factorial(2 * n + 1)
                        / _double_factorial(2 * n)
                    )
                else:
                    n = (nn - 1) // 2  # a = -i(2n + 1/2)
                    co["b1m1_tilde"] = (
                        cmath.exp(0.75j * PI)
                        * math.sqrt(beff)
                        / math.sqrt(2 * PI)
                        * _double_factorial(2 * n)
                        / _double_factorial(2 * n - 1)
                        * data.s0inf
                        * g12**2
                    )
        orders = (float("inf"),)
    else:
        raise ValueError(f"unhandled regime {tag}")

    return AsymptoticProfile(regime, br, data, co, orders)


def _double_factorial(n: int) -> int:
    if n <= 0:
        return 1
    out = 1
    while n > 0:
        out *= n
        n -= 2
    return out


# ---------------------------------------------------------------------------
# evaluation


# generic profiles store all four w amplitudes: the first pair found is read
_PAIR_KEYS = (("w1", "w2", 1), ("w3", "w4", -1), ("o1", "o2", 1), ("o3", "o4", -1))


def _power_pair(profile: AsymptoticProfile):
    """(w_a, w_b, side) of a power-like profile, or None for the regimes of
    another leading form.

    Every power-like regime has the leading form
        u ~ eps (1-2 varrho)^2 w_a w_b
            / (tau (w_a tau^(1-2 varrho) + w_b tau^(2 varrho-1))^2)
    with varrho = profile.branching.varrho: (w1, w2) for generic data and the
    s0inf = 0 hats, (w3, w4) for the s1inf = 0 hats, (A+, -A-) in pole
    accumulation and (o1, o2) or (o3, o4) for the two pole variants.  side is
    -1 for the (w3, w4)-like pairs, whose exp(i phi) is written in w3 w4
    (w1 w2 w3 w4 = (2 pi)^2 e^{-pi a}), and +1 otherwise.
    """
    co = profile.coefficients
    if "A+" in co:
        return co["A+"], -co["A-"], 1
    for ka, kb, side in _PAIR_KEYS:
        if ka in co:
            return co[ka], co[kb], side
    return None


def _power_like_u(eps, varrho, wa, wb, tau):
    t1 = pow_principal(tau, 1 - 2 * varrho)
    t2 = pow_principal(tau, -1 + 2 * varrho)
    return eps * (1 - 2 * varrho) ** 2 * wa * wb / (tau * (wa * t1 + wb * t2) ** 2)


def _tau2ia(tau, a):
    return pow_principal(2 * tau * tau, 1j * a)


# the level eval_u sums the series to where no closed form applies, and the
# order through which eval_phi reads it
_SERIES_LEVEL = 6
_PHI_ORDER = 4


def eval_u(
    profile: AsymptoticProfile,
    tau: complex,
    chart: PoleChart | None = None,
):
    """Leading-order u(tau) for the profile's regime.

    Returns (value, correction_orders).  Every power-like regime (generic,
    the special hats, pole accumulation and its variants) evaluates the one
    leading form of _power_pair; the special families with |Im a| < 1 use
    their closed forms.  A chart exists only for the pole regimes: the point
    is checked against its excluded discs (a DomainError carries the nearest
    predicted pole) and the correction order drops by its delta_d.  For the
    meromorphic regimes and the special families on their series side the
    series is summed to level _SERIES_LEVEL.
    """
    tau = complex(tau)
    data = profile.data
    eps = data.params.epsilon
    a = data.params.a
    tag = profile.regime.tag
    co = profile.coefficients

    # the special families off the pole line carry their closed-form seed:
    # b1m1 (side +1) or b11 (side -1)
    side = _seed_side(co)
    if side and -1 < a.imag < 1:
        sigma, seed = co["sigma"], co[_SEED_KEYS[side]]
        ts = pow_principal(tau, 1 - side * sigma)
        val = (
            eps * seed * ts / (1 + 4 * seed * ts * tau / (sigma - 2 * side) ** 2) ** 2
            - data.params.b * tau / (2 * a)
        )
        return val, (abs(2 - side * sigma.real), 2.0)

    pair = _power_pair(profile)
    if pair is not None:
        orders = profile.correction_orders
        if chart is not None:
            if chart.in_disc(tau):
                t, _ = chart.nearest(tau)
                raise DomainError(f"tau inside excluded disc around {t}", nearest=t)
            orders = (orders[0] - chart.delta_d,)
        wa, wb, _ = pair
        return _power_like_u(eps, profile.branching.varrho, wa, wb, tau), orders

    if tag is RegimeTag.LOG_RHO0:
        lt = cmath.log(tau)
        c = co["c"]
        val = (
            -a
            * data.params.b
            * tau
            * (lt + 0.5 * (c - 1j / a))
            * (lt + 0.5 * (c + 1j / a))
        )
        return val, (2.0,)

    if tag is RegimeTag.LOG_VARRHO_HALF:
        lt = cmath.log(tau)
        return -eps / (4 * tau * (lt + co["c_minus"] / 2) ** 2), (2.0,)

    exp = series_for_regime(profile, K=_SERIES_LEVEL)
    return eval_expansion(exp, tau).value, (float(2 * _SERIES_LEVEL + 1),)


def eval_phi(profile: AsymptoticProfile, tau: complex):
    """Leading value of exp(i*phi(tau)) with its correction orders.

    Every power-like regime reads its amplitude pair from _power_pair:
    exp(i phi) ~ e^{3 i pi/2} e^{-pi a/2} (2 pi / (w_a w_b)) (2 tau^2)^{i a},
    or e^{3 i pi/2} e^{pi a/2} (w_a w_b / 2 pi) (2 tau^2)^{i a} for the
    (w3, w4)-like pairs.  The log regimes and the special families with
    |Im a| < 1 use their closed forms; every other regime is prefactor *
    exp(phi_exponent) of its series, read through order _PHI_ORDER.

    The special families' closed forms and series-side prefactors are each
    one formula in the Stokes side (see build_profile); on side -1 that
    formula gives 1/exp(i phi), and the value returned is its inverse.  On
    the series side the odd vanishing family is side -1 without a seed.
    """
    tau = complex(tau)
    data = profile.data
    a = data.params.a
    eps = data.params.epsilon
    beff = data.params.beff
    tag = profile.regime.tag
    co = profile.coefficients
    g11, g12, g21, g22 = data.g

    side = _seed_side(co)
    if side and -1 < a.imag < 1:
        g, s = _stokes_side(data, side)
        val = (
            side
            * cmath.exp(PI * a)
            / (2 * PI * a * g**2)
            * (
                cmath.exp((side - 0.5) * PI * a)
                * gamma(1 - side * 1j * a)
                * s
                * g**2
                * _tau2ia(tau, side * a)
                - 1j * gamma(1 + side * 1j * a) ** 2 * pow_principal(4 / beff, side * 1j * a)
            )
        )
        return (val if side > 0 else 1 / val), (2.0, abs(2 + side * (2j * a).real))

    pair = _power_pair(profile)
    if pair is not None:
        wa, wb, side = pair
        amp = 2 * PI / (wa * wb) if side > 0 else wa * wb / (2 * PI)
        val = cmath.exp(1.5j * PI) * cmath.exp(-side * PI * a / 2) * amp
        return val * _tau2ia(tau, a), profile.correction_orders

    if tag is RegimeTag.LOG_RHO0:
        lt = cmath.log(tau)
        c = co["c"]
        val = (
            cmath.exp(0.5 * PI * (a + 1j))
            / (PI * a)
            * (g12 - 1j * g22) ** 2
            * gamma(1 - 0.5j * a) ** 2
            * _tau2ia(tau, a)
            * (lt + 0.5 * (c + 1j / a))
            / (lt + 0.5 * (c - 1j / a))
        )
        return val, (2.0,)

    if tag is RegimeTag.LOG_VARRHO_HALF:
        lt = cmath.log(tau)
        cm = co["c_minus"]
        expo = -2j * eps * data.params.b * tau * tau * (
            (lt + cm / 2 - 0.5) ** 2 + 0.25
        )
        val = (
            -2
            * PI
            * cmath.exp(-PI * a / 2)
            * _tau2ia(tau, a)
            * cmath.exp(expo)
            / (gamma(0.5 + 0.5j * a) * (g11 + 1j * g21)) ** 2
        )
        return val, (4.0,)

    # the table side: exp(i phi) = pre * exp(phi_exponent) with a closed-form
    # prefactor that carries the log term and the constant of integration
    N = _PHI_ORDER
    exp = series_for_regime(profile, K=N + 1)
    subcase = profile.regime.subcase
    if tag is RegimeTag.MEROMORPHIC_NONVANISHING:
        expo = phi_exponent(regrouped_taylor(exp, 1, N), beff, tau, N)
        if subcase.get("family") == "generic":
            pre = (
                cmath.exp(-0.75j * PI)
                * gamma(0.75 - 0.5j * a)
                / gamma(0.75 + 0.5j * a)
                * ((g12 + g22) / (g11 + g21))
                * _tau2ia(tau, a)
            )
        else:
            # a = i(m - 1/2): s1inf multiplies for m >= 1, s0inf divides for
            # the mirror m <= 0
            m = subcase["m"]
            j, s, side = (m - 1, data.s1inf, 1) if m >= 1 else (-m, data.s0inf, -1)
            r = math.factorial(j) * s / (math.sqrt(2 * PI) * (2 * tau) ** (2 * j + 1))
            pre = cmath.exp(0.25j * PI * (-1) ** j) * (-1) ** (j // 2) * r**side
        return pre * cmath.exp(expo), (float(N + 1),)

    if tag is RegimeTag.MEROMORPHIC_VANISHING and subcase.get("family") == "half":
        # a = i(n - 1/2) (Im a > 0, g12) or its mirror (Im a < 0, g21)
        taylor = regrouped_taylor(exp, round(co["sigma"].real), N + 1)
        n = subcase["n"]
        g, side = (g12, -1) if a.imag > 0 else (g21, 1)
        q = (-1) ** n * 1j * _double_factorial(2 * n - 1) ** 2 / (
            2 * beff ** (n - 0.5) * g**2 * (2 * n - 1)
        )
        return q**side * cmath.exp(phi_exponent(taylor, beff, tau, N)), (float(N + 1),)

    # the special families deep in their series side (|Im a| >= 1) and the
    # odd vanishing family read the middle column b[2k-1,0]; the odd family
    # is side -1 without a seed, and a seeded side adds its seed's term to
    # the exponent
    middle = {2 * k - 1: exp.coeffs[(k, 0)] for k in range(1, N + 2)}
    expo = phi_exponent(middle, beff, tau, 2 * N)
    seeded = _seed_side(co)
    side = seeded or -1
    g, _ = _stokes_side(data, side)
    pre = (
        -side
        * 1j
        * cmath.exp(PI * a)
        * gamma(1 + side * 1j * a) ** 2
        / (2 * PI * a * g**2)
        * pow_principal(beff / 4, -side * 1j * a)
    )
    orders = (float(2 * N + 2),)
    if seeded:
        sigma, seed = co["sigma"], co[_SEED_KEYS[side]]
        expo += side * 4j * a * a / beff * seed * pow_principal(tau, -side * sigma) / sigma
        orders = (2.0,)
    return (pre * cmath.exp(expo) if side > 0 else cmath.exp(expo) / pre), orders


# ---------------------------------------------------------------------------
# series parametrization (seeding the integrator and the complete expansions)


def series_for_regime(profile: AsymptoticProfile, K: int = 6, M: int = 12) -> SeriesExpansion:
    """Complete local expansion whose leading behaviour is the profile's.

    Maps the regime's amplitude data onto the seeds of the matching family:
    regular log for the exponent-0 log family, irregular log for the
    exponent-1/2 one (ct[-1,3] = c_-/4), the Taylor seeds of the meromorphic
    regimes, and for every power regime off the pole line the power-like
    family seeded by uniform_seeds (the branching representative inside
    |Re sigma| <= 2).  The pole regimes (pole accumulation and the special
    pole variants) sit at Re sigma = -2, where every level contributes O(1):
    they raise DomainError.
    """
    params = profile.data.params
    tag = profile.regime.tag
    co = profile.coefficients

    if tag is RegimeTag.LOG_RHO0:
        return reglog_coeffs(params, co["c"], K=K)
    if tag is RegimeTag.LOG_VARRHO_HALF:
        return irreglog_coeffs(params, co["c_minus"] / 4, K=K, M=M)

    if tag is RegimeTag.MEROMORPHIC_VANISHING:
        # the odd family carries neither half-family seed
        b11, b1m1 = co.get("b11_hat", 0.0), co.get("b1m1_check", 0.0)
        return power_coeffs(params, co["sigma"], b11=b11, b1m1=b1m1, K=K)

    if tag is RegimeTag.MEROMORPHIC_NONVANISHING:
        return power_coeffs(params, 1.0 + 0j, b1m1=co["b1m1_tilde"], K=K)

    if tag is RegimeTag.POLE_ACCUMULATION or profile.regime.subcase.get("poles"):
        raise DomainError(
            "no convergent level sum on the pole line; use eval_u or eval_uniform"
        )
    sigma, b11, b1m1 = uniform_seeds(profile)
    return power_coeffs(params, sigma, b11=b11, b1m1=b1m1, K=K)


# ---------------------------------------------------------------------------
# uniform formula


def uniform_terms(params, sigma, b11, b1m1, tau):
    """The three leading uniform terms and the two first-correction terms,
    all with their tau-derivatives; eps is NOT applied here."""
    a, beff = params.a, params.beff
    x = pow_principal(tau, 2 + sigma)
    xb = pow_principal(tau, 2 - sigma)
    z = 4 * b11 * x / (sigma + 2) ** 2
    zb = 4 * b1m1 * xb / (sigma - 2) ** 2
    b10 = 2 * a * beff / sigma**2

    # A0(x)/tau and its mirror
    def a0_pair(z, sgn):
        pref = (sigma + 2 * sgn) ** 2 / 4
        val = pref * z / (1 + z) ** 2
        dz = (2 + sgn * sigma) * z / tau
        dval = pref * (1 - z) / (1 + z) ** 3 * dz
        return val, dval

    A0v, A0d = a0_pair(z, 1)
    B0v, B0d = a0_pair(zb, -1)

    # A1(x)/x - b10 and mirror (first correction kernels)
    def corr_pair(z, sgn):
        s = sigma * sgn
        K = 4 * a * beff * (s + 2) / (sigma**2 * (s + 4) ** 2)
        # h = -K z/(z+1) (2(s+2)^2/(z+1)^2 - (s^2-4)/(z+1) + 4)
        c1, c2 = 2 * (s + 2) ** 2, s * s - 4

        def frac(m):  # z/(1+z)^m and derivative wrt z
            return z / (1 + z) ** m, (1 - (m - 1) * z) / (1 + z) ** (m + 1)

        f3, df3 = frac(3)
        f2, df2 = frac(2)
        f1, df1 = frac(1)
        h = -K * (c1 * f3 - c2 * f2 + 4 * f1)
        dh_dz = -K * (c1 * df3 - c2 * df2 + 4 * df1)
        dz = (2 + s) * z / tau
        return h, dh_dz * dz

    H1v, H1d = corr_pair(z, 1)
    H2v, H2d = corr_pair(zb, -1)
    return {
        "lead": (A0v + B0v) / tau + b10 * tau,
        "dlead": (A0d + B0d) / tau - (A0v + B0v) / tau**2 + b10,
        "corr": tau * (H1v + H2v),
        "dcorr": (H1v + H2v) + tau * (H1d + H2d),
    }


def eval_uniform(
    profile: AsymptoticProfile,
    tau: complex,
    with_correction: bool = False,
    derivative: bool = False,
):
    """Branching-uniform leading term (valid across Re sigma in [-2, 2],
    sigma away from 0, +-2), optionally with the explicit first correction.

    Returns value or (value, derivative)."""
    params = profile.data.params
    eps = params.epsilon
    sigma, b11, b1m1 = uniform_seeds(profile)
    for s in (0.0, 2.0, -2.0):
        if abs(sigma - s) < 1e-6:
            raise DomainError(
                f"sigma within 1e-6 of {s:+.0f}: uniform formula excluded; "
                "use the logarithmic regimes"
            )
    if not -2 - 1e-9 <= sigma.real <= 2 + 1e-9:
        raise DomainError("uniform formula needs Re sigma in [-2, 2]")
    t = uniform_terms(params, sigma, b11, b1m1, complex(tau))
    val = t["lead"]
    dval = t["dlead"]
    if with_correction:
        exp3 = power_coeffs(params, sigma, b11=b11, K=2)
        b30 = exp3.coeffs[(2, 0)]
        val = val + t["corr"] + b30 * tau**3
        dval = dval + t["dcorr"] + 3 * b30 * tau**2
    if derivative:
        return eps * val, eps * dval
    return eps * val


def uniform_seeds(profile: AsymptoticProfile):
    """(sigma, b11, b1m1) of the power-like series of a power regime.

    The special families off the pole line give their closed-form seeds
    (sigma = -2ia, one side zero).  Every other power regime reads its
    amplitude pair from _power_pair at varrho = profile.branching.varrho:
    sigma = 4 varrho - 4 with b11 = (1-2 varrho)^2 w_b/w_a when Re varrho
    >= 1/2 (on the pole line Re varrho = 1/2 this puts Re sigma at -2,
    convergent off the pole ray), else sigma = 4 varrho with b1m1 =
    (1-2 varrho)^2 w_a/w_b; the other seed follows from the product
    constraint."""
    co = profile.coefficients
    params = profile.data.params
    if "b1m1" in co:
        return co["sigma"], 0j, co["b1m1"]
    if "b11" in co:
        return co["sigma"], co["b11"], 0j
    pair = _power_pair(profile)
    if pair is None:
        raise DomainError(f"no uniform seeds for regime {profile.regime.tag}")
    wa, wb, _ = pair
    vr = profile.branching.varrho
    if vr.real >= 0.5:
        sigma = 4 * vr - 4
        b11 = (1 - 2 * vr) ** 2 * wb / wa
        return sigma, b11, _other_seed(params, sigma, b11)
    sigma = 4 * vr
    b1m1 = (1 - 2 * vr) ** 2 * wa / wb
    return sigma, _other_seed(params, sigma, b1m1), b1m1


def _other_seed(params, sigma, seed):
    prod = params.beff**2 * (4 * params.a**2 + sigma**2) / (4 * sigma**4)
    return prod / seed if seed != 0 else 0j


# ---------------------------------------------------------------------------
# pole chart


def pole_chart(
    profile: AsymptoticProfile,
    p_range: range,
    delta_d: float = 0.5,
) -> PoleChart:
    """Predicted pole sites tau_p and excluded discs for a pole regime."""
    if not 0 <= delta_d < 2:
        raise ValueError("delta_d must lie in [0, 2)")
    co = profile.coefficients
    tag = profile.regime.tag
    if tag is RegimeTag.POLE_ACCUMULATION:
        k = co["varkappa"]
        shift = (1j / (4 * k)) * cmath.log(co["A-"] / co["A+"])
    elif "o1" in co:
        k = profile.regime.subcase["varkappa"]
        shift = PI / (4 * k) - (1j / (4 * k)) * cmath.log(co["o1"] / co["o2"])
    elif "o3" in co:
        k = profile.regime.subcase["varkappa"]
        shift = PI / (4 * k) + (1j / (4 * k)) * cmath.log(co["o3"] / co["o4"])
    else:
        raise ValueError("pole charts exist only for pole regimes")
    J = 1 - math.exp(-PI / (2 * abs(k)))
    if delta_d == 0:
        J /= 3.0
    taus = [cmath.exp(-PI * p / (2 * abs(k)) + shift) for p in p_range]
    radii = [J * abs(t) ** (1 + delta_d) for t in taus]
    return PoleChart(
        taus, p_range, J, delta_d, radii, k, cmath.phase(taus[0]) if taus else 0.0
    )


# ---------------------------------------------------------------------------
# root finding for the truncation indicators


def find_G_pm_roots(
    eb: float,
    box: tuple,
    which: str = "plus",
    grid: int = 14,
    tol: float = 1e-13,
    max_iter: int = 60,
):
    """Roots of G_+ = 0 (or G_- = 0) inside box = (re_min, re_max, im_min,
    im_max), by damped Newton from a grid of starting points.  Returns the
    deduplicated roots sorted by |Im a|."""
    re0, re1, im0, im1 = box
    idx = 0 if which == "plus" else 1

    def f(a):
        return G_plus_minus(a, eb)[idx]

    roots = []
    h = 1e-7
    for i in range(grid):
        for j in range(grid):
            a = complex(
                re0 + (re1 - re0) * (i + 0.5) / grid,
                im0 + (im1 - im0) * (j + 0.5) / grid,
            )
            ok = False
            for _ in range(max_iter):
                try:
                    fv = f(a)
                    df = (f(a + h) - f(a - h)) / (2 * h)
                except Exception:
                    break
                if df == 0:
                    break
                step = fv / df
                # damping: never jump more than a box diagonal fraction
                lim = 0.3 * max(re1 - re0, im1 - im0)
                if abs(step) > lim:
                    step *= lim / abs(step)
                a = a - step
                if abs(step) < tol:
                    ok = True
                    break
            if not ok:
                continue
            if not (re0 - 0.1 <= a.real <= re1 + 0.1 and im0 - 0.1 <= a.imag <= im1 + 0.1):
                continue
            if abs(f(a)) > 1e-8:
                continue
            if all(abs(a - r) > 1e-6 for r in roots):
                roots.append(a)
    roots.sort(key=lambda r: abs(r.imag))
    return roots


# ---------------------------------------------------------------------------
# identification from an observed power-like asymptotic form


def identify_from_asymptotics(p, q1, q2, alpha, params):
    """Which theorem parametrizes u ~ p/(tau (q1 tau^alpha + q2 tau^-alpha)^2).

    Returns (tag, info) where tag is 'generic', 'special-plus' or
    'special-minus' and info carries the admissible branching exponent(s)
    and the amplitude-ratio relation the monodromy data must satisfy."""
    p, q1, q2, alpha = complex(p), complex(q1), complex(q2), complex(alpha)
    a = params.a
    if 0 in (p, q1, q2, alpha) or abs(alpha.real) >= 1:
        raise ValueError("need alpha, p, q1, q2 != 0 and |Re alpha| < 1")
    # (1) candidate exponents from the tau powers
    vr_a = (1 - alpha) / 2
    vr_b = (1 + alpha) / 2
    # (2) normalize q1*q2 = 1
    lam2 = 1 / (q1 * q2)
    # (3) same exponents from the amplitude
    root = cmath.sqrt(params.epsilon * p * lam2)
    vr_c = (1 - root) / 2
    vr_d = (1 + root) / 2
    pairs = sorted([vr_a, vr_b], key=lambda z: (z.real, z.imag))
    pairs2 = sorted([vr_c, vr_d], key=lambda z: (z.real, z.imag))
    if any(abs(x - y) > 1e-8 * max(1, abs(x)) for x, y in zip(pairs, pairs2)):
        raise ValueError("malformed asymptotics: amplitude and exponents disagree")
    qt1 = q1 * cmath.sqrt(lam2)
    qt2 = q2 * cmath.sqrt(lam2)
    info = {
        "varrho_candidates": (vr_a, vr_b),
        "ratio_relation": {"q1_tilde^2": qt1 * qt1, "equals": "w1/w2 at the chosen varrho"},
    }
    if abs(a.imag) < 1e-12:
        info["varrho"] = vr_a if 0 < vr_a.real < 1 else vr_b
        return "generic", info
    # the special family on the side of Im a has varrho = 1 + n + side i a/2
    # with n = floor(side Im a / 2)
    side = 1 if a.imag > 0 else -1
    frac = a.imag / 2 - math.floor(a.imag / 2)
    want_re, want_im = (1 + side) / 2 - side * frac, side * a.real / 2
    for vr in (vr_a, vr_b):
        if abs(vr.real - want_re) < 1e-8 and abs(vr.imag - want_im) < 1e-8:
            info["varrho"] = vr
            info["n"] = math.floor(side * a.imag / 2)
            return ("special-plus" if side > 0 else "special-minus"), info
    info["varrho"] = vr_a if 0 < vr_a.real < 1 else vr_b
    return "generic", info


# ---------------------------------------------------------------------------
# the perturbative limit oracle for the special-power amplitude


def perturbed_w1_oracle(data: MonodromyData, delta: float = 1e-6):
    """The gamma-pole indeterminacy of the first special-power amplitude,
    resolved by the limiting procedure: move varrho off the lattice point by
    delta, perturb g11 consistently, and evaluate the generic amplitude.

    Converges to the closed form as delta -> 0 (an independent check; the
    production path never divides limits numerically)."""
    a = data.params.a
    reg = classify(data)
    if reg.tag is not RegimeTag.SPECIAL_POWER_PLUS:
        raise ValueError("oracle applies to the s0inf = 0 family")
    br = branching(data, reg)
    varrho = br.varrho - delta
    epa = cmath.exp(PI * a)
    kappa = (
        -2j * PI * delta / (data.s1inf * data.g21) / epa**2
        + 2 * PI * delta * data.g21 / epa
    )
    perturbed = MonodromyData(
        data.params,
        data.s00,
        data.s0inf,
        data.s1inf,
        data.g11 + kappa,
        data.g12,
        data.g21,
        data.g22,
    )
    w1, _w2, _w3, _w4 = w_amplitudes(perturbed, varrho)
    return w1
