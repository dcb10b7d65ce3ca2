"""Regime asymptotics: amplitude identities, formulas, charts, roots."""

import cmath
import math

import numpy as np
import pytest

from dp3.asymptotics import (
    DomainError,
    _power_pair,
    G_plus_minus,
    build_profile,
    eval_phi,
    eval_u,
    eval_uniform,
    find_G_pm_roots,
    identify_from_asymptotics,
    perturbed_w1_oracle,
    pole_chart,
    series_for_regime,
    uniform_seeds,
    w_amplitudes,
)
from dp3.monodromy import (
    ProblemParams,
    RegimeTag,
    branching,
    classify,
    complete_from_G,
    complete_from_g11_g21_s00,
    complete_special,
)
from dp3.series import eval_expansion
from dp3.specfun import pow_principal


def sample_generic(rng, a=None):
    if a is None:
        a = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        if abs(a.real) < 0.05:
            a += 0.1
    params = ProblemParams(a, 1.0, 1)
    rnd = lambda: complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
    while True:
        g11 = rnd()
        if abs(g11) > 0.2:
            break
    return complete_from_G(params, g11, rnd(), rnd())


def test_w_product_and_ratio_identities():
    rng = np.random.default_rng(21)
    n = 0
    while n < 50:
        data = sample_generic(rng)
        reg = classify(data)
        if reg.tag is not RegimeTag.GENERIC_POWER or reg.subcase.get("varrho_ray"):
            continue
        br = branching(data, reg)
        w1, w2, w3, w4 = w_amplitudes(data, br.varrho)
        a = data.params.a
        assert abs(w1 * w2 * w3 * w4 * cmath.exp(math.pi * a) / (2 * math.pi) ** 2 - 1) < 1e-11
        assert abs(w1 * w4 - w2 * w3) < 1e-11 * abs(w2 * w3)
        # reflection: w_k(vr) = -w_{k+1}(1 - vr)
        w1r, w2r, w3r, w4r = w_amplitudes(data, 1 - br.varrho)
        assert abs(w1 + w2r) < 1e-10 * max(1.0, abs(w1))
        assert abs(w3 + w4r) < 1e-10 * max(1.0, abs(w3))
        n += 1


def test_u_and_phi_invariant_under_varrho_reflection():
    rng = np.random.default_rng(22)
    data = sample_generic(rng, a=0.3 + 0.2j)
    prof = build_profile(data)
    br = prof.branching
    w1, w2, _w3, _w4 = w_amplitudes(data, br.varrho)
    w1r, w2r, _w3r, _w4r = w_amplitudes(data, 1 - br.varrho)
    from dp3.asymptotics import _power_like_u

    for tau in (1e-3, 3e-3):
        ua = _power_like_u(1, br.varrho, w1, w2, tau)
        ub = _power_like_u(1, 1 - br.varrho, w1r, w2r, tau)
        assert abs(ua - ub) < 1e-12 * abs(ua)
    # phi carries w1*w2, invariant since w1r*w2r = w1*w2
    assert abs(w1r * w2r - w1 * w2) < 1e-11 * abs(w1 * w2)


def test_generic_eval_u_structure():
    rng = np.random.default_rng(23)
    data = sample_generic(rng, a=0.3 + 0.2j)
    prof = build_profile(data)
    vr = prof.branching.varrho
    w1, w2 = prof.coefficients["w1"], prof.coefficients["w2"]
    tau = 1e-3
    u, orders = eval_u(prof, tau)
    t1 = tau ** (1 - 2 * vr)
    t2 = tau ** (-1 + 2 * vr)
    want = (1 - 2 * vr) ** 2 * w1 * w2 / (tau * (w1 * t1 + w2 * t2) ** 2)
    assert u == pytest.approx(want, rel=1e-13)
    assert orders == pytest.approx((4 * vr.real, 4 - 4 * vr.real))
    eph, _ = eval_phi(prof, tau)
    want_ph = (
        cmath.exp(1.5j * math.pi)
        * cmath.exp(-math.pi * data.params.a / 2)
        * 2
        * math.pi
        / (w1 * w2)
        * (2 * tau**2) ** (1j * data.params.a)
    )
    assert eph == pytest.approx(want_ph, rel=1e-13)


def test_special_power_plus_item2_formula():
    params = ProblemParams(0.4, 1.0, 1)
    data = complete_special(RegimeTag.SPECIAL_POWER_PLUS, params, g21=0.8, s1inf=0.6)
    prof = build_profile(data)
    sigma = prof.coefficients["sigma"]
    b1m1 = prof.coefficients["b1m1"]
    assert sigma == pytest.approx(-2j * 0.4)
    tau = 1e-3
    u, _ = eval_u(prof, tau)
    ts = tau ** (1 - sigma)
    want = b1m1 * ts / (1 + 4 * b1m1 * ts * tau / (sigma - 2) ** 2) ** 2 - tau / (2 * 0.4)
    assert u == pytest.approx(want, rel=1e-13)


def test_log_rho0_formula_and_constant():
    params = ProblemParams(0.3, 1.0, 1)
    data = complete_from_g11_g21_s00(params, 0.9 + 0.1j, 0.4j, 2j)
    prof = build_profile(data)
    c = prof.coefficients["c"]
    tau = 1e-3
    u, _ = eval_u(prof, tau)
    lt = cmath.log(tau)
    want = -0.3 * tau * (lt**2 + c * lt + 0.25 * (c**2 + 1 / 0.3**2))
    assert u == pytest.approx(want, rel=1e-12)


def test_log_varrho_half_constants_agree():
    rng = np.random.default_rng(24)
    for _ in range(20):
        a = complex(rng.uniform(-0.8, 0.8), rng.uniform(-1.8, 1.8))
        if abs(a.real) < 0.05:
            a += 0.1
        if min(abs(a.imag - 1), abs(a.imag + 1)) < 0.1:
            continue
        params = ProblemParams(a, 1.0, 1)
        data = complete_from_g11_g21_s00(params, 0.9 + 0.1j, 0.4j, -2j)
        prof = build_profile(data)
        assert abs(prof.coefficients["c_minus"] - prof.coefficients["c_plus"]) < 1e-11


def test_pole_amplitudes_match_w_at_half_line():
    kappa = 0.9
    params = ProblemParams(0.25, 1.0, 1)
    s00 = -2j * math.cosh(2 * math.pi * kappa)
    data = complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, s00)
    prof = build_profile(data)
    co = prof.coefficients
    w1, w2, w3, w4 = w_amplitudes(data, 0.5 + 1j * kappa)
    assert abs(w1 - co["A+"]) < 1e-12 * abs(w1)
    assert abs(w2 + co["A-"]) < 1e-12 * abs(w2)
    assert abs(w3 - co["B+"]) < 1e-12 * abs(w3)
    assert abs(w4 + co["B-"]) < 1e-12 * abs(w4)


def test_pole_chart_geometry_and_route_agreement():
    kappa = 0.9
    params = ProblemParams(0.25, 1.0, 1)
    s00 = -2j * math.cosh(2 * math.pi * kappa)
    data = complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, s00)
    prof = build_profile(data)
    chart = pole_chart(prof, range(2, 8), 0.5)
    shr = math.exp(-math.pi / (2 * kappa))
    for t0, t1 in zip(chart.tau_p[:-1], chart.tau_p[1:]):
        assert abs(t1 / t0) == pytest.approx(shr, rel=1e-12)
    co = prof.coefficients
    tauB = [
        cmath.exp(
            -math.pi * p / (2 * kappa)
            + (1j / (4 * kappa)) * cmath.log(co["B-"] / co["B+"])
        )
        for p in range(2, 8)
    ]
    for x, y in zip(chart.tau_p, tauB):
        assert abs(x - y) < 1e-10 * abs(x)
    assert chart.J == pytest.approx(1 - shr)
    # in-disc evaluation raises with the nearest pole attached
    with pytest.raises(DomainError) as exc:
        eval_u(prof, chart.tau_p[2] * (1 + 1e-9), chart=chart)
    assert exc.value.nearest == pytest.approx(chart.tau_p[2])


def test_pole_variant_chart():
    kappa = 1.0
    params = ProblemParams(2 * kappa + 1j, 1.0, 1)
    data = complete_special(RegimeTag.SPECIAL_POWER_PLUS, params, g21=1.0, s1inf=1.0)
    prof = build_profile(data)
    chart = pole_chart(prof, range(2, 6), 1.0)
    shr = math.exp(-math.pi / (2 * kappa))
    for t0, t1 in zip(chart.tau_p[:-1], chart.tau_p[1:]):
        assert abs(t1 / t0) == pytest.approx(shr, rel=1e-12)


def _pole_chart_points():
    for kappa in (0.6, -0.7):
        for n in (0, 1):
            a = 2 * kappa + 1j * (2 * n + 1)
            yield complete_special(
                RegimeTag.SPECIAL_POWER_PLUS, ProblemParams(a, 1.0, 1),
                g21=0.8 - 0.3j, s1inf=0.6 + 0.2j,
            )
            yield complete_special(
                RegimeTag.SPECIAL_POWER_MINUS, ProblemParams(a.conjugate(), 1.0, 1),
                g12=0.8 - 0.3j, s0inf=0.6 + 0.2j,
            )
    params = ProblemParams(0.3, 1.0, 1)
    s00 = -2j * math.cosh(2 * math.pi * 0.6)
    yield complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, s00)


@pytest.mark.parametrize("data", list(_pole_chart_points()))
def test_pole_chart_sites_are_zeros_of_the_leading_denominator(data):
    # every pole regime's u ~ ... / (w_a tau^(1-2 varrho) + w_b tau^(2 varrho-1))^2:
    # the chart's tau_p must be zeros of that denominator, for both special
    # pole variants a = 2 kappa +- i(2n+1) and for pole accumulation
    prof = build_profile(data)
    assert prof.regime.tag is RegimeTag.POLE_ACCUMULATION or prof.regime.subcase["poles"]
    wa, wb, _ = _power_pair(prof)
    vr = prof.branching.varrho
    chart = pole_chart(prof, range(1, 9))
    assert len(chart.tau_p) == 8
    for t in chart.tau_p:
        x = wa * pow_principal(t, 1 - 2 * vr)
        y = wb * pow_principal(t, 2 * vr - 1)
        assert abs(x + y) <= 1e-12 * max(abs(x), abs(y))


def _pole_data(kappa):
    params = ProblemParams(0.3, 1.0, 1)
    s00 = -2j * math.cosh(2 * math.pi * kappa)
    return complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, s00)


def _special_data(a):
    params = ProblemParams(a, 1.0, 1)
    if a.imag > 0:
        return complete_special(
            RegimeTag.SPECIAL_POWER_PLUS, params, g21=0.8 - 0.3j, s1inf=0.6 + 0.2j
        )
    return complete_special(
        RegimeTag.SPECIAL_POWER_MINUS, params, g12=0.7 + 0.4j, s0inf=0.5 - 0.3j
    )


def _pw(z, e):
    return cmath.exp(e * cmath.log(z))


def _per_regime_u_phi(prof, tau):
    """The leading u and exp(i*phi) in each regime's own amplitudes, as the
    paper states them (not through the shared power-like form)."""
    co = prof.coefficients
    a = prof.data.params.a
    eps = prof.data.params.epsilon
    PI = math.pi
    if "w1" in co or "w3" in co:
        vr = prof.branching.varrho
        wa, wb = (co["w1"], co["w2"]) if "w1" in co else (co["w3"], co["w4"])
        den = tau * (wa * _pw(tau, 1 - 2 * vr) + wb * _pw(tau, 2 * vr - 1)) ** 2
        u = eps * (1 - 2 * vr) ** 2 * wa * wb / den
        t2ia = _pw(2 * tau * tau, 1j * a)
        if "w1" in co:
            return u, cmath.exp(1.5j * PI - PI * a / 2) * (2 * PI / (wa * wb)) * t2ia
        return u, cmath.exp(1.5j * PI + PI * a / 2) * (wa * wb / (2 * PI)) * t2ia
    if "A+" in co:
        k, Ap, Am = co["varkappa"], co["A+"], co["A-"]
        tp, tm = _pw(tau, -2j * k), _pw(tau, 2j * k)
        u = 4 * eps * k * k * Ap * Am / (tau * (Ap * tp - Am * tm) ** 2)
        t2ia = _pw(2 * tau * tau, 1j * a)
        return u, 2 * PI * cmath.exp(-1.5j * PI - PI * a / 2) * t2ia / (Ap * Am)
    k, n = prof.regime.subcase["varkappa"], prof.regime.subcase["n"]
    tp, tm = _pw(tau, -2j * k), _pw(tau, 2j * k)
    if "o1" in co:
        o1, o2 = co["o1"], co["o2"]
        u = -4 * eps * k * k * o1 * o2 / (tau * (o1 * tp + o2 * tm) ** 2)
        ph = (
            cmath.exp(-PI * k - 1j * PI * (n + 1))
            * (2 * PI / (o1 * o2))
            * _pw(2 * tau * tau, -2 * n - 1 + 2j * k)
        )
        return u, ph
    o3, o4 = co["o3"], co["o4"]
    u = -4 * eps * k * k * o3 * o4 / (tau * (o3 * tm + o4 * tp) ** 2)
    ph = (
        cmath.exp(PI * k + 1j * PI * (n + 1))
        * (o3 * o4 / (2 * PI))
        * _pw(2 * tau * tau, 2 * n + 1 + 2j * k)
    )
    return u, ph


_POWER_LIKE_POINTS = {
    "pole-0.7": lambda: _pole_data(0.7),
    "pole-1.0": lambda: _pole_data(1.0),
    "variant-2+i": lambda: _special_data(2 + 1j),
    "variant-2-i": lambda: _special_data(2 - 1j),
    "variant-1.6+3i": lambda: _special_data(1.6 + 3j),
    "variant-1.6-3i": lambda: _special_data(1.6 - 3j),
    "hat-0.4+1.4i": lambda: _special_data(0.4 + 1.4j),
    "hat-0.3+2.6i": lambda: _special_data(0.3 + 2.6j),
    "hat-0.4-1.4i": lambda: _special_data(0.4 - 1.4j),
}


@pytest.mark.parametrize("point", sorted(_POWER_LIKE_POINTS))
def test_power_like_regimes_match_their_own_formulas(point):
    prof = build_profile(_POWER_LIKE_POINTS[point]())
    co = prof.coefficients
    pole_line = "A+" in co or "o1" in co or "o3" in co
    assert pole_line or "w1" in co or "w3" in co
    for tau in (1e-3, 2.5e-3 * cmath.exp(0.4j), 7e-3 * cmath.exp(-0.9j)):
        want_u, want_ph = _per_regime_u_phi(prof, tau)
        u, _ = eval_u(prof, tau)
        ph, _ = eval_phi(prof, tau)
        assert abs(u - want_u) <= 1e-14 * abs(want_u)
        assert abs(ph - want_ph) <= 1e-14 * abs(want_ph)
    if pole_line:
        vr = prof.branching.varrho
        assert vr.real == 0.5
        if "A+" in co:
            wa, wb = co["A+"], -co["A-"]
        else:
            wa, wb = (co["o1"], co["o2"]) if "o1" in co else (co["o3"], co["o4"])
        sigma, b11, _ = uniform_seeds(prof)
        assert sigma == 4 * vr - 4
        assert b11 == (1 - 2 * vr) ** 2 * wb / wa


def test_delta_d_zero_shrinks_J():
    kappa = 0.9
    params = ProblemParams(0.25, 1.0, 1)
    s00 = -2j * math.cosh(2 * math.pi * kappa)
    data = complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, s00)
    prof = build_profile(data)
    c1 = pole_chart(prof, range(2, 5), 0.5)
    c0 = pole_chart(prof, range(2, 5), 0.0)
    assert c0.J == pytest.approx(c1.J / 3)
    # the full allowed range below 2 constructs; radii shrink with delta_d
    c19 = pole_chart(prof, range(2, 5), 1.9)
    assert all(r19 < r05 for r19, r05 in zip(c19.radii, c1.radii))
    with pytest.raises(ValueError):
        pole_chart(prof, range(2, 5), 2.0)


def test_G_roots_reproduce_reference_values():
    roots = find_G_pm_roots(2.0, (-1, 1, -3, 0), "plus", grid=10)
    want = [
        0.2381378288 - 0.6358442252j,
        0.1144878083 - 1.714583576j,
        0.09349464758 - 2.744016682j,
    ]
    assert len(roots) >= 3
    for w, r in zip(want, roots):
        assert abs(r - w) < 2e-9
    # conjugate pairing of the other family
    rm = find_G_pm_roots(2.0, (-1, 1, 0, 3), "minus", grid=10)
    for w, r in zip(want, rm):
        assert abs(r - w.conjugate()) < 2e-9


def test_limit_oracle_matches_closed_form():
    params = ProblemParams(0.4 + 0.7j, 1.0, 1)
    data = complete_special(
        RegimeTag.SPECIAL_POWER_PLUS, params, g21=1.2 - 0.3j, s1inf=0.8 + 0.5j
    )
    prof = build_profile(data)
    closed = prof.coefficients["w1"]
    for delta, tol in ((1e-5, 2e-3), (1e-6, 1e-4)):
        oracle = perturbed_w1_oracle(data, delta)
        assert abs(closed - oracle) < tol * abs(closed)


def test_uniform_identity_and_reduction():
    rng = np.random.default_rng(25)
    data = sample_generic(rng, a=0.3 + 0.1j)
    prof = build_profile(data)
    for tau in (1e-3, 5e-3):
        u_uni = eval_uniform(prof, tau)
        u_uni_c, du = eval_uniform(prof, tau, with_correction=True, derivative=True)
        # derivative against finite differences
        h = 1e-7 * tau
        fd = (
            eval_uniform(prof, tau + h, with_correction=True)
            - eval_uniform(prof, tau - h, with_correction=True)
        ) / (2 * h)
        assert abs(fd - du) < 1e-6 * abs(du)
    # b11 = 0: exact reduction to the one-parameter power form
    params = ProblemParams(0.4, 1.0, 1)
    d2 = complete_special(RegimeTag.SPECIAL_POWER_PLUS, params, g21=0.8, s1inf=0.6)
    p2 = build_profile(d2)
    for tau in (1e-3, 3e-3):
        assert eval_uniform(p2, tau) == pytest.approx(eval_u(p2, tau)[0], rel=1e-12)


def test_uniform_excludes_log_regimes():
    # sigma in {0, +-2} belongs to the logarithmic families; on-manifold
    # data lands there through classification, and eval_uniform refuses
    params = ProblemParams(0.3, 1.0, 1)
    d = complete_from_g11_g21_s00(params, 0.9 + 0.1j, 0.4j, -2j)
    with pytest.raises(DomainError):
        eval_uniform(build_profile(d), 1e-3)
    d2 = complete_from_g11_g21_s00(params, 0.9 + 0.1j, 0.4j, 2j)
    with pytest.raises(DomainError):
        eval_uniform(build_profile(d2), 1e-3)


def test_series_for_regime_consistency_generic():
    # the expansion's leading sum reproduces the closed leading term
    rng = np.random.default_rng(26)
    data = sample_generic(rng, a=0.25 + 0.1j)
    prof = build_profile(data)
    exp = series_for_regime(prof, K=6)
    for tau in (1e-3, 1e-4):
        r = eval_expansion(exp, tau)
        u, orders = eval_u(prof, tau)
        q = min(orders)
        assert abs(r.value - u) < 5 * abs(u) * tau**q


def test_series_for_regime_refuses_the_pole_line():
    # on Re sigma = -2 every level contributes O(1): the level sum cannot
    # converge, so the pole regimes get no table (eval_u and eval_uniform
    # still evaluate them)
    params = ProblemParams(0.1, 1.0, 1)
    s00 = -2j * math.cosh(2 * math.pi)
    pole = complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, s00)
    plus = complete_special(
        RegimeTag.SPECIAL_POWER_PLUS, ProblemParams(0.6 + 1j, 1.0, 1), g21=0.8, s1inf=0.5
    )
    minus = complete_special(
        RegimeTag.SPECIAL_POWER_MINUS, ProblemParams(0.6 - 1j, 1.0, 1), g12=0.8, s0inf=0.5
    )
    for data in (pole, plus, minus):
        prof = build_profile(data)
        assert prof.regime.tag is RegimeTag.POLE_ACCUMULATION or prof.regime.subcase["poles"]
        with pytest.raises(DomainError):
            series_for_regime(prof, K=4)
        u, _ = eval_u(prof, 0.3)
        assert np.isfinite(abs(u)) and np.isfinite(abs(eval_uniform(prof, 0.3)))


def test_identify_round_trip_and_cases():
    params = ProblemParams(0.25 + 0.1j, 1.0, 1)
    data = complete_from_G(params, 0.95 + 0.15j, 0.25 - 0.1j, 0.2 + 0.1j)
    prof = build_profile(data)
    br = prof.branching
    w1, w2 = prof.coefficients["w1"], prof.coefficients["w2"]
    p = (1 - 2 * br.varrho) ** 2 * w1 * w2
    tag, info = identify_from_asymptotics(p, w1, w2, 1 - 2 * br.varrho, params)
    assert tag == "generic"
    assert abs(info["ratio_relation"]["q1_tilde^2"] - w1 / w2) < 1e-12 * abs(w1 / w2)
    # special family with Im a > 0 is recognized from the exponent values
    params2 = ProblemParams(0.4 + 0.7j, 1.0, 1)
    d2 = complete_special(RegimeTag.SPECIAL_POWER_PLUS, params2, g21=1.0, s1inf=0.5)
    p2 = build_profile(d2)
    vr = p2.branching.varrho
    w1h, w2h = p2.coefficients["w1"], p2.coefficients["w2"]
    amp = (1 - 2 * vr) ** 2 * w1h * w2h
    tag2, info2 = identify_from_asymptotics(amp, w1h, w2h, 1 - 2 * vr, params2)
    assert tag2 == "special-plus"
    assert info2["n"] == 0
    # real a: always the generic parametrization (with consistent inputs)
    vr3 = 0.3 + 0.0j
    tag3, _ = identify_from_asymptotics(
        (1 - 2 * vr3) ** 2 * 0.5 * 2.0, 0.5, 2.0, 1 - 2 * vr3, ProblemParams(0.3, 1.0, 1)
    )
    assert tag3 == "generic"
    with pytest.raises(ValueError):
        identify_from_asymptotics(1.0, 0.5, 2.0, 0.4, ProblemParams(0.3, 1.0, 1))


def test_G_plus_minus_structure():
    # the two indicators differ by 2i e^{-pi a}
    a = 0.3 - 0.4j
    gp, gm = G_plus_minus(a, 2.0)
    assert gp - gm == pytest.approx(2j * cmath.exp(-math.pi * a), rel=1e-12)


def test_phi_forms_coincide_through_identities():
    # the two equivalent exp(i*phi) parametrizations (via w1 w2 and via
    # w3 w4) give the same value: a direct consequence of the product
    # identity, checked at the value level
    rng = np.random.default_rng(27)
    n = 0
    while n < 20:
        data = sample_generic(rng)
        reg = classify(data)
        if reg.tag is not RegimeTag.GENERIC_POWER or reg.subcase.get("varrho_ray"):
            continue
        br = branching(data, reg)
        w1, w2, w3, w4 = w_amplitudes(data, br.varrho)
        a = data.params.a
        tau = 1e-3
        common = cmath.exp(1.5j * math.pi) * (2 * tau * tau) ** (1j * a)
        form1 = common * cmath.exp(-math.pi * a / 2) * 2 * math.pi / (w1 * w2)
        form2 = common * cmath.exp(math.pi * a / 2) * w3 * w4 / (2 * math.pi)
        assert abs(form1 - form2) < 1e-11 * abs(form1)
        n += 1
