"""Half-integer and mirrored special families: completion + consistency."""

import cmath

import numpy as np
import pytest

from dp3.asymptotics import build_profile, eval_u, eval_phi, series_for_regime
from dp3.dynamics import IntegrateOptions, SolutionState, integrate
from dp3.monodromy import (
    ProblemParams,
    RegimeTag,
    branching,
    classify,
    complete_special,
    residual_norm,
)
from dp3.series import eval_expansion


def test_special_power_minus_item2_closure():
    # the mirrored one-parameter family: seed from its series and integrate
    params = ProblemParams(0.4, 1.0, 1)
    data = complete_special(RegimeTag.SPECIAL_POWER_MINUS, params, g12=0.8, s0inf=0.6)
    assert residual_norm(data) < 1e-12
    assert classify(data).tag is RegimeTag.SPECIAL_POWER_MINUS
    prof = build_profile(data)
    exp = series_for_regime(prof, K=6)
    tau = 1e-3
    r = eval_expansion(exp, tau)
    u, orders = eval_u(prof, tau)
    assert abs(r.value - u) < 5 * abs(u) * tau ** min(orders)
    # two-seed integration agreement, including the exp(i*phi) component
    # seeded from the mirrored-family formula
    ends = []
    for tau0 in (1e-3, 1e-4):
        rr = eval_expansion(exp, tau0)
        phi0 = -1j * cmath.log(eval_phi(prof, tau0)[0])
        st = SolutionState(tau0, rr.value, rr.derivative, phi0)
        tr = integrate(st, params, [2e-2], IntegrateOptions(rtol=1e-11))
        assert tr.status == "done"
        ends.append(tr.end_state)
    assert abs(ends[0].u - ends[1].u) < 1e-8 * abs(ends[1].u)
    e1, e2 = cmath.exp(1j * ends[0].phi), cmath.exp(1j * ends[1].phi)
    assert abs(e1 - e2) < 1e-4 * abs(e2)  # phi seeds carry the formula's O(tau^2)


@pytest.mark.parametrize("n", [1, 2])
def test_vanishing_half_integer_families(n):
    # a = i(n - 1/2) with the second Stokes multiplier zero: vanishing
    # meromorphic solutions, sigma = 2n - 1
    a = 1j * (n - 0.5)
    params = ProblemParams(a, 1.0, 1)
    data = complete_special(
        RegimeTag.MEROMORPHIC_VANISHING, params, g12=0.9 + 0.2j, s0inf=0.4 - 0.1j
    )
    assert residual_norm(data) < 1e-12
    assert abs(data.s00) < 1e-12
    reg = classify(data)
    assert reg.tag is RegimeTag.MEROMORPHIC_VANISHING
    assert reg.subcase == {"family": "half", "n": n}
    br = branching(data, reg)
    assert br.sigma == pytest.approx(2 * n - 1)
    # series closure: the expansion is a genuine Taylor series whose
    # truncation satisfies the equation through integration.  The monodromy
    # parameter is concealed at order tau^(2n), so seeds must be taken where
    # that term is still representable against the leading one in doubles.
    prof = build_profile(data)
    exp = series_for_regime(prof, K=6)
    seeds = (1e-3, 1e-4) if n == 1 else (1e-2, 1e-3)
    ends = []
    for tau0 in seeds:
        rr = eval_expansion(exp, tau0)
        st = SolutionState(tau0, rr.value, rr.derivative, 0j)
        tr = integrate(st, params, [5e-2], IntegrateOptions(rtol=1e-12, atol=1e-16))
        assert tr.status == "done"
        ends.append(tr.u[-1])
    assert abs(ends[0] - ends[1]) < 1e-8 * abs(ends[1])


@pytest.mark.parametrize("n", [1, 2])
def test_vanishing_half_integer_mirror(n):
    a = -1j * (n - 0.5)
    params = ProblemParams(a, 1.0, 1)
    data = complete_special(
        RegimeTag.MEROMORPHIC_VANISHING, params, g21=0.8 - 0.3j, s1inf=0.5 + 0.2j
    )
    assert residual_norm(data) < 1e-12
    reg = classify(data)
    assert reg.tag is RegimeTag.MEROMORPHIC_VANISHING
    assert reg.subcase == {"family": "half", "n": n}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_nonvanishing_half_integer_families(m):
    # a = i(m - 1/2) with s0inf = 0: nonvanishing meromorphic solutions
    a = 1j * (m - 0.5)
    params = ProblemParams(a, 1.0, 1)
    data = complete_special(
        RegimeTag.MEROMORPHIC_NONVANISHING, params, g21=0.7 + 0.1j, s1inf=0.6 - 0.2j
    )
    assert residual_norm(data) < 1e-12
    assert abs(data.s0inf) < 1e-12
    reg = classify(data)
    assert reg.tag is RegimeTag.MEROMORPHIC_NONVANISHING
    assert reg.subcase.get("m") == m
    prof = build_profile(data)
    # u(0) != 0: the Taylor series has a constant term
    exp = series_for_regime(prof, K=5)
    u0, _ = eval_u(prof, 1e-6)
    assert abs(u0) > 1e-6  # bounded away from zero as tau -> 0
    # and the phi prefactor is finite and nonzero
    ph, _ = eval_phi(prof, 1e-3)
    assert np.isfinite(ph.real) and abs(ph) > 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_nonvanishing_half_integer_mirror(m):
    a = -1j * (m - 0.5)
    params = ProblemParams(a, 1.0, 1)
    data = complete_special(
        RegimeTag.MEROMORPHIC_NONVANISHING, params, g12=0.9 - 0.2j, s0inf=0.45 + 0.3j
    )
    assert residual_norm(data) < 1e-12
    reg = classify(data)
    assert reg.tag is RegimeTag.MEROMORPHIC_NONVANISHING
    # a = i(m' - 1/2) with m' = 1 - m, the index complete_special decodes
    assert reg.subcase == {"family": "half", "m": 1 - m}
    # two-seed closure of u and exp(i*phi), as on the s0inf = 0 side
    prof = build_profile(data)
    exp = series_for_regime(prof, K=6)
    ends = []
    for tau0 in (1e-3, 1e-4):
        rr = eval_expansion(exp, tau0)
        phi0 = -1j * cmath.log(eval_phi(prof, tau0)[0])
        st = SolutionState(tau0, rr.value, rr.derivative, phi0)
        tr = integrate(st, params, [2e-2], IntegrateOptions(rtol=1e-12))
        assert tr.status == "done"
        ends.append(tr.end_state)
    assert abs(ends[0].u - ends[1].u) < 1e-9 * abs(ends[1].u)
    e1, e2 = cmath.exp(1j * ends[0].phi), cmath.exp(1j * ends[1].phi)
    assert abs(e1 - e2) < 1e-9 * abs(e2)


def test_nonvanishing_generic_closure():
    from dp3.monodromy import complete_from_g11_g21_s00

    params = ProblemParams(0.3, 1.0, 1)
    data = complete_from_g11_g21_s00(params, 0.9 + 0.2j, 0.35 + 0.1j, 0j)
    prof = build_profile(data)
    exp = series_for_regime(prof, K=6)
    # u(0) = eps * leading coefficient
    r = eval_expansion(exp, 1e-7)
    assert abs(r.value - prof.coefficients["b1m1_tilde"]) < 1e-5 * abs(r.value)
