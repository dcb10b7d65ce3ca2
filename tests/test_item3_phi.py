"""End-to-end validation of the exponent-series phi forms (item-3 paths)."""

import cmath

import numpy as np
import pytest

from dp3.asymptotics import build_profile, eval_phi, eval_u, series_for_regime
from dp3.dynamics import IntegrateOptions, SolutionState, integrate
from dp3.monodromy import (
    ProblemParams,
    RegimeTag,
    classify,
    complete_from_g11_g21_s00,
    complete_special,
)
from dp3.series import eval_expansion


@pytest.mark.parametrize(
    "tag,a,kw",
    [
        (RegimeTag.SPECIAL_POWER_PLUS, 0.4 - 1.3j, dict(g21=0.8, s1inf=0.5)),
        (RegimeTag.SPECIAL_POWER_MINUS, 0.4 + 1.3j, dict(g12=0.8, s0inf=0.5)),
    ],
)
def test_item3_u_and_phi_close_under_integration(tag, a, kw):
    # deep in the one-parameter family (|Im a| > 1) the evaluators use the
    # rearranged middle-series form for u and the exponent-series form for
    # exp(i*phi); both must be consistent with direct integration
    params = ProblemParams(a, 1.0, 1)
    data = complete_special(tag, params, **kw)
    assert classify(data).tag is tag
    prof = build_profile(data)
    exp = series_for_regime(prof, K=6)
    tau0, tau1 = 1e-4, 1e-3
    r = eval_expansion(exp, tau0)
    phi0 = -1j * cmath.log(eval_phi(prof, tau0)[0])
    st = SolutionState(tau0, r.value, r.derivative, phi0)
    tr = integrate(st, params, [tau1], IntegrateOptions(rtol=1e-12))
    assert tr.status == "done"
    u1, _ = eval_u(prof, tau1)
    assert abs(u1 - tr.u[-1]) < 1e-8 * abs(tr.u[-1])
    e1, _ = eval_phi(prof, tau1)
    assert abs(e1 - cmath.exp(1j * tr.phi[-1])) < 1e-6 * abs(e1)


_HALF_V = dict(g12=0.9 + 0.2j, s0inf=0.4 - 0.1j)
_HALF_V_MIRROR = dict(g21=0.8 - 0.3j, s1inf=0.5 + 0.2j)
_HALF_NV = dict(g21=0.7 + 0.1j, s1inf=0.6 - 0.2j)
_HALF_NV_MIRROR = dict(g12=0.9 - 0.2j, s0inf=0.45 + 0.3j)


@pytest.mark.parametrize(
    "tag,a,kw",
    [
        (RegimeTag.SPECIAL_POWER_PLUS, 0.4 - 1.3j, dict(g21=0.8, s1inf=0.5)),
        (RegimeTag.SPECIAL_POWER_MINUS, 0.4 + 1.3j, dict(g12=0.8, s0inf=0.5)),
        (RegimeTag.MEROMORPHIC_VANISHING, 0.3, dict(g21=1.0)),
        (RegimeTag.MEROMORPHIC_VANISHING, 0.5j, _HALF_V),
        (RegimeTag.MEROMORPHIC_VANISHING, 1.5j, _HALF_V),
        (RegimeTag.MEROMORPHIC_VANISHING, -0.5j, _HALF_V_MIRROR),
        (RegimeTag.MEROMORPHIC_VANISHING, -1.5j, _HALF_V_MIRROR),
        (RegimeTag.MEROMORPHIC_NONVANISHING, 0.3, None),
        (RegimeTag.MEROMORPHIC_NONVANISHING, 0.5j, _HALF_NV),
        (RegimeTag.MEROMORPHIC_NONVANISHING, 1.5j, _HALF_NV),
        (RegimeTag.MEROMORPHIC_NONVANISHING, 2.5j, _HALF_NV),
        (RegimeTag.MEROMORPHIC_NONVANISHING, -0.5j, _HALF_NV_MIRROR),
        (RegimeTag.MEROMORPHIC_NONVANISHING, -1.5j, _HALF_NV_MIRROR),
        (RegimeTag.MEROMORPHIC_NONVANISHING, -2.5j, _HALF_NV_MIRROR),
    ],
)
def test_eval_phi_satisfies_the_phi_equation(tag, a, kw):
    # every table-side exp(i*phi) form obeys phi' = 2a/tau + b/u, with u from
    # the regime's series: the log-derivative by central differences
    params = ProblemParams(a, 1.0, 1)
    if kw is None:  # generic nonvanishing: s00 = 0
        data = complete_from_g11_g21_s00(params, 0.9 + 0.2j, 0.35 + 0.1j, 0j)
    else:
        data = complete_special(tag, params, **kw)
    prof = build_profile(data)
    assert prof.regime.tag is tag
    tau, h = 1e-3, 1e-6
    u = eval_expansion(series_for_regime(prof, K=8), tau).value
    want = 1j * (2 * a / tau + params.b / u)
    got = cmath.log(eval_phi(prof, tau + h)[0] / eval_phi(prof, tau - h)[0]) / (2 * h)
    assert abs(got - want) < 1e-4 * abs(want)


def test_lattice_orbit_accessor_fields():
    from dp3.monodromy import complete_from_G
    from dp3.dynamics import lattice_orbit

    params = ProblemParams(0.25 + 0.1j, 1.0, 1)
    data = complete_from_G(params, 0.95 + 0.15j, 0.25 - 0.1j, 0.2 + 0.1j)
    prof = build_profile(data)
    exp = series_for_regime(prof, K=6)
    r = eval_expansion(exp, 1e-3)
    st = SolutionState(1e-3, r.value, r.derivative, 0j)
    grid = list(np.linspace(0.1, 0.3, 8))
    tr = integrate(st, params, grid, IntegrateOptions(rtol=1e-11))
    idx = [int(np.argmin(np.abs(tr.tau - g))) for g in grid]
    states = [SolutionState(tr.tau[i], tr.u[i], tr.du[i], tr.phi[i]) for i in idx]
    orb = lattice_orbit(states, params, range(0, 2))
    assert np.allclose(orb.v(0), orb.u[0] / orb.taus)
    assert np.allclose(orb.w(0), orb.v(0) * orb.v(1))
    assert np.allclose(orb.g(0), orb.w(0) * orb.w(1))
    assert np.allclose(orb.alpha(0) ** 2, orb.w(0))
    # x grid carries the stated sign at eps = +1
    x_grid = -2 * orb.taus**2 / orb.beff
    assert np.all(x_grid.real < 0)
