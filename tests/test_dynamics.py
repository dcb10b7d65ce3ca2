"""Integrator, local expansions, Backlund maps, lattice machinery."""

import cmath
import math

import numpy as np
import pytest

from dp3.asymptotics import build_profile, eval_phi, pole_chart, series_for_regime
from dp3.dynamics import (
    IntegrateOptions,
    LocalKind,
    SolutionState,
    Trace,
    backlund_fn,
    continue_through,
    detect_and_step_over,
    fit_local_expansion,
    integrate,
    lattice_orbit,
    pole_census,
    u_second,
    u_third,
    ZeroCrossingError,
)
from dp3.dynamics import _pole_model, _pole_model_d, _zero_model, _zero_model_d
from dp3.monodromy import ProblemParams, RegimeTag, complete_from_G, complete_from_g11_g21_s00, complete_special
from dp3.series import eval_expansion

_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def _phi_quadrature(t0, t1, umodel, params):
    # phi' = 2a/tau + b/u integrated along the straight segment t0 -> t1
    a, b = params.a, params.b
    mid = 0.5 * (t0 + t1)
    half = 0.5 * (t1 - t0)
    total = 0j
    for x, w in zip(_GL_X, _GL_W):
        t = mid + half * x
        total += w * (2 * a / t + b / umodel(t))
    return total * half


@pytest.fixture(scope="module")
def generic_setup():
    params = ProblemParams(0.25 + 0.1j, 1.0, 1)
    data = complete_from_G(params, 0.95 + 0.15j, 0.25 - 0.1j, 0.2 + 0.1j)
    prof = build_profile(data)
    exp = series_for_regime(prof, K=6)
    r = eval_expansion(exp, 1e-3)
    phi0 = -1j * cmath.log(eval_phi(prof, 1e-3)[0])
    start = SolutionState(1e-3, r.value, r.derivative, phi0)
    return params, data, prof, exp, start


def test_seeded_integration_matches_series(generic_setup):
    params, _data, _prof, exp, start = generic_setup
    tr = integrate(start, params, [1e-2], IntegrateOptions(rtol=1e-11))
    assert tr.status == "done"
    ref = eval_expansion(exp, 1e-2)
    assert abs(tr.u[-1] - ref.value) < 1e-9 * abs(ref.value)
    assert abs(tr.du[-1] - ref.derivative) < 1e-7 * abs(ref.derivative)


def test_two_seed_agreement(generic_setup):
    params, _data, _prof, exp, _start = generic_setup
    ends = []
    for tau0 in (1e-3, 1e-4):
        r = eval_expansion(exp, tau0)
        st = SolutionState(tau0, r.value, r.derivative, 0j)
        tr = integrate(st, params, [5e-2], IntegrateOptions(rtol=1e-11))
        ends.append(tr.end_state.u)
    assert abs(ends[0] - ends[1]) < 1e-9 * abs(ends[1])


def test_integrator_order(generic_setup):
    # halving the tolerance must improve the endpoint error roughly like a
    # fifth-order method (measured against a tight reference run)
    params, _d, _p, exp, start = generic_setup
    ref = integrate(start, params, [2e-2], IntegrateOptions(rtol=1e-13, atol=1e-16))
    errs = []
    for rtol in (1e-6, 1e-8):
        tr = integrate(start, params, [2e-2], IntegrateOptions(rtol=rtol, atol=1e-18))
        errs.append(abs(tr.u[-1] - ref.u[-1]))
    # 100x tighter tolerance should buy orders of magnitude
    assert errs[1] < errs[0] * 1e-2


def test_path_independence(generic_setup):
    params, _d, _p, _e, start = generic_setup
    end = 2e-2
    tr1 = integrate(start, params, [end], IntegrateOptions(rtol=1e-12))
    # homotopic detour through the upper half-plane
    tr2 = integrate(
        start,
        params,
        [1e-2 + 5e-3j, end + 4e-3j, end],
        IntegrateOptions(rtol=1e-12),
    )
    assert abs(tr1.u[-1] - tr2.u[-1]) < 1e-9 * abs(tr1.u[-1])
    assert abs(tr1.phi[-1] - tr2.phi[-1]) < 1e-9 * max(1.0, abs(tr1.phi[-1]))


def test_phi_derivative_consistency(generic_setup):
    params, _d, _p, _e, start = generic_setup
    fine = list(np.linspace(0.2, 0.3, 201))
    tr = integrate(start, params, fine, IntegrateOptions(rtol=1e-11))
    idx = [int(np.argmin(np.abs(tr.tau - g))) for g in fine]
    ph = np.array([tr.phi[i] for i in idx])
    uu = np.array([tr.u[i] for i in idx])
    h = fine[1] - fine[0]
    dphi = (-ph[4:] + 8 * ph[3:-1] - 8 * ph[1:-3] + ph[:-4]) / (12 * h)
    want = 2 * params.a / np.array(fine[2:-2]) + params.b / uu[2:-2]
    assert np.max(np.abs(dphi - want) / np.abs(want)) < 1e-8


def test_jets_match_finite_differences(generic_setup):
    params, _d, _p, exp, _s = generic_setup
    tau = 5e-3
    r = eval_expansion(exp, tau)
    d2 = u_second(tau, r.value, r.derivative, params)
    h = 1e-6 * tau
    rp, rm = eval_expansion(exp, tau + h), eval_expansion(exp, tau - h)
    fd2 = (rp.derivative - rm.derivative) / (2 * h)
    assert abs(d2 - fd2) < 1e-6 * abs(d2)
    d3 = u_third(tau, r.value, r.derivative, d2, params)
    fd3 = (
        u_second(tau + h, rp.value, rp.derivative, params)
        - u_second(tau - h, rm.value, rm.derivative, params)
    ) / (2 * h)
    assert abs(d3 - fd3) < 1e-5 * abs(d3)


def test_backlund_roundtrip_and_2node(generic_setup):
    params, _d, _p, _e, start = generic_setup
    tr = integrate(start, params, list(np.linspace(0.05, 0.5, 50)), IntegrateOptions())
    idx = [int(np.argmin(np.abs(tr.tau - g))) for g in np.linspace(0.05, 0.5, 50)]
    worst_rt = worst_2n = 0.0
    for i in idx:
        s = SolutionState(tr.tau[i], tr.u[i], tr.du[i], tr.phi[i])
        s1, p1 = backlund_fn(s, params, 1)
        s2, _ = backlund_fn(s1, p1, -1)
        worst_rt = max(worst_rt, abs(s2.u - s.u) / abs(s.u), abs(s2.phi - s.phi))
        # 2-node differential-difference relation
        lhs = s.du * s1.u + s.u * s1.du + 1j * params.b * (s1.u - s.u)
        worst_2n = max(worst_2n, abs(lhs))
    assert worst_rt < 1e-8
    assert worst_2n < 1e-8


def test_backlund_zero_crossing_raises():
    params = ProblemParams(0.3, 1.0, 1)
    with pytest.raises(ZeroCrossingError):
        backlund_fn(SolutionState(0.1, 0.0, 1.0j, 0j), params, 1)


def test_synthetic_pole_fit():
    # a trace generated from the pole model itself recovers center and U0
    cases = [
        # a, center, U0, trace points, center and U0 tolerances (absolute)
        (0.3 + 0.1j, 0.1 + 0.0j, 0.3 + 0.1j,
         lambda c: c - np.geomspace(3e-3, 8e-4, 12), 1e-8, 1e-6),
        # census geometry: the trailing points sit ~7.7e-4*|c| from the pole,
        # where the center column of the Jacobian is ~1e15 times the U0
        # column; unscaled, lstsq drops U0 and the center absorbs its error
        (0.1, 7.8e-4 * cmath.exp(0.3j), 644 * cmath.exp(-0.2j),
         lambda c: c + abs(c) * np.linspace(7.8e-4, 7.5e-4, 12) * cmath.exp(0.1j),
         1e-13 * 7.8e-4, 1e-6 * 644),
    ]
    for a, center, u0, taus_of, center_tol, u0_tol in cases:
        params = ProblemParams(a, 1.0, 1)
        taus = taus_of(center)
        us = _pole_model(taus - center, center, u0, params.a, params.beff)
        dus = _pole_model_d(taus - center, center, u0, params.a, params.beff)
        tr = Trace(taus, us, dus, np.zeros_like(us), "pole_guard")
        det = fit_local_expansion(tr, params, "pole")
        assert det.kind is LocalKind.POLE_ORDER2
        assert abs(det.center - center) < center_tol
        assert abs(det.free_param - u0) < u0_tol


def test_synthetic_zero_fit_both_branches():
    params = ProblemParams(0.3, 1.0, 1)
    center, u3 = 0.2 + 0.05j, 0.4 - 0.2j
    for sign, kind in ((1, LocalKind.ZERO_PLUS), (-1, LocalKind.ZERO_MINUS)):
        taus = center - np.geomspace(5e-3, 5e-4, 12)
        us = np.array(
            [_zero_model(t - center, center, u3, params.a, params.beff, sign) for t in taus]
        )
        dus = np.array(
            [_zero_model_d(t - center, center, u3, params.a, params.beff, sign) for t in taus]
        )
        tr = Trace(taus, us, dus, np.zeros_like(us), "zero_guard")
        det = fit_local_expansion(tr, params, "zero")
        assert det.kind is kind
        assert abs(det.center - center) < 1e-8
        # u'(center) = +- i b
        du_at = _zero_model_d(0.0, det.center, det.free_param, params.a, params.beff, sign)
        assert abs(du_at - sign * 1j * params.b) < 1e-8


def test_step_over_energy():
    # crossing a pole and integrating back along a detour reproduces the
    # pre-singularity state
    kappa = 1.3
    params = ProblemParams(0.1, 1.0, 1)
    s00 = -2j * math.cosh(2 * math.pi * kappa)
    data = complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, s00)
    prof = build_profile(data)
    chart = pole_chart(prof, range(3, 9), 1.0)
    from dp3.asymptotics import eval_uniform

    t_seed = chart.tau_p[0] * cmath.exp(math.pi / (4 * kappa))
    u0, du0 = eval_uniform(prof, t_seed, with_correction=True, derivative=True)
    start = SolutionState(t_seed, u0, du0, 0j)
    mid = chart.tau_p[0] * cmath.exp(-math.pi / (4 * kappa))
    end, dets, traces = continue_through(
        start, params, [mid], IntegrateOptions(rtol=1e-12)
    )
    assert len(dets) == 1 and dets[0].kind is LocalKind.POLE_ORDER2
    # detour back around the pole to the starting point
    rot = cmath.exp(0.35j)
    back = integrate(
        end,
        params,
        [mid * rot, t_seed * rot, t_seed],
        IntegrateOptions(rtol=1e-12),
    )
    assert back.status == "done"
    assert abs(back.u[-1] - start.u) < 1e-7 * abs(start.u)


def test_exp_iphi_zero_pole_structure_at_zeros():
    # at a first-order zero of u with u' = +i b, exp(i phi) has a zero:
    # phi' ~ -i/(tau - tau0), so Im(phi) -> +inf approaching along the model
    params = ProblemParams(0.3, 1.0, 1)
    center, u3 = 0.2, 0.1 + 0.05j
    model = lambda t: _zero_model(t - center, center, u3, params.a, params.beff, 1)

    # integrate phi' along a small half-loop passing near the zero
    phi_gain = 0j
    r0, r1 = 5e-3, 5e-3
    th = np.linspace(math.pi, 0, 41)
    pts = [center + r0 * cmath.exp(1j * t) for t in th]
    for t0, t1 in zip(pts[:-1], pts[1:]):
        phi_gain += _phi_quadrature(t0, t1, model, params)
    # residue of b/u at the zero is -i (for the + branch): a positively
    # oriented half-loop picks up -i * (-i pi) = -pi -> Im(i phi)...
    # check the winding contribution pi in the imaginary part of i*phi_gain
    loop_part = phi_gain - _phi_quadrature(pts[0], pts[-1], model, params)
    assert abs(loop_part - (-math.pi)) < 1e-2


def test_pole_census_end_to_end():
    kappa = 1.3
    params = ProblemParams(0.1, 1.0, 1)
    s00 = -2j * math.cosh(2 * math.pi * kappa)
    data = complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, s00)
    prof = build_profile(data)
    chart = pole_chart(prof, range(3, 7), 1.0)
    from dp3.asymptotics import eval_uniform

    t_seed = chart.tau_p[0] * cmath.exp(math.pi / (4 * kappa))
    u0, du0 = eval_uniform(prof, t_seed, with_correction=True, derivative=True)
    st = SolutionState(t_seed, u0, du0, 0j)
    dets, zeros, clean = pole_census(st, params, chart, IntegrateOptions(rtol=1e-12))
    assert clean and not zeros and len(dets) == 4
    for det, tp, rp in zip(dets, chart.tau_p, chart.radii):
        assert abs(det.center - tp) < rp


def test_lattice_orbit_residuals(generic_setup):
    params, _d, _p, _e, start = generic_setup
    grid = list(np.linspace(0.1, 0.4, 16))
    tr = integrate(start, params, grid, IntegrateOptions(rtol=1e-11))
    idx = [int(np.argmin(np.abs(tr.tau - g))) for g in grid]
    states = [SolutionState(tr.tau[i], tr.u[i], tr.du[i], tr.phi[i]) for i in idx]
    orb = lattice_orbit(states, params, range(-2, 3))
    for name, v in orb.residuals.items():
        assert v < 1e-7, (name, v)
    # a_n bookkeeping: the tower actually solved a + i*n (implicit in the
    # construction); check via the 3-node algebraic relation at n = 1
    n = 1
    a1 = params.a + 1j * n
    v = {m: orb.u[m] / orb.taus for m in (0, 1, 2)}
    lhs = v[1] ** 2 * (v[2] + v[0])
    rhs = params.beff / (4 * orb.taus**2) * (params.b + 2 * a1 * v[1])
    assert np.max(np.abs(lhs - rhs)) < 1e-7
