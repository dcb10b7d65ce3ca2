"""Zero <-> pole correspondence of the Backlund maps on real trajectories."""

import cmath
import math

import numpy as np

from dp3.asymptotics import build_profile, eval_uniform, pole_chart
from dp3.dynamics import (
    IntegrateOptions,
    LocalKind,
    SolutionState,
    backlund_fn,
    continue_through,
    integrate,
)
from dp3.monodromy import ProblemParams, complete_from_g11_g21_s00
from dp3.series import eval_expansion


def _pole_regime_seed(kappa=1.3):
    params = ProblemParams(0.1, 1.0, 1)
    s00 = -2j * math.cosh(2 * math.pi * kappa)
    data = complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, s00)
    prof = build_profile(data)
    chart = pole_chart(prof, range(3, 5), 1.0)
    t_seed = chart.tau_p[0] * cmath.exp(math.pi / (4 * kappa))
    u0, du0 = eval_uniform(prof, t_seed, with_correction=True, derivative=True)
    return params, chart, SolutionState(t_seed, u0, du0, 0j)


def test_downward_image_crosses_zero_plus_at_the_pole_site():
    params, chart, st = _pole_regime_seed()
    img, pimg = backlund_fn(st, params, -1)
    mid = chart.tau_p[0] * cmath.exp(-math.pi / (4 * chart.varkappa))
    end, dets, _ = continue_through(img, pimg, [mid], IntegrateOptions(rtol=1e-12))
    assert len(dets) == 1
    assert dets[0].kind is LocalKind.ZERO_PLUS
    # the zero of the image sits where the original solution has its pole
    assert abs(dets[0].center - chart.tau_p[0]) < chart.radii[0]
    assert dets[0].fit_residual < 1e-6


def _covariance_errors(rtol):
    # continue both the original (through its pole) and the image (through
    # its zero) to the same endpoint; the down-map applied to the original
    # endpoint reproduces the image endpoint (u, u' are branch-free).
    # Returns the relative (u, u') mismatch and both detection lists.
    params, chart, st = _pole_regime_seed()
    mid = chart.tau_p[0] * cmath.exp(-math.pi / (4 * chart.varkappa))
    opts = IntegrateOptions(rtol=rtol)
    end0, dets0, _ = continue_through(st, params, [mid], opts)
    img, pimg = backlund_fn(st, params, -1)
    end1, dets1, _ = continue_through(img, pimg, [mid], opts)
    want, _ = backlund_fn(end0, params, -1)
    # the endpoint sits near a zero of the image, so compare against the
    # state norm rather than |u| alone
    snorm = max(abs(want.u), abs(want.du * mid))
    err_u = abs(end1.u - want.u) / snorm
    err_du = abs(end1.du - want.du) / max(abs(want.du), snorm / abs(mid))
    return err_u, err_du, dets0, dets1


def test_image_endpoint_covariance_through_the_singular_site():
    err_u, err_du, dets0, dets1 = _covariance_errors(1e-12)
    assert dets0 and dets0[0].kind is LocalKind.POLE_ORDER2
    assert dets1 and dets1[0].kind is LocalKind.ZERO_PLUS
    # the attainable agreement is set by the integration tolerance alone:
    # each step-over arc starts a safe distance from the fitted centre,
    # where the right-hand side's u'^2/u and b^2/u terms no longer cancel
    # catastrophically (the zero guard trips ~1e-6*|tau| from the centre)
    assert err_u < 1e-8
    assert err_du < 1e-8


def test_covariance_error_converges_with_rtol():
    # crossing a singularity must not leave an rtol-independent error floor
    loose = _covariance_errors(1e-10)
    tight = _covariance_errors(1e-12)
    assert tight[0] * 10 < loose[0], (loose[:2], tight[:2])
    assert tight[1] * 10 < loose[1], (loose[:2], tight[:2])


def _image_and_its_zero():
    # the ZeroPlus image of the pole-regime seed, and the zero that
    # continue_through locates where the original solution has its pole
    params, chart, st = _pole_regime_seed()
    img, pimg = backlund_fn(st, params, -1)
    mid = chart.tau_p[0] * cmath.exp(-math.pi / (4 * chart.varkappa))
    _, dets, _ = continue_through(img, pimg, [mid], IntegrateOptions(rtol=1e-12))
    assert dets[0].kind is LocalKind.ZERO_PLUS
    return img, pimg, dets[0].center, abs(mid - img.tau)


def _segment_end(start, center, length, miss):
    # end of a straight segment from start.tau whose closest approach to
    # center is miss
    gap = center - start.tau
    return start.tau + length * gap / abs(gap) * cmath.exp(1j * math.asin(miss / abs(gap)))


def test_zero_guard_lets_a_near_passage_through():
    # the zero guard trips on |u/u'| < 1e-6*|tau| alone; a straight path that
    # passes a zero at 4e-5*|c| (as solve seed 21 item 37 does) runs on
    img, pimg, c, length = _image_and_its_zero()
    end = _segment_end(img, c, length, 4e-5 * abs(c))
    tr = integrate(img, pimg, [end], IntegrateOptions(rtol=1e-12))
    assert tr.status == "done"
    assert np.min(np.abs(tr.tau - c)) < 4.1e-5 * abs(c)


def test_zero_guard_trips_on_a_segment_aimed_at_the_zero():
    img, pimg, c, length = _image_and_its_zero()
    end = _segment_end(img, c, length, 0.0)
    tr = integrate(img, pimg, [end], IntegrateOptions(rtol=1e-12))
    assert tr.status == "zero_guard"
    assert abs(tr.tau[-1] - c) < 2e-6 * abs(c)


def test_long_outward_run_without_spurious_guards():
    rng = np.random.default_rng(11)
    a = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
    if abs(a.real) < 0.05:
        a += 0.1
    params = ProblemParams(a, 1.0, 1)
    from dp3.monodromy import complete_from_G
    from dp3.asymptotics import series_for_regime

    g = lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    data = complete_from_G(params, g() + 0.4, g(), g())
    prof = build_profile(data)
    exp = series_for_regime(prof, K=6)
    r = eval_expansion(exp, 1e-3)
    st = SolutionState(1e-3, r.value, r.derivative, 0j)
    # |u*tau| drifts by six decades along this run; the distance-estimate
    # guard must not fire anywhere
    tr = integrate(st, params, [3.0], IntegrateOptions(rtol=1e-11))
    assert tr.status == "done"
