"""Monodromy manifold: residuals, completion, classification, Backlund."""

import cmath
import math

import numpy as np
import pytest

from dp3.monodromy import (
    AmbiguousRegimeError,
    MonodromyData,
    OutOfScopeError,
    ProblemParams,
    Regime,
    RegimeTag,
    UnderdeterminedError,
    backlund_data,
    branching,
    classify,
    complete_from_G,
    complete_from_g11_g21_s00,
    complete_special,
    data_from_json,
    data_to_json,
    residual_norm,
    residuals,
)


def sample_generic(rng, a=None, b=1.0, eps=1):
    """Random on-manifold point via complete_from_G."""
    if a is None:
        a = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        if abs(a.real) < 0.05:
            a += 0.1
    params = ProblemParams(a, b, eps)

    def rnd():
        return complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))

    while True:
        g11 = rnd()
        if abs(g11) > 0.2:
            break
    return complete_from_G(params, g11, rnd(), rnd())


def test_identity_G_point():
    # G = I, a = 0.3: the five equations pin the Stokes multipliers
    a = 0.3
    params = ProblemParams(a, 1.0, 1)
    s00 = 1j * math.exp(-math.pi * a)
    s0inf = -1j * math.exp(math.pi * a)
    s1inf = -1j * math.exp(-math.pi * a)
    data = MonodromyData(params, s00, s0inf, s1inf, 1, 0, 0, 1)
    assert residual_norm(data) < 1e-14


def test_complete_from_G_identity():
    params = ProblemParams(0.3, 1.0, 1)
    data = complete_from_G(params, 1, 0, 0)
    assert abs(data.s00 - 1j * math.exp(-math.pi * 0.3)) < 1e-14
    assert abs(data.s0inf + 1j * math.exp(math.pi * 0.3)) < 1e-14
    assert abs(data.s1inf + 1j * math.exp(-math.pi * 0.3)) < 1e-14
    assert residual_norm(data) < 1e-14


def test_det_perturbation_shows_in_residual_5():
    rng = np.random.default_rng(0)
    data = sample_generic(rng)
    from dataclasses import replace

    bad = replace(data, g22=data.g22 + 1)
    r = residuals(bad)
    assert abs(r[4] - data.g11) < 1e-9 * max(1.0, abs(data.g11))


def test_negated_G_still_on_manifold():
    rng = np.random.default_rng(1)
    data = sample_generic(rng)
    assert residual_norm(data.negated_G()) < 1e-10
    assert data.equivalent(data.negated_G())


def test_stokes_product_relation_is_implied():
    # residual (i) is never used by complete_from_G yet must vanish
    rng = np.random.default_rng(2)
    for _ in range(1000):
        data = sample_generic(rng)
        assert abs(residuals(data)[0]) < 1e-10


def test_complete_from_G_g11_zero_paths():
    params = ProblemParams(0.4, 1.0, 1)
    with pytest.raises(UnderdeterminedError):
        complete_from_G(params, 0, 1.0, -1.0)
    # with g11 = 0 the manifold forces g12*g21 = -1 and g21*g22 = i e^{-pi a};
    # s00 stays a free parameter
    g21 = -1.0
    g22 = 1j * cmath.exp(-math.pi * 0.4) / g21
    data = complete_from_G(params, 0, 1.0, g21, g22=g22, s00=0.5 + 0.1j)
    assert residual_norm(data) < 1e-12
    with pytest.raises(ValueError):
        complete_from_G(params, 0, 1.0, -2.0, g22=g22, s00=0.5)


def test_complete_from_G_g22_zero_paths():
    # g12*g21 = -1 with g11 != 0 puts g22 = 0, where s00 drops out of the
    # mixed relation: these two points once divided by zero and landed
    # 9.5e-7 off the manifold
    params = ProblemParams(0.5, 1.0, 1)
    for g12 in (1j, (1 - 1e-10) * 1j):
        with pytest.raises(UnderdeterminedError):
            complete_from_G(params, 1, g12, 1j)
    # with s00 supplied the manifold forces g11*g12 = -i e^{-pi a}
    g12 = -1j * cmath.exp(-math.pi * 0.5)
    data = complete_from_G(params, 1, g12, -1 / g12, s00=0.3 - 0.2j)
    assert data.g[3] == 0 and data.s00 == 0.3 - 0.2j
    assert residual_norm(data) < 1e-12
    with pytest.raises(ValueError):
        complete_from_G(params, 1, 1.01 * g12, -1 / (1.01 * g12), s00=0.3)


def test_complete_from_G_supplied_g22_must_meet_det_G():
    # with g11 != 0 a supplied g22 is checked against det G = 1, as the
    # g11 = 0 branch checks its forced relations; this point once came back
    # with det residual 3.94
    params = ProblemParams(0.5, 1.0, 1)
    with pytest.raises(ValueError):
        complete_from_G(params, 1, 0.3, 0.2, g22=5)
    data = complete_from_G(params, 1, 0.3, 0.2, g22=1 + 0.3 * 0.2)
    assert data == complete_from_G(params, 1, 0.3, 0.2)
    assert residual_norm(data) < 1e-12


def test_complete_from_g11_g21_s00():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        if abs(a) < 0.05:
            a += 0.2
        params = ProblemParams(a, 1.0, 1)
        s00 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        data = complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, s00)
        assert residual_norm(data) < 1e-10
        assert abs(data.s00 - s00) < 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(0.3, -1.0, 1)
    with pytest.raises(OutOfScopeError):
        ProblemParams(2j, 1.0, 1)
    ProblemParams(0.5j, 1.0, 1)  # half-integer ia allowed
    ProblemParams(0.3, -2.0, -1)  # eps*b > 0


def test_classify_log_regimes():
    params = ProblemParams(0.3, 1.0, 1)
    d_plus = complete_from_g11_g21_s00(params, 0.9, 0.4j, 2j)
    assert classify(d_plus).tag is RegimeTag.LOG_RHO0
    d_minus = complete_from_g11_g21_s00(params, 0.9, 0.4j, -2j)
    assert classify(d_minus).tag is RegimeTag.LOG_VARRHO_HALF


def test_classify_meromorphic_vanishing():
    params = ProblemParams(0.3, 1.0, 1)
    data = complete_special(RegimeTag.MEROMORPHIC_VANISHING, params, g21=1.0)
    assert residual_norm(data) < 1e-12
    reg = classify(data)
    assert reg.tag is RegimeTag.MEROMORPHIC_VANISHING
    assert abs(data.s00 - 2j * cmath.cosh(cmath.pi * 0.3)) < 1e-12


def test_classify_pole_accumulation():
    kappa = 1.0
    params = ProblemParams(0.3, 1.0, 1)
    s00 = -2j * math.cosh(2 * math.pi * kappa)
    data = complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, s00)
    reg = classify(data)
    assert reg.tag is RegimeTag.POLE_ACCUMULATION
    assert reg.subcase["varkappa"] == pytest.approx(kappa, abs=1e-9)


def test_classify_special_power_and_regime_preserved_by_backlund():
    params = ProblemParams(0.4 + 0.3j, 1.0, 1)
    data = complete_special(RegimeTag.SPECIAL_POWER_PLUS, params, g21=1.0, s1inf=2.0)
    assert residual_norm(data) < 1e-12
    assert classify(data).tag is RegimeTag.SPECIAL_POWER_PLUS
    img = backlund_data(data, 1)
    assert residual_norm(img) < 1e-12
    assert classify(img).tag is RegimeTag.SPECIAL_POWER_PLUS


def test_complete_special_examples_from_closed_forms():
    params = ProblemParams(0.4, 1.0, 1)
    data = complete_special(RegimeTag.SPECIAL_POWER_PLUS, params, g21=1.0, s1inf=2.0)
    assert residual_norm(data) < 1e-12
    # g11 = i e^{-pi a} g21 and the detG=1 closure
    assert abs(data.g11 - 1j * math.exp(-0.4 * math.pi)) < 1e-13

    mero = complete_special(RegimeTag.MEROMORPHIC_VANISHING, params, g21=1.0)
    epa = math.exp(0.4 * math.pi)
    assert abs(mero.g11 - 1j / epa) < 1e-13
    assert abs(mero.g12 + epa / (2 * math.sinh(0.4 * math.pi))) < 1e-12
    assert abs(mero.g22 + 1j / epa * mero.g12) < 1e-12


def test_complete_special_pole_variant():
    # a = 2*kappa + i(2n+1), n = 0, kappa = 1
    kappa = 1.0
    params = ProblemParams(2 * kappa + 1j, 1.0, 1)
    data = complete_special(RegimeTag.SPECIAL_POWER_PLUS, params, g21=1.0, s1inf=1.0)
    assert residual_norm(data) < 1e-10
    assert abs(data.s00 + 2j * math.cosh(2 * math.pi * kappa)) < 1e-9
    reg = classify(data)
    assert reg.tag is RegimeTag.SPECIAL_POWER_PLUS
    assert reg.subcase.get("poles") is True
    assert reg.subcase["varkappa"] == pytest.approx(kappa)


@pytest.mark.parametrize(
    "tag", [RegimeTag.MEROMORPHIC_VANISHING, RegimeTag.MEROMORPHIC_NONVANISHING]
)
@pytest.mark.parametrize("m", range(-3, 5))
@pytest.mark.parametrize("side", [1, -1])
def test_half_integer_completion_round_trip(tag, m, side):
    # a = i(m - 1/2): side +1 supplies (g21, s1inf), side -1 (g12, s0inf).
    # The vanishing family lives on side -1 for m >= 1 and the nonvanishing
    # family on the other; the wrong side is underdetermined
    params = ProblemParams(1j * (m - 0.5), 1.0, 1)
    kw = dict(g21=0.8 - 0.3j, s1inf=0.5 + 0.2j) if side > 0 else dict(
        g12=0.9 + 0.2j, s0inf=0.4 - 0.1j
    )
    nonvanishing = tag is RegimeTag.MEROMORPHIC_NONVANISHING
    if side != (1 if (m >= 1) == nonvanishing else -1):
        with pytest.raises(UnderdeterminedError):
            complete_special(tag, params, **kw)
        return
    data = complete_special(tag, params, **kw)
    assert residual_norm(data) <= 1e-12
    assert (data.s0inf if side > 0 else data.s1inf) == 0
    reg = classify(data)
    assert reg.tag is tag
    index = {"family": "half", "m": m} if nonvanishing else {
        "family": "half", "n": max(m, 1 - m)
    }
    assert reg.subcase == index


def test_complete_special_out_of_scope_near_integer_ia():
    with pytest.raises(OutOfScopeError):
        ProblemParams(1e-14j, 1.0, 1)


def test_backlund_roundtrip_and_closure():
    rng = np.random.default_rng(4)
    for _ in range(200):
        data = sample_generic(rng)
        img = backlund_data(data, 1)
        assert residual_norm(img) < 1e-10
        back = backlund_data(img, -1)
        assert back.equivalent(data)


def test_backlund_swaps_log_tags():
    params = ProblemParams(0.3, 1.0, 1)
    d_plus = complete_from_g11_g21_s00(params, 0.9, 0.4j, 2j)
    assert classify(d_plus).tag is RegimeTag.LOG_RHO0
    assert classify(backlund_data(d_plus, 1)).tag is RegimeTag.LOG_VARRHO_HALF
    assert classify(backlund_data(d_plus, -1)).tag is RegimeTag.LOG_VARRHO_HALF


def test_branching_examples():
    params = ProblemParams(0.3, 1.0, 1)
    # s00 = 0: rho = 1/4 (meromorphic nonvanishing scope)
    d0 = complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, 0j)
    br = branching(d0)
    assert br.rho == pytest.approx(0.25)
    assert br.sigma == pytest.approx(1.0)
    # s00 = 2i: rho = 0
    d1 = complete_from_g11_g21_s00(params, 0.9, 0.4j, 2j)
    assert branching(d1).rho == 0
    # s00 = -2i: varrho = 1/2
    d2 = complete_from_g11_g21_s00(params, 0.9, 0.4j, -2j)
    assert branching(d2).varrho == pytest.approx(0.5)


def test_branching_generic_invariants():
    rng = np.random.default_rng(5)
    for _ in range(100):
        data = sample_generic(rng)
        reg = classify(data)
        if reg.tag is not RegimeTag.GENERIC_POWER or reg.subcase.get("varrho_ray"):
            continue
        br = branching(data, reg)
        v = -0.5j * data.s00
        assert abs(cmath.cos(2 * math.pi * br.varrho) - v) < 1e-11 * max(1, abs(v))
        assert 0 < br.varrho.real < 1
        if br.rho is not None:
            assert abs(cmath.cos(2 * math.pi * br.rho) - v) < 1e-11 * max(1, abs(v))
            assert abs(br.rho.real) < 0.5


def test_json_roundtrip():
    rng = np.random.default_rng(6)
    data = sample_generic(rng)
    back = data_from_json(data_to_json(data))
    assert back.equivalent(data, tol=1e-14)


def test_classify_ambiguity_error_on_loose_tol():
    # near a = 0 the one-parameter family has s00 ~ 2i, so a sloppy
    # tolerance makes two mutually exclusive conditions fire
    params = ProblemParams(0.012, 1.0, 1)
    data = complete_special(RegimeTag.SPECIAL_POWER_PLUS, params, g21=1.0, s1inf=0.5)
    assert classify(data, tol=1e-9).tag is RegimeTag.SPECIAL_POWER_PLUS
    with pytest.raises(AmbiguousRegimeError):
        classify(data, tol=1e-2)


def test_normalized_sign_representative():
    rng = np.random.default_rng(8)
    data = sample_generic(rng)
    for d in (data, data.negated_G()):
        nd = d.normalized()
        first = next(v for v in nd.g if v != 0)
        import cmath as _cm

        ph = _cm.phase(first)
        assert -math.pi / 2 < ph <= math.pi / 2
        assert nd.equivalent(d)
