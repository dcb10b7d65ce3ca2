"""Generating functions vs recurrence tables and explicit formulas."""

from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from dp3.genfun import (
    IRREGLOG_CT_MIN,
    SmallCtildeError,
    _irreglog_gf,
    _power_gf,
    a2_residues,
    genfun,
)
from dp3.monodromy import ProblemParams
from dp3.series import irreglog_coeffs, power_coeffs, reglog_coeffs

A = 0.37 + 0.21j
PARAMS = ProblemParams(A, 1.0, 1)
SIGMA = 0.9 - 0.3j
B11 = 0.8 + 0.4j
C = 0.6 - 0.2j
CT = 0.35 + 0.15j


@pytest.fixture(scope="module")
def tables():
    return (
        power_coeffs(PARAMS, SIGMA, b11=B11, K=8),
        reglog_coeffs(PARAMS, C, K=6),
        irreglog_coeffs(PARAMS, CT, K=4, M=12),
    )


@pytest.mark.parametrize("n", range(0, 5))
def test_power_family_matches_recurrence(tables, n):
    pexp, _, _ = tables
    t = genfun("power", n, PARAMS, sigma=SIGMA, b11=B11).taylor(6)
    checked = 0
    for k, v in t.items():
        ref = pexp.coeffs.get((k, k - n))
        if ref is None or k < 1:
            continue
        assert abs(v - ref) <= 1e-12 * max(1e-30, abs(ref)), (n, k)
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("n", range(0, 5))
def test_reglog_family_matches_recurrence(tables, n):
    _, rexp, _ = tables
    t = genfun("reglog", n, PARAMS, c=C).taylor(6)
    checked = 0
    for k, v in t.items():
        ref = rexp.coeffs.get((k, 2 * k - n))
        if ref is None:
            continue
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref)), (n, k)
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("n", range(0, 4))
def test_irreglog_family_matches_recurrence(tables, n):
    _, _, iexp = tables
    t = genfun("irreglog", n, PARAMS, ctilde=CT).taylor(10)
    checked = 0
    for m, v in t.items():
        ref = iexp.coeffs.get((n, m))
        if ref is None:
            continue
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref)), (n, m)
        checked += 1
    assert checked >= 8


def test_a2_residue_sum_identity():
    xi = a2_residues(PARAMS, SIGMA, B11)
    assert abs(xi[0] + xi[-1] + xi[-2] + xi[-3] + xi[-4]) < 1e-13


def test_reglog_top_diagonal_closed_form():
    # with the pole location at a*beff: c[2k-1, 2k] = -k (a b)^k
    t = genfun("reglog", 0, PARAMS, c=C).taylor(6)
    for k in range(1, 7):
        want = -k * (A * 1.0) ** k
        assert abs(t[k] - want) < 1e-13 * abs(want)


def test_irreglog_level1_closed_form():
    # ct[1,m] carries the quadratic-in-(m) falling-factorial structure
    t = genfun("irreglog", 1, PARAMS, ctilde=CT).taylor(10)
    ab = A * 1.0
    for m in range(1, 11):
        want = (
            (-1) ** m
            * 2.0 ** (m - 5)
            * ab
            * CT ** (m - 3)
            * (16 * CT**2 + 8 * (m - 1) * CT + (m - 1) * (m - 2))
        )
        assert abs(t[m] - want) < 1e-12 * max(1.0, abs(want)), m


CLOSED_FORMS = [("power", n) for n in range(3)]
CLOSED_FORMS += [("reglog", n) for n in range(5)] + [("irreglog", n) for n in range(4)]
SEEDS = {"power": dict(sigma=SIGMA, b11=B11), "reglog": dict(c=C), "irreglog": dict(ctilde=CT)}


def test_value_matches_taylor_near_zero():
    x = 0.01 + 0.003j
    for fam, n in CLOSED_FORMS:
        fn = genfun(fam, n, PARAMS, **SEEDS[fam])
        series_val = sum(c * x**k for k, c in fn.taylor(24).items())
        assert abs(fn.value(x) - series_val) < 1e-10 * max(1.0, abs(series_val)), (fam, n)


def test_partial_fractions_match_the_rational_forms():
    # each member's data against the rational form it was decomposed from,
    # at 30 digits, at points inside and outside the disc of convergence
    with mpmath.workdps(30):
        mpc = mpmath.mpc
        p_mp = SimpleNamespace(a=mpc(A), beff=mpmath.mpf(1))
        s, b11 = mpc(SIGMA), mpc(B11)
        zfac = 4 * b11 / (s + 2) ** 2
        c0 = p_mp.a * (2 + s) ** 2 / (2 * s**2 * (4 + s) ** 2 * b11)
        Ct = -2 * mpc(CT)
        forms = [
            (_power_gf(0, p_mp, s, b11), lambda x, z: b11 * x / (1 + z) ** 2),
            (
                _power_gf(1, p_mp, s, b11),
                lambda x, z: c0
                * z
                * (z * s - s - 4)
                * (z * z * s + 2 * z * (s**2 + 4 * s + 2) - s - 4)
                / (1 + z) ** 3,
            ),
            (_irreglog_gf(0, p_mp, mpc(CT)), lambda x, z: -(x**2) / (4 * (1 - Ct * x) ** 2)),
            (
                _irreglog_gf(1, p_mp, mpc(CT)),
                lambda x, z: p_mp.a
                / 2
                * ((Ct**2 + Ct + 1) * x**2 - (2 * Ct + 1) * x + 1)
                * ((Ct + 1) * x - 1)
                / (Ct * x - 1) ** 3,
            ),
        ]
        for g, form in forms:
            for x in (mpc(0.01, 0.003), mpc(-0.4, 0.7), mpc(3, -2)):
                want = form(x, zfac * x)
                assert abs(g.value(x) - want) <= 1e-26 * max(1, abs(want)), (g.family, g.n, x)


@pytest.mark.parametrize("n", range(4))
def test_irreglog_small_ctilde_raises_or_meets_bound(n):
    # below IRREGLOG_CT_MIN the closed forms raise; above it they match the
    # recurrence table (exact at every ct) to 1e-12 relative to max(1, |c|)
    raised = 0
    for r in np.logspace(-6, np.log10(0.5), 25):
        for phase in (1, 1j, -0.6 + 0.8j):
            ct = r * phase
            try:
                t = genfun("irreglog", n, PARAMS, ctilde=ct).taylor(10)
            except SmallCtildeError:
                assert abs(ct) < IRREGLOG_CT_MIN
                raised += 1
                continue
            ref = irreglog_coeffs(PARAMS, ct, K=4, M=12).coeffs
            for m, v in t.items():
                if (n, m) in ref:
                    want = ref[(n, m)]
                    assert abs(v - want) <= 1e-12 * max(1.0, abs(want)), (ct, m)
    assert raised > 0


def test_not_implemented_beyond_four():
    with pytest.raises(NotImplementedError):
        genfun("power", 5, PARAMS, sigma=SIGMA, b11=B11)
    with pytest.raises(NotImplementedError):
        genfun("reglog", 5, PARAMS, c=C)
    with pytest.raises(NotImplementedError):
        genfun("irreglog", 5, PARAMS, ctilde=CT)


def test_degenerate_seed_rejected():
    with pytest.raises(ValueError):
        genfun("power", 0, PARAMS, sigma=SIGMA, b11=0.0)
    with pytest.raises(ValueError):
        genfun("irreglog", 2, PARAMS, ctilde=0.0)
