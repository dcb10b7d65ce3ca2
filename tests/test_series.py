"""Expansion families: anchors, closed forms, symmetries, evaluation."""

import cmath
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from dp3._expand import LevelRows, equation_defect, sadd, sdtau, smul, sshift
from dp3.genfun import _irreglog_gf, _power_gf, genfun
from dp3.monodromy import OutOfScopeError, ProblemParams
from dp3.series import (
    ExpansionKind,
    ResonanceError,
    eval_expansion,
    inverse_power_sums,
    irreglog_coeffs,
    phi_exponent,
    power_coeffs,
    reglog_coeffs,
)

A = 0.37 + 0.21j
B = 1.0
PARAMS = ProblemParams(A, B, 1)
SIGMA = 0.9 - 0.3j
B11 = 0.8 + 0.4j


@pytest.fixture(scope="module")
def power_table():
    return power_coeffs(PARAMS, SIGMA, b11=B11, K=6)


@pytest.fixture(scope="module")
def reglog_table():
    return reglog_coeffs(PARAMS, 0.6 - 0.2j, K=6)


@pytest.fixture(scope="module")
def irreglog_table():
    return irreglog_coeffs(PARAMS, 0.35 + 0.15j, K=4, M=10)


def test_power_level1_anchors(power_table):
    exp = power_table
    assert exp.coeffs[(1, 0)] == pytest.approx(2 * A * B / SIGMA**2)
    prod = B**2 * (4 * A**2 + SIGMA**2) / (4 * SIGMA**4)
    assert exp.coeffs[(1, 1)] * exp.coeffs[(1, -1)] == pytest.approx(prod)


def test_power_b32_spec_value():
    # sigma=1, b=1, b11=1, eps=1: level-2 top coefficient is -8/9
    exp = power_coeffs(ProblemParams(0.3, 1.0, 1), 1.0, b11=1.0, K=2)
    assert exp.coeffs[(2, 2)] == pytest.approx(-8 / 9, rel=1e-12)


def test_power_b30_closed_form(power_table):
    s, a, b = SIGMA, A, B
    want = (
        4
        * b**2
        * (20 * a**2 * s**2 + 3 * s**4 - 48 * a**2 - 4 * s**2)
        / (s**4 * (s + 2) ** 2 * (s - 2) ** 2)
    )
    assert power_table.coeffs[(2, 0)] == pytest.approx(want, rel=1e-12)


def test_power_edge_closed_forms_k_to_8():
    exp = power_coeffs(PARAMS, SIGMA, b11=B11, K=9)
    b1m1 = exp.seeds["b1m1"]
    for k in range(1, 9):
        want = (-1) ** k * 2 ** (2 * k) * (k + 1) * B11 ** (k + 1) / (SIGMA + 2) ** (2 * k)
        assert abs(exp.coeffs[(k + 1, k + 1)] - want) < 1e-12 * abs(want)
        wantm = (
            (-1) ** k
            * 2 ** (2 * k)
            * (k + 1)
            * b1m1 ** (k + 1)
            / (SIGMA - 2) ** (2 * k)
        )
        assert abs(exp.coeffs[(k + 1, -k - 1)] - wantm) < 1e-12 * abs(wantm)


def test_power_sigma_reflection():
    # table(sigma, b11=beta)[k, m] == table(-sigma, b1m1=beta)[k, -m]
    beta = 0.5 + 0.3j
    e1 = power_coeffs(PARAMS, SIGMA, b11=beta, K=5)
    e2 = power_coeffs(PARAMS, -SIGMA, b1m1=beta, K=5)
    for (k, m), v in e1.coeffs.items():
        w = e2.coeffs[(k, -m)]
        assert abs(v - w) < 1e-11 * max(1.0, abs(v)), (k, m)


def test_power_one_sided_structure():
    # b11 = 0 at sigma = -2ia keeps the whole m > 0 side empty
    a = 0.3 + 0.4j
    params = ProblemParams(a, 1.0, 1)
    exp = power_coeffs(params, -2j * a, b11=0.0, b1m1=0.7, K=5)
    assert all(m <= 0 for (k, m) in exp.coeffs if abs(exp.coeffs[(k, m)]) > 0)


def test_power_resonance_errors():
    with pytest.raises(ResonanceError):
        power_coeffs(PARAMS, 2.0 + 1e-8j, b11=1.0)
    with pytest.raises(ResonanceError):
        power_coeffs(PARAMS, 0.0, b11=1.0)


def test_power_seed_consistency_errors():
    with pytest.raises(ValueError):
        power_coeffs(PARAMS, SIGMA, b11=0.0)  # product constraint nonzero
    with pytest.raises(ValueError):
        power_coeffs(PARAMS, SIGMA, b11=1.0, b1m1=1.0)  # violates constraint


def test_reglog_anchors_and_levels(reglog_table):
    c = 0.6 - 0.2j
    a, b = A, B
    exp = reglog_table
    assert exp.coeffs[(1, 2)] == pytest.approx(-a * b)
    assert exp.coeffs[(1, 1)] == pytest.approx(-a * b * c)
    assert exp.coeffs[(1, 0)] == pytest.approx(-b * (a**2 * c**2 + 1) / (4 * a))
    assert exp.coeffs[(2, 4)] == pytest.approx(-2 * a**2 * b**2, rel=1e-12)
    assert exp.coeffs[(3, 6)] == pytest.approx(-3 * a**3 * b**3, rel=1e-12)
    assert exp.coeffs[(2, 3)] == pytest.approx(-4 * a**2 * b**2 * (c - 1), rel=1e-12)
    c30 = -(b**2 / (8 * a**2)) * (
        a**4 * c**4
        - 4 * a**4 * c**3
        + 2 * a**2 * (4 * a**2 + 1) * c**2
        - 4 * a**2 * (2 * a**2 + 1) * c
        + 1
    )
    assert exp.coeffs[(2, 0)] == pytest.approx(c30, rel=1e-12)


def test_reglog_requires_nonzero_a():
    with pytest.raises(OutOfScopeError):
        reglog_coeffs(ProblemParams(1e-13 + 0.0j, 1.0, 1), 0.5)


def test_irreglog_anchors(irreglog_table):
    ct = 0.35 + 0.15j
    a, b = A, B
    exp = irreglog_table
    assert exp.coeffs[(0, 2)] == pytest.approx(-0.25)
    assert exp.coeffs[(1, 0)] == pytest.approx(a * b / 2)
    assert exp.coeffs[(1, 2)] == pytest.approx(a * b * (2 * ct + 1), rel=1e-12)
    assert exp.coeffs[(2, -2)] == pytest.approx(-b**2 * (a**2 + 1) / 4, rel=1e-12)
    assert exp.coeffs[(3, -2)] == pytest.approx(a * b**3 * (a**2 + 1) / 4, rel=1e-12)
    c31 = 3 * b**2 * (37 * a**2 + 5) / 32
    assert exp.coeffs[(2, 1)] == pytest.approx(c31, rel=1e-12)


def test_irreglog_finite_levels_at_zero_seed():
    exp = irreglog_coeffs(PARAMS, 0.0, K=5, M=14)
    for (k, m), v in exp.coeffs.items():
        if m > k + 2:
            assert abs(v) < 1e-13, (k, m, v)
    # levels solved only through index k+2 must still zero the rows they
    # read (tau-grades up to 2K-4) at every log index
    E = equation_defect(exp.algebra_terms(), A, B, 0j)
    scale = max(abs(v) for v in E.values())
    for (p, _m, j), v in E.items():
        if p <= 2 * exp.K - 4:
            assert abs(v) < 1e-15 * scale, (p, j, abs(v))


def test_irreglog_rescaling_law():
    # the b-rescaling acts on the seed by + ln(sqrt b)/2 and on level k by
    # b^k times a binomial ln(sqrt b) convolution
    ct1 = 0.28 - 0.12j
    btest = 2.7
    params1 = ProblemParams(A, 1.0, 1)
    paramsb = ProblemParams(A, btest, 1)
    lb = math.log(math.sqrt(btest))
    for K, M in ((3, 8), (6, 12)):
        e1 = irreglog_coeffs(params1, ct1, K=K, M=M)
        eb = irreglog_coeffs(paramsb, ct1 + 0.5 * lb, K=K, M=M)
        for (k, m), vb in eb.coeffs.items():
            if k == 0 or m < -2 * (k // 2):
                continue
            tot = 0j
            for j in range(0, m + 2 * (k // 2) + 1):
                c1 = e1.coeffs.get((k, m - j))
                if c1 is None:
                    continue
                tot += (-lb) ** j * math.comb(m - 1, j) * c1 if m - 1 >= j else 0
            if m - 1 < 0:
                continue
            want = btest**k * tot
            assert abs(vb - want) < 1e-12 * max(1.0, abs(want)), (K, k, m)


# (a, ct[-1,3]): perfbench tables draws 7/53, 39/6 and 61/54, and a large seed
IRREGLOG_IDS = ["tables-7-53", "tables-39-6", "tables-61-54", "ct-1.5+1i"]
IRREGLOG_POINTS = [
    (
        -0.018684666338678824 - 0.1391892595187313j,
        0.400648617243029 + 0.07749934136612857j,
    ),
    (
        -0.02128621922972196 + 0.20445276760826658j,
        0.4276793033352085 + 0.02464295632204061j,
    ),
    (
        -0.043884654723921 - 0.2120351531968092j,
        0.3890202911357079 - 0.152632180294391j,
    ),
    (A, 1.5 + 1j),
]


@pytest.mark.parametrize("a,ct", IRREGLOG_POINTS, ids=IRREGLOG_IDS)
def test_irreglog_table_matches_closed_forms_to_deepest_index(a, ct):
    # levels n <= 3 of the whole returned table (level 1 down to index 24)
    # against the genfun closed forms at 40 digits
    exp = irreglog_coeffs(ProblemParams(a, 1.0, 1), ct, K=6, M=12)
    worst = 0.0
    with mpmath.workdps(40):
        p_mp = SimpleNamespace(a=mpmath.mpc(a), beff=mpmath.mpf(1))
        for n in range(4):
            deepest = max(m for (k, m) in exp.coeffs if k == n)
            gf = _irreglog_gf(n, p_mp, mpmath.mpc(ct))
            for m, want in gf.taylor(deepest).items():
                got = exp.coeffs[(n, m)]
                worst = max(worst, float(abs(got - want) / max(1, abs(want))))
    assert worst <= 1e-13


def test_conjecture_structure_spot_checks():
    # regular-log family: coefficient c[2k-1, 2k] = -k (a beff)^k
    exp = reglog_coeffs(PARAMS, 0.3 + 0.1j, K=5)
    for k in range(1, 6):
        want = -k * (A * B) ** k
        assert abs(exp.coeffs[(k, 2 * k)] - want) < 1e-12 * abs(want)
    # irregular level-0 closed form
    ct = 0.4 - 0.2j
    exp2 = irreglog_coeffs(PARAMS, ct, K=2, M=8)
    for m in range(2, 9):
        want = (-1) ** (m - 1) * 2.0 ** (m - 4) * (m - 1) * ct ** (m - 2)
        assert abs(exp2.coeffs[(0, m)] - want) < 1e-13 * max(1.0, abs(want))


def _power_table_mp(a, sigma, b11, K):
    """Power table of eps*u (beff = 1) with every level system solved at the
    working mpmath precision: LevelRows on mpc scalars, the same unknowns and
    rows as power_coeffs, normal equations (the systems are consistent)."""
    a, sigma, b11 = mpmath.mpc(a), mpmath.mpc(sigma), mpmath.mpc(b11)
    coeffs = {
        (1, 1): b11,
        (1, 0): 2 * a / sigma**2,
        (1, -1): (4 * a**2 + sigma**2) / (4 * sigma**4 * b11),
    }
    u = {(1, m, 0): c for (_k, m), c in coeffs.items()}
    for k in range(2, K + 1):
        rows = LevelRows(u, a, mpmath.mpf(1), sigma)
        base = rows.defect(2 * k - 2)
        unknown = range(-k, k + 1)
        row_keys = [(m, 0) for m in range(-k - 2, k + 3)]
        mat = mpmath.matrix(len(row_keys), len(unknown))
        for col, m in enumerate(unknown):
            lin = rows.linearization((2 * k - 1, m, 0), 2 * k - 2)
            for r, rk in enumerate(row_keys):
                mat[r, col] = lin.get(rk, 0)
        rhs = mpmath.matrix([-base.get(rk, 0) for rk in row_keys])
        sol = mpmath.lu_solve(mat.H * mat, mat.H * rhs)
        for col, m in enumerate(unknown):
            coeffs[(k, m)] = u[(2 * k - 1, m, 0)] = sol[col]
    return coeffs


# (a, sigma, b11): perfbench tables draws 0/0, 22/30 and 17/167 (sigma near -2)
POWER_MP_IDS = ["tables-0-0", "tables-22-30", "tables-17-167"]
POWER_MP_POINTS = [
    (
        0.21913869971432698 - 0.36834125797780753j,
        -1.6524953138296992 - 0.580166837365765j,
        0.6265404784005448 + 0.8255111545554434j,
    ),
    (
        -0.023695194953024412 + 0.6178063876221516j,
        -1.778445700080713 - 0.1262128693452898j,
        0.06859719126941077 + 0.9783020541426417j,
    ),
    (
        -0.06840963021397395 - 0.7796923283574473j,
        -1.7944931908698132 + 0.0061983559061298266j,
        0.30581366139279953 - 0.5934698170357244j,
    ),
]


@pytest.mark.parametrize("a,sigma,b11", POWER_MP_POINTS, ids=POWER_MP_IDS)
def test_power_interior_coefficients_match_60_digit_level_solve(a, sigma, b11):
    # every coefficient of levels 2..9, interior ones included, against the
    # same level systems solved at 60 digits; pure relative error.  A level
    # spans up to ~30 decades near sigma = -2 and the normal equations square
    # that: at 40 digits the reference itself is off by 1.9e-15 at 22/30
    exp = power_coeffs(ProblemParams(a, 1.0, 1), sigma, b11=b11, K=9)
    with mpmath.workdps(60):
        ref = _power_table_mp(a, sigma, b11, 9)
        worst = max(
            float(abs(exp.coeffs[km] - c) / abs(c)) for km, c in ref.items() if km[0] >= 2
        )
    assert worst <= 4e-14


def _tables_draw(seed, item):
    """(a, sigma, b11) of perfbench `tables` draw seed/item."""
    rng = np.random.default_rng([seed, item])
    draw = lambda lo, hi, ilo, ihi: complex(rng.uniform(lo, hi), rng.uniform(ilo, ihi))
    while abs(a := draw(-0.8, 0.8, -0.8, 0.8)) < 0.05:
        pass
    while True:
        sigma = draw(-1.8, 1.8, -0.6, 0.6)
        if min(abs(sigma - s) for s in (0, 2, -2)) >= 0.15:
            break
    while abs(b11 := draw(-1.0, 1.0, -1.0, 1.0)) < 0.1:
        pass
    return a, sigma, b11


@pytest.mark.parametrize("item", range(12))
def test_power_level1_is_the_seeds(item):
    # two-sided tables are solved in rescaled gauges; level 1 must come back
    # as the seeds themselves, not their round trip through a gauge
    a, sigma, b11 = _tables_draw(0, item)
    exp = power_coeffs(ProblemParams(a, 1.0, 1), sigma, b11=b11, K=3)
    assert exp.coeffs[(1, 1)] == b11
    assert exp.coeffs[(1, -1)] == exp.seeds["b1m1"]


@pytest.mark.parametrize("table", ["power_table", "reglog_table", "irreglog_table"])
def test_eval_expansion_value_and_derivative(table, request):
    # the log tables reach the j != 0 derivative terms, with j < 0 (irreglog)
    exp = request.getfixturevalue(table)
    tau = 2e-3
    r = eval_expansion(exp, tau)
    h = 1e-8 * tau
    rp = eval_expansion(exp, tau + h)
    rm = eval_expansion(exp, tau - h)
    fd = (rp.value - rm.value) / (2 * h)
    assert abs(fd - r.derivative) < 1e-6 * abs(r.derivative)
    assert not r.divergent
    assert r.order_estimate < 1e-12 * abs(r.value)


def test_eval_expansion_divergence_flag(power_table):
    r = eval_expansion(power_table, 0.9)
    assert r.divergent


def test_eval_expansion_rejects_cut():
    with pytest.raises(ValueError):
        eval_expansion(power_table_dummy(), -1e-3 + 0j)


def power_table_dummy():
    return power_coeffs(PARAMS, SIGMA, b11=B11, K=2)


def test_defect_rows_vanish_below_truncation(power_table):
    E = equation_defect(power_table.algebra_terms(), A, B, SIGMA)
    scale = max(abs(v) for v in E.values())
    for (p, m, j), v in E.items():
        if p < 2 * power_table.K:
            assert abs(v) < 1e-11 * scale, (p, m, abs(v))


# --- full-product reference for the single-grade row builders


def defect_linearization(u_ref, u1_ref, u2_ref, U2_ref, e, a, beff, sigma):
    """Directional derivative of E at u_ref in direction e, as full series."""
    e1 = sdtau(e, sigma)
    e2 = sdtau(e1, sigma)
    return sadd(
        (1, smul(u_ref, e2)),
        (1, smul(e, u2_ref)),
        (-2, smul(u1_ref, e1)),
        (1, sshift(smul(u_ref, e1), -1)),
        (1, sshift(smul(e, u1_ref), -1)),
        (24, sshift(smul(U2_ref, e), -1)),
        (-2 * a * beff, sshift(e, -1)),
    )


def row(A, p):
    """Restriction of a series to integer tau-grade p: {(m, j): coeff}."""
    return {(m, j): c for (p_, m, j), c in A.items() if p_ == p}


def _random_graded_series(rng, sigma):
    """Extended-precision terms at odd grades -1..7 in shuffled order; with
    sigma = 0 the keys carry log powers of both signs, otherwise m and j."""
    if sigma == 0:
        keys = [(p, 0, j) for p in range(-1, 8, 2) for j in range(-4, 3)]
    else:
        keys = [
            (p, m, j) for p in range(-1, 8, 2) for m in range(-3, 4) for j in (0, 1)
        ]
    keys = [keys[i] for i in rng.permutation(len(keys))[: 2 * len(keys) // 3]]
    scale = np.exp(rng.normal(scale=3.0, size=(len(keys), 1)))
    vals = rng.normal(size=(len(keys), 2)) * scale
    return {k: np.clongdouble(complex(x, y)) for k, (x, y) in zip(keys, vals)}


@pytest.mark.parametrize("seed,sigma", [(1, 0.9 - 0.3j), (2, -1.78 - 0.13j), (3, 0j)])
def test_level_rows_equal_full_product_rows_bit_for_bit(seed, sigma):
    rng = np.random.default_rng(seed)
    a, beff = 0.37 + 0.21j, 1.3
    u = _random_graded_series(rng, sigma)
    rows = LevelRows(u, a, beff, sigma)
    E = equation_defect(u, a, beff, sigma)
    grades = range(min(p for p, _m, _j in E) - 1, max(p for p, _m, _j in E) + 2)
    for p in grades:
        assert rows.defect(p) == row(E, p), p
    u1 = sdtau(u, sigma)
    u2 = sdtau(u1, sigma)
    U2 = smul(u, u)
    for key in [(-1, 0, 0), (3, 1, 0), (5, -2, 1), (7, 0, -3), (9, 0, 2)]:
        full = defect_linearization(u, u1, u2, U2, {key: 1.0 + 0j}, a, beff, sigma)
        assert full
        lo, hi = min(p for p, _m, _j in full), max(p for p, _m, _j in full)
        for p in range(lo - 1, hi + 2):
            assert rows.linearization(key, p) == row(full, p), (key, p)


# perfbench tables draws (seed/item) whose sigma sits near -2, where every
# gauge has |lambda| ~ 60-90: (a, sigma, b11)
SIGMA_EDGE_IDS = ["tables-22-30", "tables-1-136", "tables-17-167"]
SIGMA_EDGE_POINTS = [
    (
        -0.023695194953024412 + 0.6178063876221516j,
        -1.778445700080713 - 0.1262128693452898j,
        0.06859719126941077 + 0.9783020541426417j,
    ),
    (
        -0.23120175513016172 + 0.667026627989054j,
        -1.797766412027115 - 0.03059677723762888j,
        0.9472191223697564 - 0.2550989020705483j,
    ),
    (
        -0.06840963021397395 - 0.7796923283574473j,
        -1.7944931908698132 + 0.0061983559061298266j,
        0.30581366139279953 - 0.5934698170357244j,
    ),
]


@pytest.mark.parametrize("a,sigma,b11", SIGMA_EDGE_POINTS, ids=SIGMA_EDGE_IDS)
def test_power_diagonals_near_sigma_minus_two(a, sigma, b11):
    # the n <= 2 (anti)diagonals of both edges through level 9 against the
    # genfun closed forms at 30 digits (their double evaluation itself
    # rounds to ~1e-11 here); the m < 0 side is the sigma -> -sigma image
    K = 9
    exp = power_coeffs(ProblemParams(a, 1.0, 1), sigma, b11=b11, K=K)
    worst = 0.0
    with mpmath.workdps(30):
        p_mp = SimpleNamespace(a=mpmath.mpc(a), beff=mpmath.mpf(1))
        for side, s, seed in ((1, sigma, b11), (-1, -sigma, exp.seeds["b1m1"])):
            for n in range(3):
                gf = _power_gf(n, p_mp, mpmath.mpc(s), mpmath.mpc(seed))
                for k, want in gf.taylor(K).items():
                    if k >= 1:
                        got = exp.coeffs[(k, side * (k - n))]
                        worst = max(worst, float(abs(got - want) / abs(want)))
    assert worst < 1e-12


@pytest.mark.parametrize("a,sigma,b11", SIGMA_EDGE_POINTS, ids=SIGMA_EDGE_IDS)
def test_genfun_power_taylor_near_sigma_minus_two(a, sigma, b11):
    # the public n <= 2 builders on both edges through level 9 against the
    # same closed forms at 30 digits
    params = ProblemParams(a, 1.0, 1)
    b1m1 = power_coeffs(params, sigma, b11=b11, K=1).seeds["b1m1"]
    worst = 0.0
    with mpmath.workdps(30):
        p_mp = SimpleNamespace(a=mpmath.mpc(a), beff=mpmath.mpf(1))
        for s, seed in ((sigma, b11), (-sigma, b1m1)):
            for n in range(3):
                got = genfun("power", n, params, sigma=s, b11=seed).taylor(9)
                assert all(type(v) is complex for v in got.values())
                ref = _power_gf(n, p_mp, mpmath.mpc(s), mpmath.mpc(seed))
                for k, want in ref.taylor(9).items():
                    if k >= 1:
                        worst = max(worst, float(abs(got[k] - want) / abs(want)))
    assert worst <= 1e-13


def _middle_pn(exp, N_max):
    """-i * [tau^(2N)] of phi_exponent on the middle column b[2k-1,0], for
    N = 1..N_max: the exponent is a polynomial of degree 2 N_max in tau, so
    its coefficients are read exactly on the unit circle."""
    middle = {2 * k - 1: exp.coeffs[(k, 0)] for k in range(1, N_max + 2)}
    M = 4 * N_max + 2
    taus = [cmath.exp(2j * math.pi * j / M) for j in range(M)]
    vals = [phi_exponent(middle, exp.params.beff, t, 2 * N_max) for t in taus]
    return {
        N: 1j * sum(v * t ** (-2 * N) for v, t in zip(vals, taus)) / M
        for N in range(1, N_max + 1)
    }


def test_pn_polynomials():
    # exp(i phi) on the middle column is const * exp(-i sum p_N tau^(2N)):
    # P_1 = 0; P_2 - P_1 = (4a^2/beff) b30 tau^2/2
    a = 0.3 + 0.2j
    params = ProblemParams(a, 1.0, 1)
    sigma = -2j * a
    exp = power_coeffs(params, sigma, b11=0.0, b1m1=0.5, K=5)
    pN = _middle_pn(exp, 3)
    b30, b50, b70 = (exp.coeffs[(k, 0)] for k in (2, 3, 4))
    beff = params.beff
    assert abs(pN[1] - 2 * a**2 / beff * b30) < 1e-12 * abs(pN[1])
    p2_want = (4 * a**2 / beff) * (b50 + 2 * a / beff * b30**2) / 4
    assert abs(pN[2] - p2_want) < 1e-11 * max(1.0, abs(p2_want))
    # the cubic term carries b30 cubed (forced by the multinomial grading)
    p3_want = (
        (4 * a**2 / beff)
        * (b70 + 4 * a / beff * b30 * b50 + 4 * a**2 / beff**2 * b30**3)
        / 6
    )
    assert abs(pN[3] - p3_want) < 1e-10 * max(1.0, abs(p3_want))


def test_phi_exponent_middle_matches_pn():
    # p_N = (a/N) sum_k (2a/beff)^k sum_{M(k,N)} multinomial prod b[2l+1,0]^(m_l)
    a = 0.3 + 0.2j
    params = ProblemParams(a, 1.0, 1)
    exp = power_coeffs(params, -2j * a, b11=0.0, b1m1=0.5, K=5)
    got = _middle_pn(exp, 3)
    middle = {l: exp.coeffs[(l + 1, 0)] for l in range(1, 4)}
    sums = inverse_power_sums(middle, 2 * a / params.beff, 3)
    for N in range(1, 4):
        assert got[N] == pytest.approx(a / N * sums[N], rel=1e-12)


def test_phi_exponent_closed_forms():
    # eps*u = 2 + 3 tau: int dtau/(eps*u) = log(1 + 1.5 tau)/3;
    # eps*u = tau (2 + 3 tau): the same less log(tau)/2, halved and negated
    beff, tau = 0.7, 0.01 - 0.02j
    lg = cmath.log(1 + 1.5 * tau)
    got = phi_exponent({0: 2.0, 1: 3.0}, beff, tau, 20)
    assert got == pytest.approx(1j * beff * lg / 3, rel=1e-14)
    got = phi_exponent({0: 0j, 1: 2.0, 2: 3.0}, beff, tau, 20)
    assert got == pytest.approx(-1j * beff * lg / 2, rel=1e-14)
    with pytest.raises(ValueError):
        phi_exponent({2: 1.0}, beff, tau, 4)


def test_inverse_power_sums_against_direct_expansion():
    # sum_k w^k sum_{M(k,n)} multinomial prod r_i^{m_i} are the Taylor
    # coefficients of 1/(1 - w*(r_1 x + r_2 x^2 + ...)) - 1
    ratios = {1: 0.3 + 0.1j, 2: -0.2j, 3: 0.05}
    w = 0.7 - 0.2j
    n_max = 6
    out = inverse_power_sums(ratios, w, n_max)
    # oracle: the truncated geometric sum sum_{k<=n_max} (w*R)^k, each power
    # by one more polynomial product
    wr = np.zeros(n_max + 1, dtype=complex)
    for i, r in ratios.items():
        wr[i] = w * r
    power = np.zeros(n_max + 1, dtype=complex)
    power[0] = 1.0
    total = np.zeros(n_max + 1, dtype=complex)
    for _k in range(n_max):
        power = np.convolve(power, wr)[: n_max + 1]
        total += power
    for n in range(1, n_max + 1):
        assert out[n] == pytest.approx(total[n], rel=1e-12)
