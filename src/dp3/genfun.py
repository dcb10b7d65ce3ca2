"""Closed-form generating functions for the expansion coefficient families.

Each small-tau family admits generating functions whose Taylor expansions
reproduce whole (anti)diagonals of the coefficient tables:

* power family    A_n(x):   sum_k b[2k-1, k-n] x^k,    x = tau^(2+sigma)
* regular log     Ah_n(x):  sum_k c[2k-1, 2k-n] x^k,   x = tau^2 log^2 tau
* irregular log   At_k(x):  sum_m ct[2k-1, m] x^m,     x = 1/log tau

The rational closed forms below (power n <= 2, regular log n <= 4,
irregular log n <= 3) provide exactness anchors for the recurrence path;
for the remaining n <= 4 the Taylor data is delegated to the recurrence,
which is the equivalent coefficient-space solution of the same
inhomogeneous degenerate hypergeometric ODEs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable, Dict

from dp3.monodromy import ProblemParams
from dp3.series import _XP, _binom, irreglog_coeffs, power_coeffs, reglog_coeffs

__all__ = ["GeneratingFunction", "genfun", "a2_residues"]


def _poly_mul(p, q):
    out = [0j] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _inv_1pz_pow(p: int, kmax: int):
    """Taylor of (1+z)^(-p)."""
    return [(-1) ** k * _binom(k + p - 1, p - 1) for k in range(kmax + 1)]


def _rational_taylor(poly, pole_residues: Dict[int, complex], kmax: int):
    """Taylor of  sum_i poly[i] z^i + sum_p res[p]/(1+z)^p."""
    out = [0j] * (kmax + 1)
    for i, c in enumerate(poly[: kmax + 1]):
        out[i] += c
    for p, r in pole_residues.items():
        basis = _inv_1pz_pow(p, kmax)
        for k in range(kmax + 1):
            out[k] += r * basis[k]
    return out


@dataclass
class GeneratingFunction:
    family: str  # 'power' | 'reglog' | 'irreglog'
    n: int
    variable: str
    closed_form: dict | None
    _taylor: Callable[[int], Dict[int, complex]]
    _value: Callable[[complex], complex] | None = None
    meta: dict = field(default_factory=dict)

    def taylor(self, kmax: int) -> Dict[int, complex]:
        """Coefficients of the family variable up to order kmax."""
        return self._taylor(kmax)

    def value(self, x: complex) -> complex:
        if self._value is None:
            raise NotImplementedError(
                f"{self.family} n={self.n}: Taylor data only (recurrence-backed)"
            )
        return self._value(x)


def a2_residues(params: ProblemParams, sigma: complex, b11: complex):
    """The residue/polynomial data of the power-family n = 2 function in its
    natural variable; the pole residues satisfy xi0 + sum xi_{-k} = 0."""
    a = params.a
    b = params.beff
    s = sigma
    b2 = b * b
    q2 = b11 * b11
    xi3 = b2 * (2 + s) ** 2 * ((4 + s) ** 2 + 4 * a**2) / (16 * q2 * (4 + s) ** 4)
    xi2 = (
        b2
        * (2 + s) ** 2
        * (4 * (5 * s**2 + 40 * s + 68) * a**2 + (3 * s**2 + 24 * s + 44) * (4 + s) ** 2)
        / (4 * q2 * (4 + s) ** 4 * (6 + s) ** 2)
    )
    xi1 = (
        b2
        * (2 + s) ** 2
        / (16 * q2 * s * (4 + s) ** 4 * (6 + s) ** 2)
        * (
            4
            * (8 * s**5 + 158 * s**4 + 1061 * s**3 + 2964 * s**2 + 3412 * s + 1152)
            * a**2
            + s * (12 * s**3 + 121 * s**2 + 380 * s + 388) * (4 + s) ** 2
        )
    )
    xi0 = (
        -b2
        * (2 + s) ** 5
        / (q2 * s**2 * (4 + s) ** 4 * (6 + s) ** 2 * (2 - s) ** 2)
        * (
            2 * (8 * s**5 + 95 * s**4 + 184 * s**3 - 584 * s**2 - 96 * s + 576) * a**2
            + 3 * s**2 * (s**2 + 4 * s - 6) * (4 + s) ** 2
        )
    )
    xim1 = (
        3
        * b2
        * (2 + s) ** 5
        * (2 + 3 * s) ** 2
        / (4 * q2 * s**4 * (4 + s) ** 4 * (6 + s) ** 2 * (2 - s) ** 2)
        * (
            2 * (4 * s**5 + 45 * s**4 + 72 * s**3 - 344 * s**2 - 96 * s + 576) * a**2
            + s**2 * (s**2 + 4 * s - 6) * (4 + s) ** 2
        )
    )
    xim2 = (
        -b2
        * (2 + s) ** 6
        / (4 * q2 * s**4 * (4 + s) ** 4 * (6 + s) ** 2 * (2 - s) ** 2)
        * (
            2
            * (
                148 * s**6
                + 1657 * s**5
                + 2898 * s**4
                - 12584 * s**3
                - 11792 * s**2
                + 22656 * s
                + 19584
            )
            * a**2
            + 3 * s**2 * (6 + 7 * s) * (s**2 + 4 * s - 6) * (4 + s) ** 2
        )
    )
    xim3 = (
        b2
        * (2 + s) ** 7
        / (2 * q2 * s**4 * (4 + s) ** 4 * (6 + s) ** 2 * (2 - s) ** 2)
        * (
            2 * (48 * s**5 + 463 * s**4 + 248 * s**3 - 4808 * s**2 + 1056 * s + 7488)
            * a**2
            + 3 * s**2 * (s**2 + 4 * s - 6) * (4 + s) ** 2
        )
    )
    xim4 = -12 * b2 * (2 + s) ** 8 * a**2 / (q2 * s**4 * (4 + s) ** 4)
    return {
        3: xi3,
        2: xi2,
        1: xi1,
        0: xi0,
        -1: xim1,
        -2: xim2,
        -3: xim3,
        -4: xim4,
    }


# ---------------------------------------------------------------------------
# power family


def _power_gf(n, params, sigma, b11):
    a, b = params.a, params.beff
    s = sigma
    if b11 == 0:
        raise ValueError("power-family generating functions need b11 != 0")
    zfac = 4 * b11 / (s + 2) ** 2  # z = zfac * x

    def ztaylor_to_x(zt, kmax):
        return {k: zt[k] * zfac**k for k in range(min(kmax, len(zt) - 1) + 1)}

    if n == 0:
        # b11 x / (1 + z)^2 = ((s+2)^2/4) z/(1+z)^2
        pref = (s + 2) ** 2 / 4

        def taylor(kmax):
            # z/(1+z)^2 = 1/(1+z) - 1/(1+z)^2
            t = _rational_taylor([0], {1: pref, 2: -pref}, kmax)
            return ztaylor_to_x(t, kmax)

        def value(x):
            z = zfac * x
            return b11 * x / (1 + z) ** 2

        return GeneratingFunction(
            "power", 0, "x", {"pole_order": 2, "prefactor": pref}, taylor, value
        )

    if n == 1:
        c0 = a * b * (2 + s) ** 2 / (2 * s**2 * (4 + s) ** 2 * b11)

        def num(z):
            return z * (z * s - s - 4) * (z * z * s + 2 * z * (s**2 + 4 * s + 2) - s - 4)

        def value(x):
            z = zfac * x
            return c0 * num(z) / (z + 1) ** 3

        def taylor(kmax):
            p1 = [0j, 1.0 + 0j]  # z
            p2 = [-s - 4, s]
            p3 = [-s - 4, 2 * (s**2 + 4 * s + 2), s]
            poly = _poly_mul(_poly_mul(p1, p2), p3)
            inv3 = _inv_1pz_pow(3, kmax)
            t = [0j] * (kmax + 1)
            for i, pc in enumerate(poly):
                for k in range(kmax + 1 - i):
                    t[i + k] += c0 * pc * inv3[k]
            return ztaylor_to_x(t, kmax)

        return GeneratingFunction("power", 1, "x", {"pole_order": 3}, taylor, value)

    if n == 2:
        xi = a2_residues(params, sigma, b11)

        def value(x):
            z = zfac * x
            out = sum(xi[k] * z**k for k in range(0, 4))
            out += sum(xi[-k] / (z + 1) ** k for k in range(1, 5))
            return out

        def taylor(kmax):
            poly = [xi[0], xi[1], xi[2], xi[3]]
            t = _rational_taylor(poly, {p: xi[-p] for p in range(1, 5)}, kmax)
            return ztaylor_to_x(t, kmax)

        return GeneratingFunction(
            "power", 2, "x", {"residues": xi, "pole_order": 4}, taylor, value
        )

    if n in (3, 4):
        def taylor(kmax, _n=n):
            exp = power_coeffs(params, sigma, b11=b11, K=kmax + _n)
            out = {}
            for k in range((_n - 1) // 2 + 1, kmax + 1):
                out[k] = exp.coeffs.get((k, k - _n), 0j)
            return out

        return GeneratingFunction("power", n, "x", None, taylor, None)

    raise NotImplementedError("power family: n > 4 is left to the recurrence path")


# ---------------------------------------------------------------------------
# regular log family


def _reglog_gf(n, params, c):
    a, b = params.a, params.beff
    C = a * b  # pole of every member sits at x = 1/C

    def pf_value(const_poly, res, x):
        w = 1 - C * x
        out = sum(cc * x**i for i, cc in enumerate(const_poly))
        out += sum(r / w**p for p, r in res.items())
        return out

    def pf_taylor(const_poly, res, kmax):
        out = [0j] * (kmax + 1)
        for i, cc in enumerate(const_poly[: kmax + 1]):
            out[i] += cc
        for p, r in res.items():
            for k in range(kmax + 1):
                out[k] += r * _binom(k + p - 1, p - 1) * C**k
        return {k: out[k] for k in range(kmax + 1)}

    if n == 0:
        const_poly = [0j]
        res = {}  # -Cx/(1-Cx)^2 = -1/(1-Cx)^2 + 1/(1-Cx): poles only
        res = {1: 1.0 + 0j, 2: -1.0 + 0j}
    elif n == 1:
        const_poly = [0j]
        res = {1: -(c - 4), 2: 3 * c - 8, 3: -2 * (c - 2)}
    elif n == 2:
        C2 = -(6 * a**2 * c**2 - 48 * a**2 * c + 57 * a**2 - 2) / (8 * a**2)
        const_poly = [-0.5 + 0j, C / 8]
        res = {
            1: -(4 * C2 - 11) / 4,
            2: (12 * C2 - 8 * c**2 + 24 * c - 35) / 4,
            3: -(4 * C2 - 10 * c**2 + 36 * c - 37) / 2,
            4: -3 * (c - 2) ** 2,
        }
    elif n == 3:
        const_poly = [c / 2 - 1, -C / 8]
        res = {
            5: -4 * (c - 2) ** 3,
            4: (c - 2) * ((46 * c**2 - 208 * c + 217) * a**2 - 6) / (4 * a**2),
            3: -((46 * c**3 - 336 * c**2 + 765 * c - 545) * a**2 - 14 * c + 32)
            / (4 * a**2),
            2: ((36 * c**3 - 312 * c**2 + 802 * c - 607) * a**2 - 20 * c + 56)
            / (8 * a**2),
            1: -((4 * c**3 - 48 * c**2 + 158 * c - 137) * a**2 - 4 * c + 16)
            / (8 * a**2),
        }
    elif n == 4:
        const_poly = [
            -3.0 / 16 * (2 * c**2 - 8 * c + 3 - 2 / a**2),
            (144 * c - 469 - 388 / a**2) * C / 2304,
            (17 + 44 / a**2) * C**2 / 576,
            -(1 + 4 / a**2) * C**3 / 256,
        ]
        res = {
            6: -5 * (c - 2) ** 4,
            5: (c - 2) ** 2 * ((36 * c**2 - 160 * c + 161) * a**2 - 6) / (2 * a**2),
            4: -(
                (1564 * c**4 - 14176 * c**3 + 46212 * c**2 - 64352 * c + 32315) * a**4
                - 12 * (50 * c**2 - 216 * c + 227) * a**2
                + 12
            )
            / (64 * a**4),
            3: (
                (72 * (243 * c**4 - 2432 * c**3 + 8489 * c**2 - 12238 * c) + 441091)
                * a**4
                - 4 * (2988 * c**2 - 14400 * c + 16265) * a**2
                + 504
            )
            / (1152 * a**4),
            2: -(
                (48 * (65 * c**4 - 760 * c**3 + 2965 * c**2 - 4523 * c) + 107041)
                * a**4
                - 4 * (888 * c**2 - 5088 * c + 6491) * a**2
                + 240
            )
            / (768 * a**4),
            1: (
                (720 * c**4 - 11520 * c**3 + 56880 * c**2 - 98640 * c + 46009) * a**4
                - 4 * (360 * c**2 - 2880 * c + 4763) * a**2
                + 144
            )
            / (2304 * a**4),
        }
    else:
        raise NotImplementedError("regular-log family: n > 4 is left to the recurrence")

    return GeneratingFunction(
        "reglog",
        n,
        "x",
        {"pole": "1/(a*beff)", "residues": res, "poly": const_poly},
        lambda kmax: pf_taylor(const_poly, res, kmax),
        lambda x: pf_value(const_poly, res, x),
    )


# ---------------------------------------------------------------------------
# irregular log family


def _irreglog_gf(n, params, ctilde):
    a, b = params.a, params.beff
    C = -2 * ctilde

    def laurent_value(lneg, const, res, x):
        out = lneg.get(-2, 0j) / x**2 + lneg.get(-1, 0j) / x + const
        w = C * x - 1
        out += sum(r / w**p for p, r in res.items())
        return out

    def laurent_taylor(lneg, const, res, mmax):
        out = {m: c for m, c in lneg.items()}
        out[0] = out.get(0, 0j) + const
        for p, r in res.items():
            sgn = (-1) ** p
            for m in range(0, mmax + 1):
                out[m] = out.get(m, 0j) + r * sgn * _binom(m + p - 1, p - 1) * C**m
        return {m: v for m, v in out.items() if m <= mmax}

    if n == 0:
        # -x^2/(4 (1-Cx)^2)
        def taylor(mmax):
            out = {}
            for m in range(2, mmax + 1):
                out[m] = -0.25 * (m - 1) * C ** (m - 2)
            return out

        return GeneratingFunction(
            "irreglog",
            0,
            "x",
            {"pole_order": 2},
            taylor,
            lambda x: -1.0 / (4 * (1.0 / x - C) ** 2),
        )

    if n == 1:
        c0 = a * b / 2

        def value(x):
            num = ((C**2 + C + 1) * x**2 - (2 * C + 1) * x + 1) * ((C + 1) * x - 1)
            return c0 * num / (C * x - 1) ** 3

        def taylor(mmax):
            # ct[1,0] = a*beff/2 and the explicit family for m >= 1
            out = {0: c0}
            for m in range(1, mmax + 1):
                out[m] = -a * b * C ** (m - 3) * (
                    C**2 - (m - 1) * C + (m - 1) * (m - 2) / 4.0
                )
            return out

        return GeneratingFunction("irreglog", 1, "x", {"pole_order": 3}, taylor, value)

    if n == 2:
        if abs(C) < 1e-8:
            raise ValueError("irregular-log closed form degenerates at ct[-1,3] = 0")
        b2 = b * b
        lneg = {-2: -b2 * (a**2 + 1) / 4, -1: b2 * ((a**2 + 1) * C + 2 * a**2 + 1) / 2}
        P = (
            64 * (a**2 + 1) * C**6
            + 128 * (2 * a**2 + 1) * C**5
            + 8 * (71 * a**2 + 19) * C**4
            + 24 * (37 * a**2 + 5) * C**3
            + 4 * (239 * a**2 + 15) * C**2
            + (623 * a**2 + 15) * C
            + 192 * a**2
        )
        pref = -b2 / (256 * C**4)
        const = pref * P
        # the pole residues carry the opposite sign from the polynomial part
        # (anchored on the recurrence table, which reproduces the explicit
        # level-2 coefficient list)
        res = {
            4: -pref * (-192 * a**2),
            3: -pref * (-((623 * a**2 + 15) * C + 768 * a**2)),
            2: -pref
            * (-(4 * (239 * a**2 + 15) * C**2 + 3 * (623 * a**2 + 15) * C + 1152 * a**2)),
            1: -pref
            * (
                -(
                    24 * (37 * a**2 + 5) * C**3
                    + 8 * (239 * a**2 + 15) * C**2
                    + 3 * (623 * a**2 + 15) * C
                    + 768 * a**2
                )
            ),
        }
        return GeneratingFunction(
            "irreglog",
            2,
            "x",
            {"residues": res, "laurent": lneg},
            lambda mmax: laurent_taylor(lneg, const, res, mmax),
            lambda x: laurent_value(lneg, const, res, x),
        )

    if n == 3:
        if abs(C) < 1e-8:
            raise ValueError("irregular-log closed form degenerates at ct[-1,3] = 0")
        b3a = a * b**3
        lneg = {
            -2: b3a * (a**2 + 1) / 4,
            -1: -b3a * (4 * (a**2 + 1) * C + 13 * a**2 + 9) / 8,
        }
        Q = (
            (a**2 + 1) * C**7
            + (13 * a**2 + 9) * C**6 / 2
            + (176 * a**2 + 83) * C**5 / 9
            + (7685 * a**2 + 2309) * C**4 / 216
            + (111659 * a**2 + 20171) * C**3 / 2592
            + (33815 * a**2 + 3311) * C**2 / 972
            + 3 * (367 * a**2 + 15) * C / 64
            + 4 * a**2
        )
        k1 = (
            (7685 * a**2 + 2309) * C**4 / 216
            + (111659 * a**2 + 20171) * C**3 / 1296
            + (33815 * a**2 + 3311) * C**2 / 324
            + 3 * (367 * a**2 + 15) * C / 16
            + 20 * a**2
        )
        k2 = (
            (111659 * a**2 + 20171) * C**3 / 2592
            + (33815 * a**2 + 3311) * C**2 / 324
            + 9 * (367 * a**2 + 15) * C / 32
            + 40 * a**2
        )
        k3 = (
            (33815 * a**2 + 3311) * C**2 / 972
            + 3 * (367 * a**2 + 15) * C / 16
            + 40 * a**2
        )
        k4 = 3 * (367 * a**2 + 15) * C / 64 + 20 * a**2
        pref = b3a / (4 * C**5)
        const = pref * Q
        res = {5: pref * 4 * a**2, 4: pref * k4, 3: pref * k3, 2: pref * k2, 1: pref * k1}
        return GeneratingFunction(
            "irreglog",
            3,
            "x",
            {"residues": res, "laurent": lneg},
            lambda mmax: laurent_taylor(lneg, const, res, mmax),
            lambda x: laurent_value(lneg, const, res, x),
        )

    if n == 4:
        def taylor(mmax):
            exp = irreglog_coeffs(params, ctilde, K=4, M=mmax)
            return {m: c for (k, m), c in exp.coeffs.items() if k == 4}

        return GeneratingFunction("irreglog", 4, "x", None, taylor, None)

    raise NotImplementedError("irregular-log family: n > 4 is left to the recurrence")


def genfun(
    family: str,
    n: int,
    params: ProblemParams,
    *,
    sigma: complex | None = None,
    b11: complex | None = None,
    c: complex | None = None,
    ctilde: complex | None = None,
) -> GeneratingFunction:
    """Closed-form generating function of one coefficient family member.

    family 'power' needs (sigma, b11); 'reglog' needs c; 'irreglog' needs
    ctilde (= ct[-1,3]).  n > 4 raises NotImplementedError: those members
    are served by the recurrence tables.
    """
    if n < 0:
        raise ValueError("n >= 0")
    if family == "power":
        if sigma is None or b11 is None:
            raise ValueError("power family needs sigma and b11")
        if n > 2:
            return _power_gf(n, params, complex(sigma), complex(b11))
        # the closed forms cancel digits near sigma = -2 (up to 1e-11 in
        # double), so they run in extended precision
        xp = SimpleNamespace(a=_XP(params.a), beff=_XP(params.beff))
        g = _power_gf(n, xp, _XP(sigma), _XP(b11))

        def builtin(v):
            if isinstance(v, dict):
                return {k: builtin(x) for k, x in v.items()}
            return complex(v) if isinstance(v, _XP) else v

        return replace(
            g,
            closed_form=builtin(g.closed_form),
            _taylor=lambda kmax: builtin(g.taylor(kmax)),
            _value=lambda x: complex(g.value(x)),
        )
    if family == "reglog":
        if c is None:
            raise ValueError("reglog family needs c")
        return _reglog_gf(n, params, complex(c))
    if family == "irreglog":
        if ctilde is None:
            raise ValueError("irreglog family needs ctilde")
        return _irreglog_gf(n, params, complex(ctilde))
    raise ValueError(f"unknown family {family!r}")
