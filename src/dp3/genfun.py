"""Closed-form generating functions for the expansion coefficient families.

Each small-tau family admits generating functions whose Taylor expansions
reproduce whole (anti)diagonals of the coefficient tables:

* power family    A_n(x):   sum_k b[2k-1, k-n] x^k,    x = tau^(2+sigma)
* regular log     Ah_n(x):  sum_k c[2k-1, 2k-n] x^k,   x = tau^2 log^2 tau
* irregular log   At_k(x):  sum_m ct[2k-1, m] x^m,     x = 1/log tau

The rational closed forms (power n <= 2, regular log n <= 4, irregular log
n <= 3) provide exactness anchors for the recurrence path.  Each is stored
as data, one partial fraction with a single pole at x = 1/w,

    f(x) = sum_i poly[i] x^i + sum_p residues[p] (1 - w x)^(-p),

whose Laurent polynomial carries the irregular-log heads in its negative
powers, so one ``value`` and one ``taylor`` serve every member.  For the
remaining n <= 4 the Taylor data is delegated to the recurrence, which is
the equivalent coefficient-space solution of the same inhomogeneous
degenerate hypergeometric ODEs.

The builders compute in the arithmetic of their arguments (builtin complex,
numpy's extended precision or mpmath).  The partial-fraction sums cancel
digits (up to 1e-11 in double near sigma = -2, and more as ct[-1,3] -> 0),
so ``genfun`` evaluates every member in extended precision and returns
builtin complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from types import SimpleNamespace
from typing import Any, Callable, Dict

from dp3.monodromy import ProblemParams
from dp3.series import _XP, irreglog_coeffs, power_coeffs

__all__ = ["GeneratingFunction", "SmallCtildeError", "genfun", "a2_residues"]

# the irregular-log residues grow like |ct[-1,3]|^(-n-2) and their sums
# cancel: in extended precision the n = 3 member is off by 7e-13 at
# |ct| = 0.029 and 1.2e-13 at 0.045 (relative to max(1, |c|), through log
# index 10, worst over ten a and twelve phases), so it is refused below 0.05
IRREGLOG_CT_MIN = 0.05


class SmallCtildeError(ValueError):
    """The irregular-log closed forms are not evaluated at small |ct[-1,3]|."""


@dataclass
class GeneratingFunction:
    """f(x) = sum_i poly[i] x^i + sum_p residues[p] (1 - w x)^(-p).

    For a closed form, ``taylor`` returns the orders ``start`` .. kmax, and
    ``value`` and ``taylor`` pass each number they return through ``cast``.
    A recurrence-backed member carries ``table`` (kmax -> Taylor data)
    instead and has no value.
    """

    family: str  # 'power' | 'reglog' | 'irreglog'
    n: int
    poly: Dict[int, Any] = field(default_factory=dict)
    residues: Dict[int, Any] = field(default_factory=dict)
    w: Any = 0
    start: int = 0
    table: Callable[[int], Dict[int, Any]] | None = None
    cast: Callable[[Any], Any] = lambda v: v

    def taylor(self, kmax: int) -> Dict[int, complex]:
        """Coefficients of the family variable up to order kmax:
        [x^k] = poly[k] + w^k sum_p residues[p] binom(k+p-1, p-1)."""
        if self.table is not None:
            return self.table(kmax)
        out = {}
        wk = self.w ** max(self.start, 0)
        for k in range(self.start, kmax + 1):
            v = self.poly.get(k, 0)
            if k >= 0:
                v += wk * sum(r * comb(k + p - 1, p - 1) for p, r in self.residues.items())
                wk *= self.w
            out[k] = self.cast(v)
        return out

    def value(self, x: complex) -> complex:
        if self.table is not None:
            raise NotImplementedError(
                f"{self.family} n={self.n}: Taylor data only (recurrence-backed)"
            )
        y = 1 - self.w * x
        out = sum(c * x**i for i, c in self.poly.items())
        return self.cast(out + sum(r / y**p for p, r in self.residues.items()))


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
# power family: one pole at z = -1, z = zfac x


def _power_gf(n, params, sigma, b11):
    if b11 == 0:
        raise ValueError("power-family generating functions need b11 != 0")
    if n in (3, 4):
        def table(kmax):
            exp = power_coeffs(params, sigma, b11=b11, K=kmax + n)
            return {k: exp.coeffs.get((k, k - n), 0j) for k in range((n - 1) // 2 + 1, kmax + 1)}

        return GeneratingFunction("power", n, table=table)
    if n > 4:
        raise NotImplementedError("power family: n > 4 is left to the recurrence path")
    a, b = params.a, params.beff
    s = sigma
    zfac = 4 * b11 / (s + 2) ** 2
    # each member as sum_i zpoly[i] z^i + sum_p res[p] (1 + z)^(-p)
    if n == 0:
        # b11 x / (1 + z)^2 = ((s+2)^2/4) (1/(1+z) - 1/(1+z)^2)
        pref = (s + 2) ** 2 / 4
        zpoly, res = {}, {1: pref, 2: -pref}
    elif n == 1:
        # c0 z (zs - s - 4) (z^2 s + 2z(s^2 + 4s + 2) - s - 4) / (1 + z)^3
        c0 = a * b * (2 + s) ** 2 / (2 * s**2 * (4 + s) ** 2 * b11)
        zpoly = {0: 2 * c0 * s**2 * (s + 2), 1: c0 * s**2}
        res = {
            1: -8 * c0 * (s + 1) ** 2 * (s + 2),
            2: 2 * c0 * (s + 2) ** 2 * (5 * s + 6),
            3: -4 * c0 * (s + 2) ** 3,
        }
    else:
        xi = a2_residues(params, sigma, b11)
        zpoly = {i: xi[i] for i in range(4)}
        res = {p: xi[-p] for p in range(1, 5)}
    poly = {i: c * zfac**i for i, c in zpoly.items()}
    return GeneratingFunction("power", n, poly, res, -zfac)


# ---------------------------------------------------------------------------
# regular log family: one pole at x = 1/(a beff)


def _reglog_gf(n, params, c):
    a, b = params.a, params.beff
    C = a * b
    if n == 0:
        # -Cx/(1-Cx)^2 = 1/(1-Cx) - 1/(1-Cx)^2
        const_poly = []
        res = {1: 1, 2: -1}
    elif n == 1:
        const_poly = []
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

    return GeneratingFunction("reglog", n, dict(enumerate(const_poly)), res, C)


# ---------------------------------------------------------------------------
# irregular log family: one pole at x = 1/C, C = -2 ct[-1,3]


def _irreglog_gf(n, params, ctilde):
    if n == 4:
        def table(mmax):
            exp = irreglog_coeffs(params, ctilde, K=4, M=mmax)
            return {m: c for (k, m), c in exp.coeffs.items() if k == 4}

        return GeneratingFunction("irreglog", 4, table=table)
    if n > 4:
        raise NotImplementedError("irregular-log family: n > 4 is left to the recurrence")
    if abs(ctilde) < IRREGLOG_CT_MIN:
        raise SmallCtildeError(
            f"irregular-log closed forms need |ct[-1,3]| >= {IRREGLOG_CT_MIN}"
        )
    a, b = params.a, params.beff
    C = -2 * ctilde
    start = 0
    if n == 0:
        # -x^2 / (4 (1 - Cx)^2), whose orders 0 and 1 vanish
        q = 1 / (4 * C**2)
        poly, res, start = {0: -q}, {1: 2 * q, 2: -q}, 2
    elif n == 1:
        # (a b/2) ((C^2+C+1) x^2 - (2C+1) x + 1) ((C+1) x - 1) / (Cx - 1)^3
        q = a * b / (2 * C**3)
        poly = {0: q * (C**3 + 2 * C**2 + 2 * C + 1)}
        res = {1: -q * (2 * C**2 + 4 * C + 3), 2: q * (2 * C + 3), 3: -q}
    elif n == 2:
        b2 = b * b
        pref = -b2 / (256 * C**4)
        poly = {
            -2: -b2 * (a**2 + 1) / 4,
            -1: b2 * ((a**2 + 1) * C + 2 * a**2 + 1) / 2,
            0: pref
            * (
                64 * (a**2 + 1) * C**6
                + 128 * (2 * a**2 + 1) * C**5
                + 8 * (71 * a**2 + 19) * C**4
                + 24 * (37 * a**2 + 5) * C**3
                + 4 * (239 * a**2 + 15) * C**2
                + (623 * a**2 + 15) * C
                + 192 * a**2
            ),
        }
        numer = {
            4: 192 * a**2,
            3: (623 * a**2 + 15) * C + 768 * a**2,
            2: 4 * (239 * a**2 + 15) * C**2 + 3 * (623 * a**2 + 15) * C + 1152 * a**2,
            1: 24 * (37 * a**2 + 5) * C**3
            + 8 * (239 * a**2 + 15) * C**2
            + 3 * (623 * a**2 + 15) * C
            + 768 * a**2,
        }
    else:
        b3a = a * b**3
        pref = b3a / (4 * C**5)
        poly = {
            -2: b3a * (a**2 + 1) / 4,
            -1: -b3a * (4 * (a**2 + 1) * C + 13 * a**2 + 9) / 8,
            0: pref
            * (
                (a**2 + 1) * C**7
                + (13 * a**2 + 9) * C**6 / 2
                + (176 * a**2 + 83) * C**5 / 9
                + (7685 * a**2 + 2309) * C**4 / 216
                + (111659 * a**2 + 20171) * C**3 / 2592
                + (33815 * a**2 + 3311) * C**2 / 972
                + 3 * (367 * a**2 + 15) * C / 64
                + 4 * a**2
            ),
        }
        numer = {
            5: 4 * a**2,
            4: 3 * (367 * a**2 + 15) * C / 64 + 20 * a**2,
            3: (33815 * a**2 + 3311) * C**2 / 972
            + 3 * (367 * a**2 + 15) * C / 16
            + 40 * a**2,
            2: (111659 * a**2 + 20171) * C**3 / 2592
            + (33815 * a**2 + 3311) * C**2 / 324
            + 9 * (367 * a**2 + 15) * C / 32
            + 40 * a**2,
            1: (7685 * a**2 + 2309) * C**4 / 216
            + (111659 * a**2 + 20171) * C**3 / 1296
            + (33815 * a**2 + 3311) * C**2 / 324
            + 3 * (367 * a**2 + 15) * C / 16
            + 20 * a**2,
        }
    if n >= 2:
        # levels 2 and 3 start at their heads x^-2, x^-1 and carry
        # pref numer[p] / (Cx - 1)^p
        start = -2
        res = {p: (-1) ** p * pref * v for p, v in numer.items()}
    return GeneratingFunction("irreglog", n, poly, res, C, start)


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
    are served by the recurrence tables.  The irregular-log closed forms
    (n <= 3) raise SmallCtildeError for |ctilde| < IRREGLOG_CT_MIN.
    """
    if n < 0:
        raise ValueError("n >= 0")
    seeds = {
        "power": dict(sigma=sigma, b11=b11),
        "reglog": dict(c=c),
        "irreglog": dict(ctilde=ctilde),
    }
    if family not in seeds:
        raise ValueError(f"unknown family {family!r}")
    if None in seeds[family].values():
        raise ValueError(f"{family} family needs {' and '.join(seeds[family])}")
    builder = {"power": _power_gf, "reglog": _reglog_gf, "irreglog": _irreglog_gf}[family]
    args = seeds[family].values()
    xp = SimpleNamespace(a=_XP(params.a), beff=_XP(params.beff))
    g = builder(n, xp, *map(_XP, args))
    if g.table is not None:
        # the recurrence tables take builtin complex and return it
        return builder(n, params, *map(complex, args))
    g.cast = complex
    return g
