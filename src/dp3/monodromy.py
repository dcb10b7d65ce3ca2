"""Monodromy data: representation, validation, classification, transforms.

A solution pair (u, exp(i*phi)) of the degenerate third Painleve system is
parametrized by a point (a, s00, s0inf, s1inf, G) of an algebraic variety;
G and -G label the same solution.  This module holds the data types, the
five defining residuals, constructors that complete partial data to a
manifold point, the regime classification driving every asymptotic
formula, the Backlund action on data, and the branching parameters.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
__all__ = [
    "ProblemParams",
    "MonodromyData",
    "BranchingParams",
    "Regime",
    "RegimeTag",
    "OutOfScopeError",
    "UnderdeterminedError",
    "AmbiguousRegimeError",
    "RayExclusionError",
    "residuals",
    "residual_norm",
    "complete_from_G",
    "complete_from_g11_g21_s00",
    "complete_special",
    "classify",
    "backlund_data",
    "branching",
    "data_to_json",
    "data_from_json",
]

_IINT_TOL = 1e-9


class OutOfScopeError(ValueError):
    """Parameter combinations the toolkit does not cover (e.g. a in i*Z)."""


class UnderdeterminedError(ValueError):
    """Completion request without enough data to fix the manifold point."""


class AmbiguousRegimeError(ValueError):
    """Two regime tags both match within tolerance; tighten tol."""


class RayExclusionError(ValueError):
    """Branching parameter outside its admissible strip.

    Happens exactly on the ray Im(s00) >= 2, Re(s00) = 0, where the
    varrho-based formulas degrade; callers are pointed at the rho-based or
    uniform representations.
    """


def _is_imag_integer(a: complex, tol: float = _IINT_TOL) -> bool:
    return abs(a.real) <= tol and abs(a.imag - round(a.imag)) <= tol


def _imag_half_integer_index(a: complex, tol: float = _IINT_TOL):
    """m with a ~= i*(m - 1/2) (m any integer), or None."""
    if abs(a.real) > tol:
        return None
    h = a.imag + 0.5
    m = round(h)
    if abs(h - m) <= tol:
        return m
    return None


@dataclass(frozen=True)
class ProblemParams:
    """Fixed scalars of the equation: formal monodromy a, scaling b, eps."""

    a: complex
    b: float
    epsilon: int = 1

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if not self.epsilon * self.b > 0:
            raise ValueError("epsilon*b must be positive")
        if _is_imag_integer(complex(self.a)):
            raise OutOfScopeError("a in i*Z is outside the classified range")
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", float(self.b))

    @property
    def beff(self) -> float:
        """eps*b > 0; the scale entering every eps-normalized formula."""
        return self.epsilon * self.b

    def shifted(self, n: int) -> "ProblemParams":
        """Params after n Backlund steps: a -> a + i*n."""
        return replace(self, a=self.a + 1j * n)


@dataclass(frozen=True)
class MonodromyData:
    """Point of the monodromy manifold (modulo G -> -G)."""

    params: ProblemParams
    s00: complex
    s0inf: complex
    s1inf: complex
    g11: complex
    g12: complex
    g21: complex
    g22: complex

    @property
    def g(self) -> tuple[complex, complex, complex, complex]:
        return (self.g11, self.g12, self.g21, self.g22)

    def normalized(self) -> "MonodromyData":
        """Sign-fixed representative: first nonzero g entry has arg in
        (-pi/2, pi/2]."""
        for v in self.g:
            if v != 0:
                ph = cmath.phase(v)
                if ph <= -math.pi / 2 or ph > math.pi / 2:
                    return self.negated_G()
                return self
        return self

    def negated_G(self) -> "MonodromyData":
        return replace(
            self, g11=-self.g11, g12=-self.g12, g21=-self.g21, g22=-self.g22
        )

    def equivalent(self, other: "MonodromyData", tol: float = 1e-10) -> bool:
        """Equality modulo the G -> -G gluing."""

        def close(x, y):
            return abs(x - y) <= tol * max(1.0, abs(x), abs(y))

        if not (
            close(self.params.a, other.params.a)
            and self.params.epsilon == other.params.epsilon
            and close(self.params.b, other.params.b)
            and close(self.s00, other.s00)
            and close(self.s0inf, other.s0inf)
            and close(self.s1inf, other.s1inf)
        ):
            return False
        same = all(close(x, y) for x, y in zip(self.g, other.g))
        opp = all(close(x, -y) for x, y in zip(self.g, other.g))
        return same or opp


class RegimeTag(Enum):
    GENERIC_POWER = "GenericPower"
    SPECIAL_POWER_PLUS = "SpecialPowerPlus"  # s0inf = 0
    SPECIAL_POWER_MINUS = "SpecialPowerMinus"  # s1inf = 0
    LOG_RHO0 = "LogRho0"  # s00 = 2i
    LOG_VARRHO_HALF = "LogVarrhoHalf"  # s00 = -2i
    POLE_ACCUMULATION = "PoleAccumulation"  # Re varrho = 1/2, kappa != 0
    MEROMORPHIC_VANISHING = "MeromorphicVanishing"
    MEROMORPHIC_NONVANISHING = "MeromorphicNonvanishing"


@dataclass(frozen=True)
class Regime:
    tag: RegimeTag
    subcase: dict = field(default_factory=dict)

    def __str__(self):
        if self.subcase:
            extras = ", ".join(f"{k}={v}" for k, v in sorted(self.subcase.items()))
            return f"{self.tag.value}({extras})"
        return self.tag.value


@dataclass(frozen=True)
class BranchingParams:
    """Branching exponents solving cos(2*pi*rho) = -i*s00/2.

    rho lives in |Re rho| < 1/2 (None on the pole-accumulation boundary),
    varrho in Re varrho in (0, 1); sigma is the expansion exponent used by
    the series family of the regime; varkappa = Im varrho when
    Re varrho = 1/2.
    """

    rho: complex | None
    varrho: complex | None
    sigma: complex
    varkappa: float | None = None


# ---------------------------------------------------------------------------
# residuals and completion


def residuals(data: MonodromyData) -> list[complex]:
    """LHS - RHS of the five defining equations (diagnostic order:
    the Stokes product relation, the mixed G relation, the two Stokes
    factorizations and det G = 1)."""
    a = data.params.a
    epa = cmath.exp(math.pi * a)
    ema = 1.0 / epa
    g11, g12, g21, g22 = data.g
    r1 = data.s0inf * data.s1inf - (-1 - ema * ema - 1j * data.s00 * ema)
    r2 = g21 * g22 - g11 * g12 + data.s00 * g11 * g22 - 1j * ema
    r3 = g11 * g11 - g21 * g21 - data.s00 * g11 * g21 - 1j * data.s0inf * ema
    r4 = g22 * g22 - g12 * g12 + data.s00 * g12 * g22 - 1j * data.s1inf * epa
    r5 = g11 * g22 - g12 * g21 - 1
    return [r1, r2, r3, r4, r5]


def residual_norm(data: MonodromyData) -> float:
    return max(abs(r) for r in residuals(data))


# completion from G divides by g11 g22 = 1 + g12 g21, and the manifold
# residual grows like 5e-15 / |g11 g22|: over the property test's domain
# (a, g11, g12, g21 as drawn there, 400 points per half decade) its worst
# is 4.4e-11 at |g11 g22| = 1e-4, 5.6e-10 at 1e-5 and 6.3e-9 at 1e-6,
# against the 1e-9 that test asks of a completed point
G22_MIN = 1e-4


def complete_from_G(
    params: ProblemParams,
    g11: complex,
    g12: complex,
    g21: complex,
    g22: complex | None = None,
    s00: complex | None = None,
) -> MonodromyData:
    """Complete (a, G) to a manifold point.

    For g11 != 0: g22 follows from det G = 1 (a supplied g22 must satisfy
    it, else ValueError), s00 from the mixed relation, the Stokes
    multipliers at infinity from their factorizations.  The Stokes product
    relation is never used and must then hold identically
    (the five equations are dependent).  For g11 = 0 the point is
    underdetermined unless both g22 and s00 are supplied.  For g22 ~ 0
    (|g11 g22| below G22_MIN max(1, |g12 g21|)) s00 drops out of the mixed
    relation, and the point is underdetermined unless s00 is supplied.
    """
    a = params.a
    ema = cmath.exp(-cmath.pi * a)
    g11 = complex(g11)
    g12 = complex(g12)
    g21 = complex(g21)
    if g11 != 0:
        if g22 is None:
            g22 = (1 + g12 * g21) / g11
        elif abs(g11 * complex(g22) - g12 * g21 - 1) > 1e-10 * max(1.0, abs(g12 * g21)):
            raise ValueError("the supplied g22 violates det G = 1")
        g22 = complex(g22)
        if abs(g11 * g22) >= G22_MIN * max(1.0, abs(g12 * g21)):
            s00 = (1j * ema - g21 * g22 + g11 * g12) / (g11 * g22)
        elif s00 is None:
            raise UnderdeterminedError(
                "g22 = 0: supply s00 explicitly (g11*g12 = -i*exp(-pi*a) is enforced)"
            )
        else:
            s00 = complex(s00)
            mixed = g21 * g22 - g11 * g12 + s00 * g11 * g22
            if abs(mixed - 1j * ema) > 1e-10 * max(1.0, abs(g11 * g12)):
                raise ValueError("g22 = 0 requires g11*g12 = -i*exp(-pi*a)")
    else:
        if g22 is None or s00 is None:
            raise UnderdeterminedError(
                "g11 = 0: supply g22 and s00 explicitly (g12*g21 = -1 is enforced)"
            )
        if abs(g12 * g21 + 1) > 1e-10 * max(1.0, abs(g12 * g21)):
            raise ValueError("g11 = 0 requires g12*g21 = -1")
        if abs(g21 * complex(g22) - 1j * ema) > 1e-10 * max(1.0, abs(g21 * complex(g22))):
            raise ValueError("g11 = 0 requires g21*g22 = i*exp(-pi*a)")
        g22 = complex(g22)
    s0inf = (g11 * g11 - g21 * g21 - s00 * g11 * g21) / (1j * ema)
    s1inf = (g22 * g22 - g12 * g12 + s00 * g12 * g22) / (1j / ema)
    return MonodromyData(params, s00, s0inf, s1inf, g11, g12, g21, g22)


def complete_from_g11_g21_s00(
    params: ProblemParams, g11: complex, g21: complex, s00: complex
) -> MonodromyData:
    """Manifold point from (a, g11, g21, s00).

    det G = 1 and the mixed relation form a linear system for (g12, g22);
    the Stokes multipliers at infinity then follow from their
    factorizations.  Used to generate on-manifold samples with a
    prescribed s00 (log and pole-accumulation regimes)."""
    a = params.a
    ema = cmath.exp(-cmath.pi * a)
    g11 = complex(g11)
    g21 = complex(g21)
    s00 = complex(s00)
    # [ -g21, g11        ] [g12]   [ 1          ]
    # [ -g11, g21+s00*g11] [g22] = [ i e^{-pi a} ]
    det = g11 * g11 - g21 * g21 - s00 * g11 * g21
    if abs(det) < 1e-12:
        raise UnderdeterminedError("degenerate (g11, g21) for this s00")
    rhs1, rhs2 = 1.0 + 0j, 1j * ema
    g12 = (rhs1 * (g21 + s00 * g11) - g11 * rhs2) / det
    g22 = (g11 * rhs1 - g21 * rhs2) / det
    s0inf = (g11 * g11 - g21 * g21 - s00 * g11 * g21) / (1j * ema)
    s1inf = (g22 * g22 - g12 * g12 + s00 * g12 * g22) / (1j / ema)
    return MonodromyData(params, s00, s0inf, s1inf, g11, g12, g21, g22)


def complete_special(
    regime: Regime | RegimeTag,
    params: ProblemParams,
    *,
    g21: complex | None = None,
    g12: complex | None = None,
    s1inf: complex | None = None,
    s0inf: complex | None = None,
    n: int | None = None,
) -> MonodromyData:
    """Closed-form completion of the one-parameter special families.

    SpecialPowerPlus needs (g21 != 0, s1inf); SpecialPowerMinus needs
    (g12 != 0, s0inf); MeromorphicVanishing with s0inf = s1inf = 0 needs
    g21 (or g12).  Raises OutOfScopeError when sinh(pi*a) = 0.

    At a = i(m - 1/2) both meromorphic tags complete one half-integer family
    whose Stokes side is a sign: side = +1 reads (g21, s1inf) and has
    s0inf = 0, side = -1 reads (g12, s0inf) and has s1inf = 0.  The
    vanishing family takes side -1 for m >= 1 and +1 for m <= 0 (a missing
    Stokes multiplier is 0); the nonvanishing family takes the other side
    and needs the multiplier s != 0.  With g the supplied entry and
    sgn = -side (-1)^m, the other entry in g's row is (sgn - s g^2)/(2g),
    the other entry in its column is sgn g, and the opposite corner is
    -(1 + sgn s g^2)/(2g).
    """
    tag = regime.tag if isinstance(regime, Regime) else regime
    a = params.a
    epa = cmath.exp(cmath.pi * a)
    ema = 1.0 / epa
    sha = cmath.sinh(cmath.pi * a)
    if tag in (
        RegimeTag.SPECIAL_POWER_PLUS,
        RegimeTag.SPECIAL_POWER_MINUS,
        RegimeTag.MEROMORPHIC_VANISHING,
    ) and abs(sha) < 1e-12:
        raise OutOfScopeError("sinh(pi*a) = 0: a in i*Z is out of scope")

    if tag is RegimeTag.SPECIAL_POWER_PLUS:
        if g21 in (None, 0) or s1inf is None:
            raise UnderdeterminedError("need g21 != 0 and s1inf")
        g21 = complex(g21)
        s1inf = complex(s1inf)
        s00 = 2j * cmath.cosh(cmath.pi * a)
        g11 = 1j * ema * g21
        g12 = -(epa + 1j * s1inf * g21 * g21) / (2 * sha * g21)
        g22 = (1j - epa * s1inf * g21 * g21) / (2 * sha * g21)
        return MonodromyData(params, s00, 0j, s1inf, g11, g12, g21, g22)

    if tag is RegimeTag.SPECIAL_POWER_MINUS:
        if g12 in (None, 0) or s0inf is None:
            raise UnderdeterminedError("need g12 != 0 and s0inf")
        g12 = complex(g12)
        s0inf = complex(s0inf)
        s00 = 2j * cmath.cosh(cmath.pi * a)
        g22 = -1j * ema * g12
        g11 = (s0inf * g12 * g12 * ema - 1j) / (2 * sha * g12)
        g21 = -(epa + 1j * s0inf * g12 * g12 * ema * ema) / (2 * sha * g12)
        return MonodromyData(params, s00, s0inf, 0j, g11, g12, g21, g22)

    m = _imag_half_integer_index(a)
    if tag is RegimeTag.MEROMORPHIC_VANISHING and m is None:
        # s0inf = s1inf = 0 family (odd meromorphic solutions): g12 g21
        # fixed, from whichever of the two is supplied
        s00 = 2j * cmath.cosh(cmath.pi * a)
        if g21 not in (None, 0):
            g21 = complex(g21)
            g12 = -epa / (2 * sha * g21)
        elif g12 not in (None, 0):
            g12 = complex(g12)
            g21 = -epa / (2 * sha * g12)
        else:
            raise UnderdeterminedError("need g21 != 0 or g12 != 0")
        g11 = 1j * ema * g21
        g22 = -1j * ema * g12
        return MonodromyData(params, s00, 0j, 0j, g11, g12, g21, g22)
    if tag is RegimeTag.MEROMORPHIC_NONVANISHING and m is None:
        raise UnderdeterminedError(
            "generic nonvanishing data comes from complete_from_G with s00 = 0"
        )
    if tag in (RegimeTag.MEROMORPHIC_VANISHING, RegimeTag.MEROMORPHIC_NONVANISHING):
        # a = i(m - 1/2): the vanishing family sits on the g12 side for
        # m >= 1, the nonvanishing family on the other
        nonvanishing = tag is RegimeTag.MEROMORPHIC_NONVANISHING
        side = 1 if (m >= 1) == nonvanishing else -1
        g, s = (g21, s1inf) if side > 0 else (g12, s0inf)
        if g in (None, 0) or nonvanishing and s in (None, 0):
            g_name, s_name = ("g21", "s1inf") if side > 0 else ("g12", "s0inf")
            need = f"{g_name} != 0" + (f" and {s_name} != 0" if nonvanishing else "")
            raise UnderdeterminedError("need " + need)
        g = complex(g)
        s = complex(s) if s is not None else 0j
        sgn = -side * (-1) ** m
        near = (sgn - s * g * g) / (2 * g)
        far = -(1 + sgn * s * g * g) / (2 * g)
        if side > 0:
            return MonodromyData(params, 0j, 0j, s, sgn * g, far, g, near)
        return MonodromyData(params, 0j, s, 0j, near, g, far, sgn * g)

    raise ValueError(f"no closed-form completion for {tag}")


# ---------------------------------------------------------------------------
# classification


def classify(data: MonodromyData, tol: float = 1e-9) -> Regime:
    """Regime tag for a manifold point.

    Zero tests on Stokes data are relative to max(1, |s|).  Raises
    AmbiguousRegimeError when the defining conditions of two mutually
    exclusive tags both fire within tol.
    """
    a = data.params.a

    def iszero(s):
        return abs(s) <= tol * max(1.0, abs(s))

    s0z = iszero(data.s0inf)
    s1z = iszero(data.s1inf)
    v = -0.5j * data.s00
    s00_is_2i = abs(data.s00 - 2j) <= tol * max(1.0, abs(data.s00))
    s00_is_m2i = abs(data.s00 + 2j) <= tol * max(1.0, abs(data.s00))
    v_real = abs(v.imag) <= tol * max(1.0, abs(v))
    pole_v = v_real and v.real < -1 - tol
    m_half = _imag_half_integer_index(a)

    if s0z and s1z:
        return Regime(RegimeTag.MEROMORPHIC_VANISHING, {"family": "odd"})

    if m_half is not None and (s0z or s1z):
        # s00 = 0 is automatic here.  The vanishing family has s1inf = 0 for
        # m >= 1 and s0inf = 0 for its mirror; the other side is nonvanishing
        if s1z == (m_half >= 1):
            n = max(m_half, 1 - m_half)
            return Regime(RegimeTag.MEROMORPHIC_VANISHING, {"family": "half", "n": n})
        return Regime(
            RegimeTag.MEROMORPHIC_NONVANISHING, {"family": "half", "m": m_half}
        )

    conflicts = sum([s0z, s1z]) + sum([s00_is_2i, s00_is_m2i])
    if conflicts > 1:
        raise AmbiguousRegimeError(
            "multiple regime conditions within tol; tighten tol or clean the data"
        )

    if s0z or s1z:
        # s0inf = 0 (side +1) or s1inf = 0 (side -1); the family index needs
        # side * Im a > 0
        side = 1 if s0z else -1
        im = side * a.imag
        sub = {}
        if abs(a.imag - round(a.imag)) <= tol and round(im) % 2 == 1 and im > 0:
            # a = 2*kappa +- i(2n+1): pole-accumulation variant
            sub = {"poles": True, "varkappa": a.real / 2.0, "n": (round(im) - 1) // 2}
        elif im > 0:
            sub = {"n": math.floor(im / 2.0)}
        tag = RegimeTag.SPECIAL_POWER_PLUS if side > 0 else RegimeTag.SPECIAL_POWER_MINUS
        return Regime(tag, sub)

    if s00_is_2i:
        return Regime(RegimeTag.LOG_RHO0)
    if s00_is_m2i:
        return Regime(RegimeTag.LOG_VARRHO_HALF)

    if iszero(data.s00):
        return Regime(RegimeTag.MEROMORPHIC_NONVANISHING, {"family": "generic"})

    if pole_v:
        kappa = math.acosh(-v.real) / (2 * math.pi)
        return Regime(RegimeTag.POLE_ACCUMULATION, {"varkappa": kappa})

    sub = {}
    if v_real and v.real > 1 + tol:
        sub = {"varrho_ray": True}
    return Regime(RegimeTag.GENERIC_POWER, sub)


# ---------------------------------------------------------------------------
# Backlund action and branching


def backlund_data(data: MonodromyData, shift: int) -> MonodromyData:
    """Backlund action on the manifold: a -> a + i*shift, s00 -> -s00,
    Stokes at infinity unchanged, G scaled columnwise by -+i."""
    if shift not in (1, -1):
        raise ValueError("shift must be +1 or -1")
    f = -1j if shift == 1 else 1j
    return MonodromyData(
        data.params.shifted(shift),
        -data.s00,
        data.s0inf,
        data.s1inf,
        f * data.g11,
        f * data.g12,
        -f * data.g21,
        -f * data.g22,
    )


def branching(
    data: MonodromyData, regime: Regime | None = None, tol: float = 1e-9
) -> BranchingParams:
    """Branching parameters (rho, varrho, sigma, varkappa) of a data point.

    Canonical choices: Re rho >= 0 (tie: Im rho >= 0); Re varrho <= 1/2
    (tie at 1/2: Im varrho >= 0).  Regime-specific overrides fix
    varrho = 1 + n +- i a/2 for the special power families, where the
    reflection symmetry is lost.
    """
    if regime is None:
        regime = classify(data, tol=tol)
    a = data.params.a
    tag = regime.tag

    def special_rho(sign: int) -> complex | None:
        # solutions rho = sign*i*a/2 + k with |Re rho| < 1/2, Re rho >= 0
        r = sign * 1j * a / 2
        r = r - round(r.real)
        if abs(r.real) >= 0.5 - 1e-12:
            return None
        if r.real < 0 or (abs(r.real) < 1e-13 and r.imag < 0):
            r = -r
        return r

    if tag in (RegimeTag.SPECIAL_POWER_PLUS, RegimeTag.SPECIAL_POWER_MINUS):
        plus = tag is RegimeTag.SPECIAL_POWER_PLUS
        sgn = 1 if plus else -1
        # Thm-fixed representative 1 + n +- i a/2, admissible only when the
        # matching half of the a-plane is in force
        varrho = None
        if "n" in regime.subcase and not regime.subcase.get("poles"):
            varrho = 1 + regime.subcase["n"] + sgn * 1j * a / 2
        elif regime.subcase.get("poles"):
            # a = 2*kappa +- i(2n+1) puts 1 + n +- i a/2 on Re = 1/2
            varrho = 0.5 + sgn * 1j * regime.subcase["varkappa"]
        vk = None
        if varrho is not None and abs(varrho.real - 0.5) <= tol:
            vk = varrho.imag
        return BranchingParams(special_rho(sgn), varrho, -2j * a, vk)

    if tag is RegimeTag.MEROMORPHIC_VANISHING:
        if regime.subcase.get("family") == "half":
            n = regime.subcase["n"]
            sgn = 1 if a.imag > 0 else -1
            # sigma = -2i a = 2n - 1 here; varrho in-strip when it exists
            varrho = _canonical_varrho(-0.5j * data.s00)
            if abs(varrho.real) < tol or abs(varrho.real - 0.5) > 0.5 - tol:
                varrho = None
            return BranchingParams(special_rho(sgn), varrho, -2j * a, None)
        return BranchingParams(special_rho(1), None, -2j * a, None)

    if tag is RegimeTag.MEROMORPHIC_NONVANISHING:
        return BranchingParams(0.25 + 0j, 0.25 + 0j, 1.0 + 0j, None)

    if tag is RegimeTag.LOG_RHO0:
        return BranchingParams(0j, 1.0 + 0j, 0j, None)
    if tag is RegimeTag.LOG_VARRHO_HALF:
        return BranchingParams(None, 0.5 + 0j, 0j, 0.0)
    if tag is RegimeTag.POLE_ACCUMULATION:
        kappa = regime.subcase["varkappa"]
        varrho = 0.5 + 1j * kappa
        return BranchingParams(None, varrho, 4 * varrho - 4, kappa)

    v = -0.5j * data.s00
    if abs(v.imag) <= tol * max(1.0, abs(v)) and v.real > 1 + tol:
        raise RayExclusionError(
            "s00 on the ray Im(s00) >= 2: use rho-based or uniform formulas"
        )
    varrho = _canonical_varrho(v)
    rho = _canonical_rho(v)
    sigma = 4 * rho if rho is not None else 4 * varrho - 2
    vk = varrho.imag if abs(varrho.real - 0.5) <= 1e-12 else None
    return BranchingParams(rho, varrho, sigma, vk)


def _acos_over_2pi(v: complex) -> complex:
    return cmath.acos(v) / (2 * math.pi)


def _canonical_varrho(v: complex) -> complex:
    r = _acos_over_2pi(v)  # Re in [0, 1/2]
    if abs(r.real - 0.5) < 1e-13 and r.imag < 0:
        r = 1 - r
    return r


def _canonical_rho(v: complex) -> complex | None:
    r = _acos_over_2pi(v)
    if r.real >= 0.5 - 1e-13:
        if abs(r.real - 0.5) < 1e-13:
            return None  # pole-accumulation boundary
        return None
    if r.real == 0 and r.imag < 0:
        r = -r
    return r


# ---------------------------------------------------------------------------
# JSON interchange (CLI input contract): complex numbers as [re, im],
# G as 2x2 row-major list.


def _c2pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _pair2c(p) -> complex:
    if isinstance(p, (int, float)):
        return complex(p)
    return complex(p[0], p[1])


def data_to_json(data: MonodromyData) -> str:
    obj = {
        "a": _c2pair(data.params.a),
        "b": data.params.b,
        "epsilon": data.params.epsilon,
        "s00": _c2pair(data.s00),
        "s0inf": _c2pair(data.s0inf),
        "s1inf": _c2pair(data.s1inf),
        "g": [_c2pair(data.g11), _c2pair(data.g12), _c2pair(data.g21), _c2pair(data.g22)],
    }
    return json.dumps(obj, indent=2)


def data_from_json(text: str) -> MonodromyData:
    obj = json.loads(text)
    params = ProblemParams(_pair2c(obj["a"]), float(obj["b"]), int(obj["epsilon"]))
    g = [_pair2c(p) for p in obj["g"]]
    return MonodromyData(
        params,
        _pair2c(obj["s00"]),
        _pair2c(obj["s0inf"]),
        _pair2c(obj["s1inf"]),
        g[0],
        g[1],
        g[2],
        g[3],
    )
