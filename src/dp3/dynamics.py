"""Direct numerical machinery: integration, Backlund maps, lattice orbits.

The integrator advances (u, u', phi) along straight complex segments with
the adaptive kernel from dp3.kernels; pole/zero guards hand control to the
local-expansion fitter, which re-seeds the state on the far side (poles are
second order, zeros first order with u' = +-i b, so four-term local models
pin the center and the free parameter by least squares).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from dp3.kernels import STATUS, integrate_segment
from dp3.monodromy import ProblemParams

__all__ = [
    "SolutionState",
    "IntegrateOptions",
    "Trace",
    "LocalExpansion",
    "LocalKind",
    "SingularitySuspected",
    "UnknownSingularityError",
    "ZeroCrossingError",
    "u_second",
    "u_third",
    "integrate",
    "continue_through",
    "pole_census",
    "backlund_fn",
    "detect_and_step_over",
    "fit_local_expansion",
    "LatticeOrbit",
    "lattice_orbit",
]


@dataclass(frozen=True)
class SolutionState:
    tau: complex
    u: complex
    du: complex
    phi: complex


@dataclass
class IntegrateOptions:
    rtol: float = 1e-10
    atol: float = 1e-12


# guards at |u*tau| = scale/_GUARD_ETA and scale*_GUARD_ETA; `integrate`
# refreshes the scale to the median of each segment only when called
# without a fixed guard_scale (continue_through, pole_census and
# detect_and_step_over pass one)
_GUARD_ETA = 1e-6
# trailing trace points the local-expansion fit reads
_FIT_POINTS = 10
# a fit residual above this is not a pole or zero of the known kinds
_FIT_RESIDUAL_MAX = 1e-4
# singularities continue_through steps over before it gives up
_MAX_DETECTIONS = 64
# the census detour rotates its leg out of the pole ray by this angle
_DETOUR_ANGLE = 0.35


class LocalKind(Enum):
    POLE_ORDER2 = "PoleOrder2"
    ZERO_PLUS = "ZeroPlus"
    ZERO_MINUS = "ZeroMinus"


@dataclass
class LocalExpansion:
    kind: LocalKind
    center: complex
    free_param: complex
    fit_residual: float


@dataclass
class Trace:
    tau: np.ndarray
    u: np.ndarray
    du: np.ndarray
    phi: np.ndarray
    status: str

    @property
    def end_state(self) -> SolutionState:
        return SolutionState(
            self.tau[-1], self.u[-1], self.du[-1], self.phi[-1]
        )


class SingularitySuspected(RuntimeError):
    def __init__(self, msg, location):
        super().__init__(msg)
        self.location = location


class UnknownSingularityError(RuntimeError):
    pass


class ZeroCrossingError(ValueError):
    pass


def u_second(tau, u, du, params: ProblemParams):
    a, b, eps = params.a, params.b, params.epsilon
    return du * du / u - du / tau + (-8 * eps * u * u + 2 * a * b) / tau + b * b / u


def u_third(tau, u, du, d2u, params: ProblemParams):
    a, b, eps = params.a, params.b, params.epsilon
    return (
        2 * du * d2u / u
        - du**3 / u**2
        - d2u / tau
        + du / tau**2
        - 16 * eps * u * du / tau
        + (8 * eps * u * u - 2 * a * b) / tau**2
        - b * b * du / u**2
    )


# ---------------------------------------------------------------------------
# integration driver


def integrate(
    start: SolutionState,
    params: ProblemParams,
    path,
    opts: IntegrateOptions | None = None,
    guard_scale: float | None = None,
):
    """Integrate along the straight segments start.tau -> path[0] -> ...

    Returns a Trace; its status is 'done' or the guard that fired
    ('pole_guard'/'zero_guard').  Waypoints are hit exactly, so passing a
    sample grid as the path doubles as dense output.
    """
    opts = opts or IntegrateOptions()
    eps = params.epsilon
    taus = [complex(start.tau)] + [complex(t) for t in path]
    # tau, u, du, phi of every recorded point, flat (segment starts included)
    rec = []
    # builtin scalars: a numpy scalar would turn every operation of the
    # pure-Python kernel into a slower numpy dispatch
    u, du, phi = complex(start.u), complex(start.du), complex(start.phi)
    # guard scale in |u*tau| units (bounded along singularity-free paths)
    scale = float(guard_scale if guard_scale is not None else abs(u * taus[0]))
    status_code = 0
    for t0, t1 in zip(taus[:-1], taus[1:]):
        if t0 == t1:
            continue
        n0 = len(rec)
        status_code, _nrec, s_end, u, du, phi = integrate_segment(
            t0,
            t1 - t0,
            u,
            du,
            phi,
            complex(params.a),
            float(params.b),
            float(eps),
            opts.rtol,
            opts.atol,
            scale / _GUARD_ETA,
            scale * _GUARD_ETA,
            rec,
        )
        if status_code in (STATUS["max_steps"], STATUS["step_underflow"]):
            raise SingularitySuspected(
                f"integrator stalled near tau = {t0 + s_end * (t1 - t0)}",
                t0 + s_end * (t1 - t0),
            )
        if status_code != 0:
            break
        if guard_scale is None:
            # refresh the guard scale with the segment history
            seg = np.array(rec[n0:])
            scale = float(np.median(np.abs(seg[1::4] * seg[0::4])))
    if not rec:
        raise ValueError("the path has no segment of nonzero length")
    name = {v: k for k, v in STATUS.items()}[status_code]
    return Trace(*(np.array(rec[i::4], dtype=complex) for i in range(4)), name)


# ---------------------------------------------------------------------------
# Backlund transformations at the function level


def backlund_fn(state: SolutionState, params: ProblemParams, shift: int):
    """Backlund image of a state; returns (state', params') with a' = a+-i.

    The transform has u^2 in the denominator; a (near-)zero of u raises
    ZeroCrossingError so callers can route through the local-expansion
    logic instead.
    """
    if shift not in (1, -1):
        raise ValueError("shift must be +1 or -1")
    a, b, eps = params.a, params.b, params.epsilon
    beff = eps * b
    tau, u, du, phi = state.tau, state.u, state.du, state.phi
    if abs(u) < 1e-12 * max(abs(du * tau), abs(b * tau), 1e-30):
        raise ZeroCrossingError(f"u vanishes at tau = {tau}")
    d2u = u_second(tau, u, du, params)
    if shift == 1:
        N = tau * (du + 1j * b) + (2j * a - 1) * u
        dN = (du + 1j * b) + tau * d2u + (2j * a - 1) * du
        unew = -(1j * beff / 8) * N / (u * u)
        dunew = -(1j * beff / 8) * (dN * u - 2 * N * du) / u**3
        phinew = phi - 1j * cmath.log(-u * unew / (beff * tau * tau))
    else:
        N = tau * (du - 1j * b) - (2j * a + 1) * u
        dN = (du - 1j * b) + tau * d2u - (2j * a + 1) * du
        unew = (1j * beff / 8) * N / (u * u)
        dunew = (1j * beff / 8) * (dN * u - 2 * N * du) / u**3
        phinew = phi + 1j * cmath.log(-u * unew / (beff * tau * tau))
    return SolutionState(tau, unew, dunew, phinew), params.shifted(shift)


# ---------------------------------------------------------------------------
# local expansions at poles and zeros


def _pole_model(d, center, U0, a, beff):
    c2 = (2 * a * beff * center - 24 * center * U0 * U0 + 9 * U0) / (10 * center**2)
    return -center / (4 * d * d) + U0 - (U0 / center) * d + c2 * d * d


def _pole_model_d(d, center, U0, a, beff):
    c2 = (2 * a * beff * center - 24 * center * U0 * U0 + 9 * U0) / (10 * center**2)
    return center / (2 * d**3) - U0 / center + 2 * c2 * d


def _zero_model(d, center, U3, a, beff, sign):
    s = 1j * sign
    c2 = -(2 * a - 1j * sign) * beff / (2 * center)
    c4 = (4 * beff**2 + (1j * a - 1) * U3) if sign > 0 else (
        4 * beff**2 - (1j * a + 1) * U3
    )
    c4 = c4 / (2 * center)
    return s * beff * d + c2 * d * d + U3 * d**3 + c4 * d**4


def _zero_model_d(d, center, U3, a, beff, sign):
    s = 1j * sign
    c2 = -(2 * a - 1j * sign) * beff / (2 * center)
    c4 = (4 * beff**2 + (1j * a - 1) * U3) if sign > 0 else (
        4 * beff**2 - (1j * a + 1) * U3
    )
    c4 = c4 / (2 * center)
    return s * beff + 2 * c2 * d + 3 * U3 * d * d + 4 * c4 * d**3


def _gauss_newton(resid_jac, theta, iters=30, tol=1e-14):
    for _ in range(iters):
        r, J = resid_jac(theta)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        theta = theta + step
        if np.max(np.abs(step)) < tol * max(1.0, np.max(np.abs(theta))):
            break
    r, _ = resid_jac(theta)
    return theta, float(np.sqrt(np.mean(np.abs(r) ** 2)))


def fit_local_expansion(
    trace: Trace, params: ProblemParams, kind_hint: str | None = None
) -> LocalExpansion:
    """Fit the matching local expansion to the trailing trace points."""
    eps = params.epsilon
    beff = params.beff
    a = params.a
    n = min(_FIT_POINTS, trace.tau.size)
    taus = trace.tau[-n:]
    us = eps * trace.u[-n:]  # eps-normalized values
    dus = eps * trace.du[-n:]
    t_last, u_last, du_last = taus[-1], us[-1], dus[-1]

    big = abs(u_last) > 1.0 / max(abs(t_last), 1e-30)
    kind = kind_hint or ("pole" if big else "zero")

    if kind == "pole":
        d0 = -2 * u_last / du_last
        center0 = t_last - d0
        U00 = u_last + center0 / (4 * d0 * d0)

        def rj(theta):
            c, U0 = theta
            d = taus - c
            r = _pole_model(d, c, U0, a, beff) - us
            # columns: d model / d center (at fixed d-offset the chain rule
            # adds the explicit-center and the d = tau - c dependences)
            h = 1e-7 * max(abs(c), 1e-30)
            rc = (_pole_model(taus - (c + h), c + h, U0, a, beff) - us - r) / h
            hU = 1e-7 * max(abs(U0), 1.0)
            rU = (_pole_model(d, c, U0 + hU, a, beff) - us - r) / hU
            return r, np.stack([rc, rU], axis=1)

        theta, res = _gauss_newton(rj, np.array([center0, U00], dtype=complex))
        scale = float(np.mean(np.abs(us)))
        return LocalExpansion(
            LocalKind.POLE_ORDER2, complex(theta[0]), complex(theta[1]), res / scale
        )

    # zero: classify the branch by u' ~ +- i*beff
    s = du_last / (1j * beff)
    sign = 1 if abs(s - 1) < abs(s + 1) else -1
    d0 = u_last / (1j * sign * beff)
    center0 = t_last - d0

    def rj(theta):
        c, U3 = theta
        d = taus - c
        r = _zero_model(d, c, U3, a, beff, sign) - us
        h = 1e-7 * max(abs(c), 1e-30)
        rc = (_zero_model(taus - (c + h), c + h, U3, a, beff, sign) - us - r) / h
        hU = 1e-6 * max(abs(U3), 1.0)
        rU = (_zero_model(d, c, U3 + hU, a, beff, sign) - us - r) / hU
        return r, np.stack([rc, rU], axis=1)

    theta, res = _gauss_newton(rj, np.array([center0, 0j]))
    scale = float(np.mean(np.abs(us))) or 1.0
    return LocalExpansion(
        LocalKind.ZERO_PLUS if sign > 0 else LocalKind.ZERO_MINUS,
        complex(theta[0]),
        complex(theta[1]),
        res / scale,
    )


# arc radius around a fitted singularity, as a fraction of its distance to
# the segment start or to tau = 0, whichever is nearer
_ARC_BACKOFF = 0.1


def detect_and_step_over(
    trace: Trace,
    params: ProblemParams,
    target: complex,
    opts: IntegrateOptions | None = None,
):
    """Fit the singularity the trace ran into and continue past it.

    The local fit pins the center and the free parameter (these are
    reported in the LocalExpansion); the continuation itself walks an arc
    around the center with the integrator, so the state past the
    singularity carries integration error only, never local-model
    truncation.  Around first-order zeros the arc is positively oriented
    (exp(i*phi) has a zero or pole there, so the branch of phi depends on
    the side).  Returns (LocalExpansion, SolutionState past the center).

    The arc does not start where the guard fired: there the terms u'^2/u
    and b^2/u of the right-hand side are huge and cancel (near a zero, the
    guard trips ~1e-8 from the center), so every step on a small arc loses
    digits that no rtol recovers.  It starts from the last trace point at
    least _ARC_BACKOFF * min(|trace start - center|, |center|) from the
    center -- a distance set by the singularity's surroundings (the segment
    start and the branch point tau = 0), which keeps the arc clear of both
    the cancellation and the neighbouring singularities.
    """
    kind_hint = "pole" if trace.status == "pole_guard" else "zero"
    det = fit_local_expansion(trace, params, kind_hint)
    if det.fit_residual > _FIT_RESIDUAL_MAX:
        raise UnknownSingularityError(
            f"local fit residual {det.fit_residual:.2e} at {det.center}"
        )
    c = det.center
    dist = np.abs(trace.tau - c)
    safe = _ARC_BACKOFF * min(dist[0], abs(c))
    i = int(np.flatnonzero(dist >= safe)[-1])
    arc0 = SolutionState(trace.tau[i], trace.u[i], trace.du[i], trace.phi[i])
    r_arc = dist[i]
    th0 = cmath.phase(arc0.tau - c)
    th1 = cmath.phase(target - c)
    if det.kind is LocalKind.POLE_ORDER2:
        # direction-free around a pole; take the shorter way
        dth = (th1 - th0 + math.pi) % (2 * math.pi) - math.pi
    else:
        dth = th1 - th0
        while dth <= 0:
            dth += 2 * math.pi
    nseg = max(8, int(abs(dth) / 0.25) + 1)
    way = [c + r_arc * cmath.exp(1j * (th0 + dth * k / nseg)) for k in range(nseg + 1)]
    # |u| is nearly constant on the arc, so its start sets the guard scale
    scale = abs(arc0.u * arc0.tau)
    tr = integrate(arc0, params, way, opts, guard_scale=scale)
    if tr.status != "done":
        raise UnknownSingularityError(
            f"arc continuation around {c} hit {tr.status} at {tr.tau[-1]}"
        )
    return det, tr.end_state


_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def _phi_quadrature(t0, t1, umodel, params):
    a, b = params.a, params.b
    mid = 0.5 * (t0 + t1)
    half = 0.5 * (t1 - t0)
    total = 0j
    for x, w in zip(_GL_X, _GL_W):
        t = mid + half * x
        total += w * (2 * a / t + b / umodel(t))
    return total * half


def continue_through(
    start: SolutionState,
    params: ProblemParams,
    path,
    opts: IntegrateOptions | None = None,
):
    """Integrate along the waypoints, stepping over poles/zeros as found.

    Returns (end_state, detections, traces)."""
    state = start
    remaining = [complex(t) for t in path]
    detections = []
    traces = []
    # the seed sits on a singularity-free stretch: its |u*tau| sets the
    # guard scale for the whole run (rolling medians get polluted by the
    # step clustering near each pole)
    scale = abs(start.u * start.tau)
    for _ in range(_MAX_DETECTIONS + 1):
        tr = integrate(state, params, remaining, opts, guard_scale=scale)
        traces.append(tr)
        if tr.status == "done":
            return tr.end_state, detections, traces
        det, state = detect_and_step_over(tr, params, remaining[-1], opts)
        detections.append(det)
        # drop the waypoints already passed
        reached = tr.tau[-1]
        while len(remaining) > 1 and _passed(state.tau, remaining[0], reached):
            remaining.pop(0)
    raise UnknownSingularityError("too many singularities along the path")


def _passed(tau_now, waypoint, reached):
    return abs(tau_now - waypoint) + 1e-12 >= abs(tau_now - reached) and abs(
        reached - waypoint
    ) < abs(tau_now - waypoint)


def pole_census(
    start: SolutionState,
    params: ProblemParams,
    chart,
    opts: IntegrateOptions | None = None,
):
    """Probe-and-detour census of the predicted pole discs.

    From a state on the pole ray above the first disc, each disc is probed
    radially until the pole guard fires (the detected pole is fitted from
    the trailing trace), after which the pre-probe state is continued
    around the disc through the singularity-free sector -- the
    continuation never crosses a singularity, so no re-seeding error
    accumulates.  Returns (detections, zero_detections, probes_clean).
    """
    scale = abs(start.u * start.tau)
    shrink = math.exp(-math.pi / (2.0 * abs(chart.varkappa)))
    rot = cmath.exp(1j * _DETOUR_ANGLE)
    state = start
    detections = []
    zeros = []
    clean = True
    for p_idx, tau_p in enumerate(chart.tau_p):
        mid_below = tau_p * math.sqrt(shrink)
        # probe: run straight at the disc until the guard fires
        tr = integrate(state, params, [tau_p], opts, guard_scale=scale)
        if tr.status == "zero_guard":
            det = fit_local_expansion(tr, params, "zero")
            zeros.append(det)
            clean = False
        elif tr.status == "pole_guard":
            det = fit_local_expansion(tr, params, "pole")
            detections.append(det)
        else:
            clean = False
        # detour: continue the pre-probe state around the disc
        leg = integrate(
            state,
            params,
            [state.tau * rot, mid_below * rot, mid_below],
            opts,
            guard_scale=scale,
        )
        if leg.status != "done":
            raise SingularitySuspected(
                f"detour around disc {p_idx} hit a guard ({leg.status})",
                leg.tau[-1],
            )
        state = leg.end_state
    return detections, zeros, clean


# ---------------------------------------------------------------------------
# lattice orbit


@dataclass
class LatticeOrbit:
    n_range: range
    taus: np.ndarray
    u: dict
    du: dict
    residuals: dict
    beff: float = 1.0

    def v(self, n: int) -> np.ndarray:
        return self.u[n] / self.taus

    def x_grid(self) -> np.ndarray:
        return -2 * self.taus**2 / self.beff

    def w(self, n: int) -> np.ndarray:
        return self.v(n) * self.v(n + 1)

    def g(self, n: int) -> np.ndarray:
        return self.w(n) * self.w(n + 1)

    def alpha(self, n: int) -> np.ndarray:
        # fixed (principal) branch of sqrt(w_n)
        return np.sqrt(self.w(n).astype(complex))


def lattice_orbit(
    base_states: list[SolutionState],
    params: ProblemParams,
    n_range: range,
) -> LatticeOrbit:
    """Backlund tower u_n over a grid of base states, with the residuals of
    the 2-node relation, the two 3-node relations, the Volterra chain and
    the second-log difference identity (all computed with exact
    tau-derivatives via the equation jets)."""
    eps, b = params.epsilon, params.b
    beff = params.beff
    n_lo = min(n_range.start, 0) - 2
    n_hi = max(n_range.stop - 1, 0) + 4
    taus = np.array([s.tau for s in base_states])
    G = len(base_states)

    u = {n: np.zeros(G, dtype=complex) for n in range(n_lo, n_hi + 1)}
    du = {n: np.zeros(G, dtype=complex) for n in range(n_lo, n_hi + 1)}

    for gi, st in enumerate(base_states):
        u[0][gi], du[0][gi] = st.u, st.du
        ps = params
        s = st
        for n in range(1, n_hi + 1):
            s, ps = backlund_fn(s, ps, 1)
            u[n][gi], du[n][gi] = s.u, s.du
        ps = params
        s = st
        for n in range(-1, n_lo - 1, -1):
            s, ps = backlund_fn(s, ps, -1)
            u[n][gi], du[n][gi] = s.u, s.du

    def a_n(n):
        return params.a + 1j * n

    v = {n: u[n] / taus for n in u}
    dv = {n: du[n] / taus - u[n] / taus**2 for n in u}
    d2v = {}
    for n in u:
        d2u = u_second(taus, u[n], du[n], replace(params, a=a_n(n)))
        d2v[n] = d2u / taus - 2 * du[n] / taus**2 + 2 * u[n] / taus**3

    # The three derivative identities below carry the i/sign factors that
    # follow from the Backlund maps themselves (substituting u_{n+-1} and
    # simplifying gives v_n^2(v_{n+1}-v_{n-1}) = -i (eps b/4 tau) v_n',
    # dw_n/dx = -i w_n (w_{n+1}-w_{n-1}) for x = -2 tau^2/(eps b), and
    # -(d^2/dx^2) ln g_n = g_{n+2}-2g_n+g_{n-2}); the factor-free variants
    # fail by exactly those factors.
    res = {
        "two_node": [],
        "diff_discrete": [],
        "discrete": [],
        "volterra": [],
        "log_diff": [],
    }
    xp = -4 * taus / beff  # dx/dtau
    xpp = -4 / beff
    for n in n_range:
        res["two_node"].append(
            du[n] * u[n + 1]
            + u[n] * du[n + 1]
            + 1j * b * (u[n + 1] - u[n])
        )
        res["diff_discrete"].append(
            v[n] ** 2 * (v[n + 1] - v[n - 1]) + 1j * beff / (4 * taus) * dv[n]
        )
        res["discrete"].append(
            v[n] ** 2 * (v[n + 1] + v[n - 1])
            - beff / (4 * taus**2) * (b + 2 * a_n(n) * v[n])
        )
        w = {m: v[m] * v[m + 1] for m in (n - 1, n, n + 1)}
        dw_n = dv[n] * v[n + 1] + v[n] * dv[n + 1]
        res["volterra"].append(dw_n / xp + 1j * w[n] * (w[n + 1] - w[n - 1]))

        def wfun(m):
            return v[m] * v[m + 1], dv[m] * v[m + 1] + v[m] * dv[m + 1], (
                d2v[m] * v[m + 1] + 2 * dv[m] * dv[m + 1] + v[m] * d2v[m + 1]
            )

        g = {}
        gp = {}
        gpp = {}
        for m in (n - 2, n, n + 2):
            w1, w1p, w1pp = wfun(m)
            w2, w2p, w2pp = wfun(m + 1)
            g[m] = w1 * w2
            gp[m] = w1p * w2 + w1 * w2p
            gpp[m] = w1pp * w2 + 2 * w1p * w2p + w1 * w2pp
        Fx_tau = (gpp[n] * g[n] - gp[n] ** 2) / (g[n] ** 2 * xp) - gp[n] * xpp / (
            g[n] * xp**2
        )
        res["log_diff"].append(Fx_tau / xp + (g[n + 2] - 2 * g[n] + g[n - 2]))

    residuals = {k: float(np.max(np.abs(np.array(vv)))) for k, vv in res.items()}
    return LatticeOrbit(n_range, taus, u, du, residuals, beff)
