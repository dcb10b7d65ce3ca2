"""The RK45 kernel's scalar types and the trace `integrate` builds from it."""

import numpy as np
import pytest

from dp3 import dynamics, kernels
from dp3.dynamics import IntegrateOptions, SolutionState, integrate
from dp3.monodromy import ProblemParams


def test_python_kernel_returns_builtin_scalars():
    # numpy scalars cost ~3x per operation in the pure-Python kernel, so
    # none may enter its state (np.float64 subclasses float: check `type`)
    rec = []
    status, nrec, s, u, du, phi = kernels.integrate_segment(
        0.1 + 0j, 0.05 + 0.01j, 0.4 + 0.1j, 0.2 - 0.3j, 0j,
        0.25 + 0.1j, 1.0, 1.0, 1e-10, 1e-12, 1e8, 1e-8, rec,
    )
    assert status == kernels.STATUS["done"] and nrec > 2
    assert type(s) is float
    assert all(type(v) is complex for v in (u, du, phi))
    # the flat record holds tau, u, du, phi of each of the nrec points
    assert len(rec) == 4 * nrec
    assert all(type(v) is complex for v in rec)
    assert rec[-3:] == [u, du, phi]


def test_integrate_hands_builtin_scalars_to_kernel(monkeypatch):
    seen = []
    inner = dynamics.integrate_segment

    def spy(*args):
        seen.append(args[:12])
        return inner(*args)

    monkeypatch.setattr(dynamics, "integrate_segment", spy)
    params = ProblemParams(0.25 + 0.1j, 1.0, 1)
    vals = np.array([0.1, 0.4 + 0.1j, 0.2 - 0.3j, 0.0], dtype=complex)
    start = SolutionState(*vals)
    assert type(start.u) is np.complex128
    opts = IntegrateOptions(rtol=1e-10)
    integrate(start, params, [0.12, 0.15], opts)
    integrate(start, params, [0.12], opts, guard_scale=np.abs(vals[1] * vals[0]))
    assert len(seen) == 3
    want = (complex,) * 6 + (float,) * 6
    for args in seen:
        assert tuple(type(v) for v in args) == want


def test_trace_holds_every_recorded_point_and_ends_at_kernel_state(monkeypatch):
    # the benchmark counts accepted steps from each call's n_recorded, so
    # the trace must hold exactly the points the calls report, and its end
    # state must be the state the last call returned
    outs = []
    inner = dynamics.integrate_segment

    def spy(*args):
        out = inner(*args)
        outs.append(out)
        return out

    monkeypatch.setattr(dynamics, "integrate_segment", spy)
    params = ProblemParams(0.25 + 0.1j, 1.0, 1)
    start = SolutionState(0.1, 0.4 + 0.1j, 0.2 - 0.3j, 0j)
    tr = integrate(start, params, [0.12, 0.15, 0.2], IntegrateOptions(rtol=1e-10))
    assert len(outs) == 3 and tr.status == "done"
    assert tr.tau.size == sum(out[1] for out in outs)
    for arr in (tr.u, tr.du, tr.phi):
        assert arr.size == tr.tau.size
    end = tr.end_state
    assert (end.u, end.du, end.phi) == outs[-1][3:]


def test_integrate_rejects_a_path_without_length():
    params = ProblemParams(0.25 + 0.1j, 1.0, 1)
    start = SolutionState(0.1, 0.4 + 0.1j, 0.2 - 0.3j, 0j)
    with pytest.raises(ValueError):
        integrate(start, params, [0.1, 0.1])
