"""Kernel backend selection, cross-backend agreement and scalar types."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from dp3 import dynamics, kernels
from dp3.dynamics import IntegrateOptions, SolutionState, integrate
from dp3.monodromy import ProblemParams


def _run_backend(flag: str) -> str:
    code = textwrap.dedent(
        """
        from dp3.kernels import NUMBA_ENABLED
        from dp3.monodromy import ProblemParams, complete_from_G
        from dp3.asymptotics import build_profile, series_for_regime
        from dp3.series import eval_expansion
        from dp3.dynamics import SolutionState, IntegrateOptions, integrate

        params = ProblemParams(0.25 + 0.1j, 1.0, 1)
        data = complete_from_G(params, 0.95 + 0.15j, 0.25 - 0.1j, 0.2 + 0.1j)
        prof = build_profile(data)
        exp = series_for_regime(prof, K=5)
        r = eval_expansion(exp, 1e-3)
        start = SolutionState(1e-3, r.value, r.derivative, 0j)
        tr = integrate(start, params, [5e-2], IntegrateOptions(rtol=1e-11))
        print(NUMBA_ENABLED, repr(complex(tr.u[-1])), tr.status)
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, DP3_NUMBA=flag),
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_env_flag_selects_backend_and_results_agree():
    py = _run_backend("0")
    assert py.startswith("False ")
    assert py.endswith("done")
    # the JIT half needs the optional numba install (the `jit` extra)
    pytest.importorskip("numba")
    jit = _run_backend("1")
    assert jit.startswith("True ")
    assert jit.endswith("done")
    u_jit = complex(jit.split()[1].strip("()"))
    u_py = complex(py.split()[1].strip("()"))
    assert abs(u_jit - u_py) < 1e-12 * abs(u_py)


def _buffers(n=64):
    return [np.empty(n, dtype=complex) for _ in range(4)]


def test_python_kernel_returns_builtin_scalars():
    # numpy scalars cost ~3x per operation in the pure-Python kernel, so
    # none may enter its state (np.float64 subclasses float: check `type`)
    status, nrec, s, u, du, phi = kernels._integrate_segment_impl(
        0.1 + 0j, 0.05 + 0.01j, 0.4 + 0.1j, 0.2 - 0.3j, 0j,
        0.25 + 0.1j, 1.0, 1.0, 1e-10, 1e-12, 10_000, 1e8, 1e-8, *_buffers(),
    )
    assert status == kernels.STATUS["done"] and nrec > 2
    assert type(s) is float
    assert all(type(v) is complex for v in (u, du, phi))


def test_integrate_hands_builtin_scalars_to_kernel(monkeypatch):
    seen = []
    inner = dynamics.integrate_segment

    def spy(*args):
        seen.append(args[:13])
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
    want = (complex,) * 6 + (float,) * 4 + (int,) + (float,) * 2
    for args in seen:
        assert tuple(type(v) for v in args) == want
