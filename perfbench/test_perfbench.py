"""Self-tests of the benchmark: determinism of inputs and counts, failure
counting, and the tail percentile.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import dataclasses

import pytest

import run

run._import_dp3()

import tracing  # noqa: E402
import workloads as W  # noqa: E402


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    draw, _run = W.WORKLOADS[name]
    assert [draw(7, i) for i in range(12)] == [draw(7, i) for i in range(12)]
    assert draw(7, 0) != draw(8, 0)


def _traced_counts(name, index):
    draw, item = W.WORKLOADS[name]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = tracer.run_item(index, item, draw(3, index))
    finally:
        tracer.uninstall()
    return res, dict(tracer.counts[index])


@pytest.mark.parametrize(
    "name, index, keys",
    [
        ("tables", 0, ["series.power_coeffs.calls", "series.coeffs", "genfun._reglog_gf.calls"]),
        ("solve", 0, ["kernels.accepted_steps", "series.eval_expansion.calls"]),
        ("poles", 0, ["kernels.accepted_steps", "dynamics.fit_local_expansion.calls",
                      "dynamics.detect_and_step_over.calls", "kernels.guard_trips"]),
    ],
)
def test_same_seed_gives_identical_counts(name, index, keys):
    res1, c1 = _traced_counts(name, index)
    res2, c2 = _traced_counts(name, index)
    assert res1.passed and res2.passed
    assert c1 == c2
    for k in keys:
        assert c1[k] > 0, k


def test_uninstall_restores_every_binding():
    from dp3 import asymptotics, dynamics, kernels, series

    before = (dynamics.integrate_segment, asymptotics.power_coeffs, series.eval_expansion)
    tracer = tracing.Tracer()
    tracer.install()
    assert dynamics.integrate_segment.__wrapped__ is before[0]
    assert kernels.integrate_segment.__wrapped__ is before[0]
    assert asymptotics.power_coeffs.__wrapped__ is before[1]
    tracer.uninstall()
    assert (dynamics.integrate_segment, asymptotics.power_coeffs, series.eval_expansion) == before


def test_corrupted_coefficient_fails_the_tables_check():
    inp = W.draw_tables(0, 0)
    params = W.ProblemParams(inp["a"], 1.0, 1)
    pexp = W.ser.power_coeffs(params, inp["sigma"], b11=inp["b11"], K=4)
    rexp = W.ser.reglog_coeffs(params, inp["c"], K=4)
    iexp = W.ser.irreglog_coeffs(params, inp["ctilde"], K=3, M=6)
    assert W.check_tables(inp, pexp, rexp, iexp).passed
    bad = dict(pexp.coeffs)
    bad[(3, 2)] *= 1 + 1e-9
    res = W.check_tables(inp, dataclasses.replace(pexp, coeffs=bad), rexp, iexp)
    assert not res.passed and res.rel_err > 1e-10


def test_raising_and_failing_items_count_as_failures(monkeypatch):
    monkeypatch.setattr(run, "MIN_ITEMS", 3)

    def item(inp):
        if inp == 1:
            raise ArithmeticError("boom")
        return W.ItemResult(inp != 2, 1e-14)

    items, _wall = run.run_loop(lambda seed, i: i, item, 0, 0.0)
    assert len(items) == 3
    failed = [i for i, _dt, r, _t in items if r is None or not r.passed]
    assert failed == [1, 2]


def test_tail_leaves_ten_items_beyond():
    values = list(range(1, 31))
    v, p = run.tail(values)
    assert sum(x > v for x in values) == 10
    assert p == pytest.approx(100 * 20 / 30)
