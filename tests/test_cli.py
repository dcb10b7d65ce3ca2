"""CLI surface: subcommands, exit codes, file outputs, determinism."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from dp3.cli import main
from dp3.monodromy import (
    ProblemParams,
    complete_from_G,
    complete_from_g11_g21_s00,
    data_to_json,
)
from dp3.verification import FAST, run_suite


@pytest.fixture()
def datafile(tmp_path):
    params = ProblemParams(0.25 + 0.1j, 1.0, 1)
    data = complete_from_G(params, 0.95 + 0.15j, 0.25 - 0.1j, 0.2 + 0.1j)
    f = tmp_path / "pt.json"
    f.write_text(data_to_json(data))
    return f


def test_validate_ok(datafile, capsys):
    rc = main(["validate", "--data", str(datafile), "--tol", "1e-10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "on-manifold" in out
    assert out.count(":") >= 5  # five residual lines


def test_validate_fails_off_manifold(tmp_path, capsys):
    params = ProblemParams(0.25 + 0.1j, 1.0, 1)
    data = complete_from_G(params, 0.95 + 0.15j, 0.25 - 0.1j, 0.2 + 0.1j)
    obj = json.loads(data_to_json(data))
    obj["g"][3][0] += 1.0
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    rc = main(["validate", "--data", str(f), "--tol", "1e-10"])
    assert rc == 1


def test_classify_output(datafile, capsys):
    rc = main(["classify", "--data", str(datafile)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "GenericPower" in out
    assert "varrho" in out


def test_asym_grid_csv(datafile, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(
        ["asym", "--data", str(datafile), "--tau-grid", "0.001,0.01,7,log", "--out", str(out)]
    )
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == [
        "tau_re",
        "tau_im",
        "u_re",
        "u_im",
        "phi_re",
        "phi_im",
        "regime",
        "correction_exponents",
    ]
    assert len(rows) == 8


def test_asym_deterministic(datafile, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (a, b):
        main(["asym", "--data", str(datafile), "--tau-grid", "0.001,0.01,7,log", "--out", str(f)])
    assert a.read_bytes() == b.read_bytes()


def test_series_csv(tmp_path):
    out = tmp_path / "coef.csv"
    rc = main(
        [
            "series",
            "--kind",
            "power",
            "--a",
            "0.3,0.1",
            "--sigma",
            "0.9,-0.3",
            "--seed",
            "0.8,0.4",
            "--K",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["k", "m", "re", "im"]
    assert len(rows) == 1 + 3 + 5 + 7  # header + levels 1..3


def test_uniform_csv(datafile, tmp_path):
    out = tmp_path / "uniform.csv"
    rc = main(
        ["uniform", "--data", str(datafile), "--tau-grid", "0.001,0.01,4,log",
         "--correction", "--out", str(out)]
    )
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["tau_re", "tau_im", "u_re", "u_im"]
    assert len(rows) == 1 + 4


def test_genfun_csv(tmp_path):
    out = tmp_path / "genfun.csv"
    rc = main(
        ["genfun", "--family", "power", "--n", "1", "--a", "0.3,0.1", "--sigma",
         "0.4,0.2", "--seed", "0.5,0.1", "--levels", "6", "--out", str(out)]
    )
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["order", "re", "im"]
    assert len(rows) == 1 + 7  # orders 0..6


def test_lattice_csv(datafile, tmp_path, capsys):
    out = tmp_path / "lattice.csv"
    rc = main(
        ["lattice", "--data", str(datafile), "--grid", "0.05,0.5,5", "--n-min", "-1",
         "--n-max", "2", "--out", str(out)]
    )
    assert rc == 0
    assert "two_node" in capsys.readouterr().out
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["n", "tau_re", "tau_im", "u_re", "u_im"]
    assert len(rows) == 1 + 4 * 5  # n = -1..2 on five grid points


def test_integrate_trace_and_singularity_log(datafile, tmp_path):
    out = tmp_path / "trace.csv"
    sing = tmp_path / "sing.json"
    rc = main(
        [
            "integrate",
            "--data",
            str(datafile),
            "--tau-from",
            "0.001",
            "--tau-to",
            "0.02",
            "--out",
            str(out),
            "--singularities",
            str(sing),
        ]
    )
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0][:4] == ["tau_re", "tau_im", "u_re", "u_im"]
    assert len(rows) > 10
    assert json.loads(sing.read_text()) == []


def test_backlund_roundtrip_json(datafile, capsys):
    rc = main(["backlund", "--data", str(datafile), "--shift", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    obj = json.loads(out[out.index("{") :])
    assert obj["a"][1] == pytest.approx(1.1)  # a + i


def test_roots_finds_reference_value(capsys):
    rc = main(["roots", "--eb", "2", "--box=-1,1,-1,0", "--which", "plus", "--grid", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.238137828" in out


def test_poles_listing(tmp_path, capsys):
    import math

    params = ProblemParams(0.1, 1.0, 1)
    s00 = -2j * math.cosh(2 * math.pi * 0.9)
    data = complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, s00)
    f = tmp_path / "pole.json"
    f.write_text(data_to_json(data))
    out = tmp_path / "poles.csv"
    rc = main(
        ["poles", "--data", str(f), "--p-min", "2", "--p-max", "6", "--delta-d", "1.0", "--out", str(out)]
    )
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["p", "tau_p_re", "tau_p_im", "R_p"]
    assert len(rows) == 6


def test_asym_pole_regime_skips_discs(tmp_path):
    import math

    kappa = 1.3
    params = ProblemParams(0.1, 1.0, 1)
    s00 = -2j * math.cosh(2 * math.pi * kappa)
    data = complete_from_g11_g21_s00(params, 0.9, 0.4 + 0.2j, s00)
    f = tmp_path / "pole.json"
    f.write_text(data_to_json(data))
    out = tmp_path / "grid.csv"
    rc = main(
        [
            "asym",
            "--data",
            str(f),
            "--tau-grid",
            "0.001,0.02,40,log",
            "--delta-d",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert 2 <= len(rows) <= 41
    assert all(r[6].startswith("PoleAccumulation") for r in rows[1:])


def test_identify(capsys):
    rc = main(
        [
            "identify",
            "--p",
            "0.16",
            "--q1",
            "0.5",
            "--q2",
            "2.0",
            "--alpha",
            "0.4",
            "--a",
            "0.3",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "generic" in out


def test_usage_error_exit_code():
    rc = main(["identify", "--p", "1.0", "--q1", "0.5", "--q2", "2.0", "--alpha", "0.4", "--a", "0.3"])
    assert rc == 2  # inconsistent asymptotic form -> usage error


def test_verify_fast_report_schema(tmp_path, capsys):
    import jsonschema

    rep = tmp_path / "report.json"
    rc = main(["verify", "--suite", "fast", "--seed", "0", "--report", str(rep)])
    assert rc == 0
    obj = json.loads(rep.read_text())
    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "src" / "dp3" / "report_schema.json").read_text()
    )
    jsonschema.validate(obj, schema)
    assert obj["all_passed"] is True
    assert all(
        c["provenance"] in ("paper-table", "trivial", "derived-oracle") for c in obj["checks"]
    )


def test_verify_record_times_sum_within_suite_time():
    # w-identities and roots give several records per check group; each
    # record carries only its own share of the group time
    report = run_suite("fast", seed=0, verbose=False)
    assert len(report.checks) > len(FAST)
    assert sum(c.runtime_s for c in report.checks) <= report.runtime_s


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "dp3.cli", "classify", "--help"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
