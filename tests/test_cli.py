import copy
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sharpcert
from sharpcert.cli import main
from sharpcert.scheme import compute_a_star


def run(argv):
    return main(argv)


def test_certify_d9(tmp_path):
    out = tmp_path / "c9.json"
    assert run(["certify", "-d", "9", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["dimension"] == 9 and cert["N"] == 3
    assert cert["sum_condition_ok"] is True
    assert "timestamp" in cert


def test_certify_d5_prior_results(tmp_path):
    out = tmp_path / "c5.json"
    assert run(["certify", "-d", "5", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["a_star"]["rational_times_grade"]["rational"] == "0"
    assert any("prior results" in n for n in cert["notes"])
    assert cert["delta_eigen_evidence"]


def test_certify_rejects_low_dimension():
    assert run(["certify", "-d", "2"]) == 2


def test_certify_deterministic_apart_from_timestamp(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["certify", "-d", "8", "--out", str(a)]) == 0
    assert run(["certify", "-d", "8", "--out", str(b)]) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("timestamp"), db.pop("timestamp")
    assert da == db


def test_verify_round_trip(tmp_path):
    out = tmp_path / "c.json"
    assert run(["certify", "-d", "8", "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0


def test_verify_tampered(tmp_path):
    out = tmp_path / "c.json"
    run(["certify", "-d", "8", "--out", str(out)])
    cert = json.loads(out.read_text())
    for w in cert["weights"]:
        if w["coefficients"]:
            w["coefficients"][0]["value"]["rational"] = "3/2"
            break
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    assert run(["verify", str(bad)]) == 1


def test_verify_truncated(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"version": 1, "dimension"')
    assert run(["verify", str(broken)]) == 2
    missing_fields = tmp_path / "short.json"
    missing_fields.write_text('{"version": 1, "dimension": 9}')
    assert run(["verify", str(missing_fields)]) == 2


D7 = compute_a_star(7).to_json()


def _d7_with(edit):
    cert = copy.deepcopy(D7)
    edit(cert)
    return cert


@pytest.mark.parametrize(
    "doc",
    [
        [],
        "certificate",
        _d7_with(lambda c: c["weights"][0].update(c0="1/0")),
        _d7_with(lambda c: c["weights"][0].update(c0=float("inf"))),
        _d7_with(lambda c: c["a_star"]["rational_times_grade"].update(rational="1/0")),
        _d7_with(lambda c: c["weights"][0]["eig"][0].update(ell=0)),
    ],
    ids=["array", "string", "c0_div_zero", "c0_infinity", "a_star_div_zero", "eig_ell_zero"],
)
def test_verify_malformed_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("malformed certificate:")


def test_scan_small_range(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["scan", "--d-min", "7", "--d-max", "9", "--jobs", "1",
                "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["d"] for r in rows] == ["7", "8", "9"]
    assert all(r["status"] == "ok" for r in rows)
    assert rows[0]["a_star_decimal"] == "0.0"
    assert float(rows[1]["a_star_decimal"]) > 0
    assert all(int(r["wall_ms"]) >= 0 for r in rows)


def test_scan_prior_range(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["scan", "--d-min", "3", "--d-max", "6", "--jobs", "1",
                "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert all(r["a_star_decimal"] == "0.0" for r in rows)


def test_scan_empty_range():
    assert run(["scan", "--d-min", "9", "--d-max", "8"]) == 2
    assert run(["scan", "--d-min", "1", "--d-max", "2"]) == 2


def test_eigen_delta_d3(tmp_path):
    out = tmp_path / "eig.json"
    assert run(["eigen", "-d", "3", "--kernel", "delta", "--k", "2,4,6",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["values"]) == 3
    for row in report["values"]:
        assert row["contained"]
        assert row["decimal"].startswith("-")


def test_eigen_magical_structural_zero(tmp_path):
    out = tmp_path / "eig.json"
    assert run(["eigen", "-d", "6", "--kernel", "magical", "--m", "1",
                "--k", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["values"][0]["exact"]["rational"] == "0"


def test_eigen_nonmagical_positive(tmp_path):
    out = tmp_path / "eig.json"
    assert run(["eigen", "-d", "5", "--kernel", "nonmagical", "--m", "2",
                "--k", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert not report["values"][0]["decimal"].startswith("-")


def test_eigen_validation():
    assert run(["eigen", "-d", "5", "--kernel", "magical", "--k", "2"]) == 2
    assert run(["eigen", "-d", "5", "--kernel", "magical", "--m", "-1", "--k", "2"]) == 2
    assert run(["eigen", "-d", "5", "--kernel", "delta", "--k", "x"]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["eigen", "-d", "5", "--kernel", "delta", "--k", "2", "--precision-bits", "32"])
    assert exc.value.code == 2


def test_eigen_exact_rounding_enclosure(tmp_path):
    # both quadrature pieces are exact here, so the enclosure is only a
    # rounding interval; the exact value must still be accepted
    out = tmp_path / "eig.json"
    assert run(["eigen", "--kernel", "magical", "-d", "23", "--m", "4", "--k", "0",
                "--precision-bits", "256", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["values"][0]["contained"]


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "-d", "3", "--seed", "1"],
        ["certify", "-d", "3", "--format", "json"],
        ["scan", "--d-min", "3", "--d-max", "3", "--seed", "1"],
        ["eigen", "-d", "3", "--kernel", "delta", "--k", "2", "--seed", "1"],
        ["eigen", "-d", "3", "--kernel", "delta", "--k", "2", "--format", "json"],
        ["eigen", "-d", "3", "--kernel", "delta", "--k", "2", "--tol", "1/2"],
        ["eigen", "-d", "3", "--kernel", "delta", "--k", "2", "--tail-depth", "3"],
        ["verify", "c.json", "--seed", "1"],
        ["verify", "c.json", "--format", "json"],
        ["verify", "c.json", "--tol", "1/2"],
        ["verify", "c.json", "--tail-depth", "3"],
        ["verify", "c.json", "--out", "o.json"],
        ["verify", "c.json", "--precision-bits", "128"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_removed_flag_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_console_script_entry_point():
    # the child imports the same sharpcert as this process, installed or not
    src = str(Path(sharpcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sharpcert.cli", "certify", "-d", "7"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    cert = json.loads(proc.stdout)
    assert cert["dimension"] == 7
