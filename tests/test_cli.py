import contextlib
import copy
import csv
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sharpcert
from sharpcert import scheme
from sharpcert import cli
from sharpcert.cli import main
from sharpcert.scalars import ExactScalar
from sharpcert.scheme import compute_a_star


def run(argv):
    return main(argv)


_CLI = [sys.executable, "-m", "sharpcert.cli"]


def _child_env():
    """This environment, with PYTHONPATH set so a child imports this sharpcert, installed or not."""
    src = str(Path(sharpcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_certify_d9(tmp_path):
    out = tmp_path / "c9.json"
    assert run(["certify", "-d", "9", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["dimension"] == 9 and cert["N"] == 3
    assert cert["sum_condition_ok"] is True
    assert "timestamp" in cert


def test_certify_d5_prior_results(tmp_path, capsys):
    out = tmp_path / "c5.json"
    assert run(["certify", "-d", "5", "--out", str(out)]) == 0
    # the summary counts the evidence's signs: ell = 1..N + 25
    assert "26 eigenvalue signs" in capsys.readouterr().err
    cert = json.loads(out.read_text())
    assert cert["a_star"]["rational_times_grade"]["rational"] == "0"
    assert any("prior results" in n for n in cert["notes"])
    assert cert["delta_eigen_evidence"]


def test_certify_rejects_low_dimension():
    with pytest.raises(SystemExit) as exc:
        run(["certify", "-d", "2"])
    assert exc.value.code == 2


def test_certify_deterministic_apart_from_timestamp(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["certify", "-d", "8", "--out", str(a)]) == 0
    assert run(["certify", "-d", "8", "--out", str(b)]) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("timestamp"), db.pop("timestamp")
    assert da == db


# the file the CLI writes is in json.dumps(indent=2) layout, not just equal as
# JSON; the library reads it back to the same text, and verify accepts it.
# d = 5 has evidence, d = 7 empty coefficient lists.  The summary counts the
# nonnegativity certificates certify checked: only weights with a coefficient
# (0 of 4 at d = 7, 4 of 20 at d = 24).
@pytest.mark.parametrize("d", [5, 7, 8, 24, 48])
def test_certify_json_layout(tmp_path, capsys, d):
    out = tmp_path / "c.json"
    assert run(["certify", "-d", str(d), "--out", str(out)]) == 0
    if d in (7, 24):
        assert f", {4 if d == 24 else 0} nonnegativity certificates," in capsys.readouterr().err
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2)
    assert scheme.Certificate.from_text(text).to_text(json.loads(text)["timestamp"]) == text
    assert run(["verify", str(out)]) == 0


def test_certify_computes_each_eigenvalue_once(tmp_path, monkeypatch):
    # the self-check reads the written file back and computes no eigenvalue
    calls = []

    def spy(fn):
        def wrapped(*args):
            calls.append((fn.__name__, repr(args)))
            return fn(*args)
        return wrapped

    for name in ("eigen_delta_weight", "funk_hecke_eigen"):
        monkeypatch.setattr(scheme, name, spy(getattr(scheme, name)))
    assert run(["certify", "-d", "12", "--out", str(tmp_path / "c.json")]) == 0
    assert {name for name, _ in calls} == {"eigen_delta_weight", "funk_hecke_eigen"}
    assert len(set(calls)) == len(calls)


def test_certify_and_verify_build_no_kernel(tmp_path, monkeypatch):
    # polynomial-kernel eigenvalues are integer sums over the moments; only
    # eigen's oracle builds a kernel polynomial

    def no_kernel(*args):
        raise AssertionError("kernel polynomial built")

    for name in ("magical_kernel_poly", "nonmagical_kernel_poly"):
        monkeypatch.setattr(scheme, name, no_kernel)
    monkeypatch.setattr(scheme.EigenTable, "kernel", no_kernel)
    out = tmp_path / "c.json"
    assert run(["certify", "-d", "12", "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0


def test_certify_builds_the_ladder_once(tmp_path, monkeypatch):
    # the self-check compares the written file with the weights certify built
    calls = []
    build = scheme.build_weights

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(scheme, "build_weights", spy)
    assert run(["certify", "-d", "12", "--out", str(tmp_path / "c.json")]) == 0
    assert calls == [(12,)]


def test_certify_self_check_runs_no_sturm_check_of_its_own(tmp_path, monkeypatch):
    # the self-check runs no admissibility check of its own; certify runs one
    # per weight with a coefficient, and a verify process one per weight
    calls = []
    nonneg_on = scheme.nonneg_on

    def spy(*args):
        calls.append(args)
        return nonneg_on(*args)

    monkeypatch.setattr(scheme, "nonneg_on", spy)
    out = tmp_path / "c.json"
    assert run(["certify", "-d", "17", "--out", str(out)]) == 0
    weights = json.loads(out.read_text())["weights"]
    n_filled = sum(1 for w in weights if w["coefficients"])
    assert len(calls) == n_filled < len(weights)  # compute_a_star's own checks
    assert run(["verify", str(out)]) == 0
    assert len(calls) == n_filled + len(weights)


def _bump_eig(obj):
    value = obj["weights"][0]["eig"][0]["value"]
    value["rational"] = str(Fraction(value["rational"]) + 1)


@pytest.mark.parametrize(
    "edit",
    [
        _bump_eig,
        lambda obj: obj["weights"][0].update(c0="0.5"),
        lambda obj: obj["weights"][0].update(adm_margin="1/7"),
        lambda obj: obj["a_star"].update(decimal="1.0"),
        lambda obj: obj["notes"].__setitem__(0, "edited"),
        lambda obj: obj["weights"].pop(),
        lambda obj: obj["weights"][1]["eig"].append(obj["weights"][1]["eig"][-1]),
    ],
    ids=["eig_value", "c0_malformed", "adm_margin", "a_star_decimal", "note", "weight_dropped",
         "eig_appended"],
)
def test_certify_self_checks_the_written_json(tmp_path, monkeypatch, capsys, edit):
    to_text = scheme.Certificate.to_text

    def to_text_edited(self, timestamp=None):
        obj = json.loads(to_text(self, timestamp))
        edit(obj)
        return json.dumps(obj, indent=2)

    monkeypatch.setattr(scheme.Certificate, "to_text", to_text_edited)
    out = tmp_path / "c.json"
    assert run(["certify", "-d", "9", "--out", str(out)]) == 1
    assert "read-back FAIL" in capsys.readouterr().err
    assert out.exists()


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


D5 = compute_a_star(5).to_json()
D7 = compute_a_star(7).to_json()
D9 = compute_a_star(9).to_json()
D48 = compute_a_star(48).to_json()


def _with(base, edit):
    cert = copy.deepcopy(base)
    edit(cert)
    return cert


def _d7_with(edit):
    return _with(D7, edit)


def _d9_with(edit):
    return _with(D9, edit)


def _bool_c0_and_int_rational(cert):
    cert["weights"][0]["c0"] = False
    cert["a_star"]["rational_times_grade"]["rational"] = 0


def _repeat_first_degree(cert):
    # a second entry for weight 1's one degree, listed before the true one
    coeffs = cert["weights"][0]["coefficients"]
    coeffs.insert(0, copy.deepcopy(coeffs[0]))
    coeffs[0]["value"]["rational"] = "999"


def _d9_zero_entry(cert):
    """Weight 2's last sign-table entry, a tail zero."""
    entry = cert["weights"][1]["eig"][-1]
    assert entry["value"] == {"rational": "0", "sqrt2": 0, "pi_half": 0}
    return entry


def _d9_empty_weight_c0_negative(cert):
    # weight 2 has no coefficient; weight 1's c0 gains what it loses, so a* holds
    c0 = Fraction(cert["weights"][0]["c0"]) + 1
    cert["weights"][0]["c0"] = f"{c0.numerator}/{c0.denominator}"
    cert["weights"][1]["c0"] = "-1"


def _every_nonpositive(cert, value):
    for w in cert["weights"]:
        for e in w["eig"]:
            e["nonpositive"] = value


@pytest.mark.parametrize(
    "doc",
    [
        [],
        "certificate",
        _d7_with(lambda c: c["weights"][0].update(c0="1/0")),
        _d7_with(lambda c: c["weights"][0].update(c0=float("inf"))),
        _d7_with(lambda c: c["a_star"]["rational_times_grade"].update(rational="1/0")),
        _d7_with(lambda c: c["weights"][0]["eig"][0].update(ell=0)),
        _d9_with(lambda c: c.update(sum_condition_ok="false")),
        _d9_with(lambda c: _every_nonpositive(c, "no")),
        _d9_with(lambda c: c["weights"][0].update(has_delta="false")),
        _d9_with(lambda c: c.update(dimension=9.9)),
        _d9_with(lambda c: c.update(dimension="9")),
        _d9_with(lambda c: c.update(tail_check_depth=25.5)),
        _d9_with(lambda c: c.update(N=True)),
        _d9_with(lambda c: c["a_star"]["rational_times_grade"].update(sqrt2=0.5)),
        _d7_with(_bool_c0_and_int_rational),
        _d7_with(lambda c: c["weights"][0].update(c0=False)),
        _d7_with(lambda c: c["a_star"]["rational_times_grade"].update(rational=0)),
        _d9_with(lambda c: c["weights"][0].update(adm_margin=0)),
        _d9_with(lambda c: c.update(tail_check_depth=-1)),
        _d9_with(lambda c: c["weights"][0]["coefficients"][0].update(degree=3)),
        _d9_with(lambda c: c["weights"][0]["coefficients"][0].update(degree=-2)),
        _d9_with(lambda c: c["weights"][0].update(identity=5)),
        _d9_with(lambda c: c["a_star"].update(decimal=1.5)),
        _d9_with(lambda c: c.update(paper_baseline_decimal=1.5)),
        _d9_with(lambda c: c.update(weights={})),
        _d9_with(lambda c: c["weights"][0].update(eig={})),
        _d9_with(lambda c: c.update(notes="abc")),
        _d7_with(lambda c: c["weights"][0].update(c0="1e400")),
        _d7_with(lambda c: c["weights"][0].update(c0="1e10000000")),
        _d9_with(lambda c: c["weights"][0].update(adm_margin=" 0 ")),
        _d7_with(lambda c: c["a_star"]["rational_times_grade"].update(rational="2.5")),
        _d7_with(lambda c: c["weights"][0].update(c0="1_000")),
        _d9_with(lambda c: c["a_star"]["rational_times_grade"].update(sqrt2=40000000)),
        _d9_with(lambda c: c["weights"][0]["eig"][0]["value"].update(sqrt2=-1)),
        _d9_with(lambda c: c["weights"][0]["coefficients"][0].update(sign="garbage")),
        _d9_with(lambda c: c["weights"][0]["coefficients"][0].update(sign=5)),
        _d9_with(lambda c: c["weights"][0]["coefficients"][0].update(sign=0)),
        _d9_with(lambda c: c["weights"][0]["coefficients"][0]["value"].update(rational="-3")),
        _d9_with(_repeat_first_degree),
        _d9_with(lambda c: c["weights"][0]["eig"][0]["value"].update(sqrt2=False)),
        _d9_with(lambda c: c["weights"][0]["eig"][0]["value"].update(pi_half=0.0)),
        # a zero entry and a zero value meet every check when a field's type is
        # off, though Python has 1 == True, 0 == False and 1 == 1.0
        _d9_with(lambda c: _d9_zero_entry(c).update(nonpositive=1)),
        _d9_with(lambda c: _d9_zero_entry(c).update(nonpositive=None)),
        _d9_with(lambda c: _d9_zero_entry(c).update(ell=True)),
        _d9_with(lambda c: _d9_zero_entry(c).update(ell=float(_d9_zero_entry(c)["ell"]))),
        _d9_with(lambda c: _d9_zero_entry(c).update(ell=0)),
        _d9_with(lambda c: _d9_zero_entry(c)["value"].update(sqrt2=0.0)),
        _d9_with(lambda c: _d9_zero_entry(c)["value"].update(pi_half=False)),
        # a file that is one zero value or zero entry is an object, of the wrong shape
        {"rational": "0", "sqrt2": 0, "pi_half": 0},
        _d9_zero_entry(D9),
        # weight 1's one coefficient listed twice
        _with(D48, lambda c: c["weights"][0]["coefficients"].append(c["weights"][0]["coefficients"][0])),
    ],
    ids=["array", "string", "c0_div_zero", "c0_infinity", "a_star_div_zero", "eig_ell_zero",
         "sum_condition_ok_string", "nonpositive_string", "has_delta_string",
         "dimension_float", "dimension_string", "tail_check_depth_float", "N_bool",
         "sqrt2_float", "c0_bool_and_rational_int", "c0_bool", "rational_int",
         "adm_margin_int", "tail_check_depth_negative", "degree_odd", "degree_negative",
         "identity_int", "a_star_decimal_float", "baseline_decimal_float", "weights_object",
         "eig_object", "notes_string", "c0_exponent", "c0_huge_exponent",
         "adm_margin_spaces", "rational_decimal", "c0_underscore",
         "sqrt2_huge", "sqrt2_negative", "sign_string", "sign_5", "sign_0",
         "value_negative", "degree_repeated", "zero_eig_sqrt2_bool", "zero_eig_pi_half_float",
         "zero_entry_nonpositive_int", "zero_entry_nonpositive_null", "zero_entry_ell_bool",
         "zero_entry_ell_float", "zero_entry_ell_zero", "zero_value_sqrt2_float",
         "zero_value_pi_half_bool", "zero_value_file", "zero_entry_file", "degree_copied_d48"],
)
def test_verify_malformed_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("malformed certificate:")


def _extra(obj):
    obj["extra"] = 1


def _d9_nonzero_entry(cert):
    """Weight 1's last sign-table entry, a nonzero lambda_delta."""
    entry = cert["weights"][0]["eig"][-1]
    assert entry["value"]["rational"] != "0"
    return entry


@pytest.mark.parametrize(
    "doc",
    [
        _d9_with(_extra),
        _d9_with(lambda c: _extra(c["weights"][0])),
        _d9_with(lambda c: _extra(c["weights"][0]["coefficients"][0])),
        _d9_with(lambda c: _extra(c["weights"][0]["coefficients"][0]["value"])),
        _d9_with(lambda c: _extra(_d9_nonzero_entry(c))),
        _d9_with(lambda c: _extra(_d9_nonzero_entry(c)["value"])),
        _d9_with(lambda c: _extra(_d9_zero_entry(c))),
        _d9_with(lambda c: _extra(_d9_zero_entry(c)["value"])),
        _d9_with(lambda c: _extra(c["a_star"])),
        _d9_with(lambda c: _extra(c["a_star"]["rational_times_grade"])),
        _with(compute_a_star(5).to_json(), lambda c: _extra(c["delta_eigen_evidence"][0])),
    ],
    ids=["top_level", "weight", "coefficient", "coefficient_value", "eig_entry", "eig_value",
         "zero_entry", "zero_value", "a_star", "a_star_value", "evidence_entry"],
)
def test_verify_rejects_unknown_field(tmp_path, capsys, doc):
    # generator's contents and a top-level timestamp are the only keys verify
    # does not read; any other key it does not know is malformed
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("malformed certificate: unknown field 'extra'")


def _insert_before(text, anchor, marker, line):
    """``text`` with ``line`` inserted before the first ``marker`` after ``anchor``."""
    i = text.index(marker, text.index(anchor))
    return text[:i] + line + text[i:]


@pytest.mark.parametrize(
    "edit, key",
    [
        # a second rational before weight 1's true leading coefficient: a
        # reader keeping the last copy would verify the file
        (lambda t: _insert_before(t, '"coefficients": [', '"rational"', '"rational": "999", '),
         "rational"),
        (lambda t: _insert_before(t, "{", '"N"', '"N": 3, '), "N"),
        (lambda t: _insert_before(t, '"weights": [', '"c0"', '"c0": "1", '), "c0"),
    ],
    ids=["coefficient_rational", "top_level", "in_weight"],
)
def test_verify_rejects_repeated_keys(tmp_path, capsys, edit, key):
    path = tmp_path / "c9.json"
    assert run(["certify", "-d", "9", "--out", str(path)]) == 0
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"malformed certificate: repeated key {key!r}\n"


_LONG_KEY = "k" * 100_000


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: _insert_before(t, "{", '"N"', f'"{_LONG_KEY}": 1, '),
        lambda t: _insert_before(t, '"weights": [', '"c0"', f'"{_LONG_KEY}": 1, '),
        lambda t: _insert_before(t, "{", '"N"', f'"{_LONG_KEY}": 1, "{_LONG_KEY}": 2, '),
        lambda t: _insert_before(t, '"coefficients": [', '"rational"', f'"{_LONG_KEY}": 1, '),
        lambda t: t.replace('"version": 1', f'"version": "{_LONG_KEY}"', 1),
        lambda t: re.sub(r'"sqrt2": \d+', f'"sqrt2": "{_LONG_KEY}"', t, count=1),
        # stored integers of 4,001 digits, each out of range
        lambda t: t.replace('"tail_check_depth": 25', f'"tail_check_depth": {-10**4000}', 1),
        lambda t: re.sub(r'"degree": \d+', f'"degree": {10**4000 + 1}', t, count=1),
        lambda t: re.sub(r'"ell": \d+', f'"ell": {-10**4000}', t, count=1),
    ],
    ids=["unknown_top_level", "unknown_in_weight", "repeated", "unknown_in_value", "version",
         "sqrt2", "tail_check_depth", "degree", "ell"],
)
def test_verify_cuts_long_stored_text_in_its_message(tmp_path, capsys, edit):
    path = tmp_path / "c9.json"
    assert run(["certify", "-d", "9", "--out", str(path)]) == 0
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    assert run(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("malformed certificate: ") and len(err) < 200, err[:300]


@pytest.mark.parametrize(
    "doc, field",
    [({"version": 1}, "weights"), (_d9_with(lambda c: c["weights"][1].pop("eig")), "eig")],
    ids=["top_level", "in_weight"],
)
def test_verify_names_a_missing_field(tmp_path, capsys, doc, field):
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"malformed certificate: missing field {field!r}"


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int() digit limit set")
def test_verify_rational_past_int_digit_limit_exits_2(tmp_path, capsys):
    # the digits pass the "p/q" pattern, and int() then refuses them
    doc = _d7_with(lambda c: c["weights"][0].update(c0="7" * (sys.get_int_max_str_digits() + 1)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("malformed certificate:")


@pytest.mark.parametrize(
    "raw",
    [
        b"\xff\xfe{",  # not UTF-8
        b"[" * 100_000,  # nested past the parser's recursion limit
        # an integer literal past int()'s digit limit (where one is set)
        b'{"version": 1, "dimension": ' + b"9" * max(5000, sys.get_int_max_str_digits() + 1) + b"}",
    ],
    ids=["not_utf8", "deep_nesting", "huge_int_literal"],
)
def test_verify_unreadable_json_exits_2(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("malformed certificate:")


def _empty_every_eig(cert):
    for w in cert["weights"]:
        w["eig"] = []


@pytest.mark.parametrize(
    "doc",
    [
        _d9_with(lambda c: c["weights"][1].update(adm_margin="-5")),
        _d9_with(lambda c: c["weights"][1].update(adm_margin="1/2")),
        _d9_with(lambda c: c.update(tail_check_depth=1000)),
        _d9_with(_empty_every_eig),
        _d9_with(lambda c: c["weights"][0]["eig"].pop(3)),
        _with(D5, lambda c: c.pop("delta_eigen_evidence")),
        _with(D5, lambda c: c["delta_eigen_evidence"].pop()),
        _d9_with(lambda c: c["weights"][0].update(n=99)),
        _d9_with(lambda c: c["weights"][0].update(n=0)),
        _d9_with(lambda c: c["weights"][0]["coefficients"][0].update(sign=1)),
        _d9_with(lambda c: c["weights"][5]["coefficients"][0]["value"].update(pi_half=-6)),
        # past d = 6 certify makes no evidence, so any entry is unbacked
        _d9_with(lambda c: c["delta_eigen_evidence"].append(
            {"ell": 1, "value": {"rational": "5", "sqrt2": 0, "pi_half": 0}, "nonpositive": True})),
        _with(D5, lambda c: c.update(sum_condition_ok=False)),
        # certify writes no zero coefficient, so a stored one is unbacked
        _d9_with(lambda c: c["weights"][0]["coefficients"].append(
            {"degree": 0, "sign": -1, "value": {"rational": "0", "sqrt2": 0, "pi_half": 0}})),
        # a huge dimension fails on N or the weight count, each O(1)
        _d9_with(lambda c: c.update(dimension=10**12)),
        _d9_with(lambda c: c.update(dimension=10**12, N=scheme.ell_star(10**12))),
        _d9_with(lambda c: c["notes"].__setitem__(0, "every eigenvalue sign is proved")),
        _d9_with(lambda c: c.pop("notes")),
        # read as a zero entry, and unbacked: certify writes every entry nonpositive
        _d9_with(lambda c: _d9_zero_entry(c).update(nonpositive=False)),
        _d9_with(_d9_empty_weight_c0_negative),
        # a zero entry, weight 2's last, made nonzero
        _with(D48, lambda c: c["weights"][1]["eig"][-1]["value"].update(rational="1")),
    ],
    ids=["adm_margin_negative", "adm_margin_too_large", "tail_check_depth_raised",
         "eig_emptied", "eig_gap", "evidence_deleted_d5", "evidence_short_d5",
         "n_99", "n_0", "sign_flipped", "coefficient_grade", "evidence_added_d9",
         "sum_ok_false_d5", "zero_coefficient_d9", "dimension_huge", "dimension_and_N_huge",
         "notes_edited", "notes_removed", "zero_entry_nonpositive_false", "empty_weight_c0_negative",
         "zero_entry_nonzero_d48"],
)
def test_verify_rejects_unbacked_claims(tmp_path, capsys, monkeypatch, doc):
    # verify's work is bounded by the stored tables: the weight shapes are
    # listed only for an N that the stored weight count backs
    shapes = scheme._shapes

    def shapes_spy(N):
        assert N < 2 or 2 * N == len(doc["weights"]), f"shapes listed for N={N}"
        return shapes(N)

    monkeypatch.setattr(scheme, "_shapes", shapes_spy)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("certificate INVALID")


@pytest.mark.parametrize(
    "doc",
    [
        _d9_with(lambda c: c.update(dimension=3 * 10**3999 + 7)),
        _d9_with(lambda c: c.update(dimension=-(10**3999))),
        # the tail_check_depth check names a 4,000-digit depth before the
        # evidence length or the eig coverage is read
        _with(D5, lambda c: c.update(tail_check_depth=10**3999)),
        _d9_with(lambda c: c.update(tail_check_depth=10**3999)),
    ],
    ids=["dimension_n_mismatch", "dimension_negative", "evidence_length_d5", "eig_coverage_d9"],
)
def test_verify_shortens_long_integers_in_its_message(tmp_path, capsys, doc):
    # a staged check names 4,000-digit integers by their ends and digit count
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("certificate INVALID") and "digits)" in err and len(err) < 500, err[:600]


@pytest.mark.parametrize(
    "doc",
    [
        _d9_with(lambda c: c.update(generator={"name": "other", "version": "9"})),
        _d9_with(lambda c: _extra(c["generator"])),
        _d9_with(lambda c: c.update(timestamp="2000-01-01T00:00:00Z")),
        # shaped like what the reader shares for a zero value and a zero entry
        _d9_with(lambda c: c.update(generator={"rational": "0", "sqrt2": 0, "pi_half": 0})),
        _d9_with(lambda c: c.update(generator=copy.deepcopy(_d9_zero_entry(c)))),
    ],
    ids=["generator_edited", "generator_extra_field", "timestamp_added", "generator_zero_value", "generator_zero_entry"],
)
def test_verify_ignores_generator_and_timestamp(tmp_path, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 0


def test_verify_reads_a_zero_value_in_any_key_order(tmp_path):
    doc = _d9_with(lambda c: _d9_zero_entry(c).update(
        value={"pi_half": 0, "rational": "0", "sqrt2": 0}))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 0


@pytest.mark.parametrize(
    "doc, top_degree, top_ell",
    [
        # d = 9: N = 3, top kernel degree 4N - 2, weight 1 covers ell = 1..3 + 25
        (_d9_with(lambda c: c["weights"][0]["eig"][0].update(ell=20000)), 10, 28),
        (_d9_with(lambda c: c["weights"][0]["coefficients"][0].update(degree=1000)), 10, 28),
        # d = 5: no kernels; the evidence covers ell = 1..N + 25 with N = 1
        (_with(D5, lambda c: c["delta_eigen_evidence"][0].update(ell=20000)), 0, 26),
        # a stored depth other than TAIL_DEPTH, or a sign table of the wrong
        # length, stops verify before anything is computed
        (_d9_with(lambda c: c.update(tail_check_depth=1000)), -1, 0),
        (_d9_with(lambda c: c["weights"][2]["eig"].pop()), -1, 0),
    ],
    ids=["eig_ell_huge", "degree_huge", "evidence_ell_huge_d5", "tail_check_depth_huge",
         "eig_short"],
)
def test_verify_skips_rederiving_failed_weights(tmp_path, monkeypatch, doc, top_degree, top_ell):
    # verify evaluates only the rebuilt weights, and a sign table only once
    # it lists exactly ell = 1..cutoff + TAIL_DEPTH: no kernel exponent
    # above the rebuilt top degree and no harmonic degree beyond the stored
    # range is computed
    poly_eigen, delta = scheme.funk_hecke_eigen, scheme.EigenTable.delta

    def poly_spy(moments, m, k, magical):
        assert 2 * m <= top_degree, f"kernel exponent {2 * m} computed"
        return poly_eigen(moments, m, k, magical)

    def delta_spy(self, k):
        assert k <= 2 * top_ell, f"delta eigenvalue at k={k} computed"
        return delta(self, k)

    monkeypatch.setattr(scheme, "funk_hecke_eigen", poly_spy)
    monkeypatch.setattr(scheme.EigenTable, "delta", delta_spy)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 1


@pytest.mark.parametrize("depth", [24, 26, 10**3999], ids=["24", "26", "huge"])
@pytest.mark.parametrize("base", [D5, D9], ids=["d5", "d9"])
def test_verify_requires_the_tail_depth(tmp_path, monkeypatch, capsys, base, depth):
    # the depth is a constant: a file stored at any other depth is invalid,
    # said in one line before any eigenvalue is computed
    def no_eigenvalue(*args):
        raise AssertionError("eigenvalue computed")

    monkeypatch.setattr(scheme, "funk_hecke_eigen", no_eigenvalue)
    monkeypatch.setattr(scheme.EigenTable, "delta", no_eigenvalue)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_with(base, lambda c: c.update(tail_check_depth=depth))))
    assert run(["verify", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "certificate INVALID (1 failures):"
    assert err[1].startswith("  tail_check_depth mismatch: stored ") and len(err) == 2
    assert err[1].endswith(", expected 25") and len(err[1]) < 100


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c["a_star"].update(decimal="1.5"),
        lambda c: c.update(paper_baseline_decimal="3.14"),
    ],
    ids=["a_star_decimal", "paper_baseline_decimal"],
)
def test_verify_rederives_decimals(tmp_path, edit):
    out = tmp_path / "c.json"
    assert run(["certify", "-d", "8", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    edit(cert)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    assert run(["verify", str(bad)]) == 1


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


def test_scan_json_layout(tmp_path):
    out = tmp_path / "scan.json"
    assert run(["scan", "--d-min", "7", "--d-max", "8", "--jobs", "1", "--format", "json",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2)
    assert [r["d"] for r in json.loads(text)] == [7, 8]


def test_scan_parallel_matches_serial(tmp_path):
    # two worker processes give the rows one process gives, wall time aside
    rows = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"scan{jobs}.json"
        assert run(["scan", "--d-min", "7", "--d-max", "10", "--jobs", jobs, "--format", "json",
                    "--out", str(out)]) == 0
        rows[jobs] = json.loads(out.read_text())
        for r in rows[jobs]:
            assert r.pop("wall_ms") >= 0
    assert [r["d"] for r in rows["1"]] == [7, 8, 9, 10]
    assert rows["2"] == rows["1"]


def test_scan_starts_no_more_workers_than_dimensions(tmp_path, monkeypatch):
    # the pool starts every worker at once, so --jobs is capped at the number
    # of dimensions, and one dimension runs in process
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    out = tmp_path / "scan.json"
    assert run(["scan", "--d-min", "7", "--d-max", "8", "--jobs", "1000", "--format", "json",
                "--out", str(out)]) == 0
    assert [r["d"] for r in json.loads(out.read_text())] == [7, 8]
    assert run(["scan", "--d-min", "7", "--d-max", "7", "--out", str(out)]) == 0
    assert sizes == [2]


def test_scan_empty_range():
    assert run(["scan", "--d-min", "9", "--d-max", "8"]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["scan", "--d-min", "1", "--d-max", "2"])
    assert exc.value.code == 2


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
    assert report["values"][0]["decimal"] == "0.0"


def test_eigen_nonmagical_positive(tmp_path):
    out = tmp_path / "eig.json"
    assert run(["eigen", "-d", "5", "--kernel", "nonmagical", "--m", "2",
                "--k", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert not report["values"][0]["decimal"].startswith("-")


def test_eigen_json_layout(tmp_path):
    out = tmp_path / "eig.json"
    assert run(["eigen", "-d", "8", "--kernel", "nonmagical", "--m", "2", "--k", "0,1,2",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2)


@pytest.mark.parametrize(
    "argv, unused",
    [(["--kernel", "magical", "-d", "9", "--m", "2", "--k", "0,2"], "DeltaRun"),
     (["--kernel", "nonmagical", "-d", "9", "--m", "2", "--k", "2"], "DeltaRun"),
     (["--kernel", "delta", "-d", "9", "--k", "0,2"], "MomentTable")],
    ids=["magical", "nonmagical", "delta"],
)
def test_eigen_builds_only_what_its_kernel_reads(tmp_path, monkeypatch, argv, unused):
    # a polynomial kernel never reads the delta run (K_d, eight Gamma values),
    # and the delta kernel never reads the moment table
    built = []
    cls = getattr(scheme, unused)
    monkeypatch.setattr(scheme, unused, lambda d: built.append(d) or cls(d))
    assert run(["eigen", *argv, "--out", str(tmp_path / "eig.json")]) == 0
    assert built == []


# SHA-256 of stdout and the exit code of `sharpcert eigen --kernel <line>`,
# structural zeros among them, up to d = 64, and at d = 48 the ladder's
# largest knobs (m = 2N - 1 and 2N - 2, k up to 2N + 1), where the
# closed-form start term at lo = m meets the quadrature
EIGEN_PINS = json.loads((Path(__file__).resolve().parent / "pins_eigen.json").read_text())


@pytest.mark.parametrize("line", list(EIGEN_PINS))
def test_eigen_output_pinned(line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run(["eigen", "--kernel", *line.split()])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert {"sha256": digest, "exit": rc} == EIGEN_PINS[line]


def test_eigen_validation():
    # --m required for a polynomial kernel reads two arguments: the command checks it
    assert run(["eigen", "-d", "5", "--kernel", "magical", "--k", "2"]) == 2
    # a single bad value fails its argparse type
    for argv in (["--kernel", "magical", "--m", "-1", "--k", "2"],
                 ["--kernel", "delta", "--k", "x"],
                 ["--kernel", "delta", "--k", "2", "--precision-bits", "32"]):
        with pytest.raises(SystemExit) as exc:
            run(["eigen", "-d", "5", *argv])
        assert exc.value.code == 2


def test_eigen_exact_rounding_enclosure(tmp_path):
    # both quadrature pieces are exact here, so the enclosure is only a
    # rounding interval; the exact value must still be accepted
    out = tmp_path / "eig.json"
    assert run(["eigen", "--kernel", "magical", "-d", "23", "--m", "4", "--k", "0",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["values"][0]["contained"]


def test_eigen_decimal_independent_of_precision(tmp_path):
    # the enclosures run at 128 bits; the decimal is the exact value's
    # correctly rounded 30-digit rendering, not the enclosure's
    out = tmp_path / "eig.json"
    assert run(["eigen", "--kernel", "delta", "-d", "9", "--k", "2", "--out", str(out)]) == 0
    row = json.loads(out.read_text())["values"][0]
    assert row["decimal"] == ExactScalar.from_json(row["exact"]).decimal(30)
    assert row["decimal"] == "1.98212338878467333857646183903"


@pytest.mark.parametrize(
    "argv",
    [
        ["--kernel", "delta", "-d", "9", "--k", "0,2,4"],
        ["--kernel", "magical", "-d", "7", "--m", "2", "--k", "0,1,2"],
        ["--kernel", "nonmagical", "-d", "8", "--m", "2", "--k", "0,2"],
    ],
    ids=["delta", "magical64", "nonmagical200"],
)
def test_eigen_enclosure_strings_bracket_exact_decimal(tmp_path, argv):
    # the enclosures run at 128 bits, and each endpoint is a plain decimal at
    # 40 significant digits; correct rounding is monotone, so the pair
    # brackets the exact value's rendering
    out = tmp_path / "eig.json"
    assert run(["eigen", *argv, "--out", str(out)]) == 0
    for row in json.loads(out.read_text())["values"]:
        lo, hi = row["enclosure"]
        assert not lo.startswith("[") and not hi.startswith("[")
        for end in (lo, hi):
            assert end == "0.0" or len(end.split("e")[0].lstrip("-0.").replace(".", "")) == 40
        exact = ExactScalar.from_json(row["exact"]).decimal(40)
        assert Fraction(lo) <= Fraction(exact) <= Fraction(hi)


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "-d", "3", "--seed", "1"],
        ["certify", "-d", "3", "--format", "json"],
        ["scan", "--d-min", "3", "--d-max", "3", "--seed", "1"],
        ["eigen", "-d", "3", "--kernel", "delta", "--k", "2", "--seed", "1"],
        ["eigen", "-d", "3", "--kernel", "delta", "--k", "2", "--format", "json"],
        ["eigen", "-d", "3", "--kernel", "delta", "--k", "2", "--tail-depth", "3"],
        ["verify", "c.json", "--seed", "1"],
        ["verify", "c.json", "--format", "json"],
        ["verify", "c.json", "--tail-depth", "3"],
        ["verify", "c.json", "--out", "o.json"],
        ["verify", "c.json", "--precision-bits", "128"],
        ["certify", "-d", "3", "--precision-bits", "128"],
        ["scan", "--d-min", "3", "--d-max", "3", "--precision-bits", "128"],
        # the enclosures' precision is a constant
        ["eigen", "-d", "3", "--kernel", "delta", "--k", "2", "--precision-bits", "128"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_removed_flag_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


# a bad single value: its argparse type in cli.COMMANDS rejects it
_BAD_VALUES = {
    "certify_d_low": ["certify", "-d", "2"],
    "eigen_d_low": ["eigen", "--kernel", "delta", "-d", "2", "--k", "2"],
    "scan_d_min_low": ["scan", "--d-min", "2", "--d-max", "4"],
    "delta_m_negative": ["eigen", "--kernel", "delta", "-d", "5", "--m", "-1", "--k", "2"],
    "magical_m_negative": ["eigen", "--kernel", "magical", "-d", "5", "--m", "-1", "--k", "2"],
    "k_not_integer": ["eigen", "--kernel", "delta", "-d", "5", "--k", "x"],
    "k_negative": ["eigen", "--kernel", "delta", "-d", "5", "--k", "0,-2"],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--d-min", "8", "--d-max", "9", "--jobs", "0"],
        ["scan", "--d-min", "8", "--d-max", "9", "--jobs", "-1"],
        ["eigen", "--kernel", "delta", "-d", "5", "--k", "3"],
        ["eigen", "--kernel", "delta", "-d", "5", "--k", "0,2,5"],
        # --tail-depth is gone: a negative depth is now an unknown argument
        ["certify", "-d", "9", "--tail-depth", "-3"],
        ["certify", "-d", "5", "--tail-depth", "-3"],
        ["certify", "-d", "7", "--out", "/nonexistent/dir/c.json"],
        ["eigen", "--kernel", "delta", "-d", "5", "--k", "2", "--out", "/nonexistent/x.json"],
        ["scan", "--d-min", "7", "--d-max", "7", "--out", "/nonexistent/x.csv"],
        # an empty path names no file; it is not stdout
        ["certify", "-d", "7", "--out", ""],
        ["eigen", "--kernel", "delta", "-d", "5", "--k", "2", "--out", ""],
        ["scan", "--d-min", "7", "--d-max", "7", "--out", ""],
        # link.json is a symbolic link into a missing directory
        ["certify", "-d", "7", "--out", "link.json"],
        ["eigen", "--kernel", "delta", "-d", "5", "--k", "2", "--out", "link.json"],
        ["scan", "--d-min", "7", "--d-max", "7", "--out", "link.json"],
        # a path ending in a separator names a directory, here a missing one
        ["certify", "-d", "7", "--out", "newdir/"],
        ["eigen", "--kernel", "delta", "-d", "5", "--k", "2", "--out", "newdir/"],
        ["scan", "--d-min", "7", "--d-max", "7", "--out", "newdir/"],
        *_BAD_VALUES.values(),
    ],
    ids=["jobs_zero", "jobs_negative", "delta_odd_k", "delta_odd_k_in_list",
         "tail_depth_negative_d9", "tail_depth_negative_d5",
         "certify_out_unwritable", "eigen_out_unwritable", "scan_out_unwritable",
         "certify_out_empty", "eigen_out_empty", "scan_out_empty",
         "certify_out_dangling_link", "eigen_out_dangling_link", "scan_out_dangling_link",
         "certify_out_new_dir", "eigen_out_new_dir", "scan_out_new_dir", *_BAD_VALUES],
)
def test_invalid_value_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    os.symlink("/nonexistent/dir/x.json", "link.json")
    # no work begins: every check runs before a certificate or an eigenvalue table
    monkeypatch.setattr(cli, "compute_a_star", lambda *a: pytest.fail("work began"))
    monkeypatch.setattr(cli, "EigenTable", lambda *a: pytest.fail("work began"))
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert "error: " in err.strip().splitlines()[-1]


@pytest.mark.parametrize("argv", list(_BAD_VALUES.values()), ids=list(_BAD_VALUES))
def test_single_value_checks_are_argparse_types(capsys, argv):
    # main hands the line to argparse, whose parser alone rejects it, no command body run
    assert cli._read_plain(argv) is None
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith(f"sharpcert {argv[0]}: error: argument ")


@pytest.mark.parametrize(
    "argv, code",
    [
        # help, --flag=value, attached values and abbreviations go to argparse
        (["certify", "--dimension=9", "--out=c.json"], 0),
        (["certify", "-d9", "--o", "c.json"], 0),
        (["scan", "--d-min=7", "--d-max", "8", "--form", "json"], 0),
        (["verify", "--help"], 0),
        # the shift tolerance and the tail depth are constants, not flags
        (["certify", "-d", "9", "--tail-depth", "3"], 2),
        (["certify", "-d", "9", "--tail-depth", "-3"], 2),
        (["certify", "-d", "9", "--tol", "1/1000"], 2),
        (["certify"], 2),
        # an empty path, or one ending in a separator, names no file
        (["certify", "-d", "7", "--out", ""], 2),
        (["certify", "-d", "7", "--out", "newdir/"], 2),
    ],
    ids=["equals_form", "attached_and_abbreviated", "scan_equals_and_abbreviated", "verify_help",
         "tail_depth", "tail_depth_negative", "tolerance", "certify_bare", "out_empty",
         "out_new_dir"],
)
def test_command_line_in_a_child_process(tmp_path, argv, code):
    # main as the interpreter runs it: its exit code, nothing on stdout and no
    # traceback on failure, and a written certificate that verify accepts
    proc = subprocess.run([*_CLI, *argv], cwd=tmp_path, capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stdout == "" and "Traceback" not in proc.stderr
    elif (tmp_path / "c.json").exists():
        assert run(["verify", str(tmp_path / "c.json")]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "-d", "7", "--tol", "1/1000"],
        ["scan", "--d-min", "7", "--d-max", "7", "--tol", "1/1000"],
    ],
    ids=["certify", "scan"],
)
def test_tolerance_flag_is_gone(tmp_path, monkeypatch, capsys, argv):
    # the shift tolerance is a constant: --tol is an unknown flag, caught
    # before any work, with nothing on stdout and no file written
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --tol 1/1000" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", [["--tail-depth", "3"], ["--tail", "3"], ["--tail-depth=3"],
                                  ["--tail-depth", "-3"]],
                         ids=["spelled", "abbreviated", "equals", "negative"])
@pytest.mark.parametrize("command", [["certify", "-d", "9"], ["scan", "--d-min", "5", "--d-max", "7"]],
                         ids=["certify", "scan"])
def test_tail_depth_flag_is_gone(tmp_path, monkeypatch, capsys, command, flag):
    # the tail depth is a constant: any spelling of --tail-depth is an
    # unknown argument, caught before any work, with nothing written
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "compute_a_star", lambda *a: pytest.fail("work began"))
    with pytest.raises(SystemExit) as exc:
        run([*command, *flag, "--out", "c.json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert list(tmp_path.iterdir()) == []


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


_WRITERS = [
    ["certify", "-d", "9"],
    ["scan", "--d-min", "7", "--d-max", "8", "--jobs", "1"],
    ["eigen", "--kernel", "delta", "-d", "5", "--k", "2"],
]


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("argv", _WRITERS, ids=lambda argv: argv[0])
def test_failed_write_exits_2(tmp_path, monkeypatch, capsys, argv, to_file):
    # one line naming what could not be written, no traceback, and certify
    # stops before its self-check
    monkeypatch.setattr(cli, "mismatches", lambda *a: pytest.fail("self-check ran"))
    if to_file:
        out = str(tmp_path / "out.txt")
        argv = [*argv, "--out", out]
        monkeypatch.setattr(cli, "open", lambda *a, **k: _FullDisk(), raising=False)
    else:
        out = "stdout"
        monkeypatch.setattr(sys, "stdout", _FullDisk())
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"


def test_verify_failed_result_line_exits_2(tmp_path, monkeypatch, capsys):
    path = tmp_path / "c9.json"
    assert run(["certify", "-d", "9", "--out", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", _FullDisk())
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["certify", "verify"])
def test_closed_stdout_exits_2_quietly(tmp_path, command, unbuffered):
    # a pipe with no reader: the write fails, and so would the interpreter's
    # last flush of a small buffered line, were stdout left on the pipe
    cert = tmp_path / "c9.json"
    assert run(["certify", "-d", "9", "--out", str(cert)]) == 0
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = ["certify", "-d", "9"] if command == "certify" else ["verify", str(cert)]
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([*_CLI, *argv], stdout=w, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write stdout: Broken pipe\n")
    if command == "certify":
        # a reader that takes one byte and closes the pipe: d = 30's file is
        # larger than the pipe holds, so the rest of it cannot be written,
        # though unbuffered the first write to the pipe takes part of it
        proc = subprocess.Popen([*_CLI, "certify", "-d", "30"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        assert len(os.read(proc.stdout.fileno(), 1)) == 1
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (2, "error: cannot write stdout: Broken pipe\n")


@pytest.mark.parametrize("argv", _WRITERS, ids=lambda argv: argv[0])
def test_out_refuses_an_existing_file_it_cannot_write(tmp_path, monkeypatch, capsys, argv):
    # os.access is patched: a process running as root may write any file
    target = tmp_path / "kept.json"
    target.write_text("kept")
    target.chmod(0o444)
    real_access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode, **kw: (
        real_access(p, mode, **kw) and not (os.fspath(p) == str(target) and mode & os.W_OK)))
    monkeypatch.setattr(cli, "compute_a_star", lambda *a, **k: pytest.fail("work began"))
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", str(target)])
    assert exc.value.code == 2
    assert f"cannot write {str(target)!r}" in capsys.readouterr().err
    assert target.read_text() == "kept"


def _outcome(entry, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _full_parser_main(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "-d", "2"],
        ["scan", "--d-min", "5", "--d-max", "4"],
        ["eigen", "--kernel", "delta", "-d", "5", "--k", "2"],
        ["verify", "c.json", "extra"],
        ["certify", "-d", "9", "--out", ""],
        ["scan", "--help"],
        [],
        ["--help"],
        ["bogus"],
        ["certify"],
        ["verify"],
        ["certify", "-h"],
        ["verify", "--help"],
        ["eigen", "--help"],
        ["certify", "--dimension=2"],
        ["certify", "-d2", "--o", "c.json"],
        ["certify", "--dim", "2", "--out=c.json"],
        ["certify", "-d", "-3"],
        ["certify", "-d", "2", "-d", "3"],
        ["certify", "-d", "2", "--", "x"],
        ["certify", "-d", " 2"],
        ["certify", "-d", "\u0662"],
        ["certify", "-d", ""],
        ["scan", "--d-min", "3", "--d-max", "3", "--jobs", "0"],
        ["scan", "--d-min=5", "--d-m", "4"],
        ["scan", "--d-min", "5", "--d-max", "4", "--d-max", "3"],
        ["scan", "--d-min", "5", "--d-max", "4", "--format", "xml"],
        ["eigen", "-d", "3", "--kernel", "gauss", "--k", "2"],
        ["eigen", "-d", "3", "--kernel", "delta", "--k", "2"],
        ["verify", "--", "-c.json"],
        ["verify", "-c.json"],
    ],
    ids=["certify", "scan", "eigen", "verify_unrecognized", "certify_invalid", "scan_help",
         "empty", "help", "unknown_command", "certify_bare", "verify_bare", "certify_h",
         "verify_help", "eigen_help", "equals_form", "attached_and_abbreviated", "abbreviation",
         "negative_value", "repeated_flag", "double_dash", "space_before_digit",
         "unicode_digit", "empty_value", "jobs_zero", "ambiguous_abbreviation",
         "repeated_value", "bad_format", "bad_kernel", "precision_too_low",
         "verify_double_dash", "verify_dash_path"],
)
def test_one_parser_per_command_matches_full_parser(argv):
    # main reads plain command lines itself and hands the rest to argparse;
    # either way its exit code, output and error text are those of the full
    # parser's
    assert _outcome(main, argv) == _outcome(_full_parser_main, argv)


# one entry per required argument: its spellings; () is verify's positional
_REQUIRED = {
    "certify": (("-d", "--dimension"),),
    "scan": (("--d-min",), ("--d-max",)),
    "eigen": (("-d", "--dimension"), ("--kernel",), ("--k",)),
    "verify": ((),),
}
_OPTIONAL = {
    "certify": ("--out",),
    "scan": ("--jobs", "--out", "--format"),
    "eigen": ("--m", "--out"),
    "verify": (),
}
_MOSTLY = st.sampled_from((True, True, True, False))
_WRITABLE = str(Path(tempfile.gettempdir()) / "sharpcert-unwritten.json")
_INTS = ("3", "9", "0", "64", " 7", "\u0663", "\u096d")
# values each flag accepts, mostly
_GOOD = {"-d": _INTS, "--dimension": _INTS, "--d-min": _INTS, "--d-max": _INTS, "--jobs": _INTS,
         "--m": _INTS,
         "--out": ("c.json", "-c.json", _WRITABLE),
         "--format": ("json", "csv"), "--kernel": ("delta", "magical", "nonmagical"),
         "--k": ("0,2", "3", " 4,\u0666", "x", "0,-2", "-x")}
_VALUES = ("3", "1", "10", "-3", "-1/2", "1/2", "1/0", "x", "", " 7", "\u0663", "json", "xml",
           "delta", "gauss", "c.json", "-c.json", _WRITABLE, "/nonexistent/x.json")
_ODD = ("-h", "--help", "--", "-", "-d9", "--dimension=9", "--dim", "--jobs=2", "--out=o.json",
        "--d-m", "--form", "--kernel=delta", "--bogus", "-x", "--format", "--k",
        "--m", "--jobs", "--out", "-d")


@st.composite
def _part(draw, spellings):
    """A flag among ``spellings`` and a value, usually one it accepts; or a lone positional."""
    if not spellings:
        return (draw(st.sampled_from(_VALUES)),)
    flag = draw(st.sampled_from(spellings))
    return flag, draw(st.sampled_from(_GOOD[flag] if draw(_MOSTLY) else _VALUES))


@st.composite
def _command_lines(draw):
    """A subcommand and its arguments in any order, usually plain, with odd tokens mixed in."""
    command = draw(st.sampled_from(sorted(_REQUIRED)))
    parts = [draw(_part(s)) for s in _REQUIRED[command] if draw(_MOSTLY)]
    if _OPTIONAL[command]:
        parts += draw(st.lists(_part(_OPTIONAL[command]), max_size=3, unique_by=lambda p: p[0]))
    if parts and not draw(_MOSTLY):  # a flag again, or a positional
        parts.append(draw(_part(draw(st.sampled_from(parts))[:-1])))
    if not draw(st.integers(0, 2)):
        parts += draw(st.lists(_part(()) | st.sampled_from(_ODD).map(lambda t: (t,)),
                               min_size=1, max_size=2))
    parts = draw(st.permutations(parts))
    return [command, *(t for part in parts for t in part)]


@given(_command_lines())
@example(["certify", "-d", "3", "--out", "-c.json"])  # argparse: expected one argument
@example(["eigen", "-d", "3", "--kernel", "delta", "--k"])
@example(["certify", "-d", "x", "--dimension", "3"])  # argparse converts both
@example(["scan", "--d-min", "3", "--d-max", "3", "--jobs", "-1"])
@settings(max_examples=400, deadline=None)
def test_plain_reader_matches_argparse(argv):
    args = cli._read_plain(argv)
    if args is None:
        return
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            expected = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"read {argv} that argparse rejects: {err.getvalue()}")
    assert vars(args) == vars(expected)


def test_plain_command_lines_build_no_parser(tmp_path, monkeypatch):
    def no_parser():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    out = tmp_path / "c8.json"
    assert main(["certify", "-d", "8", "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert main(["certify", "--dimension", "5", "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


def test_readme_exit_codes_match_cli():
    # README's "Exit codes" table lists exactly the codes cli declares
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("### Exit codes\n\n", 1)[1].split("\n\n", 1)[0]
    listed = [int(row.split("|")[1]) for row in table.splitlines()[2:]]
    assert listed == sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "{certify,scan,eigen,verify}" in text
    for name in ("certify", "scan", "eigen", "verify"):
        assert f"\n    {name} " in text, name


def test_console_script_entry_point():
    # README's module entry point: certify's stdout piped into a cold verify
    certify = subprocess.Popen([*_CLI, "certify", "-d", "7"], stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, env=_child_env())
    verify = subprocess.run([*_CLI, "verify", "/dev/stdin"], stdin=certify.stdout,
                            capture_output=True, text=True, env=_child_env())
    certify.stdout.close()
    assert certify.wait() == 0
    assert (verify.returncode, verify.stdout) == (0, "certificate valid: d=7, a_star = 0.0\n")


def test_cli_import_does_not_load_numpy(tmp_path):
    # the package runs on the standard library alone, `eigen`'s quadrature
    # oracle included: mpmath and numpy serve only the tests, and
    # concurrent.futures only `scan`'s workers; dataclasses (which loads
    # inspect) serves nothing; argparse (with gettext and locale) serves only
    # help and errors, and csv only `scan`.  d = 8 also renders the paper
    # baseline.
    cert = str(tmp_path / "c8.json")
    script = (
        "import sys\n"
        "from sharpcert.cli import main\n"
        f"assert main(['certify', '-d', '8', '--out', {cert!r}]) == 0\n"
        f"assert main(['verify', {cert!r}]) == 0\n"
        "assert main(['eigen', '--kernel', 'delta', '-d', '9', '--k', '2']) == 0\n"
        "print(sorted({'mpmath', 'numpy', 'concurrent.futures', 'dataclasses', 'inspect',\n"
        "              'argparse', 'gettext', 'locale', 'csv'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_benchmark_hooks_find_what_they_wrap(tmp_path):
    # perfbench/layers.py wraps package functions by name (cli.main,
    # cli.compute_a_star, cli.rat, ...): a rename must fail here
    root = Path(__file__).resolve().parents[1]
    src = str(Path(sharpcert.__file__).resolve().parents[1])
    cert = str(tmp_path / "c8.json")
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'perfbench')!r}, {src!r}]\n"
        "import layers\n"
        "from sharpcert import cli\n"
        "tracer = layers.Tracer()\n"
        "layers.install(tracer)\n"
        f"assert cli.main(['certify', '-d', '8', '--out', {cert!r}]) == 0\n"
        f"assert cli.main(['verify', {cert!r}]) == 0\n"
        "print(sorted(tracer.summary()['calls']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    calls = proc.stdout.strip().splitlines()[-1]
    for span in ("cli", "scheme.compute", "scheme.verify", "scheme.json", "polys.nonneg"):
        assert repr(span) in calls, span
