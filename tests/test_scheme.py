import copy
import json

import pytest

from sharpcert.backend import rat
from sharpcert.errors import MalformedCertificate
from sharpcert.polys import DOMAIN_U, ExactPoly, nonneg_on
from sharpcert.scalars import ExactScalar
from sharpcert.scheme import (
    Certificate,
    EigenTable,
    WeightSpec,
    build_weights,
    check_sum_condition,
    compute_a_star,
    ell_star,
    verify_certificate,
    weight_eigen,
)


def test_ell_star():
    assert ell_star(8) == 2
    assert ell_star(9) == 3
    assert ell_star(3) == 0
    assert ell_star(7) == 2
    with pytest.raises(ValueError):
        ell_star(2)


def test_eigen_table_structural_zeros():
    table = EigenTable(5)
    for m in range(4):
        for k in range(0, 9, 2):
            if k > m + 1:
                assert table.mag(2 * m, k).is_zero()
            if k > m:
                assert table.nonmag(2 * m, k).is_zero()


def test_eigen_table_positive_knobs():
    table = EigenTable(9)
    # the entries the scheme divides by must be strictly positive
    for ell in (1, 2, 3):
        assert table.mag(4 * ell - 2, 2 * ell).sign() == 1
        assert table.nonmag(4 * ell, 2 * ell).sign() == 1


def test_delta_negative_d3():
    table = EigenTable(3)
    for ell in range(1, 11):
        assert table.delta(2 * ell).sign() == -1


def test_weight_eigen_trivial():
    table = EigenTable(9)
    empty = WeightSpec(2, "nonmagical", False, 10, {}, rat(0), (0, 0))
    for ell in (1, 2, 5):
        assert weight_eigen(empty, table, ell).is_zero()


def test_h1_tail_is_delta_eigenvalue():
    d = 9
    weights, table, _ = build_weights(d, rat(1, 10**6), tail_depth=5)
    h1 = weights[0]
    N = ell_star(d)
    for ell in range(N + 1, N + 4):
        assert weight_eigen(h1, table, ell) == table.delta(2 * ell)


def test_last_weight_vanishes():
    weights, table, _ = build_weights(10, rat(1, 10**6), tail_depth=3)
    last = weights[-1]
    for ell in range(1, 8):
        assert weight_eigen(last, table, ell).is_zero()


def test_d8_shape():
    weights, _, _ = build_weights(8, rat(1, 10**6), tail_depth=2)
    assert [w.top_degree for w in weights] == [6, 6, 4, 2]
    assert [w.identity for w in weights] == [
        "magical", "nonmagical", "magical", "nonmagical"
    ]
    assert [w.has_delta for w in weights] == [True, False, False, False]


def test_leading_transfer():
    for d in (9, 12):
        weights, _, _ = build_weights(d, rat(1, 10**6), tail_depth=0)
        h1, h2 = weights[0], weights[1]
        top = h1.top_degree
        assert h2.top_degree == top
        assert h2.coeffs.get(top, ExactScalar(0)) == h1.coeffs.get(top, ExactScalar(0))


def test_sum_condition_polynomial_identity():
    for d in (8, 11):
        weights, _, grade = build_weights(d, rat(1, 10**6), tail_depth=0)
        assert check_sum_condition(weights)
        total = ExactPoly([], domain=DOMAIN_U)
        for w in weights:
            total = total + w.polynomial_part(include_constant=False)
        assert total.is_zero()


def test_coefficient_grades_uniform():
    weights, table, grade = build_weights(9, rat(1, 10**6), tail_depth=0)
    for w in weights:
        for c in w.coeffs.values():
            if not c.is_zero():
                assert c.grade == grade
    # the grade is the delta/polynomial eigenvalue ratio grade
    ratio = table.delta(2) / table.mag(2, 2)
    assert grade == ratio.grade


def test_collapse_at_d7():
    cert = compute_a_star(7)
    assert cert.a_star.is_zero()
    for w in cert.weights:
        assert all(c.is_zero() for c in w.coeffs.values())
        assert w.c0 == 0


def test_prior_results_dimensions():
    for d in (3, 4, 5, 6):
        cert = compute_a_star(d, tail_depth=6)
        assert cert.a_star.is_zero()
        assert cert.weights == []
        assert any("prior results" in n for n in cert.notes)
        assert len(cert.delta_eigen_evidence) == ell_star(d) + 6
        ok, failures = verify_certificate(cert)
        assert ok, failures


def test_d8_certificate():
    cert = compute_a_star(8)
    assert cert.a_star.sign() == 1
    assert cert.paper_baseline_decimal is not None
    assert cert.paper_baseline_decimal.startswith("24576.5")
    assert cert.sum_condition_ok
    ok, failures = verify_certificate(cert)
    assert ok, failures


def test_certificate_json_round_trip():
    cert = compute_a_star(9)
    blob = json.dumps(cert.to_json())
    back = Certificate.from_json(json.loads(blob))
    ok, failures = verify_certificate(back)
    assert ok, failures
    assert back.a_star == cert.a_star


def test_tamper_detection():
    cert = compute_a_star(9)
    base = cert.to_json()

    tampered = json.loads(json.dumps(base))
    for w in tampered["weights"]:
        if w["coefficients"]:
            v = w["coefficients"][0]["value"]
            v["rational"] = v["rational"] + "1"
            break
    ok, failures = verify_certificate(Certificate.from_json(tampered))
    assert not ok
    assert any("coefficient" in f or "sum condition" in f for f in failures)

    tampered = json.loads(json.dumps(base))
    for w in tampered["weights"]:
        if w["c0"] != "0":
            w["c0"] = "0"
            break
    ok, failures = verify_certificate(Certificate.from_json(tampered))
    assert not ok
    assert any("admissibility" in f.lower() for f in failures)

    tampered = json.loads(json.dumps(base))
    tampered["weights"][0]["eig"][0]["value"]["rational"] = "1/9"
    ok, failures = verify_certificate(Certificate.from_json(tampered))
    assert not ok
    assert any("eigenvalue" in f for f in failures)


def test_larger_c0_still_verifies():
    cert = compute_a_star(9)
    bumped = json.loads(json.dumps(cert.to_json()))
    total = rat(0)
    for w in bumped["weights"]:
        c0 = rat(w["c0"]) + 1
        w["c0"] = f"{c0.numerator}/{c0.denominator}"
        total += c0
    g = cert.a_star.grade
    new_star = ExactScalar(total, *g)
    bumped["a_star"]["rational_times_grade"] = new_star.to_json()
    ok, failures = verify_certificate(Certificate.from_json(bumped))
    assert ok, failures


def test_lowered_c0_breaks_adm():
    cert = compute_a_star(9, tol=rat(1, 10**6))
    lowered = json.loads(json.dumps(cert.to_json()))
    hit = False
    total = rat(0)
    for w in lowered["weights"]:
        c0 = rat(w["c0"])
        if not hit and c0 > 0:
            c0 = c0 - rat(2, 10**6)
            w["c0"] = f"{c0.numerator}/{c0.denominator}"
            hit = True
        total += c0
    assert hit
    new_star = ExactScalar(total, *cert.a_star.grade)
    lowered["a_star"]["rational_times_grade"] = new_star.to_json()
    ok, failures = verify_certificate(Certificate.from_json(lowered))
    assert not ok
    assert any("admissibility" in f.lower() for f in failures)


def test_malformed_certificate():
    with pytest.raises(MalformedCertificate):
        Certificate.from_json({"version": 2})
    with pytest.raises(MalformedCertificate):
        Certificate.from_json({"version": 1, "dimension": 9})


def test_adm_margin_is_valid_bound():
    cert = compute_a_star(10)
    for w in cert.weights:
        poly = w.polynomial_part(include_constant=True)
        if poly.is_zero():
            continue
        shifted = ExactPoly(
            [poly.coeffs[0] - rat(w.adm_margin)] + list(poly.coeffs[1:]),
            poly.grade,
            poly.domain,
        )
        assert nonneg_on(shifted, 0, 16).holds
