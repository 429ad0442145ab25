import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sharpcert import scalars, scheme, specfun
from sharpcert.backend import rat
from sharpcert.errors import MalformedCertificate, SchemeInfeasible
from sharpcert.polys import nonneg_on
from sharpcert.scalars import ZERO, ExactScalar, beta_half_int, sphere_surface
from sharpcert.scheme import (
    MAGICAL,
    NONMAGICAL,
    SHIFT_TOL,
    TAIL_DEPTH,
    Certificate,
    EigCheck,
    EigenTable,
    WeightSpec,
    build_weights,
    check_sum_condition,
    compute_a_star,
    ell_star,
    mismatches,
    verify_certificate,
    weight_eigen,
)


def exact_delta(table, k):
    """lambda_delta(k) as an ExactScalar: the table's rational part times K_d's grade."""
    return ExactScalar(table.delta(k), *table.delta_run.constant.grade)


def exact_eigen(table, identity, two_m, k):
    """A polynomial-kernel eigenvalue as an ExactScalar: the table's rational part times its grade."""
    return ExactScalar(table.get(identity, two_m, k), *table.moments.eigen_grade)


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
                assert table.mag(2 * m, k) == 0
            if k > m:
                assert table.nonmag(2 * m, k) == 0


def test_eigen_table_positive_knobs():
    table = EigenTable(9)
    # the entries the scheme divides by must be strictly positive (a grade's
    # radical factor is positive, so the rational part carries the sign)
    for ell in (1, 2, 3):
        assert table.mag(4 * ell - 2, 2 * ell) > 0
        assert table.nonmag(4 * ell, 2 * ell) > 0


def test_delta_negative_d3():
    table = EigenTable(3)
    for ell in range(1, 11):
        assert table.delta(2 * ell) < 0


def _eigen_of(w: WeightSpec, table: EigenTable, ell: int) -> ExactScalar:
    """``weight_eigen`` of a made weight, from its coefficients' rational parts, with K_d's grade."""
    coeffs = {q: c.coeff for q, c in w.coeffs.items()}
    value = weight_eigen(table, w.identity, w.has_delta, coeffs, ell)
    return ExactScalar(value, *table.delta_run.constant.grade)


def test_weight_eigen_trivial():
    table = EigenTable(9)
    for ell in (1, 2, 5):
        assert weight_eigen(table, NONMAGICAL, False, {}, ell) == 0


def test_h1_tail_is_delta_eigenvalue():
    d = 9
    weights, table, _ = build_weights(d)
    h1 = weights[0]
    N = ell_star(d)
    for ell in range(N + 1, N + 4):
        assert _eigen_of(h1, table, ell) == exact_delta(table, 2 * ell)


def test_last_weight_vanishes():
    weights, table, _ = build_weights(10)
    last = weights[-1]
    for ell in range(1, 8):
        assert _eigen_of(last, table, ell).is_zero()


def test_d8_shape():
    weights, _, _ = build_weights(8)
    assert [w.top_degree for w in weights] == [6, 6, 4, 2]
    assert [w.identity for w in weights] == [
        "magical", "nonmagical", "magical", "nonmagical"
    ]
    assert [w.has_delta for w in weights] == [True, False, False, False]


def test_leading_transfer():
    # each weight n >= 2 leads with minus the earlier weights' sum at its top
    # degree; weight 1 has no coefficient at its own top degree, and each one
    # it has (degree 2 at d = 9, 12; degree 6 at d = 17, 24) is carried to
    # the weight that leads at that degree.  Every coefficient has the ladder's
    # grade, so the earlier weights' sum is one of rational parts
    for d in (9, 12, 17, 24):
        weights, _, grade = build_weights(d)
        assert {c.grade for w in weights for c in w.coeffs.values()} == {grade}
        for i, w in enumerate(weights[1:], start=1):
            earlier = sum(v.coeffs[w.top_degree].coeff for v in weights[:i] if w.top_degree in v.coeffs)
            assert w.coeffs.get(w.top_degree, ZERO) == ExactScalar(-earlier, *grade)
        leading_at = {w.top_degree: w for w in weights[1:]}
        assert weights[0].coeffs
        for q, c in weights[0].coeffs.items():
            assert c.sign() < 0 and leading_at[q].coeffs[q].sign() > 0


def test_coefficient_above_top_degree_rejected(monkeypatch):
    # the zeros listed past each cutoff rest on this degree bound
    with pytest.raises(SchemeInfeasible, match="above the top degree"):
        scheme._check_coefficients(2, 10, {12: rat(-1)})
    # the sign check is exact: positive exactly at the top degree of weights
    # n >= 2, negative elsewhere, and a zero coefficient is neither
    scheme._check_coefficients(2, 10, {10: rat(1), 8: rat(-1)})
    scheme._check_coefficients(1, 10, {8: rat(-1)})
    for n, coeffs in ((2, {10: rat(-1)}), (2, {8: rat(1)}), (1, {10: rat(1)}),
                      (2, {8: rat(0)}), (2, {10: rat(0)}), (1, {8: rat(0)})):
        with pytest.raises(SchemeInfeasible, match="wrong sign"):
            scheme._check_coefficients(n, 10, coeffs)
    # a ladder whose knob lands above a weight's top degree stops there
    knob = scheme._knob_degree
    monkeypatch.setattr(scheme, "_knob_degree", lambda identity, ell: knob(identity, ell) + 4)
    with pytest.raises(SchemeInfeasible, match="above the top degree"):
        build_weights(9)


@pytest.mark.parametrize("key", [(MAGICAL, 10, 6), (NONMAGICAL, 8, 4)], ids=["leading", "later"])
@pytest.mark.parametrize("value", [rat(0), rat(-1, 7)], ids=["zero", "negative"])
def test_ladder_rejects_a_knob_eigenvalue_not_positive(monkeypatch, key, value):
    # at d = 9 (N = 3) the ladder's first knob is (magical, 4N - 2, 2N), the
    # leading magical eigenvalue; (nonmagical, 8, 4) is weight 2's first knob.
    # Each is the denominator of a clipped ratio and must be positive
    cert = compute_a_star(9)
    get = EigenTable.get
    monkeypatch.setattr(EigenTable, "get",
                        lambda self, *args: value if args == key else get(self, *args))
    with pytest.raises(SchemeInfeasible, match="not positive"):
        build_weights(9)
    ok, failures = verify_certificate(cert)
    assert not ok
    assert failures[0].startswith("reconstruction failed") and "not positive" in failures[0], failures


@pytest.mark.parametrize("d", [9, 24, 48])
def test_an_empty_weight_is_never_laddered(monkeypatch, d):
    # a weight n >= 2 with no dictated top coefficient has no delta and no
    # coefficient, so it is zero at every ell: only the others run a ladder,
    # one weight_eigen call per ell up to the cutoff
    calls = []
    real = scheme.weight_eigen

    def counted(table, identity, has_delta, coeffs, ell):
        calls.append(has_delta or bool(coeffs))
        return real(table, identity, has_delta, coeffs, ell)

    monkeypatch.setattr(scheme, "weight_eigen", counted)
    weights, _, _ = build_weights(d)
    assert all(calls)
    assert len(calls) == sum(len(w.eig) - TAIL_DEPTH for w in weights if w.has_delta or w.coeffs)
    assert len(calls) == {9: 3, 24: 12, 48: 42}[d]


def test_ladder_entries_past_cutoff():
    # weight 1 lists lambda_delta(2 ell), every other weight zero, and each
    # entry equals a full evaluation of the weight's eigenvalue
    weights, table, _ = build_weights(12)
    for w in weights:
        for e in w.eig:
            assert e.value == _eigen_of(w, table, e.ell), (w.n, e.ell)
        cutoff = len(w.eig) - TAIL_DEPTH
        tail = [e.value for e in w.eig[cutoff:]]
        assert tail == ([exact_delta(table, 2 * ell) for ell in range(cutoff + 1, len(w.eig) + 1)]
                        if w.has_delta else [ExactScalar(0)] * TAIL_DEPTH)


def test_deep_copied_certificate_verifies():
    cert = compute_a_star(9)
    twin = copy.deepcopy(cert)
    assert verify_certificate(twin) == (True, [])
    assert twin.to_text("t") == cert.to_text("t")


@pytest.mark.parametrize("edit", ["coefficient", "eig"])
def test_verify_rejects_in_memory_edit_of_certify_result(edit):
    # certify's ladder is kept for its self-check; the weights it hands out
    # must own their containers, or this edit would reach the kept ladder:
    # the rebuild would carry it, and so would every later certificate of d
    cert = compute_a_star(9)
    w = next(w for w in cert.weights if w.coeffs)
    if edit == "coefficient":
        q = max(w.coeffs)
        w.coeffs[q] = w.coeffs[q] * 2
    else:
        w.eig[0] = EigCheck(1, ExactScalar(-1), True)
    ok, failures = verify_certificate(cert)
    assert not ok
    assert any("mismatch" in f for f in failures), failures
    ok, failures = verify_certificate(compute_a_star(9))
    assert ok, failures


def test_sum_condition_polynomial_identity():
    for d in (8, 11):
        weights, _, grade = build_weights(d)
        assert check_sum_condition(weights)
        total = [rat(0)] * (2 * ell_star(d))
        for w in weights:
            for i, c in enumerate(w.polynomial_part(include_constant=False)):
                total[i] += c
        assert not any(total)


def _grades_from_definitions(d):
    """(G_P, G_K), derived here from their definitions, not read off the tables.

    G_P is the grade of |S^{d-1}|^2 F(d, 0), F(d, 0) = 2^{d-2} B((d-1)/2,
    (d-1)/2) |S^{d-2}|, and G_K that of K_d = C_d |S^{d-2}| 2^{3(d-2)/2}
    B(d-2, d/2), C_d = (3/4) 2^{(d-2)/2} |S^{d-1}| / (2^{2d-5} B((d-1)/2, (d-1)/2)).
    """
    surface, beta = sphere_surface(d), beta_half_int(d - 1, d - 1)
    g_p = (surface * surface * beta * 2 ** (d - 2) * sphere_surface(d - 1)).grade
    g_k = (ExactScalar(1, d - 2) * surface / beta * sphere_surface(d - 1)
           * ExactScalar(1, 3 * (d - 2)) * beta_half_int(2 * (d - 2), d)).grade
    return g_p, g_k


def test_coefficient_grades_uniform():
    # the tables hold rational parts and the ladder attaches grades it never
    # checks; this is the fact it rests on: the two per-d grades the tables
    # hold are those of the definitions, and every value made carries them
    for d in [*range(7, 49), 64, 128]:
        g_p, g_k = _grades_from_definitions(d)
        assert g_p[0] == 0 and g_k[0] == 0, d  # no sqrt 2: a ratio of rational parts is the coefficient's
        weights, table, grade = build_weights(d)
        assert table.moments.eigen_grade == g_p, d
        assert table.delta_run.constant.grade == g_k, d
        assert grade == (g_k[0] - g_p[0], g_k[1] - g_p[1]), d
        for w in weights:
            for c in w.coeffs.values():
                assert c.grade == grade, (d, w.n)
            for e in w.eig:
                if not e.value.is_zero():
                    assert e.value.grade == g_k, (d, w.n, e.ell)
        # the grade is the delta/polynomial eigenvalue ratio grade
        ratio = exact_delta(table, 2) / exact_eigen(table, MAGICAL, 2, 2)
        assert grade == ratio.grade, d
    # d <= 6 runs no ladder: every delta evidence entry carries K_d's grade
    for d in range(3, 7):
        _, g_k = _grades_from_definitions(d)
        evidence = compute_a_star(d).delta_eigen_evidence
        assert any(not e.value.is_zero() for e in evidence), d
        for e in evidence:
            assert e.value.is_zero() or e.value.grade == g_k, (d, e.ell)


def test_collapse_at_d7():
    cert = compute_a_star(7)
    assert cert.a_star.is_zero()
    for w in cert.weights:
        assert all(c.is_zero() for c in w.coeffs.values())
        assert w.c0 == 0


def test_prior_results_dimensions():
    for d in (3, 4, 5, 6):
        cert = compute_a_star(d)
        assert cert.a_star.is_zero()
        assert cert.weights == []
        assert any("prior results" in n for n in cert.notes)
        assert len(cert.delta_eigen_evidence) == ell_star(d) + TAIL_DEPTH
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


def _assert_written_as_json_dumps(cert):
    # layout: json.dumps(indent=2) of the parsed text; content: the reader
    # takes the text back to the certificate written, field by field
    timestamp = "2026-10-19T12:00:00Z"
    text, stamped = cert.to_text(), cert.to_text(timestamp)
    for t in (text, stamped):
        assert t == json.dumps(json.loads(t), indent=2)
        assert mismatches("", Certificate.from_text(t), cert) == []
    assert list(json.loads(stamped).items()) == [*json.loads(text).items(),
                                                 ("timestamp", timestamp)]
    assert cert.to_json() == json.loads(text)


@pytest.mark.parametrize("d", range(3, 49))
def test_to_text_is_json_dumps_indent_2(d):
    _assert_written_as_json_dumps(compute_a_star(d))


def test_to_text_with_empty_coefficient_lists():
    cert = compute_a_star(7)
    assert any(not w.coeffs for w in cert.weights)
    _assert_written_as_json_dumps(cert)


def test_to_text_of_free_form_fields():
    obj = compute_a_star(9).to_json()
    odd = 'quote " backslash \\ tab \t nul \x00 del \x7f \u00e9\u2028\U0001f600'
    obj["generator"] = {"name": odd, "nested": {"list": [1, None, True, odd], "empty": {}},
                        odd: []}
    obj["notes"] = [odd, "", "\n"]
    obj["weights"][0]["identity"] = obj["a_star"]["decimal"] = odd
    _assert_written_as_json_dumps(Certificate.from_json(obj))


def test_zero_values_nested_in_generator_are_written_back():
    # the reader takes a zero value or entry anywhere for ZERO or an EigCheck;
    # inside the unchecked generator they are plain JSON again once loaded
    cert = compute_a_star(9)
    zero = {"rational": "0", "sqrt2": 0, "pi_half": 0}
    cert.generator = {"name": "x", "extra": zero,
                      "row": [{"ell": 1, "value": zero, "nonpositive": True}]}
    text = cert.to_text()
    loaded = Certificate.from_text(text)
    ok, failures = verify_certificate(loaded)
    assert ok, failures
    assert loaded.to_text() == text
    assert loaded.to_json()["generator"] == cert.generator
    assert json.loads(json.dumps(loaded.to_json())) == json.loads(text)


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


@pytest.mark.parametrize("d", [7, 9])
def test_larger_c0_still_verifies(d):
    # at d = 7 the certified a* is 0 and carries no grade; the raised one
    # takes the coefficient grade of the ladder
    cert = compute_a_star(d)
    bumped = json.loads(json.dumps(cert.to_json()))
    total = rat(0)
    for w in bumped["weights"]:
        c0 = rat(w["c0"]) + 1
        w["c0"] = f"{c0.numerator}/{c0.denominator}"
        total += c0
    new_star = ExactScalar(total, *build_weights(d)[2])
    bumped["a_star"] = {"rational_times_grade": new_star.to_json(), "decimal": new_star.decimal(30)}
    ok, failures = verify_certificate(Certificate.from_json(bumped))
    assert ok, failures


def test_lowered_c0_breaks_adm():
    cert = compute_a_star(9)
    lowered = json.loads(json.dumps(cert.to_json()))
    hit = False
    total = rat(0)
    for w in lowered["weights"]:
        c0 = rat(w["c0"])
        if not hit and c0 > 0:
            c0 = c0 - 2 * SHIFT_TOL
            w["c0"] = f"{c0.numerator}/{c0.denominator}"
            hit = True
        total += c0
    assert hit
    new_star = ExactScalar(total, *cert.a_star.grade)
    lowered["a_star"]["rational_times_grade"] = new_star.to_json()
    ok, failures = verify_certificate(Certificate.from_json(lowered))
    assert not ok
    assert any("admissibility" in f.lower() for f in failures)


def test_every_sign_table_runs_to_the_tail_depth():
    # the depth is a constant: certify takes d alone, and each table it
    # writes runs TAIL_DEPTH entries past its cutoff, the depth it records
    for d in (5, 9):
        with pytest.raises(TypeError):
            compute_a_star(d, tail_depth=3)
    with pytest.raises(TypeError):
        build_weights(9, 3)
    d5, d9 = compute_a_star(5), compute_a_star(9)
    assert d5.tail_check_depth == d9.tail_check_depth == TAIL_DEPTH == 25
    assert [e.ell for e in d5.delta_eigen_evidence] == list(range(1, ell_star(5) + TAIL_DEPTH + 1))
    cutoffs = [cutoff for *_, cutoff in scheme._shapes(ell_star(9))]
    assert [[e.ell for e in w.eig] for w in d9.weights] == [
        list(range(1, cutoff + TAIL_DEPTH + 1)) for cutoff in cutoffs]


def test_malformed_certificate():
    with pytest.raises(MalformedCertificate):
        Certificate.from_json({"version": 2})
    with pytest.raises(MalformedCertificate):
        Certificate.from_json({"version": 1, "dimension": 9})


def test_adm_margin_is_valid_bound():
    cert = compute_a_star(10)
    for w in cert.weights:
        shifted = w.polynomial_part(include_constant=True)
        shifted[0] -= w.adm_margin
        assert nonneg_on(shifted, 0, 16).holds


def test_negative_adm_margin_must_be_certified_bound():
    # at d = 17 one weight's certified minimum is rounded below zero, so the
    # stored margin is negative; verify accepts exactly that bound
    base = compute_a_star(17).to_json()
    i = next(i for i, w in enumerate(base["weights"]) if w["adm_margin"].startswith("-"))
    ok, failures = verify_certificate(Certificate.from_json(copy.deepcopy(base)))
    assert ok, failures
    for margin, valid in (("0", True), ("-5", False), ("1/2", False)):
        tampered = copy.deepcopy(base)
        tampered["weights"][i]["adm_margin"] = margin
        ok, failures = verify_certificate(Certificate.from_json(tampered))
        assert ok == valid, (margin, failures)
        assert valid or any("admissibility" in f for f in failures)


@pytest.mark.parametrize("d", [9, 17, 24])
def test_verify_does_no_shift_work(monkeypatch, d):
    # the verifier rebuilds only the coefficient ladder; admissibility is
    # one Sturm check per weight at the stored constant term
    cert = compute_a_star(d)
    calls = {"minimal_shift": 0, "nonneg_on": 0}

    def spy(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(scheme, name, spy(name, getattr(scheme, name)))
    ok, failures = verify_certificate(cert)
    assert ok, failures
    assert calls == {"minimal_shift": 0, "nonneg_on": len(cert.weights)}


def _eigen_work(monkeypatch, fn):
    """(F_{2j} from the Hahn recurrence, funk_hecke_eigen calls, eigen_delta_weight calls) in ``fn``."""
    runs, calls = [], {"funk_hecke_eigen": 0, "eigen_delta_weight": 0}
    init = specfun.DeltaRun.__init__

    def recording_init(self, d):
        runs.append(self)
        init(self, d)

    def spy(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    with monkeypatch.context() as m:
        m.setattr(specfun.DeltaRun, "__init__", recording_init)
        for name in calls:
            m.setattr(scheme, name, spy(name, getattr(scheme, name)))
        fn()
    return sum(len(run.even) - 1 for run in runs), calls["funk_hecke_eigen"], calls["eigen_delta_weight"]


def test_verify_work_does_not_depend_on_history(monkeypatch):
    # in one process, a verify right after a certify of the same d computes
    # what a verify after another d computes: no per-d state outlives its call
    cert = compute_a_star(24)
    compute_a_star(23)
    first = _eigen_work(monkeypatch, lambda: verify_certificate(cert))
    certify = _eigen_work(monkeypatch, lambda: compute_a_star(24))
    after = _eigen_work(monkeypatch, lambda: verify_certificate(cert))
    assert after == first == certify
    assert first[0] == ell_star(24) + 25  # lambda_delta(2 ell) up to ell = N + depth


def test_d5_builds_no_moment_table(monkeypatch):
    # d <= 6 reads only the delta run, whose K_d takes eight Gamma values;
    # the moment table's |S^{d-1}|^2 and F(d, 0) would take six more
    calls = 0
    gamma = scalars.gamma_half_int

    def counting(two_a):
        nonlocal calls
        calls += 1
        return gamma(two_a)

    monkeypatch.setattr(scalars, "gamma_half_int", counting)
    cert = compute_a_star(5)
    assert calls == 8
    assert verify_certificate(cert) == (True, [])
    assert calls == 16


def test_reading_and_building_share_zero_entries(monkeypatch):
    # a zero sign-table entry costs no new scalar when read, and one object
    # per ell is shared by every table, on both sides
    text = compute_a_star(24).to_text()
    obj = json.loads(text)
    values = [cd["value"] for w in obj["weights"] for cd in w["coefficients"]]
    values += [e["value"] for w in obj["weights"] for e in w["eig"]]
    values.append(obj["a_star"]["rational_times_grade"])
    created = 0
    init = ExactScalar.__init__

    def counting_init(self, *args):
        nonlocal created
        created += 1
        init(self, *args)

    monkeypatch.setattr(ExactScalar, "__init__", counting_init)
    cert = Certificate.from_text(text)
    monkeypatch.undo()
    assert 0 < created <= sum(v["rational"] != "0" for v in values)
    weights, _, _ = build_weights(24)
    for tables in ([w.eig for w in cert.weights], [w.eig for w in weights]):
        zeros = {}
        for e in (e for eig in tables for e in eig if e.value.is_zero()):
            zeros.setdefault(e.ell, set()).add(id(e))
        assert len(zeros) > 500 / len(tables)
        assert all(len(ids) == 1 for ids in zeros.values())


class _Pairs(list):
    """A JSON object as its (key, value) pairs, in order, repeated keys kept."""


def _dump(v) -> str:
    if isinstance(v, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(x)}" for k, x in v) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(map(_dump, v)) + "]"
    return json.dumps(v)


D9_TEXT = compute_a_star(9).to_text()
# (weight, entry) of every zero entry of the d = 9 sign tables
_D9_ZEROS = [(i, j) for i, w in enumerate(json.loads(D9_TEXT)["weights"])
             for j, e in enumerate(w["eig"]) if e["value"]["rational"] == "0"]
_FIELD_VALUES = st.one_of(
    st.sampled_from([0, 1, 2, -1, 0.0, 1.0, True, False, None, "0", "-0", "00", "1", "x"]),
    st.builds(list), st.builds(_Pairs))


def _d9_entry(root, i, j):
    return dict(dict(root)["weights"][i])["eig"][j]


@st.composite
def _edited_d9_texts(draw):
    """The d = 9 certificate text with type swaps, reorderings, extra, repeated or
    dropped keys in some zero entries or their values."""
    root = json.loads(D9_TEXT, object_pairs_hook=_Pairs)
    for _ in range(draw(st.integers(1, 3))):
        entry = _d9_entry(root, *draw(st.sampled_from(_D9_ZEROS)))
        t = draw(st.sampled_from([entry] + [v for _, v in entry if isinstance(v, _Pairs)]))
        kind = draw(st.sampled_from(["set", "order", "extra", "repeat", "drop"] if t else ["extra"]))
        at = draw(st.integers(0, len(t) - 1)) if t else 0
        if kind == "set":
            t[at] = (t[at][0], draw(_FIELD_VALUES))
        elif kind == "order":
            t[:] = draw(st.permutations(t))
        elif kind == "drop":
            del t[at]
        else:
            key = draw(st.sampled_from(["x", "ell"])) if kind == "extra" else t[at][0]
            t.insert(draw(st.integers(0, len(t))), (key, draw(_FIELD_VALUES)))
    return _dump(root)


def _d9_text_with(field, value):
    """The d = 9 text with one field of weight 2's last (zero) entry or its value set."""
    root = json.loads(D9_TEXT, object_pairs_hook=_Pairs)
    entry = _d9_entry(root, 1, -1)
    for t in (entry, dict(entry)["value"]):
        t[:] = [(k, value if k == field else v) for k, v in t]
    return _dump(root)


def _plain_reader(text):
    """A reference reader: json.loads with a dict for every object, then from_json."""

    def plain(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            raise MalformedCertificate("repeated key")
        return obj

    return Certificate.from_json(json.loads(text, object_pairs_hook=plain))


@given(_edited_d9_texts())
@example(D9_TEXT)
@example(_d9_text_with("sqrt2", False))
@example(_d9_text_with("nonpositive", 1))
@example(_d9_text_with("ell", True))
@settings(max_examples=200, deadline=None)
def test_reader_matches_a_plain_reader(text):
    read = []
    for reader in (Certificate.from_text, _plain_reader):
        try:
            read.append(reader(text))
        except MalformedCertificate:
            read.append(None)
    cert, want = read
    assert (cert is None) == (want is None)
    if cert is not None:
        assert verify_certificate(cert) == verify_certificate(want)
        for w, rw in zip(cert.weights, want.weights, strict=True):
            assert vars(w) == vars(rw)
