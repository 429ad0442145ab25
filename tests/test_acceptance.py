"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live); the assertions carry the same verdicts.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

from sharpcert.backend import rat
from sharpcert.kernels import MomentTable, magical_kernel_poly, nonmagical_kernel_poly
from sharpcert.oracle import mc_check_moment, quad_eigen_enclosure
from sharpcert.polys import DOMAIN_U, ExactPoly, nonneg_on
from sharpcert.scalars import ExactScalar, sphere_surface
from sharpcert.scheme import (
    Certificate,
    EigenTable,
    compute_a_star,
    ell_star,
    verify_certificate,
)


# SHA-256 of json.dumps(compute_a_star(d).to_json(), indent=2) for d = 3..24;
# refactors must leave these bytes unchanged.
PINS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text())


def _report(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num:>2} — {desc}", file=sys.stderr)
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_kernel_eigenvalue_sign_pattern():
    ok = True
    for d in range(3, 17):
        table = EigenTable(d)
        for m in range(11):
            for k in range(0, 2 * m + 7, 2):
                lam = table.mag(2 * m, k)
                mu = table.nonmag(2 * m, k)
                if k > m + 1 and not lam.is_zero():
                    ok = False
                if k == m + 1 and (m + 1) % 2 == 0 and lam.sign() != 1:
                    ok = False
                if k > m and not mu.is_zero():
                    ok = False
                if k == m and m % 2 == 0 and mu.sign() != 1:
                    ok = False
    _report(1, "exact eigenvalue sign/zero pattern, d in 3..16, m in 0..10", ok)


def test_criterion_02_delta_eigen_tail_nonpositive():
    ok = True
    for d in range(3, 21):
        table = EigenTable(d)
        N = ell_star(d)
        for ell in range(N + 1, N + 26):
            if table.delta(2 * ell).sign() > 0:
                ok = False
    _report(2, "delta eigenvalues nonpositive past the cutoff, d in 3..20", ok)


def test_criterion_03_d3_all_strictly_negative():
    table = EigenTable(3)
    ok = all(table.delta(2 * ell).sign() == -1 for ell in range(1, 26))
    _report(3, "d=3 delta eigenvalues strictly negative for ell in 1..25", ok)


def test_criterion_04_d7_collapses_to_zero():
    cert = compute_a_star(7)
    ok = cert.a_star.is_zero() and len(cert.weights) == 4
    ok = ok and all(c.is_zero() for w in cert.weights for c in w.coeffs.values())
    _report(4, "d=7 scheme collapses to a_star = 0 exactly", ok)


def test_criterion_05_d8_certificate_with_baseline():
    cert = compute_a_star(8)
    ok = cert.a_star.sign() == 1
    ok = ok and cert.paper_baseline_decimal is not None
    baseline = ExactScalar(rat(2**25, 5**2 * 7**2 * 11), 0, 4)
    ok = ok and cert.paper_baseline_decimal == baseline.decimal(30, 128)
    ok = ok and cert.a_star_decimal != ""
    _report(5, "d=8 certifies a_star > 0 and records the baseline decimal", ok)


def test_criterion_06_full_range_certification():
    ok = True
    two_tol = rat(2, 10**6)
    for d in range(3, 25):
        cert = compute_a_star(d, tol=rat(1, 10**6))
        digest = hashlib.sha256(json.dumps(cert.to_json(), indent=2).encode()).hexdigest()
        if digest != PINS[str(d)]:
            print(f"d={d}: certificate bytes differ from the pin", file=sys.stderr)
            ok = False
        ok = ok and cert.sum_condition_ok
        for w in cert.weights:
            ok = ok and all(e.nonpositive for e in w.eig)
            poly = w.polynomial_part(include_constant=True)
            if not poly.is_zero():
                ok = ok and nonneg_on(poly, 0, 16).holds
            if w.c0 > 0:
                lowered = w.polynomial_part(include_constant=False)
                base = list(lowered.coeffs) if not lowered.is_zero() else [rat(0)]
                base[0] += rat(w.c0) - two_tol
                ok = ok and not nonneg_on(
                    ExactPoly(base, domain=DOMAIN_U), 0, 16
                ).holds
        if not ok:
            break
    _report(6, "d in 3..24 certify with exact checks, minimal constants, pinned bytes", ok)


def test_criterion_07_quadrature_enclosures():
    ok = True
    for d in (3, 5, 8):
        table = EigenTable(d)
        mt = MomentTable(d)
        for m in range(5):
            mag = magical_kernel_poly(mt, m)
            non = nonmagical_kernel_poly(mt, m)
            for k in range(0, 9, 2):
                if not quad_eigen_enclosure(mag, k, d).contains(table.mag(2 * m, k)):
                    ok = False
                if not quad_eigen_enclosure(non, k, d).contains(table.nonmag(2 * m, k)):
                    ok = False
        for ell in range(1, 5):
            if not quad_eigen_enclosure("delta", 2 * ell, d).contains(table.delta(2 * ell)):
                ok = False
    _report(7, "exact eigenvalues inside 128-bit quadrature enclosures", ok)


def test_criterion_08_monte_carlo_moments():
    ok = True
    for d in (3, 4, 6):
        for J in range(4):
            for K in range(0, 7, 2):
                _, agrees = mc_check_moment(d, J, K, 10**6, seed=d * 1009 + J * 31 + K)
                ok = ok and agrees
    _report(8, "Monte Carlo moments within 4 standard errors at 10^6 samples", ok)


def test_criterion_09_closed_form_anchors():
    from sharpcert.kernels import sigma_conv_constant

    ok = sigma_conv_constant(3) == ExactScalar(2, 0, 2)
    for d in range(3, 13):
        s2 = sphere_surface(d) * sphere_surface(d)
        mt = MomentTable(d)
        k0 = magical_kernel_poly(mt, 0)
        ok = ok and k0 == ExactPoly.from_scalars([s2, s2 * rat(1, 2)])
        for m in range(9):
            lead = magical_kernel_poly(mt, m).leading_scalar()
            ok = ok and lead == s2 * ExactScalar(rat(2) ** (m - 1))
    _report(9, "closed-form anchors: convolution constant, base kernel, leading terms", ok)


def test_criterion_10_round_trip_and_tamper():
    cert = compute_a_star(9)
    blob = cert.to_json()
    ok, _ = verify_certificate(Certificate.from_json(json.loads(json.dumps(blob))))

    def tampered(mutate):
        c = json.loads(json.dumps(blob))
        mutate(c)
        valid, _ = verify_certificate(Certificate.from_json(c))
        return not valid

    def bump_coeff(c):
        for w in c["weights"]:
            if w["coefficients"]:
                w["coefficients"][0]["value"]["rational"] += "7"
                return

    def zero_c0(c):
        for w in c["weights"]:
            if w["c0"] != "0":
                w["c0"] = "0"
                return

    def bend_eig(c):
        c["weights"][0]["eig"][0]["value"]["rational"] = "5/3"

    ok = ok and tampered(bump_coeff) and tampered(zero_c0) and tampered(bend_eig)
    _report(10, "certificate round-trip verifies; single-field tampering detected", ok)


def test_criterion_11_performance_envelope():
    t0 = time.monotonic()
    compute_a_star(24)
    t_single = time.monotonic() - t0
    t0 = time.monotonic()
    for d in range(8, 25):
        compute_a_star(d)
    t_scan = time.monotonic() - t0
    ok = t_single < 60.0 and t_scan < 600.0
    _report(
        11,
        f"performance envelope (d=24 in {t_single:.1f}s, scan 8..24 in {t_scan:.1f}s)",
        ok,
    )
