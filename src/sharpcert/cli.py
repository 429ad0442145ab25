"""Command-line driver: certify, scan, eigen, verify.

Exit codes are part of the contract: 0 all checks pass, 1 a check failed,
2 invalid input or malformed file, 3 internal grade mismatch.  Decimal
output is presentation-only; certificates always carry the exact
serialization alongside.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .backend import rat
from .errors import GradeMismatch, MalformedCertificate, PrecisionExhausted, SchemeInfeasible
from .oracle import quad_eigen_enclosure
from .scheme import Certificate, EigenTable, compute_a_star, verify_certificate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_GRADE_MISMATCH = 3

DEFAULT_PRECISION = 128


def _parse_tol(text: str):
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            tol = rat(int(num), int(den))
        else:
            from fractions import Fraction

            tol = rat(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc
    if tol <= 0:
        raise argparse.ArgumentTypeError("tol must be positive")
    return tol


def _precision_bits(text: str) -> int:
    try:
        bits = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if bits < 64:
        raise argparse.ArgumentTypeError("precision-bits must be >= 64")
    return bits


def _grade_str(grade) -> str:
    return f"sqrt2^{grade[0]}*pi^({grade[1]}/2)"


def _write_out(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_certify(args) -> int:
    if args.dimension < 3:
        print("error: dimension must be >= 3", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        cert = compute_a_star(
            args.dimension,
            tol=args.tol,
            tail_depth=args.tail_depth,
            precision_bits=args.precision_bits,
        )
    except GradeMismatch as exc:
        print(f"grade mismatch: {exc}", file=sys.stderr)
        return EXIT_GRADE_MISMATCH
    except (SchemeInfeasible, PrecisionExhausted) as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    ok, failures = verify_certificate(cert)
    payload = cert.to_json()
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    _write_out(json.dumps(payload, indent=2), args.out)
    n_eig = sum(len(w.eig) for w in cert.weights)
    print(f"d={cert.dimension}  N={cert.N}", file=sys.stderr)
    print(f"a_star = {cert.a_star_decimal}  [{cert.a_star!r}]", file=sys.stderr)
    if cert.paper_baseline_decimal:
        print(f"baseline decimal = {cert.paper_baseline_decimal}", file=sys.stderr)
    print(
        f"checks: sum-condition {'ok' if cert.sum_condition_ok else 'FAIL'}, "
        f"{n_eig} eigenvalue signs, {len(cert.weights)} nonnegativity certificates, "
        f"re-verification {'ok' if ok else 'FAIL'}",
        file=sys.stderr,
    )
    for f in failures:
        print(f"  FAIL: {f}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _scan_one(task):
    d, tol_str, tail_depth, precision_bits = task
    t0 = time.monotonic()
    try:
        cert = compute_a_star(
            d, tol=_parse_tol(tol_str), tail_depth=tail_depth, precision_bits=precision_bits
        )
        status = "ok"
        a_dec = cert.a_star_decimal
        grade = _grade_str(cert.a_star.grade)
        n = cert.N
    except GradeMismatch as exc:
        status, a_dec, grade, n = f"grade-mismatch: {exc}", "", "", -1
    except (SchemeInfeasible, PrecisionExhausted) as exc:
        status, a_dec, grade, n = f"failed: {exc}", "", "", -1
    wall_ms = int((time.monotonic() - t0) * 1000)
    return {"d": d, "N": n, "a_star_decimal": a_dec, "grade": grade,
            "status": status, "wall_ms": wall_ms}


def cmd_scan(args) -> int:
    if args.d_min < 3 or args.d_max < args.d_min:
        print("error: need 3 <= d-min <= d-max", file=sys.stderr)
        return EXIT_INVALID_INPUT
    dims = list(range(args.d_min, args.d_max + 1))
    tasks = [(d, str(args.tol), args.tail_depth, args.precision_bits) for d in dims]
    if len(dims) > 1 and args.jobs != 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_scan_one, tasks))
    else:
        rows = [_scan_one(t) for t in tasks]
    rows.sort(key=lambda r: r["d"])
    fields = ["d", "N", "a_star_decimal", "grade", "status", "wall_ms"]
    if args.format == "json":
        _write_out(json.dumps(rows, indent=2), args.out)
    else:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)
        _write_out(buf.getvalue(), args.out)
    return EXIT_OK if all(r["status"] == "ok" for r in rows) else EXIT_CHECK_FAILED


def cmd_eigen(args) -> int:
    if args.dimension < 3:
        print("error: dimension must be >= 3", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.kernel != "delta" and (args.m is None or args.m < 0):
        print("error: --m >= 0 is required for polynomial kernels", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        ks = [int(k) for k in args.k.split(",")]
    except ValueError:
        print(f"error: bad k list {args.k!r}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if any(k < 0 for k in ks):
        print("error: k must be >= 0", file=sys.stderr)
        return EXIT_INVALID_INPUT
    d = args.dimension
    table = EigenTable(d)
    if args.kernel == "delta":
        desc = "delta"
        exact_of = table.delta
    else:
        desc = table.kernel(2 * args.m, args.kernel)
        exact_of = lambda k: table.get(args.kernel, 2 * args.m, k)

    rows = []
    violation = False
    for k in ks:
        try:
            exact = exact_of(k)
            enclosure = quad_eigen_enclosure(desc, k, d, args.precision_bits)
        except PrecisionExhausted as exc:
            print(f"k={k}: enclosure unavailable ({exc})", file=sys.stderr)
            violation = True
            continue
        contained = enclosure.contains(exact)
        violation = violation or not contained
        rows.append(
            {
                "k": k,
                "exact": exact.to_json(),
                "decimal": exact.decimal(30, args.precision_bits) if not exact.is_zero() else "0",
                "enclosure": [str(enclosure.lo), str(enclosure.hi)],
                "contained": contained,
            }
        )
    _write_out(json.dumps({"dimension": d, "kernel": args.kernel, "m": args.m,
                           "values": rows}, indent=2), args.out)
    for r in rows:
        flag = "" if r["contained"] else "  ENCLOSURE VIOLATION"
        print(f"k={r['k']:>3}  {r['decimal']}{flag}", file=sys.stderr)
    return EXIT_CHECK_FAILED if violation else EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.certificate) as fh:
            data = json.load(fh)
        cert = Certificate.from_json(data)
    except (OSError, json.JSONDecodeError, MalformedCertificate) as exc:
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        ok, failures = verify_certificate(cert)
    except GradeMismatch as exc:
        print(f"grade mismatch: {exc}", file=sys.stderr)
        return EXIT_GRADE_MISMATCH
    if ok:
        print(f"certificate valid: d={cert.dimension}, a_star = {cert.a_star_decimal}")
        return EXIT_OK
    print(f"certificate INVALID ({len(failures)} failures):", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    return EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sharpcert",
        description="Exact certification of the sharp-constant threshold for "
        "degenerate-Gaussian extension inequalities on spheres.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def precision_and_out(sp):
        sp.add_argument("--precision-bits", type=_precision_bits, default=DEFAULT_PRECISION,
                        help="working precision for decimals and enclosures (default 128, min 64)")
        sp.add_argument("--out", help="output file (default stdout)")

    def scheme_options(sp):
        sp.add_argument("--tol", type=_parse_tol, default=rat(1, 10**6),
                        help="rational tolerance for the constant-term shift (default 1/1000000)")
        sp.add_argument("--tail-depth", type=int, default=25,
                        help="extra eigenvalue signs checked past each cutoff (default 25)")
        precision_and_out(sp)

    sp = sub.add_parser("certify", help="run the full scheme for one dimension")
    sp.add_argument("-d", "--dimension", type=int, required=True)
    scheme_options(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("scan", help="certify a range of dimensions (parallel)")
    sp.add_argument("--d-min", type=int, required=True)
    sp.add_argument("--d-max", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: one per core)")
    scheme_options(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("eigen", help="exact eigenvalues with quadrature enclosures")
    sp.add_argument("-d", "--dimension", type=int, required=True)
    sp.add_argument("--kernel", choices=("delta", "magical", "nonmagical"), required=True)
    sp.add_argument("--m", type=int, default=None, help="half-degree of a polynomial kernel")
    sp.add_argument("--k", required=True, help="comma-separated harmonic degrees")
    precision_and_out(sp)
    sp.set_defaults(func=cmd_eigen)

    sp = sub.add_parser("verify", help="re-verify a certificate JSON file")
    sp.add_argument("certificate", help="path to the certificate")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GradeMismatch as exc:
        print(f"grade mismatch: {exc}", file=sys.stderr)
        return EXIT_GRADE_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
