"""Command-line driver: certify, scan, eigen, verify.

Every subcommand's flags are declared once, in ``COMMANDS``.  A plain
command line (the subcommand, then exact flag spellings with their values
and positionals, each value accepted) is read straight from that table;
help, ``--flag=value``, abbreviations and every error go to the argparse
parser ``build_parser`` builds from the same table, so their texts and exit
codes are argparse's.  argparse is imported only then.

Exit codes are part of the contract: 0 all checks pass, 1 a check failed,
2 invalid input or malformed file.  Decimal output is presentation-only;
certificates always carry the exact serialization alongside.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from types import SimpleNamespace

from .backend import rat  # noqa: F401  unused; perfbench/layers.py wraps cli.rat by name
from .errors import MalformedCertificate, PrecisionExhausted, SchemeInfeasible
from .scalars import ExactScalar
from .scheme import Certificate, EigenTable, compute_a_star, mismatches, verify_certificate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2

DEFAULT_PRECISION = 128


def _type_error(message: str):
    """argparse's error for a rejected value; argparse is imported only here."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _int_at_least(lo: int, name: str):
    """An argparse type: an integer >= lo, else exit 2 with a message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise _type_error(f"not an integer: {text!r}") from exc
        if value < lo:
            raise _type_error(f"{name} must be >= {lo}")
        return value

    return parse


def _out_path(text: str) -> str:
    """An argparse type: a file path that can be written, checked before any work.

    An empty path, or one ending in a separator, names no file
    (``realpath("")`` is the working directory, and ``realpath("new/")``
    drops the separator).
    A symbolic link is followed to the file it names, so a link into a
    missing directory is refused too, and an existing file must be writable.
    """
    parent = os.path.dirname(os.path.realpath(text))
    if (not os.path.basename(text) or os.path.isdir(text) or not os.path.isdir(parent)
            or not os.access(parent, os.W_OK)
            or os.path.exists(text) and not os.access(text, os.W_OK)):
        raise _type_error(f"cannot write {text!r}")
    return text


def _grade_str(grade) -> str:
    return f"sqrt2^{grade[0]}*pi^({grade[1]}/2)"


def _write_out(text: str, path: str | None) -> bool:
    """Write ``text`` to ``path``, or as a line to stdout; False, said in one line, if that fails."""
    try:
        if path:
            with open(path, "w") as fh:
                fh.write(text)
        else:
            line = text if text.endswith("\n") else text + "\n"
            out = getattr(sys.stdout, "buffer", None)
            if out is None:  # a text-only stdout, such as a StringIO
                sys.stdout.write(line)
            else:  # unbuffered (python -u), a write to the raw file may take part of the bytes
                sys.stdout.flush()
                data = memoryview(line.encode(sys.stdout.encoding, sys.stdout.errors))
                while data:
                    data = data[out.write(data):]
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write {path or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        if not path:  # the exit's own flush of stdout goes to the null device, not to an error
            with contextlib.suppress(OSError, ValueError):  # a stdout with no file descriptor
                fd = sys.stdout.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return False
    return True


def cmd_certify(args) -> int:
    if args.dimension < 3:
        print("error: dimension must be >= 3", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        cert = compute_a_star(args.dimension)
    except SchemeInfeasible as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = cert.to_text(timestamp)
    if not _write_out(text, args.out):
        return EXIT_INVALID_INPUT
    # self-check: the certificate as written reads back as the one computed,
    # field by field; a verify process re-derives it from d alone
    try:
        failures = mismatches("", Certificate.from_text(text), cert)
    except MalformedCertificate as exc:
        failures = [f"written certificate does not load: {exc}"]
    ok = not failures
    n_eig = sum(len(w.eig) for w in cert.weights) + len(cert.delta_eigen_evidence)
    print(f"d={cert.dimension}  N={cert.N}", file=sys.stderr)
    print(f"a_star = {cert.a_star_decimal}  [{cert.a_star!r}]", file=sys.stderr)
    if cert.paper_baseline_decimal:
        print(f"baseline decimal = {cert.paper_baseline_decimal}", file=sys.stderr)
    print(
        f"checks: sum-condition {'ok' if cert.sum_condition_ok else 'FAIL'}, "
        f"{n_eig} eigenvalue signs, {len(cert.weights)} nonnegativity certificates, "
        f"read-back {'ok' if ok else 'FAIL'}",
        file=sys.stderr,
    )
    for f in failures:
        print(f"  FAIL: {f}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _scan_one(d: int):
    t0 = time.monotonic()
    try:
        cert = compute_a_star(d)
        status, a_dec, grade, n = "ok", cert.a_star_decimal, _grade_str(cert.a_star.grade), cert.N
    except SchemeInfeasible as exc:
        status, a_dec, grade, n = f"failed: {exc}", "", "", -1
    wall_ms = int((time.monotonic() - t0) * 1000)
    return {"d": d, "N": n, "a_star_decimal": a_dec, "grade": grade,
            "status": status, "wall_ms": wall_ms}


def cmd_scan(args) -> int:
    if args.d_min < 3 or args.d_max < args.d_min:
        print("error: need 3 <= d-min <= d-max", file=sys.stderr)
        return EXIT_INVALID_INPUT
    dims = list(range(args.d_min, args.d_max + 1))
    # the pool starts all its workers at once, so never more than there are dimensions
    jobs = min(args.jobs or os.cpu_count() or 1, len(dims))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only scan runs workers

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_scan_one, dims))
    else:
        rows = [_scan_one(d) for d in dims]
    rows.sort(key=lambda r: r["d"])
    fields = ["d", "N", "a_star_decimal", "grade", "status", "wall_ms"]
    if args.format == "json":
        text = json.dumps(rows, indent=2)
    else:
        import csv  # only a CSV scan needs it

        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)
        text = buf.getvalue()
    if not _write_out(text, args.out):
        return EXIT_INVALID_INPUT
    return EXIT_OK if all(r["status"] == "ok" for r in rows) else EXIT_CHECK_FAILED


def cmd_eigen(args) -> int:
    from .oracle import quad_eigen_enclosure  # only this command needs the quadrature oracle

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
    if any(k < 0 or (args.kernel == "delta" and k % 2 == 1) for k in ks):
        print("error: k must be >= 0, and even for the delta kernel", file=sys.stderr)
        return EXIT_INVALID_INPUT
    d = args.dimension
    table = EigenTable(d)
    # the table holds rational parts; the grade is fixed by the kernel family
    if args.kernel == "delta":
        desc, grade = "delta", table.delta_run.constant.grade
        exact_of = table.delta
    else:
        desc, grade = table.kernel(2 * args.m, args.kernel), table.moments.eigen_grade
        exact_of = lambda k: table.get(args.kernel, 2 * args.m, k)

    rows = []
    violation = False
    digits = args.precision_bits * 3 // 10 + 2  # the enclosure's precision, plus two digits
    for k in ks:
        try:
            exact = ExactScalar(exact_of(k), *grade)
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
                "decimal": exact.decimal(30),
                "enclosure": [ExactScalar(end).decimal(digits) for end in (enclosure.lo, enclosure.hi)],
                "contained": contained,
            }
        )
    if not _write_out(json.dumps({"dimension": d, "kernel": args.kernel, "m": args.m,
                                  "values": rows}, indent=2), args.out):
        return EXIT_INVALID_INPUT
    for r in rows:
        flag = "" if r["contained"] else "  ENCLOSURE VIOLATION"
        print(f"k={r['k']:>3}  {r['decimal']}{flag}", file=sys.stderr)
    return EXIT_CHECK_FAILED if violation else EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.certificate, encoding="utf-8") as fh:
            cert = Certificate.from_text(fh.read())
    except (OSError, ValueError, RecursionError, MalformedCertificate) as exc:
        # ValueError covers bad JSON, bad UTF-8 and integers past int()'s digit limit
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    ok, failures = verify_certificate(cert)
    if ok:
        line = f"certificate valid: d={cert.dimension}, a_star = {cert.a_star_decimal}"
        return EXIT_OK if _write_out(line, None) else EXIT_INVALID_INPUT
    print(f"certificate INVALID ({len(failures)} failures):", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    return EXIT_CHECK_FAILED


# Every subcommand's arguments, declared once: main reads a plain command
# line straight from here, and build_parser builds argparse from the same
# entries for everything else.  name -> (help, handler, arguments); an
# argument is (spellings, dest, type, default, choices, required, help), and
# one with no spellings is a positional.
_OUT = (("--out",), "out", _out_path, None, None, False, "output file (default stdout)")
_DIMENSION = (("-d", "--dimension"), "dimension", int, None, None, True, None)

COMMANDS = {
    "certify": ("run the full scheme for one dimension", cmd_certify, (_DIMENSION, _OUT)),
    "scan": ("certify a range of dimensions (parallel)", cmd_scan, (
        (("--d-min",), "d_min", int, None, None, True, None),
        (("--d-max",), "d_max", int, None, None, True, None),
        (("--jobs",), "jobs", _int_at_least(1, "jobs"), None, None, False,
         "worker processes (default: one per core, min 1; at most one per dimension)"),
        _OUT,
        (("--format",), "format", None, "csv", ("json", "csv"), False, None),
    )),
    "eigen": ("exact eigenvalues with quadrature enclosures", cmd_eigen, (
        _DIMENSION,
        (("--kernel",), "kernel", None, None, ("delta", "magical", "nonmagical"), True, None),
        (("--m",), "m", int, None, None, False, "half-degree of a polynomial kernel"),
        (("--k",), "k", None, None, None, True, "comma-separated harmonic degrees"),
        (("--precision-bits",), "precision_bits", _int_at_least(64, "precision-bits"),
         DEFAULT_PRECISION, None, False,
         "working precision of the quadrature enclosures (default 128, min 64); "
         "decimals are always correctly rounded to 30 digits"),
        _OUT,
    )),
    "verify": ("re-verify a certificate JSON file", cmd_verify,
               (((), "certificate", None, None, None, True, "path to the certificate"),)),
}


def build_parser():
    """The argparse parser for every subcommand, built from COMMANDS."""
    import argparse  # only help, unusual spellings and errors need a parser

    p = argparse.ArgumentParser(
        prog="sharpcert",
        description="Exact certification of the sharp-constant threshold for "
        "degenerate-Gaussian extension inequalities on spheres.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_, func, arguments) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for spellings, dest, type_, default, choices, required, arg_help in arguments:
            if spellings:
                sp.add_argument(*spellings, dest=dest, type=type_, default=default,
                                choices=choices, required=required, help=arg_help)
            else:
                sp.add_argument(dest, help=arg_help)
        sp.set_defaults(func=func)
    return p


def _read_plain(argv):
    """The namespace argparse would return for a plain command line, else None.

    Plain means: a known subcommand first, then positionals and exact flag
    spellings each followed by a value that does not start with "-"; no flag
    twice; the right number of positionals; every required flag present;
    every value accepted by its type and choices.  Everything else (help,
    "--flag=value", abbreviations, "-d9", "--", values starting with "-",
    every error) is left to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, arguments = COMMANDS[argv[0]]
    flags = {spelling: arg[1] for arg in arguments for spelling in arg[0]}
    given, positionals = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        dest, text = flags.get(token), next(tokens, "-")
        if dest is None or dest in given or text.startswith("-"):
            return None
        given[dest] = text
    slots = [arg[1] for arg in arguments if not arg[0]]
    if len(positionals) != len(slots):
        return None
    given.update(zip(slots, positionals))
    args = {"command": argv[0], "func": func}
    for _, dest, type_, default, choices, required, _ in arguments:
        text = given.get(dest)
        if text is None:
            if required:
                return None
            args[dest] = default
            continue
        try:
            value = text if type_ is None else type_(text)
        except Exception:  # argparse calls the type again and reports (or raises) it
            return None
        if choices is not None and value not in choices:
            return None
        args[dest] = value
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv) or build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
