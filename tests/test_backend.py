"""The backend's Rational against fractions.Fraction, the rational type it replaces."""

import ast
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sharpcert
from sharpcert.backend import is_rational, rat, rat_parse

BIG = 2**300
integers = st.integers(-BIG, BIG)
denominators = st.integers(-BIG, BIG).filter(bool)


@st.composite
def operands(draw):
    """(the operand, its value as a Fraction): a Rational, an int or a Fraction."""
    n = draw(integers)
    d = draw(st.sampled_from([1, draw(denominators)]))
    value = Fraction(n, d)
    kind = draw(st.sampled_from(["rational", "int", "fraction"]))
    if kind == "int":
        return value.numerator // value.denominator, Fraction(value.numerator // value.denominator)
    return (rat(n, d) if kind == "rational" else value), value


def _outcome(op, a, b):
    try:
        return op(a, b)
    except ZeroDivisionError:
        return ZeroDivisionError


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                         ids=["add", "sub", "mul", "truediv"])
@given(left=operands(), right=operands())
@settings(max_examples=300, deadline=None)
def test_arithmetic_matches_fraction(op, left, right):
    (a, fa), (b, fb) = left, right
    if not (is_rational(a) or is_rational(b)):
        a = rat(fa)  # at least one side is a Rational
    got, want = _outcome(op, a, b), _outcome(op, fa, fb)
    if want is ZeroDivisionError:
        assert got is ZeroDivisionError
    else:
        assert is_rational(got) and got == want
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@given(n=integers, d=denominators, e=st.integers(-6, 6))
@settings(max_examples=300, deadline=None)
def test_power_and_unary_operations_match_fraction(n, d, e):
    x, f = rat(n, d), Fraction(n, d)
    got, want = _outcome(operator.pow, x, e), _outcome(operator.pow, f, e)
    assert got is want is ZeroDivisionError or (is_rational(got) and got == want)
    for op in (operator.neg, operator.pos, abs):
        assert is_rational(op(x)) and op(x) == op(f)
    assert bool(x) == bool(f) and int(x) == int(f) and float(x) == float(f)
    assert str(x) == str(f) and repr(x) == f"Rational({f.numerator}, {f.denominator})"


COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]


@given(left=operands(), right=operands())
@settings(max_examples=300, deadline=None)
def test_exact_comparisons_match_fraction(left, right):
    (a, fa), (b, fb) = left, right
    a = rat(fa)
    for op in COMPARISONS:
        assert op(a, b) == op(fa, fb) and op(b, a) == op(fb, fa)


floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 2.0**-59]))


@given(n=integers, d=denominators, y=floats)
@settings(max_examples=300, deadline=None)
def test_float_comparisons_match_fraction(n, d, y):
    x, f = rat(n, d), Fraction(n, d)
    for op in COMPARISONS:
        assert op(x, y) == op(f, y) and op(y, x) == op(y, f)


@given(n=integers, d=denominators)
@settings(max_examples=300, deadline=None)
def test_hash_matches_fraction(n, d):
    assert hash(rat(n, d)) == hash(Fraction(n, d))


@pytest.mark.parametrize("k", [1, 2, 3, 2**40])
@pytest.mark.parametrize("n", [1, -1, 7, -2**100])
def test_hash_where_the_denominator_has_no_inverse(n, k):
    d = k * sys.hash_info.modulus  # no inverse modulo the hash modulus
    assert hash(rat(n, d)) == hash(Fraction(n, d))
    assert len({rat(n, d), Fraction(n, d)}) == 1


@pytest.mark.parametrize(
    "call",
    [lambda: rat(3, 0), lambda: rat(0, 0), lambda: rat(1, 2) / 0, lambda: rat(1, 2) / rat(0),
     lambda: 5 / rat(0), lambda: Fraction(1, 3) / rat(0), lambda: rat(0) ** -1,
     lambda: rat("1/0"), lambda: rat(rat(1, 2), rat(0))],
)
def test_zero_division_raises_where_fraction_does(call):
    with pytest.raises(ZeroDivisionError):
        call()


def test_immutable():
    x = rat(3, 4)
    with pytest.raises(AttributeError):
        x.numerator = 5
    with pytest.raises(AttributeError):
        del x.denominator
    with pytest.raises(AttributeError):
        x.other = 1
    assert (x.numerator, x.denominator) == (3, 4)


@pytest.mark.parametrize("arg", ["1e-6", "-3/9", " 7 ", 0.1, Fraction(-4, 6), True])
def test_rat_of_text_float_or_fraction_is_exact(arg):
    x = rat(arg)
    assert is_rational(x) and x == Fraction(arg)


@given(n=integers, d=denominators)
@settings(max_examples=100, deadline=None)
def test_rat_builds_lowest_terms(n, d):
    for x, f in ((rat(n, d), Fraction(n, d)), (rat(rat(n), rat(d)), Fraction(n, d)),
                 (rat_parse(f"{n}/{abs(d)}"), Fraction(n, abs(d)))):
        assert is_rational(x) and (x.numerator, x.denominator) == (f.numerator, f.denominator)
        assert rat(x) is x


def test_certify_and_verify_import_no_fractions(tmp_path):
    # every rational on their path is the backend's own; fractions (with
    # decimal and numbers) is imported only to read text such as rat("1e-6")
    src = str(Path(sharpcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cert = str(tmp_path / "c23.json")
    script = (
        "import sys\n"
        "from sharpcert.cli import main\n"
        f"assert main(['certify', '-d', '23', '--out', {cert!r}]) == 0\n"
        f"assert main(['verify', {cert!r}]) == 0\n"
        "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_only_the_backend_imports_fractions():
    package = Path(sharpcert.__file__).resolve().parent
    importers = []
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "fractions" in names:
                importers.append(module.name)
    assert set(importers) == {"backend.py"}
