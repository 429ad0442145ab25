"""Inductive weight construction, eigenvalue sign certification and certificates.

For a dimension d with N >= 2 this builds the 2N Fourier-side weights whose
sum is a Dirac delta plus a constant: odd-indexed weights are certified
through the quartic-form ("magical") kernel eigenvalues, even-indexed ones
through the plain ("non-magical") ones.  Each weight's leading coefficient
is dictated by the sum condition; each subsequent coefficient is the
clipped ratio that flips the corresponding eigenvalue sign.  Once that
coefficient ladder is built, each weight's constant term is set to the
minimal certified shift making it nonnegative on the ball (radius 4, i.e.
u = |xi|^2 in [0, 16]).  The reported constant is the sum of those shifts.

Everything is exact.  Each polynomial-kernel eigenvalue is a rational
times grade(|S^{d-1}|^2 F(d, 0)), and each delta-kernel eigenvalue a
rational times K_d, so every grade is fixed by d: ``EigenTable`` holds
rational parts, the ladder runs on them, and each coefficient gets the
grade grade(K_d) - grade(|S^{d-1}|^2 F(d, 0)) when its weight is made.
An ``ExactScalar`` is made only where a value leaves the computation: a
coefficient, a nonzero sign-table entry and a*.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from functools import cached_property

from .backend import rat, rat_parse, rat_str
from .errors import MalformedCertificate, SchemeInfeasible
from .kernels import MomentTable, magical_kernel_poly, nonmagical_kernel_poly
from .polys import ExactPoly, minimal_shift, nonneg_on
from .scalars import ZERO, ExactScalar
from .specfun import DeltaRun, eigen_delta_weight, funk_hecke_eigen

GENERATOR = {"name": "sharpcert", "version": "0.1.0"}

MAGICAL = "magical"
NONMAGICAL = "nonmagical"

SHIFT_TOL = rat(1, 10**6)  # the tolerance of every constant term's minimal shift
TAIL_DEPTH = 25  # delta eigenvalue signs checked past each cutoff; the stored tail_check_depth


def ell_star(d: int) -> int:
    """Cutoff N beyond which the delta-kernel eigenvalues are nonpositive."""
    if d < 3:
        raise ValueError("d must be >= 3")
    return (d - 3) // 2 if d % 2 == 1 else (d - 4) // 2


class EigenTable:
    """Exact eigenvalues lambda_1(k), lambda_{2m}(k), mu_{2m}(k) for one d, as rational parts.

    A value's grade is fixed by its kernel family: ``moments.eigen_grade``
    for the polynomial kernels, K_d's (``delta_run.constant.grade``) for the
    delta kernel.  Polynomial-kernel values are computed on demand and
    cached; each delta value is computed when asked for, since one run asks
    for it once.
    Structural zeros (harmonic degree above the kernel degree) fall out of
    exact orthogonality.  Every call that needs eigenvalues builds its own
    table, which owns every per-d constant (its moment table and delta run),
    each built on first use: d <= 6 reads only the delta run, and a
    polynomial kernel alone never does.
    """

    def __init__(self, d: int):
        self.d = d
        self.lambda_poly: dict = {}  # (identity, two_m, k) -> rational part

    @cached_property
    def moments(self) -> MomentTable:
        return MomentTable(self.d)

    @cached_property
    def delta_run(self) -> DeltaRun:
        return DeltaRun(self.d)

    def kernel(self, two_m: int, identity: str) -> ExactPoly:
        """The kernel of exponent ``two_m`` for ``identity``, built afresh (eigenvalues need none)."""
        if two_m < 0 or two_m % 2 == 1:
            raise ValueError("kernel exponent must be even and >= 0")
        builder = magical_kernel_poly if identity == MAGICAL else nonmagical_kernel_poly
        return builder(self.moments, two_m // 2)

    def delta(self, k: int):
        return eigen_delta_weight(k, self.delta_run)

    def mag(self, two_m: int, k: int):
        return self._poly_eigen(MAGICAL, two_m, k)

    def nonmag(self, two_m: int, k: int):
        return self._poly_eigen(NONMAGICAL, two_m, k)

    def get(self, identity: str, two_m: int, k: int):
        return self.mag(two_m, k) if identity == MAGICAL else self.nonmag(two_m, k)

    def _poly_eigen(self, identity: str, two_m: int, k: int):
        key = (identity, two_m, k)
        v = self.lambda_poly.get(key)
        if v is None:
            if two_m < 0 or two_m % 2 == 1:
                raise ValueError("kernel exponent must be even and >= 0")
            v = funk_hecke_eigen(self.moments, two_m // 2, k, identity == MAGICAL)
            v = self.lambda_poly.setdefault(key, v)
        return v


EigCheck = namedtuple("EigCheck", "ell value nonpositive")


class WeightSpec:
    """One Fourier-side weight of the decomposition.

    ``coeffs`` maps even degree (the exponent of |xi|) to the signed
    coefficient: positive exactly at the top degree of weights n >= 2,
    negative everywhere else (weight 1 leads with the delta).  ``c0`` is the
    constant term, grade-stripped rational; all coefficients share one grade.
    """

    def __init__(self, n: int, identity: str, has_delta: bool, top_degree: int,
                 coeffs: dict[int, ExactScalar], c0, adm_margin=rat(0),
                 eig: list[EigCheck] | None = None):
        self.n = n
        self.identity = identity
        self.has_delta = has_delta
        self.top_degree = top_degree
        self.coeffs = coeffs
        self.c0 = c0
        self.adm_margin = adm_margin
        self.eig = [] if eig is None else eig

    def polynomial_part(self, include_constant: bool = True) -> list:
        """The weight's rational coefficients in u = |xi|^2, grade stripped (delta excluded)."""
        deg = max((q // 2 for q in self.coeffs), default=0)
        out = [rat(0)] * (deg + 1)
        for q, c in self.coeffs.items():
            out[q // 2] += c.coeff
        if include_constant:
            out[0] += rat(self.c0)
        return out


def weight_eigen(table: EigenTable, identity: str, has_delta: bool, coeffs: dict, ell: int):
    """Rational part (grade: K_d's) of Lambda_n(2 ell) of a weight's certification kernel.

    ``coeffs`` maps degree to rational part.  The constant term contributes
    nothing for ell >= 1 (its kernel has too low a degree), so only the
    delta and the power coefficients enter.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    k = 2 * ell
    total = table.delta(k) if has_delta else 0
    for q, c in coeffs.items():
        nu = table.get(identity, q, k)
        if nu:
            total += nu * c
    return total


def _knob_degree(identity: str, ell: int) -> int:
    # the lowest-degree kernel whose eigenvalue at harmonic degree 2*ell is
    # still nonzero -- and provably positive
    return 4 * ell - 2 if identity == MAGICAL else 4 * ell


def _shapes(N: int) -> list[tuple[int, str, int, int]]:
    """(n, identity, top_degree, cutoff) of each weight certify builds, in order.

    There are 2N weights for N >= 2 and none otherwise.  ``cutoff`` is the
    largest ell with a possibly-nonzero eigenvalue, the delta aside; weight
    1's top kernel (degree 4N - 2) reaches exactly ell = N.
    """
    shapes = []
    for n in range(1, 2 * N + 1 if N >= 2 else 1):
        top = 4 * N - 2 if n == 1 else 4 * N - 2 * n + 2
        if n % 2 == 1:
            shapes.append((n, MAGICAL, top, (top + 2) // 4))
        else:
            shapes.append((n, NONMAGICAL, top, top // 4))
    return shapes


def build_weights(d: int):
    """Run the coefficient ladder; returns (weights, table, grade).

    Each knob a ladder divides by, (magical, 4 ell - 2, 2 ell) for ell =
    1..N and (nonmagical, 4 ell, 2 ell) for ell < N, is checked once before
    any weight is built, and must be positive, else SchemeInfeasible.
    Weights are produced in declaration order (coefficients from the top
    degree down within each weight).  A weight n >= 2 whose dictated top
    coefficient is zero has no delta and no coefficient, so it is zero at
    every ell and is built without a ladder.  What remains is weight 1,
    clipped at one ell (two at d = 16), and one chain of weights at the end,
    whose negative coefficients are each clipped at their weight's first
    ell (observed for d = 7..256, not proved).
    Every eigenvalue condition is checked exactly, including ``TAIL_DEPTH``
    values beyond each weight's structural cutoff, and each weight's ``eig``
    table lists ell = 1..cutoff + TAIL_DEPTH.  An entry up to the cutoff is
    evaluated once: the ladder's sum at ell plus the clipped term it adds
    there, so it is nonpositive by construction.  Past the cutoff no
    coefficient's kernel (of degree at most 2 cutoff + 1, since
    :func:`_check_coefficients` bounds each degree by ``top_degree``)
    reaches harmonic degree 2 ell, so weight 1 lists the delta eigenvalue at
    2 ell, each checked, and the others list zero.  The ladder runs on the
    table's rational parts, since every grade is fixed by d: a weight is
    made with ``grade`` on each coefficient and K_d's on each nonzero entry.
    Every zero entry is one shared ``EigCheck(ell, ZERO, True)`` per ell.
    Constant terms are left at 0 for :func:`compute_a_star`.
    """
    N = ell_star(d)
    if N < 2:
        raise ValueError("scheme needs N >= 2 (d >= 7)")
    table = EigenTable(d)
    for identity, ell in [(MAGICAL, e) for e in range(1, N + 1)] + [(NONMAGICAL, e) for e in range(1, N)]:
        q = _knob_degree(identity, ell)
        if table.get(identity, q, 2 * ell) <= 0:
            raise SchemeInfeasible(f"d={d}: eigenvalue at degree {q}, k={2*ell} not positive")
    k_grade, eigen_grade = table.delta_run.constant.grade, table.moments.eigen_grade
    # each coefficient is a ratio lambda_1 / lambda.  Neither grade has a sqrt 2
    # (sphere areas and half-integer Beta values carry only sqrt pi, and K_d's
    # powers of 2 are whole), so no power of sqrt 2 folds: the ladder's ratio
    # of rational parts is the coefficient's rational part.
    grade = (k_grade[0] - eigen_grade[0], k_grade[1] - eigen_grade[1])

    weights: list[WeightSpec] = []
    transfers: dict = {}  # degree -> rational part of the sum of the coefficients so far
    shapes = _shapes(N)
    # one zero entry per ell, shared by every weight's table (weight 1 reaches ell = N + TAIL_DEPTH)
    zeros = [EigCheck(ell, ZERO, True) for ell in range(1, shapes[0][3] + TAIL_DEPTH + 1)]

    for n, identity, top, cutoff in shapes:
        coeffs = {top: -transfers.get(top, 0)} if n >= 2 else {}  # degree -> rational part
        if n >= 2 and not coeffs[top]:
            weights.append(WeightSpec(n, identity, False, top, {}, rat(0), eig=zeros[:cutoff + TAIL_DEPTH]))
            continue
        eig = []
        for ell in range(cutoff, 0, -1):
            v = weight_eigen(table, identity, n == 1, coeffs, ell)
            if v > 0:  # the clipped ratio {.}_+, entering negatively
                q_star = _knob_degree(identity, ell)
                coeffs[q_star] = -v / table.get(identity, q_star, 2 * ell)
                v = 0  # v plus the clipped term, zero by construction
            eig.append(EigCheck(ell, ExactScalar(v, *k_grade), True) if v else zeros[ell - 1])
        eig.reverse()
        _check_coefficients(n, top, coeffs)
        if n == 1:
            eig += _delta_signs(table, range(cutoff + 1, cutoff + TAIL_DEPTH + 1), f" n={n}")
        else:
            eig += zeros[cutoff:cutoff + TAIL_DEPTH]
        for q, c in coeffs.items():
            transfers[q] = transfers.get(q, 0) + c
        graded = {q: ExactScalar(c, *grade) for q, c in coeffs.items()}
        weights.append(WeightSpec(n, identity, n == 1, top, graded, rat(0), eig=eig))
    return weights, table, grade


def _delta_signs(table: EigenTable, ells: range, where: str) -> list[EigCheck]:
    """Weight 1's tail or the d <= 6 evidence: lambda_delta(2 ell), ell in ``ells``, each checked <= 0.

    Each entry carries K_d's grade.
    """
    k_grade = table.delta_run.constant.grade
    entries = []
    for ell in ells:
        v = table.delta(2 * ell)
        if v > 0:
            raise SchemeInfeasible(f"d={table.d}{where}: delta eigenvalue positive at ell={ell}")
        entries.append(EigCheck(ell, ExactScalar(v, *k_grade), True))
    return entries


def _check_coefficients(n: int, top: int, coeffs: dict) -> None:
    """Each coefficient (rational part) is at degree <= ``top``, > 0 at the top of n >= 2, else < 0."""
    for q, c in coeffs.items():
        if q > top:
            raise SchemeInfeasible(
                f"weight {n}: coefficient at degree {q} is above the top degree {top}")
        if not (c > 0 if n >= 2 and q == top else c < 0):
            raise SchemeInfeasible(f"weight {n}: coefficient at degree {q} has the wrong sign")


def check_sum_condition(weights: list[WeightSpec]) -> bool:
    """Sum of the signed weights must be exactly one delta plus a constant.

    Every coefficient :func:`build_weights` makes has the one coefficient
    grade, so the rational parts at each degree must cancel.
    """
    if sum(1 for w in weights if w.has_delta) != 1:
        return False
    acc: dict[int, object] = {}  # degree -> rational sum
    for w in weights:
        for q, c in w.coeffs.items():
            if q >= 1:
                acc[q] = acc.get(q, 0) + c.coeff
    return not any(acc.values())


PAPER_BASELINE_D8 = ExactScalar(rat(2**25, 5**2 * 7**2 * 11), 0, 4)  # 2^25 pi^2 / (5^2 7^2 11)

TAIL_NOTE = (
    "lambda_delta(2 ell) <= 0 is verified exactly for ell up to the recorded "
    "tail depth; beyond that the sign control rests on the asymptotic "
    "eigenvalue analysis, not on computation."
)
PRIOR_NOTE = "a_star = 0 for this dimension rests on prior results; no weight scheme is run."


class Certificate:
    def __init__(self, dimension: int, N: int, tail_check_depth: int,
                 weights: list[WeightSpec], sum_condition_ok: bool, a_star: ExactScalar,
                 a_star_decimal: str, paper_baseline_decimal: str | None, notes: list[str],
                 delta_eigen_evidence: list[EigCheck] | None = None,
                 generator: dict | None = None):
        self.dimension = dimension
        self.N = N
        self.tail_check_depth = tail_check_depth
        self.weights = weights
        self.sum_condition_ok = sum_condition_ok
        self.a_star = a_star
        self.a_star_decimal = a_star_decimal
        self.paper_baseline_decimal = paper_baseline_decimal
        self.notes = notes
        self.delta_eigen_evidence = [] if delta_eigen_evidence is None else delta_eigen_evidence
        self.generator = dict(GENERATOR) if generator is None else generator

    def to_json(self) -> dict:
        """The certificate as a dict, keys in file order: the parsed :meth:`to_text`."""
        return json.loads(self.to_text())

    def to_text(self, timestamp: str | None = None) -> str:
        """The certificate file; the package's only certificate writer.

        The text is laid out as ``json.dumps(json.loads(text), indent=2)``
        would write it, with a ``timestamp`` (if given) as the last top-level
        key.  That encoder is pure Python whenever ``indent`` is set, so the
        text is built directly: each coefficient and sign-table entry is one
        f-string, the zero value's text (most sign-table entries) is built
        once, and only the free-form ``generator`` and ``notes`` go through
        ``json.dumps``, indented one level deeper.
        """
        enc = _encode_str
        weights = []
        for w in self.weights:
            coeffs = [
                f'        {{\n          "degree": {q},\n          "sign": {-1 if c.sign() < 0 else 1},'
                f'\n          "value": {_value_text(-c if c.sign() < 0 else c, "            ")}\n        }}'
                for q, c in sorted(w.coeffs.items(), reverse=True)
            ]
            weights.append(
                f'    {{\n      "n": {w.n},\n      "identity": {enc(w.identity)},'
                f'\n      "has_delta": {_LITERALS[w.has_delta]},\n      "top_degree": {w.top_degree},'
                f'\n      "coefficients": {_list_text(coeffs, "      ")},'
                f'\n      "c0": "{rat_str(w.c0)}",\n      "adm_margin": "{rat_str(w.adm_margin)}",'
                f'\n      "eig": {_table_text(w.eig, "        ")}\n    }}')
        baseline = self.paper_baseline_decimal
        generator, notes = (json.dumps(x, indent=2).replace("\n", "\n  ")
                            for x in (self.generator, self.notes))
        text = (
            f'{{\n  "version": 1,\n  "dimension": {self.dimension},\n  "N": {self.N},'
            f'\n  "tail_check_depth": {self.tail_check_depth},'
            f'\n  "weights": {_list_text(weights, "  ")},'
            f'\n  "sum_condition_ok": {_LITERALS[self.sum_condition_ok]},'
            f'\n  "a_star": {{\n    "rational_times_grade": {_value_text(self.a_star, "      ")},'
            f'\n    "decimal": {enc(self.a_star_decimal)}\n  }},'
            f'\n  "paper_baseline_decimal": {"null" if baseline is None else enc(baseline)},'
            f'\n  "delta_eigen_evidence": {_table_text(self.delta_eigen_evidence, "    ")},'
            f'\n  "generator": {generator},\n  "notes": {notes}')
        if timestamp is not None:
            text += f',\n  "timestamp": {enc(timestamp)}'
        return text + "\n}"

    @classmethod
    def from_text(cls, text: str) -> "Certificate":
        """The certificate in a file's text; ``verify`` and certify's self-check read with it.

        ``json.loads`` with a fresh :func:`_object_reader` hook, then
        :meth:`from_json`.  Raises MalformedCertificate, or ValueError for
        text that is not JSON.
        """
        return cls.from_json(json.loads(text, object_pairs_hook=_object_reader()))

    @classmethod
    def from_json(cls, obj: dict) -> "Certificate":
        """The certificate in a parsed file; a sign-table ``EigCheck`` and ``ZERO`` are taken as read.

        ``generator`` is not checked past its being an object; a zero value or
        entry anywhere in it is restored to the JSON object it was read as.
        Any other key the format does not have, at any level, raises
        MalformedCertificate; a top-level ``timestamp`` is allowed and not kept.
        """
        obj = obj if type(obj) is dict else _as_read(obj)  # a file that is one zero value or entry
        if not isinstance(obj, dict):
            raise MalformedCertificate(f"expected a JSON object, got {type(obj).__name__}")
        try:
            if obj.get("version") != 1 or type(obj["version"]) is not int:
                raise MalformedCertificate(f"unsupported version {obj.get('version')!r:.60}")
            weights = []
            for wd in _json(obj["weights"], list):
                coeffs = {}
                for cd in _json(wd["coefficients"], list):
                    degree, sign = _json(cd["degree"], int), _json(cd["sign"], int)
                    value = ExactScalar.from_json(cd["value"], sign)  # the signed coefficient
                    if degree < 0 or degree % 2 == 1 or degree in coeffs:
                        raise MalformedCertificate(
                            f"coefficient degree {_short(degree)} must be even, >= 0 and listed once")
                    if sign not in (1, -1) or value.sign() == -sign:
                        raise MalformedCertificate(
                            f"coefficient at degree {_short(degree)}: sign must be 1 or -1 and value >= 0")
                    if len(cd) != len(_COEFFICIENT_FIELDS):
                        raise _unknown_field(cd, _COEFFICIENT_FIELDS)
                    coeffs[degree] = value
                weights.append(WeightSpec(
                    n=_json(wd["n"], int),
                    identity=_json(wd["identity"], str),
                    has_delta=_json(wd["has_delta"], bool),
                    top_degree=_json(wd["top_degree"], int),
                    coeffs=coeffs,
                    c0=rat_parse(wd["c0"]),
                    adm_margin=rat_parse(wd["adm_margin"]),
                    eig=_sign_table(_json(wd["eig"], list)),
                ))
                if len(wd) != len(_WEIGHT_FIELDS):
                    raise _unknown_field(wd, _WEIGHT_FIELDS)
            tail_check_depth = _json(obj["tail_check_depth"], int)
            if tail_check_depth < 0:
                raise MalformedCertificate(f"tail_check_depth={_short(tail_check_depth)} must be >= 0")
            evidence = _json(obj.get("delta_eigen_evidence", []), list)
            baseline = obj.get("paper_baseline_decimal")
            if baseline is not None:
                _json(baseline, str)
            a_star = obj["a_star"]
            a_star_value = ExactScalar.from_json(a_star["rational_times_grade"])
            a_star_decimal = _json(a_star["decimal"], str)
            if len(a_star) != len(_A_STAR_FIELDS):
                raise _unknown_field(a_star, _A_STAR_FIELDS)
            if not _TOP_FIELDS.issuperset(obj):  # five of its fields are optional
                raise _unknown_field(obj, _TOP_FIELDS)
            return cls(
                dimension=_json(obj["dimension"], int),
                N=_json(obj["N"], int),
                tail_check_depth=tail_check_depth,
                weights=weights,
                sum_condition_ok=_json(obj["sum_condition_ok"], bool),
                a_star=a_star_value,
                a_star_decimal=a_star_decimal,
                paper_baseline_decimal=baseline,
                notes=[_json(s, str) for s in _json(obj.get("notes", []), list)],
                delta_eigen_evidence=_sign_table(evidence),
                generator=_json(_as_read(obj.get("generator", GENERATOR)), dict),
            )
        except MalformedCertificate:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            message = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
            raise MalformedCertificate(message) from exc


_encode_str = json.encoder.encode_basestring_ascii
_LITERALS = {True: "true", False: "false"}


def _value_text(v: ExactScalar, pad: str) -> str:
    """An exact value's ``json.dumps(indent=2)`` text; ``pad`` is its keys' indent."""
    return (f'{{\n{pad}"rational": "{rat_str(v.coeff)}",\n{pad}"sqrt2": {v.sqrt2},'
            f'\n{pad}"pi_half": {v.pi_half}\n{pad[2:]}}}')


def _list_text(items: list[str], pad: str) -> str:
    """A JSON array of written items; ``pad`` is the indent of the line holding its key."""
    return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"


def _table_text(entries: list[EigCheck], pad: str) -> str:
    """A sign table (``eig`` or ``delta_eigen_evidence``); ``pad`` is its entries' indent."""
    head = f'{pad}{{\n{pad}  "ell": '
    mid = f',\n{pad}  "value": '
    tails = {b: f',\n{pad}  "nonpositive": {_LITERALS[b]}\n{pad}}}' for b in (True, False)}
    vpad = pad + "    "
    zero = mid + _value_text(ZERO, vpad)
    return _list_text(
        [f"{head}{e.ell}{zero}{tails[e.nonpositive]}" if e.value is ZERO
         else f"{head}{e.ell}{mid}{_value_text(e.value, vpad)}{tails[e.nonpositive]}"
         for e in entries], pad[2:])


_JSON_KINDS = {int: "an integer", bool: "true or false", str: "a string",
               list: "an array", dict: "an object"}


def _json(v, kind):
    """``v`` if its JSON type is ``kind`` exactly (so true is not an integer)."""
    if type(v) is not kind:
        raise MalformedCertificate(f"expected {_JSON_KINDS[kind]}, got {v!r:.60}")
    return v


_TOP_FIELDS = frozenset(("version", "dimension", "N", "tail_check_depth", "weights",
                         "sum_condition_ok", "a_star", "paper_baseline_decimal",
                         "delta_eigen_evidence", "generator", "notes", "timestamp"))
_WEIGHT_FIELDS = ("n", "identity", "has_delta", "top_degree", "coefficients", "c0", "adm_margin",
                  "eig")
_COEFFICIENT_FIELDS = ("degree", "sign", "value")
_ENTRY_FIELDS = ("ell", "value", "nonpositive")
_A_STAR_FIELDS = ("rational_times_grade", "decimal")


def _unknown_field(obj: dict, fields: tuple) -> MalformedCertificate:
    """The error naming ``obj``'s first key outside ``fields``, which it has.

    An object below the top level was read for each of its ``fields``, so it
    has another key exactly when it has more keys: one ``len`` per object.
    """
    return MalformedCertificate(f"unknown field {next(k for k in obj if k not in fields)!r:.60}")


def _sign_table(entries: list) -> list[EigCheck]:
    """A stored ``eig`` or ``delta_eigen_evidence`` array; its zero entries come read and checked."""
    return [e if type(e) is EigCheck else _eig_check_from_json(e) for e in entries]


def _eig_check_from_json(e) -> EigCheck:
    ell = e["ell"]
    if type(ell) is not int:
        raise MalformedCertificate(f"expected an integer, got {ell!r:.60}")
    if ell < 1:
        raise MalformedCertificate(f"eigenvalue index ell={_short(ell)} must be >= 1")
    value, nonpositive = ExactScalar.from_json(e["value"]), e["nonpositive"]
    if type(nonpositive) is not bool:
        raise MalformedCertificate(f"expected true or false, got {nonpositive!r:.60}")
    if len(e) != len(_ENTRY_FIELDS):
        raise _unknown_field(e, _ENTRY_FIELDS)
    return EigCheck(ell, value, nonpositive)


_ZERO_PAIRS = [("rational", "0"), ("sqrt2", 0), ("pi_half", 0)]
_new_tuple = tuple.__new__  # EigCheck's own __new__ is Python code


def _object_reader():
    """A fresh ``object_pairs_hook`` for one :meth:`Certificate.from_text` read.

    Most of a certificate is zero sign-table entries.  The zero value
    ``{"rational": "0", "sqrt2": 0, "pi_half": 0}`` reads as the shared
    ``ZERO``, and an entry ``{"ell": n, "value": <that zero>, "nonpositive":
    b}`` with an integer n >= 1 and b true or false as an ``EigCheck``, one
    per (n, b) in this read, which :meth:`Certificate.from_json` takes as it
    is.  Both are recognised in exactly that key order and type-exactly:
    Python has ``False == 0``, ``0.0 == 0`` and ``True == 1``, so
    ``"sqrt2": false``, ``"ell": 1.0`` or ``"nonpositive": 1`` are left to
    the checks every other object meets.  Every other object is a dict, and
    a key repeated within it raises MalformedCertificate: plain
    ``json.load`` keeps a repeated key's last value without a word, so a
    file could carry two readings of one claim.
    """
    entries: dict[bool, dict[int, EigCheck]] = {True: {}, False: {}}  # b -> n -> entry

    def read_object(pairs: list):
        if len(pairs) == 3:
            (k0, v0), (k1, v1), (k2, v2) = pairs
            if v1 is ZERO:
                if (k0 == "ell" and k1 == "value" and k2 == "nonpositive"
                        and type(v0) is int and v0 >= 1 and type(v2) is bool):
                    shared = entries[v2]
                    e = shared.get(v0)
                    if e is None:
                        e = shared[v0] = _new_tuple(EigCheck, (v0, ZERO, v2))
                    return e
            elif pairs == _ZERO_PAIRS and type(v1) is int and type(v2) is int:
                return ZERO
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise MalformedCertificate(f"repeated key {key!r:.60}")
        return obj

    return read_object


def _as_read(v):
    """A copy of parsed JSON ``v``, each reader's ZERO or EigCheck in it back as the object it was read as."""
    if v is ZERO:
        return ZERO.to_json()
    if type(v) is EigCheck:
        return {"ell": v.ell, "value": ZERO.to_json(), "nonpositive": v.nonpositive}
    if type(v) is dict:
        return {k: _as_read(x) for k, x in v.items()}
    if type(v) is list:
        return [_as_read(x) for x in v]
    return v


def _decimals(d: int, a_star: ExactScalar) -> tuple[str, str | None]:
    """The certificate's two decimal strings, a* and the d = 8 paper baseline."""
    return a_star.decimal(30), PAPER_BASELINE_D8.decimal(30) if d == 8 else None


def _construct(d: int) -> tuple[Certificate, tuple]:
    """The certificate of d with what certify derives from d alone; and its grade.

    For N >= 2 that is the weights with their coefficients and ``eig``
    tables (constant terms 0), once the sum condition holds; for d <= 6 it
    is the delta eigenvalue evidence.  A rebuilt sign-table entry that is
    positive raises SchemeInfeasible.  The constant terms, a* and its
    decimals are left free: :func:`compute_a_star` computes them, and
    :func:`verify_certificate` takes them from the certificate.  The weights
    are those of a fresh :func:`build_weights` run.
    """
    N = ell_star(d)
    cert = Certificate(
        dimension=d,
        N=N,
        tail_check_depth=TAIL_DEPTH,
        weights=[],
        sum_condition_ok=True,
        a_star=ZERO,
        a_star_decimal="0.0",
        paper_baseline_decimal=None,
        notes=[PRIOR_NOTE, TAIL_NOTE] if N < 2 else [TAIL_NOTE],
    )
    if N >= 2:
        cert.weights, _, grade = build_weights(d)
        if not check_sum_condition(cert.weights):
            raise SchemeInfeasible(f"d={d}: sum condition violated")
        return cert, grade
    cert.delta_eigen_evidence = _delta_signs(EigenTable(d), range(1, N + TAIL_DEPTH + 1), "")
    return cert, ZERO.grade


def compute_a_star(d: int) -> Certificate:
    """Full certification run for one dimension.

    For d >= 7 (N >= 2) the inductive scheme runs and the constant is the
    sum of the weights' constant terms, each the minimal shift to within
    ``SHIFT_TOL``; the certificate does not record the tolerance, since
    verify accepts any constant term at or above the minimal shift.  For d
    in {3,...,6} the constant is 0 by prior results; the certificate then
    carries the finite delta-kernel eigenvalue sign table as supporting
    evidence only.  Every sign table runs ``TAIL_DEPTH`` entries past its cutoff.
    """
    cert, grade = _construct(d)
    total = rat(0)
    for w in cert.weights:
        w.c0 = minimal_shift(w.polynomial_part(include_constant=False), 0, 16, SHIFT_TOL)
        adm = nonneg_on(w.polynomial_part(include_constant=True), 0, 16)
        if not adm.holds:
            raise SchemeInfeasible(f"d={d} n={w.n}: admissibility failed after shift")
        w.adm_margin = adm.lower_bound
        total += w.c0
    cert.a_star = ExactScalar(total, *grade)
    cert.a_star_decimal, cert.paper_baseline_decimal = _decimals(d, cert.a_star)
    return cert


# how a failure names a field whose attribute name is not plain
_FIELD_NAMES = {"coeffs": "coefficients", "eig": "eigenvalue sign table",
                "delta_eigen_evidence": "delta eigenvalue evidence",
                "a_star": "a_star (the sum of the constant terms)",
                "a_star_decimal": "a_star decimal", "paper_baseline_decimal": "d = 8 baseline decimal"}


def mismatches(tag: str, stored, rebuilt) -> list[str]:
    """One failure per attribute of ``stored`` that does not equal ``rebuilt``'s, weights one by one.

    ``stored`` and ``rebuilt`` are two certificates, or two weights.  A
    differing weight count is one failure, and no weight is compared then.
    """
    failures = []
    for field, want in vars(rebuilt).items():
        have = getattr(stored, field)
        if field == "weights":
            if len(have) != len(want):
                failures.append(
                    f"{tag}weight count mismatch: stored {len(have)}, expected {len(want)}")
                continue
            for w, rw in zip(have, want):
                failures += mismatches(f"weight {rw.n}: ", w, rw)
        elif have != want:
            where = ""
            if field == "coeffs":
                bad = sorted(q for q in have.keys() | want.keys() if have.get(q) != want.get(q))
                where = f" at degrees {bad}"
            elif isinstance(want, list):
                i = next((i for i, (h, r) in enumerate(zip(have, want)) if h != r),
                         min(len(have), len(want)))
                where = f" at entry {i + 1}"
            failures.append(f"{tag}{_FIELD_NAMES.get(field, field)} mismatch{where}")
    return failures


def _short(n: int) -> str:
    """``n`` in full up to 20 digits, else its leading and trailing digits and its digit count.

    The stored integers a staged check names can have thousands of digits;
    the count is found without ``str``, which refuses more than 4,300.
    """
    a = abs(n)
    if a < 10**20:
        return str(n)
    e = (a.bit_length() - 1) * 30102 // 100000  # at most floor(log10 a)
    while a >= 10 ** (e + 1):
        e += 1
    return f"{'-' if n < 0 else ''}{a // 10 ** (e - 5)}...{a % 10**6:06d} ({e + 1} digits)"


def verify_certificate(cert: Certificate) -> tuple[bool, list[str]]:
    """Re-derive every claim of a certificate from its dimension alone.

    First, before anything is computed, N, ``tail_check_depth`` (always
    ``TAIL_DEPTH``), the weight count and the length of every sign table must
    be those certify writes for d (cutoff + TAIL_DEPTH entries in each
    weight's ``eig``; N + TAIL_DEPTH in ``delta_eigen_evidence`` for d <= 6,
    none past that), so no stored field costs more work than the stored
    tables.  Then certify's construction runs again.  Each rebuilt weight
    must satisfy Adm, by one Sturm check at the stored constant term less
    the stored margin (constants larger than minimal are accepted).  The
    fields the construction leaves free are then filled in from the
    certificate: each weight's ``c0`` and ``adm_margin``, a* as the sum of
    those constant terms with its decimal renderings, and ``generator``.
    Last, every field of the certificate and of each weight must equal the
    rebuilt one; ``generator`` (and a file's timestamp, which is not loaded)
    is the only field left unchecked.
    """
    d = cert.dimension
    if d < 3:
        return False, [f"dimension {_short(d)} out of range"]
    N = ell_star(d)
    n_weights, n_evidence = (2 * N, 0) if N >= 2 else (0, N + TAIL_DEPTH)
    for what, stored, want in (("N", cert.N, N), ("weight count", len(cert.weights), n_weights),
                               ("tail_check_depth", cert.tail_check_depth, TAIL_DEPTH),
                               ("evidence length", len(cert.delta_eigen_evidence), n_evidence)):
        if stored != want:
            return False, [f"{what} mismatch: stored {_short(stored)}, expected {_short(want)}"]
    for w, (n, *_, cutoff) in zip(cert.weights, _shapes(N)):
        if len(w.eig) != cutoff + TAIL_DEPTH:
            return False, [f"weight {n}: stored eigenvalues do not cover ell = 1..{cutoff + TAIL_DEPTH}"]
    try:
        built, grade = _construct(d)
    except SchemeInfeasible as exc:
        return False, [f"reconstruction failed: {exc}"]

    failures: list[str] = []
    for w, rw in zip(cert.weights, built.weights):
        tag = f"weight {rw.n}"
        # admissibility of the rebuilt weight at the stored constant, one
        # Sturm check: with a margin >= 0, poly - margin >= 0 implies Adm.  A
        # negative margin is a certified minimum rounded below zero; it is
        # checked on poly itself and must be the lower bound that check
        # certifies.
        if w.c0 < 0:
            failures.append(f"{tag}: negative constant term")
        poly = rw.polynomial_part(include_constant=False)
        poly[0] += w.c0 - max(w.adm_margin, 0)
        adm = nonneg_on(poly, 0, 16)
        if not adm.holds:
            failures.append(f"{tag}: admissibility (Adm) fails at stored c0 less the stored margin")
        elif w.adm_margin < 0 and w.adm_margin != adm.lower_bound:
            failures.append(f"{tag}: negative admissibility margin is not the certified lower bound")
        rw.c0, rw.adm_margin = w.c0, w.adm_margin
    built.a_star = ExactScalar(sum((w.c0 for w in cert.weights), rat(0)), *grade)
    # rendered from the re-derived a*, whose grade the construction bounds,
    # never from the stored one: rendering costs time that grows with |pi_half|
    built.a_star_decimal, built.paper_baseline_decimal = _decimals(d, built.a_star)
    built.generator = cert.generator
    failures += mismatches("", cert, built)
    return (not failures), failures
