"""Inductive weight construction, eigenvalue sign certification and certificates.

For a dimension d with N >= 2 this builds the 2N Fourier-side weights whose
sum is a Dirac delta plus a constant: odd-indexed weights are certified
through the quartic-form ("magical") kernel eigenvalues, even-indexed ones
through the plain ("non-magical") ones.  Each weight's leading coefficient
is dictated by the sum condition; each subsequent coefficient is the
clipped ratio that flips the corresponding eigenvalue sign; the constant
term is the minimal certified shift making the weight nonnegative on the
ball (radius 4, i.e. u = |xi|^2 in [0, 16]).  The reported constant is the
sum of those shifts.

Everything is exact.  All coefficients share one radical grade (the ratio
of the delta-kernel eigenvalue grade to the polynomial-kernel eigenvalue
grade); a violation of that empirical uniformity aborts with GradeMismatch
rather than falling back to floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backend import rat, rat_str
from .errors import GradeMismatch, MalformedCertificate, SchemeInfeasible
from .kernels import MomentTable, magical_kernel_poly, nonmagical_kernel_poly
from .polys import DOMAIN_U, ExactPoly, minimal_shift, nonneg_on
from .scalars import ExactScalar
from .specfun import eigen_delta_weight, funk_hecke_eigen

ZERO = ExactScalar(0)

GENERATOR = {"name": "sharpcert", "version": "0.1.0"}

MAGICAL = "magical"
NONMAGICAL = "nonmagical"


def ell_star(d: int) -> int:
    """Cutoff N beyond which the delta-kernel eigenvalues are nonpositive."""
    if d < 3:
        raise ValueError("d must be >= 3")
    return (d - 3) // 2 if d % 2 == 1 else (d - 4) // 2


class EigenTable:
    """Exact eigenvalues lambda_1(k), lambda_{2m}(k), mu_{2m}(k) for one d.

    Values are computed on demand and cached; structural zeros (harmonic
    degree above the kernel degree) fall out of exact orthogonality.
    """

    def __init__(self, d: int):
        self.d = d
        self.moments = MomentTable(d)
        self.lambda_delta: dict[int, ExactScalar] = {}
        self.lambda_mag: dict[tuple[int, int], ExactScalar] = {}
        self.mu_nonmag: dict[tuple[int, int], ExactScalar] = {}
        self._kernels_mag: dict[int, ExactPoly] = {}
        self._kernels_nonmag: dict[int, ExactPoly] = {}

    def kernel(self, two_m: int, identity: str) -> ExactPoly:
        """The polynomial kernel of exponent ``two_m`` for ``identity``, cached."""
        if two_m < 0 or two_m % 2 == 1:
            raise ValueError("kernel exponent must be even and >= 0")
        m = two_m // 2
        cache = self._kernels_mag if identity == MAGICAL else self._kernels_nonmag
        poly = cache.get(m)
        if poly is None:
            builder = magical_kernel_poly if identity == MAGICAL else nonmagical_kernel_poly
            poly = cache.setdefault(m, builder(self.moments, m))
        return poly

    def delta(self, k: int) -> ExactScalar:
        v = self.lambda_delta.get(k)
        if v is None:
            v = self.lambda_delta.setdefault(k, eigen_delta_weight(k, self.d))
        return v

    def mag(self, two_m: int, k: int) -> ExactScalar:
        key = (two_m, k)
        v = self.lambda_mag.get(key)
        if v is None:
            v = funk_hecke_eigen(self.kernel(two_m, MAGICAL), k, self.d)
            v = self.lambda_mag.setdefault(key, v)
        return v

    def nonmag(self, two_m: int, k: int) -> ExactScalar:
        key = (two_m, k)
        v = self.mu_nonmag.get(key)
        if v is None:
            v = funk_hecke_eigen(self.kernel(two_m, NONMAGICAL), k, self.d)
            v = self.mu_nonmag.setdefault(key, v)
        return v

    def get(self, identity: str, two_m: int, k: int) -> ExactScalar:
        return self.mag(two_m, k) if identity == MAGICAL else self.nonmag(two_m, k)


@dataclass
class EigCheck:
    ell: int
    value: ExactScalar
    nonpositive: bool


@dataclass
class WeightSpec:
    """One Fourier-side weight of the decomposition.

    ``coeffs`` maps even degree (the exponent of |xi|) to the nonnegative
    coefficient magnitude; the sign it enters with is +1 at the top degree
    of weights n >= 2 and -1 everywhere else (weight 1 leads with the
    delta).  ``c0`` is the constant term, grade-stripped rational; all
    coefficient magnitudes share ``grade``.
    """

    n: int
    identity: str
    has_delta: bool
    top_degree: int
    coeffs: dict[int, ExactScalar]
    c0: object
    grade: tuple
    adm_margin: object | None = None
    eig: list[EigCheck] = field(default_factory=list)

    def sign_at(self, degree: int) -> int:
        if self.n >= 2 and degree == self.top_degree:
            return 1
        return -1

    def structural_cutoff(self) -> int:
        """Largest ell with a possibly-nonzero eigenvalue (ignoring the delta)."""
        if self.identity == MAGICAL:
            return (self.top_degree + 2) // 4
        return self.top_degree // 4

    def polynomial_part(self, include_constant: bool = True) -> ExactPoly:
        """The weight as an exact polynomial in u = |xi|^2 (delta excluded)."""
        if not self.coeffs and (not include_constant or self.c0 == 0):
            return ExactPoly([], domain=DOMAIN_U)
        deg = max((q // 2 for q in self.coeffs), default=0)
        out = [rat(0)] * (deg + 1)
        for q, c in self.coeffs.items():
            out[q // 2] += self.sign_at(q) * c.coeff
        if include_constant:
            out[0] += rat(self.c0)
        return ExactPoly(out, self.grade, DOMAIN_U)


def weight_eigen(w: WeightSpec, table: EigenTable, ell: int) -> ExactScalar:
    """Exact eigenvalue Lambda_n(2 ell) of the weight's certification kernel.

    The constant term contributes nothing for ell >= 1 (its kernel has too
    low a degree), so only the delta and the signed power coefficients enter.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    k = 2 * ell
    total = table.delta(k) if w.has_delta else ZERO
    for q, c in w.coeffs.items():
        if c.is_zero():
            continue
        nu = table.get(w.identity, q, k)
        if nu.is_zero():
            continue
        term = nu * c
        total = total + (term if w.sign_at(q) == 1 else -term)
    return total


def _knob_degree(identity: str, ell: int) -> int:
    # the lowest-degree kernel whose eigenvalue at harmonic degree 2*ell is
    # still nonzero -- and provably positive
    return 4 * ell - 2 if identity == MAGICAL else 4 * ell


def build_weights(d: int, tol, tail_depth: int = 25):
    """Run the full inductive construction; returns (weights, table, grade).

    Weights are produced in declaration order (coefficients from the top
    degree down within each weight); every eigenvalue condition is checked
    exactly, including ``tail_depth`` values beyond each weight's
    structural cutoff.
    """
    N = ell_star(d)
    if N < 2:
        raise ValueError("scheme needs N >= 2 (d >= 7)")
    tol = rat(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    table = EigenTable(d)
    grade = _coefficient_grade(table, N)

    weights: list[WeightSpec] = []
    transfers: dict[int, ExactScalar] = {}  # degree -> sum of negative-signed coefficients so far

    for n in range(1, 2 * N + 1):
        identity = MAGICAL if n % 2 == 1 else NONMAGICAL
        top = 4 * N - 2 if n == 1 else 4 * N - 2 * n + 2
        coeffs: dict[int, ExactScalar] = {}
        if n >= 2:
            dictated = transfers.get(top, ZERO)
            if not dictated.is_zero():
                coeffs[top] = dictated
        if n == 1:
            ell_top = N
        elif identity == MAGICAL:
            ell_top = top // 4
        else:
            ell_top = (top - 2) // 4
        for ell in range(ell_top, 0, -1):
            q_star = _knob_degree(identity, ell)
            partial = table.delta(2 * ell) if n == 1 else ZERO
            for q, c in coeffs.items():
                nu = table.get(identity, q, 2 * ell)
                if nu.is_zero() or c.is_zero():
                    continue
                term = nu * c
                partial = partial + (term if (n >= 2 and q == top) else -term)
            denom = table.get(identity, q_star, 2 * ell)
            if denom.sign() <= 0:
                raise SchemeInfeasible(
                    f"d={d} n={n}: eigenvalue at degree {q_star}, k={2*ell} not positive"
                )
            ratio = partial / denom
            if ratio.sign() > 0:
                coeffs[q_star] = ratio  # clipped ratio {.}_+
        w = WeightSpec(
            n=n,
            identity=identity,
            has_delta=(n == 1),
            top_degree=top,
            coeffs=coeffs,
            c0=rat(0),
            grade=grade,
        )
        _check_grades(w, grade)
        poly = w.polynomial_part(include_constant=False)
        c0 = minimal_shift(poly, 0, 16, tol) if not poly.is_zero() else rat(0)
        w.c0 = c0
        cert = nonneg_on(w.polynomial_part(include_constant=True), 0, 16)
        if not cert.holds:
            raise SchemeInfeasible(f"d={d} n={n}: admissibility failed after shift")
        w.adm_margin = cert.lower_bound
        cutoff = N if n == 1 else w.structural_cutoff()
        for ell in range(1, cutoff + tail_depth + 1):
            v = weight_eigen(w, table, ell)
            nonpos = v.sign() <= 0
            if not nonpos:
                raise SchemeInfeasible(
                    f"d={d} n={n}: eigenvalue condition fails at ell={ell}"
                )
            if ell > cutoff and n != 1 and not v.is_zero():
                raise SchemeInfeasible(
                    f"d={d} n={n}: expected structural zero at ell={ell}"
                )
            w.eig.append(EigCheck(ell, v, nonpos))
        for q, c in coeffs.items():
            if w.sign_at(q) == -1 and not c.is_zero():
                transfers[q] = transfers.get(q, ZERO) + c
        weights.append(w)
    return weights, table, grade


def _coefficient_grade(table: EigenTable, N: int) -> tuple:
    """The shared grade of every clipped ratio: grade(lambda_1) - grade(lambda)."""
    num = table.delta(2 * N)
    den = table.mag(4 * N - 2, 2 * N)
    if den.sign() <= 0:
        raise SchemeInfeasible("leading magical eigenvalue not positive")
    if num.is_zero():  # fall back to any nonzero delta eigenvalue
        for k in range(2, 2 * N + 40, 2):
            num = table.delta(k)
            if not num.is_zero():
                break
    return (num / den).grade if not num.is_zero() else (0, 0)


def _check_grades(w: WeightSpec, grade: tuple) -> None:
    for q, c in w.coeffs.items():
        if c.is_zero():
            continue
        if c.sign() < 0:
            raise SchemeInfeasible(f"weight {w.n}: negative coefficient at degree {q}")
        if c.grade != grade:
            raise GradeMismatch(
                f"weight {w.n}: coefficient at degree {q} has grade {c.grade}, expected {grade}"
            )


def check_sum_condition(weights: list[WeightSpec]) -> bool:
    """Sum of the signed weights must be exactly one delta plus a constant."""
    if sum(1 for w in weights if w.has_delta) != 1:
        return False
    acc: dict[int, ExactScalar] = {}
    for w in weights:
        for q, c in w.coeffs.items():
            term = c if w.sign_at(q) == 1 else -c
            acc[q] = acc.get(q, ZERO) + term
    return all(v.is_zero() for q, v in acc.items() if q >= 1)


PAPER_BASELINE_D8 = ExactScalar(rat(2**25, 5**2 * 7**2 * 11), 0, 4)  # 2^25 pi^2 / (5^2 7^2 11)

TAIL_NOTE = (
    "lambda_delta(2 ell) <= 0 is verified exactly for ell up to the recorded "
    "tail depth; beyond that the sign control rests on the asymptotic "
    "eigenvalue analysis, not on computation."
)
PRIOR_NOTE = "a_star = 0 for this dimension rests on prior results; no weight scheme is run."


@dataclass
class Certificate:
    dimension: int
    N: int
    tail_check_depth: int
    weights: list[WeightSpec]
    sum_condition_ok: bool
    a_star: ExactScalar
    a_star_decimal: str
    paper_baseline_decimal: str | None
    notes: list[str]
    delta_eigen_evidence: list[EigCheck] = field(default_factory=list)
    generator: dict = field(default_factory=lambda: dict(GENERATOR))

    def to_json(self) -> dict:
        return {
            "version": 1,
            "dimension": self.dimension,
            "N": self.N,
            "tail_check_depth": self.tail_check_depth,
            "weights": [
                {
                    "n": w.n,
                    "identity": w.identity,
                    "has_delta": w.has_delta,
                    "top_degree": w.top_degree,
                    "coefficients": [
                        {
                            "degree": q,
                            "sign": w.sign_at(q),
                            "value": w.coeffs[q].to_json(),
                        }
                        for q in sorted(w.coeffs, reverse=True)
                    ],
                    "c0": rat_str(w.c0),
                    "adm_margin": rat_str(w.adm_margin) if w.adm_margin is not None else "0",
                    "eig": [
                        {
                            "ell": e.ell,
                            "value": e.value.to_json(),
                            "nonpositive": e.nonpositive,
                        }
                        for e in w.eig
                    ],
                }
                for w in self.weights
            ],
            "sum_condition_ok": self.sum_condition_ok,
            "a_star": {
                "rational_times_grade": self.a_star.to_json(),
                "decimal": self.a_star_decimal,
            },
            "paper_baseline_decimal": self.paper_baseline_decimal,
            "delta_eigen_evidence": [
                {"ell": e.ell, "value": e.value.to_json(), "nonpositive": e.nonpositive}
                for e in self.delta_eigen_evidence
            ],
            "generator": dict(self.generator),
            "notes": list(self.notes),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Certificate":
        if not isinstance(obj, dict):
            raise MalformedCertificate(f"expected a JSON object, got {type(obj).__name__}")
        try:
            if obj.get("version") != 1:
                raise MalformedCertificate(f"unsupported version {obj.get('version')!r}")
            weights = []
            for wd in obj["weights"]:
                coeffs = {}
                grade = (0, 0)
                for cd in wd["coefficients"]:
                    val = ExactScalar.from_json(cd["value"])
                    coeffs[int(cd["degree"])] = val
                    if not val.is_zero():
                        grade = val.grade
                w = WeightSpec(
                    n=int(wd["n"]),
                    identity=str(wd["identity"]),
                    has_delta=bool(wd["has_delta"]),
                    top_degree=int(wd["top_degree"]),
                    coeffs=coeffs,
                    c0=rat(wd["c0"]),
                    grade=grade,
                    adm_margin=rat(wd["adm_margin"]),
                    eig=[_eig_check_from_json(e) for e in wd["eig"]],
                )
                weights.append(w)
            return cls(
                dimension=int(obj["dimension"]),
                N=int(obj["N"]),
                tail_check_depth=int(obj["tail_check_depth"]),
                weights=weights,
                sum_condition_ok=bool(obj["sum_condition_ok"]),
                a_star=ExactScalar.from_json(obj["a_star"]["rational_times_grade"]),
                a_star_decimal=str(obj["a_star"]["decimal"]),
                paper_baseline_decimal=obj.get("paper_baseline_decimal"),
                notes=[str(s) for s in obj.get("notes", [])],
                delta_eigen_evidence=[
                    _eig_check_from_json(e) for e in obj.get("delta_eigen_evidence", [])
                ],
                generator=dict(obj.get("generator", GENERATOR)),
            )
        except MalformedCertificate:
            raise
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            # ZeroDivisionError: a "p/0" rational; OverflowError: a JSON Infinity
            raise MalformedCertificate(str(exc)) from exc


def _eig_check_from_json(e) -> EigCheck:
    ell = int(e["ell"])
    if ell < 1:
        raise MalformedCertificate(f"eigenvalue index ell={ell} must be >= 1")
    return EigCheck(ell, ExactScalar.from_json(e["value"]), bool(e["nonpositive"]))


def compute_a_star(
    d: int,
    tol=rat(1, 10**6),
    tail_depth: int = 25,
    precision_bits: int = 128,
) -> Certificate:
    """Full certification run for one dimension.

    For d >= 7 (N >= 2) the inductive scheme runs and the constant is the
    sum of the weights' constant terms.  For d in {3,...,6} the constant is
    0 by prior results; the certificate then carries the finite
    delta-kernel eigenvalue sign table as supporting evidence only.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    N = ell_star(d)
    if N < 2:
        table = EigenTable(d)
        evidence = []
        for ell in range(1, N + tail_depth + 1):
            v = table.delta(2 * ell)
            evidence.append(EigCheck(ell, v, v.sign() <= 0))
        return Certificate(
            dimension=d,
            N=N,
            tail_check_depth=tail_depth,
            weights=[],
            sum_condition_ok=True,
            a_star=ZERO,
            a_star_decimal="0.0",
            paper_baseline_decimal=None,
            notes=[PRIOR_NOTE, TAIL_NOTE],
            delta_eigen_evidence=evidence,
        )
    weights, table, grade = build_weights(d, tol, tail_depth)
    if not check_sum_condition(weights):
        raise SchemeInfeasible(f"d={d}: sum condition violated")
    total = rat(0)
    for w in weights:
        total += w.c0
    a_star = ExactScalar(total, *grade)
    baseline = None
    if d == 8:
        baseline = PAPER_BASELINE_D8.decimal(30, precision_bits)
    return Certificate(
        dimension=d,
        N=N,
        tail_check_depth=tail_depth,
        weights=weights,
        sum_condition_ok=True,
        a_star=a_star,
        a_star_decimal=a_star.decimal(30, precision_bits) if not a_star.is_zero() else "0.0",
        paper_baseline_decimal=baseline,
        notes=[TAIL_NOTE],
    )


def verify_certificate(cert: Certificate) -> tuple[bool, list[str]]:
    """Recompute every verdict in a certificate from scratch.

    Checks, independently of how the certificate was produced: the shape of
    the weight family, every clipped coefficient against a fresh eigenvalue
    table, every recorded eigenvalue and its sign, every admissibility
    certificate at the stored constant term (constants larger than minimal
    are accepted; admissibility is what matters), the sum condition, and
    the reported constant.
    """
    failures: list[str] = []
    d = cert.dimension
    if d < 3:
        return False, [f"dimension {d} out of range"]
    N = ell_star(d)
    if N != cert.N:
        failures.append(f"N mismatch: stored {cert.N}, expected {N}")
        return False, failures

    if N < 2:
        table = EigenTable(d)
        if cert.weights:
            failures.append("weights present for a prior-results dimension")
        if not cert.a_star.is_zero():
            failures.append("a_star must be 0 for prior-results dimensions")
        for e in cert.delta_eigen_evidence:
            v = table.delta(2 * e.ell)
            if v != e.value:
                failures.append(f"delta eigenvalue mismatch at ell={e.ell}")
            if e.nonpositive != (v.sign() <= 0):
                failures.append(f"delta eigenvalue sign flag wrong at ell={e.ell}")
        return (not failures), failures

    if len(cert.weights) != 2 * N:
        failures.append(f"expected {2*N} weights, found {len(cert.weights)}")
        return False, failures

    # recompute the coefficient ladder in declaration order
    try:
        rebuilt, table, grade = build_weights(d, rat(1, 10**6), tail_depth=0)
    except (SchemeInfeasible, GradeMismatch) as exc:
        return False, [f"reconstruction failed: {exc}"]
    for w, rw in zip(cert.weights, rebuilt):
        tag = f"weight {w.n}"
        if (w.identity, w.has_delta, w.top_degree) != (rw.identity, rw.has_delta, rw.top_degree):
            failures.append(f"{tag}: shape mismatch")
            continue
        stored = {q: c for q, c in w.coeffs.items() if not c.is_zero()}
        expect = {q: c for q, c in rw.coeffs.items() if not c.is_zero()}
        if stored != expect:
            bad = sorted(set(stored) ^ set(expect)) or sorted(
                q for q in stored if stored[q] != expect.get(q)
            )
            failures.append(f"{tag}: coefficient mismatch at degrees {bad} (sum condition or clipping)")
        # recorded eigenvalues, from the stored coefficients
        for e in w.eig:
            v = weight_eigen(w, table, e.ell)
            if v != e.value:
                failures.append(f"{tag}: eigenvalue mismatch at ell={e.ell}")
            if e.nonpositive != (v.sign() <= 0):
                failures.append(f"{tag}: eigenvalue sign flag wrong at ell={e.ell}")
            if not e.nonpositive or v.sign() > 0:
                failures.append(f"{tag}: eigenvalue condition fails at ell={e.ell}")
        # admissibility at the stored constant
        if w.c0 < 0:
            failures.append(f"{tag}: negative constant term")
        poly = w.polynomial_part(include_constant=True)
        if not poly.is_zero() or w.c0 != 0:
            adm = nonneg_on(poly, 0, 16) if not poly.is_zero() else None
            if adm is not None and not adm.holds:
                failures.append(f"{tag}: admissibility (Adm) fails at stored c0")
            if w.adm_margin is not None and w.adm_margin != 0 and not poly.is_zero():
                shifted = ExactPoly(
                    [poly.coeffs[0] - rat(w.adm_margin)] + list(poly.coeffs[1:]),
                    poly.grade,
                    poly.domain,
                )
                if not nonneg_on(shifted, 0, 16).holds:
                    failures.append(f"{tag}: stored admissibility margin is not a valid lower bound")

    if not check_sum_condition(cert.weights):
        failures.append("sum condition violated")
    if cert.sum_condition_ok is not True:
        failures.append("sum_condition_ok flag not set")
    total = rat(0)
    for w in cert.weights:
        total += w.c0
    if cert.a_star != (ExactScalar(total, *grade) if total != 0 else ZERO):
        failures.append("a_star does not equal the sum of the constant terms")
    return (not failures), failures
