from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import graded, graded_sum

from sharpcert.backend import is_rational, rat
from sharpcert.kernels import (
    MomentTable,
    delta_kernel_closed_form,
    directional_sphere_moment,
    magical_kernel_poly,
    nonmagical_kernel_poly,
    radial_moment,
    sigma_conv_constant,
)
from sharpcert.polys import ExactPoly
from sharpcert.scalars import ExactScalar, beta_half_int, sphere_surface
from sharpcert import scheme, specfun
from sharpcert.scheme import MAGICAL, NONMAGICAL, EigenTable, compute_a_star, ell_star
from sharpcert.specfun import DeltaRun, GegenbauerBasis, eigen_delta_weight, funk_hecke_eigen

ZERO = ExactScalar(0)
T = ExactPoly([-1, 1])  # t = s - 1, in the kernels' variable s = 1+t


def fh_value(moments, m, k, magical):
    """``funk_hecke_eigen`` as an ExactScalar: its rational part times the table's eigenvalue grade."""
    return ExactScalar(funk_hecke_eigen(moments, m, k, magical), *moments.eigen_grade)


def delta_value(k, run):
    """``eigen_delta_weight`` as an ExactScalar: its rational part times K_d's grade."""
    return ExactScalar(eigen_delta_weight(k, run), *run.constant.grade)


def _at(coeffs, t):
    return sum(c * rat(t) ** i for i, c in enumerate(coeffs))


def test_gegenbauer_low_degrees():
    assert GegenbauerBasis(5).poly(0) == (1,)
    assert GegenbauerBasis(4).poly(1) == (0, 2)
    assert GegenbauerBasis(3).poly(2) == (rat(-1, 2), rat(0), rat(3, 2))
    # plain rational tuples, not graded kernels
    c7 = GegenbauerBasis(6).poly(7)
    assert isinstance(c7, tuple) and all(is_rational(c) for c in c7)


def test_gegenbauer_at_one():
    assert GegenbauerBasis(7).at_one(0) == 1
    assert GegenbauerBasis(3).at_one(2) == 1
    assert GegenbauerBasis(4).at_one(2) == 3


def test_recurrence_holds():
    for d in (3, 4, 9):
        basis = GegenbauerBasis(d)
        nu = rat(d - 2, 2)
        for k in range(2, 9):
            # k C_k = 2 (k + nu - 1) t C_{k-1} - (k + 2 nu - 2) C_{k-2} at ten
            # points, which pins down an identity of degree <= 8
            for t in range(-4, 6):
                lhs = _at(basis.poly(k), t) * k
                rhs = _at(basis.poly(k - 1), t) * (2 * (k + nu - 1) * t) - _at(
                    basis.poly(k - 2), t
                ) * (k + 2 * nu - 2)
                assert lhs == rhs


def _sym_moment(d, n):
    # int_{-1}^{1} t^n (1-t^2)^{(d-3)/2} dt: zero for odd n, else one Beta value
    return ZERO if n % 2 else beta_half_int(n + 1, d - 1)


def _inner(d, p, q):
    return graded_sum(_sym_moment(d, a + b) * (ca * cb)
                      for a, ca in enumerate(p) for b, cb in enumerate(q) if ca and cb)


def test_orthogonality_exact():
    for d in range(3, 13):
        basis = GegenbauerBasis(d)
        for j in range(11):
            for k in range(j + 1, 11):
                assert _inner(d, basis.poly(j), basis.poly(k)).is_zero()


def _rodrigues_eigen(kernel, k, d):
    # the kernel path: the eigenvalue of a built kernel sum_p b_p s^p is
    # |S^{d-2}| / prod_{i<k} (d-1+2i) * sum_{p >= k} b_p p!/(p-k)! 2^{p+k+d-2}
    # B(p+(d-1)/2, k+(d-1)/2), zero past the kernel degree
    if kernel.is_zero() or k > kernel.degree():
        return ZERO
    # term = p!/(p-k)! 2^{p+k} B(p+(d-1)/2, k+(d-1)/2) / B(k+(d-1)/2, k+(d-1)/2), from p = k
    total, term = rat(0), rat(4**k * factorial(k))
    for p in range(k, len(kernel.coeffs)):
        total += kernel.coeffs[p] * term
        term *= rat((p + 1) * (2 * p + d - 1), (p + 1 - k) * (p + k + d - 1))
    beta = beta_half_int(2 * k + d - 1, 2 * k + d - 1) * 2 ** (d - 2)
    rodrigues = sphere_surface(d - 1) / prod(range(d - 1, d + 2 * k - 1, 2))
    return ExactScalar(total, *kernel.grade) * beta * rodrigues


def test_funk_hecke_hand_examples():
    # at k = 0 the eigenvalue of t^n is |S^{d-2}| times the symmetric moment
    two_pi = sphere_surface(2)
    t_squared = ExactPoly([1, -2, 1])  # (s - 1)^2
    assert _rodrigues_eigen(T, 0, 4).is_zero()
    assert _rodrigues_eigen(ExactPoly([1]), 0, 3) == two_pi * ExactScalar(2)
    assert _rodrigues_eigen(t_squared, 0, 3) == two_pi * ExactScalar(rat(2, 3))
    # d = 3, k = 2: C_2 / C_2(1) = (3t^2 - 1)/2, so t^2 gives 2 pi * 4/15
    assert _rodrigues_eigen(t_squared, 2, 3) == two_pi * ExactScalar(rat(4, 15))
    # d = 3, k = 1: C_1 / C_1(1) = t, so s = 1 + t gives 2 pi * 2/3
    assert _rodrigues_eigen(ExactPoly([0, 1]), 1, 3) == two_pi * ExactScalar(rat(2, 3))


def test_delta_eigen_hand_examples():
    # d = 3: the integrand at k = 0 is (1+t)^{1/2}, with integral (4/3) sqrt2
    c3 = delta_kernel_closed_form(3) * sphere_surface(2)
    assert delta_value(0, DeltaRun(3)) == c3 * ExactScalar(rat(4, 3), 1, 0)
    # d = 4: the integrand is (1 - t^2) C_k(t) / C_k(1), with C_2 = 4t^2 - 1, C_2(1) = 3
    c4, run = delta_kernel_closed_form(4) * sphere_surface(3), DeltaRun(4)
    assert delta_value(0, run) == c4 * ExactScalar(rat(4, 3))
    assert delta_value(2, run) == c4 * ExactScalar(rat(-4, 45))


def _gegenbauer_moment_eigen(kernel, k, d):
    # |S^{d-2}| / C_k(1) * sum_a sum_b K_a C_{k,b} M_{a+b}: the kernel expanded
    # in t by the binomial theorem, then its Gegenbauer expansion against
    # symmetric Beta moments, independent of Rodrigues' formula
    n = len(kernel.coeffs)
    in_t = [sum(c * comb(p, a) for p, c in enumerate(kernel.coeffs)) for a in range(n)]
    basis = GegenbauerBasis(d)
    total = _inner(d, in_t, basis.poly(k))
    unit = ExactScalar(1, *kernel.grade)
    return sphere_surface(d - 1) / basis.at_one(k) * total * unit


def test_rodrigues_sums_match_independent_references():
    for d in (3, 4, 5, 7, 8, 13, 24, 33):
        table = MomentTable(d)
        for m in range(9):
            for kernel in (magical_kernel_poly(table, m), nonmagical_kernel_poly(table, m)):
                for k in range(m + 4):
                    assert _rodrigues_eigen(kernel, k, d) == _gegenbauer_moment_eigen(kernel, k, d)
    # the directional sphere moment is |S^{d-2}| times the same symmetric moment
    for d in range(3, 31):
        for a in range(61):
            assert directional_sphere_moment(d, a) == sphere_surface(d - 1) * _sym_moment(d, a)


def test_horner_sums_match_kernel_reference():
    # each integer sum against the kernel it stands for, built and then
    # integrated by the Rodrigues reference, past the kernel degree too
    for d in (3, 4, 7, 9, 12, 20, 24, 25, 33):
        table = MomentTable(d)
        for m in range(12):
            for magical, build in ((True, magical_kernel_poly), (False, nonmagical_kernel_poly)):
                kernel = build(table, m)
                for k in range(m + 4):
                    got = fh_value(table, m, k, magical)
                    assert got == _rodrigues_eigen(kernel, k, d), (d, m, k, magical)
                    assert got.is_zero() == (k > kernel.degree()), (d, m, k, magical)


def _ref_alpha_sum(moments, k, m, shift=0, e=0):
    # specfun._alpha_sum in per-step Fractions, with its start term built by a
    # lo-step loop: the form the integer pair replaced
    d, lo = moments.d, max(k - shift, 0)
    num = den = 1
    for n in range(m - 1, lo - 1, -1):
        p, j = n + shift, m - n + e
        a = (m - n) * (d + 2 * (m - n - 1)) * (j + d - 2) * (p + 1) * (2 * p + d - 1)
        b = (n + 1) * (d + 2 * n) * (2 * j + d - 3) * (p + 1 - k) * (p + k + d - 1)
        num, den = b * den + a * num, b * den
    for i in range(lo):
        num, den = num * 2 * (m - i) * (d + 2 * (m - i - 1)), den * (i + 1) * (d + 2 * i)
    return rat(num * 2**shift * factorial(k), den) * moments.get(m - lo + e)


def _ref_funk_hecke(moments, m, k, magical):
    if k > m + magical:
        return ZERO
    if magical:
        total = ((_ref_alpha_sum(moments, k, m, shift=1) + _ref_alpha_sum(moments, k, m, e=1)) * rat(3, 8)
                 - _ref_alpha_sum(moments, k, m + 1) * rat(1, 8))
    else:
        total = _ref_alpha_sum(moments, k, m)
    d = moments.d
    return ExactScalar(total / prod(range(d, d + 2 * k, 2)), *moments.grade) * moments.f0


def _ref_delta(run, k):
    # K_d times F_k = G_k / prod_{i<k} a_i from the Hahn recurrence, one Fraction per even step
    d, g_prev, g, p, f = run.d, 0, 1, 1, rat(1)
    for n in range(k):
        a = (n + d - 2) * (2 * n + 3 * d - 4)
        c = n * (2 * n - d)
        b = a - c - 4 * (d - 2) * (2 * n + d - 2)
        g_prev, g = g, b * g + c * (n + d - 3) * (2 * n + 3 * d - 6) * g_prev
        p *= a
        if n % 2 == 1:
            f = rat(g, p)
    return run.constant * f


def test_eigenvalues_match_per_step_fractions_at_the_ladders_range():
    # every value certify asks for at d = 7..48, where the knobs reach m = 2N - 1
    # and k = 2N (43 and 44 at d = 48), against the per-step Fraction forms
    asked = []

    def spy(name, fn):
        def wrapped(*args):
            v = fn(*args)
            asked.append((name, args, v))
            return v
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in ("funk_hecke_eigen", "eigen_delta_weight"):
            mp.setattr(scheme, name, spy(name, getattr(scheme, name)))
        for d in range(7, 49):
            compute_a_star(d)
    top = max(args[1] for name, args, _ in asked if name == "funk_hecke_eigen")
    assert top == 2 * ell_star(48) - 1
    for name, args, v in asked:
        if name == "funk_hecke_eigen":
            assert ExactScalar(v, *args[0].eigen_grade) == _ref_funk_hecke(*args), args[1:]
        else:
            run, k = args[1], args[0]
            assert ExactScalar(v, *run.constant.grade) == _ref_delta(run, k), (run.d, k)


def test_eigenvalues_match_per_step_fractions_at_low_degree():
    for d in range(3, 34):
        table, run = MomentTable(d), DeltaRun(d)
        for m in range(13):
            for k in range(m + 4):
                for magical in (True, False):
                    want = _ref_funk_hecke(table, m, k, magical)
                    assert fh_value(table, m, k, magical) == want, (d, m, k, magical)
        for k in range(0, 60, 2):
            assert delta_value(k, run) == _ref_delta(run, k), (d, k)


def test_one_rational_per_eigenvalue(monkeypatch):
    # no per-step Fractions: each value is built from integers by one rat()
    calls = 0
    rat_of = specfun.rat

    def counting(*args):
        nonlocal calls
        calls += 1
        return rat_of(*args)

    monkeypatch.setattr(specfun, "rat", counting)
    for d in (7, 24, 48):
        table, run = MomentTable(d), DeltaRun(d)
        for m, k, magical in ((0, 0, False), (0, 1, True), (5, 3, True), (23, 24, True), (22, 22, False)):
            before = calls
            funk_hecke_eigen(table, m, k, magical)
            assert calls - before <= 1, (d, m, k, magical)
        for k in (0, 60, 2, 62):  # 60 extends the run by 30 steps in one call
            before = calls
            eigen_delta_weight(k, run)
            assert calls - before <= 1, (d, k)


def test_eigen_table_serves_the_horner_sums():
    table = EigenTable(9)
    for identity, magical in ((MAGICAL, True), (NONMAGICAL, False)):
        for two_m in (0, 4, 10):
            for k in (0, 3, 6):
                want = funk_hecke_eigen(table.moments, two_m // 2, k, magical)
                assert table.get(identity, two_m, k) == want
    with pytest.raises(ValueError):
        table.nonmag(3, 0)
    with pytest.raises(ValueError):
        funk_hecke_eigen(table.moments, -1, 0, False)


def test_funk_hecke_constant_kernel():
    const = ExactPoly([rat(5, 3)])
    for d in (3, 4, 8):
        for k in (1, 2, 5):
            assert _rodrigues_eigen(const, k, d).is_zero()
        assert _rodrigues_eigen(const, 0, d) == sphere_surface(d) * ExactScalar(rat(5, 3))


def test_funk_hecke_low_degree_kernel():
    assert _rodrigues_eigen(T, 2, 3).is_zero()


@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=1, max_size=9),
    st.sampled_from([3, 4, 6, 9]),
)
@settings(max_examples=60, deadline=None)
def test_orthogonality_kills_high_k(cs, d):
    kernel = ExactPoly([rat(c) for c in cs])
    k = kernel.degree() + 1 + (len(cs) % 3)
    assert _rodrigues_eigen(kernel, k, d).is_zero()


def test_delta_eigen_signs():
    # a grade's radical factor is positive, so the rational part carries the sign
    assert eigen_delta_weight(2, DeltaRun(3)) < 0
    for d in (3, 4, 7, 12):
        assert eigen_delta_weight(0, DeltaRun(d)) > 0


def test_delta_eigen_rejects_odd_k():
    with pytest.raises(ValueError):
        eigen_delta_weight(3, DeltaRun(5))


def _t_power_moments(d, top):
    # int_{-1}^{1} t^a (1-t)^{d-3} (1+t)^{(d-2)/2} dt for a < top, by expanding
    # (1-t)^{d-3} and then t^m in s = (1+t)/2: an independent route to the
    # delta integrand
    by_m = []
    for m in range(top + d - 3):
        by_m.append(sum((-1) ** (m - j) * comb(m, j) * 2**j * rat(2, d + 2 * j)
                        for j in range(m + 1)))
    moments = []
    for a in range(top):
        total = sum((-1) ** i * comb(d - 3, i) * by_m[a + i] for i in range(d - 2))
        moments.append(ExactScalar(total * 2 ** (d // 2), d % 2, 0))
    return moments


def test_flip_identity():
    # the t -> -t image of the delta-weight integral toggles the sign of the
    # odd Gegenbauer coefficients; for even k they vanish and both agree
    for d in list(range(3, 14)) + [24, 33]:
        basis, run = GegenbauerBasis(d), DeltaRun(d)
        const = delta_kernel_closed_form(d)
        moments = _t_power_moments(d, 41)
        for k in range(0, 41, 2):
            flipped = graded_sum(moments[b] * (cb if b % 2 == 0 else -cb)
                                 for b, cb in enumerate(basis.poly(k)) if cb != 0)
            flipped = sphere_surface(d - 1) / basis.at_one(k) * const * flipped
            assert delta_value(k, run) == flipped


def _rodrigues_delta(k, d):
    # Rodrigues' formula integrated by parts k times against the delta kernel:
    # C_d |S^{d-2}| 2^{3(d-2)/2+k} / prod_{i<k} (d-1+2i) * sum_{i=0..k} C(k,i)
    # falling(1/2, k-i) (-1)^i falling((d-3)/2, i) B(i+d/2, d-2+k-i); for odd d
    # the terms past i = (d-3)/2 vanish
    last = k if d % 2 == 0 else min(k, (d - 3) // 2)
    term = rat(1)  # term i over B(d/2, d-2+k); term 0 is falling(1/2, k)
    for j in range(k):
        term *= rat(1 - 2 * j, 2)
    total = rat(0)
    for i in range(last + 1):
        total += term
        if i < last:  # past the last term the ratio's denominator can vanish (d = 3, i = k)
            term *= rat((i - k) * (d - 3 - 2 * i) * (2 * i + d),
                        2 * (i + 1) * (2 * i - 2 * k + 3) * (d - 3 + k - i))
    scale = ExactScalar(total, 3 * (d - 2) + 2 * k) * beta_half_int(d, 2 * (d - 2 + k))
    den = 1
    for i in range(k):
        den *= d - 1 + 2 * i
    return delta_kernel_closed_form(d) * scale * sphere_surface(d - 1) / den


def test_delta_eigen_matches_rodrigues_sum():
    # the 3F2 sum against the Rodrigues sum, at every even k certify asks for
    for d in range(3, 49):
        run = DeltaRun(d)
        for k in range(0, 2 * (ell_star(d) + 25) + 1, 2):
            assert delta_value(k, run) == _rodrigues_delta(k, d), (d, k)


def _delta_3f2_sum(k, d):
    # 3F2(-k, k+d-2, d-2; (d-1)/2, (3d-4)/2; 1) as its O(k)-term sum, from the
    # inside out: S_j = 1 + (a/b) S_{j+1} = num/den, with S_k = 1
    num = den = 1
    for j in range(k - 1, -1, -1):
        a = 4 * (j - k) * (k + d - 2 + j) * (d - 2 + j)
        b = (d - 1 + 2 * j) * (3 * d - 4 + 2 * j) * (j + 1)
        num, den = b * den + a * num, b * den
    return rat(num, den)


def test_delta_recurrence_matches_3f2_sum():
    # the Hahn recurrence against the hypergeometric sum it replaces, past
    # every tail depth certify uses by default; lambda_delta(0) = K_d
    for d in range(3, 61):
        run = DeltaRun(d)
        for k in range(0, 2 * (ell_star(d) + 60) + 1, 2):
            assert eigen_delta_weight(k, run) == eigen_delta_weight(0, run) * _delta_3f2_sum(k, d), (d, k)
    # values asked for out of order, and from two runs in turn, are the same
    runs = {9: DeltaRun(9), 3: DeltaRun(3)}
    for d, k in ((9, 40), (9, 2), (3, 8), (9, 0), (9, 40)):
        run = runs[d]
        assert eigen_delta_weight(k, run) == eigen_delta_weight(0, run) * _delta_3f2_sum(k, d), (d, k)


def test_k_factor_matches_beta_form():
    # F(d, k) = 2^{d-2} B(k+(d-1)/2, k+(d-1)/2) |S^{d-2}| / prod_{i<k} (d-1+2i): the
    # table's F(d, 0), and the telescoping F(d, k) = F(d, 0) / prod_{i<k} 4(2i+d)
    for d in range(3, 49):
        f0 = MomentTable(d).f0
        for k in range(61):
            want = (beta_half_int(2 * k + d - 1, 2 * k + d - 1) * 2 ** (d - 2)
                    * sphere_surface(d - 1) / prod(range(d - 1, d + 2 * k - 1, 2)))
            assert f0 / (4**k * prod(range(d, d + 2 * k, 2))) == want, (d, k)


def test_moments_match_beta_form():
    # C(d, J, K) as the product of its three Beta-valued factors; the table
    # holds K = 0, and an even K is C(d, J + K/2, 0) (1/2)_{K/2} / (d/2)_{K/2}, the
    # direction's moment E (e . omega)^K.  The table is asked from the top down, so
    # one request fills the row below it
    for d in range(3, 49):
        table = MomentTable(d)
        for K in (0, 2, 4):
            direction = prod(rat(2 * i + 1, 2 * i + d) for i in range(K // 2))
            for J in range(30, -1, -1):
                want = (sigma_conv_constant(d) * directional_sphere_moment(d, K)
                        * radial_moment(d, 2 * J + K + d - 2))
                assert graded(table, J + K // 2) * direction == want, (d, J, K)


def test_delta_eigen_grade_coherence():
    # every lambda_delta has K_d's grade: the Rodrigues reference, which builds
    # each value's grade on its own, has that one grade at every even k
    for d in (3, 4, 8, 9):
        run = DeltaRun(d)
        grades = {_rodrigues_delta(k, d).grade for k in range(0, 22, 2)
                  if eigen_delta_weight(k, run)}
        assert grades == {run.constant.grade}, d
