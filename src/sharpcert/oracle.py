"""Independent numeric cross-checks for the exact eigenvalue path.

Two oracles live here.  ``quad_eigen_enclosure`` evaluates the defining
one-dimensional integral of an eigenvalue and returns a rigorous interval:
the endpoint substitutions t = 1 - s^2 and t = s^2 - 1 absorb the
half-power singular factors into even powers of s, after which the only
non-polynomial factor is (2 - s^2)^gamma, expanded as a binomial series
with an exact rational tail bound; the polynomial part integrates exactly.
The interval width shrinks geometrically in the series order, so enclosures
at 128 bits are routine.

``mc_double_sphere_moment`` estimates the double-sphere moment constants by
vectorized Monte Carlo with a fixed probe direction; it is a statistical
sanity check, never a certification path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import rat
from .errors import PrecisionExhausted
from .kernels import MomentTable, delta_kernel_closed_form
from .polys import DOMAIN_T, ExactPoly
from .scalars import ExactScalar, IntervalScalar, MPIntervalContext, sphere_surface
from .specfun import gegenbauer, gegenbauer_at_one

MAX_SERIES_ORDER = 1 << 14


# -- rational polynomial helpers, local to the quadrature ---------------------


def _compose_linear_square(coeffs, c0, c1):
    """Coefficients in y of P(c0 + c1*y), for a rational coefficient list P."""
    acc = [rat(0)]
    for c in reversed(list(coeffs)):
        # acc = acc*(c0 + c1*y) + c
        out = [rat(0)] * (len(acc) + 1)
        for i, a in enumerate(acc):
            out[i] += a * c0
            out[i + 1] += a * c1
        out[0] += c
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        acc = out
    return acc


def _mul(a, b):
    out = [rat(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _spread_even(ycoeffs):
    """y-polynomial -> s-polynomial under y = s^2."""
    out = [rat(0)] * (2 * len(ycoeffs) - 1)
    for i, c in enumerate(ycoeffs):
        out[2 * i] = c
    return out


def _shift_up(coeffs, n):
    return [rat(0)] * n + list(coeffs)


def _integrate_01(coeffs):
    return sum(c / (i + 1) for i, c in enumerate(coeffs))


def _abs_integral_bound(coeffs):
    return sum(abs(c) / (i + 1) for i, c in enumerate(coeffs))


def _series_one_minus_half_ysq(gamma, order):
    """Coefficients t_n of (1 - s^2/2)^gamma = sum t_n s^{2n}, n <= order.

    Returns (coefficients, tail) where ``tail`` bounds the truncation error
    uniformly on s in [0, 1]: past n >= gamma the term magnitudes decay at
    least geometrically with ratio 1/2.
    """
    t = rat(1)
    out = [t]
    for n in range(order):
        t = t * (gamma - n) / (n + 1) * rat(-1, 2)
        out.append(t)
    nxt = t * (gamma - order) / (order + 1) * rat(-1, 2)
    if order < 2 * abs(gamma) + 2:
        raise ValueError("series order too small for a geometric tail bound")
    return out, 2 * abs(nxt)


def _half_power_piece(bcoeffs, two_gamma, order):
    """Enclosure of int_0^1 B(s) (2 - s^2)^{two_gamma/2} ds / 2^{two_gamma/2}.

    The power of 2 is left to the caller (it may carry a sqrt(2)); the
    returned pair (center, radius) is exact rational.
    """
    if two_gamma % 2 == 0:
        # fold the exact polynomial (1 - s^2/2)^gamma into B
        g = two_gamma // 2
        factor = [rat(1)]
        for _ in range(g):
            factor = _mul(factor, [rat(1), rat(0), rat(-1, 2)])
        return _integrate_01(_mul(bcoeffs, factor)), rat(0)
    gamma = rat(two_gamma, 2)
    series, tail = _series_one_minus_half_ysq(gamma, order)
    center = _integrate_01(_mul(bcoeffs, _spread_even(series)))
    return center, tail * _abs_integral_bound(bcoeffs)


def _iv_rat(ctx, q):
    return ctx.mpf(int(q.numerator)) / ctx.mpf(int(q.denominator))


def _iv_scalar(ctx, s: ExactScalar):
    if s.is_zero():
        return ctx.mpf(0)
    v = _iv_rat(ctx, rat(s.coeff))
    if s.sqrt2:
        v = v * ctx.sqrt(ctx.mpf(2))
    if s.pi_half:
        p = ctx.sqrt(ctx.pi) ** abs(s.pi_half)
        v = v * p if s.pi_half > 0 else v / p
    return v


def _iv_center_radius(ctx, center, radius):
    v = _iv_rat(ctx, center)
    if radius:
        v = v + _iv_rat(ctx, radius) * ctx.mpf([-1, 1])
    return v


def quad_eigen_enclosure(kernel_desc, k: int, d: int, precision_bits: int = 128) -> IntervalScalar:
    """Rigorous interval around the degree-k eigenvalue of a zonal kernel.

    ``kernel_desc`` is either the string ``"delta"`` (the singular-measure
    kernel) or an ExactPoly in t.  The series order adapts until the
    rational truncation radius clears the precision target; if the cap is
    hit first, PrecisionExhausted is raised.
    """
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    if k < 0 or d < 3:
        raise ValueError("need k >= 0 and d >= 3")
    ck = gegenbauer(d, k)
    if isinstance(kernel_desc, str):
        if kernel_desc != "delta":
            raise ValueError(f"unknown kernel descriptor {kernel_desc!r}")
        const = delta_kernel_closed_form(d).constant
        q = [c * const.coeff for c in ck.coeffs]
        unit = ExactScalar(1, const.sqrt2, const.pi_half)
        two_alpha = 2 * (d - 3)  # (1-t) exponent, doubled
        two_beta = d - 2  # (1+t) exponent, doubled
    elif isinstance(kernel_desc, ExactPoly):
        if kernel_desc.domain != DOMAIN_T:
            raise ValueError("polynomial kernels must live on t in [-1,1]")
        if kernel_desc.is_zero():
            return ExactScalar(0).to_interval(precision_bits)
        q = _mul(list(kernel_desc.coeffs), list(ck.coeffs))
        unit = ExactScalar(1, *kernel_desc.grade)
        two_alpha = two_beta = d - 3
    else:
        raise TypeError("kernel_desc must be 'delta' or an ExactPoly")

    # right piece, t = 1 - s^2: B_R(s) = 2 s^{2 alpha + 1} Q(1 - s^2),
    # remaining factor (2 - s^2)^beta; left piece mirrors it.
    b_right = _shift_up(_spread_even(_compose_linear_square(q, rat(1), rat(-1))), two_alpha + 1)
    b_right = [2 * c for c in b_right]
    b_left = _shift_up(_spread_even(_compose_linear_square(q, rat(-1), rat(1))), two_beta + 1)
    b_left = [2 * c for c in b_left]

    pref = sphere_surface(d - 1) / gegenbauer_at_one(d, k) * unit
    scale = rat(abs(pref.coeff)) * max(
        rat(1), _abs_integral_bound(b_right), _abs_integral_bound(b_left)
    )
    target = max(scale, rat(1)) / (rat(2) ** (precision_bits + 4))

    order = max(precision_bits + 16, two_alpha + two_beta + 8)
    while True:
        c_r, r_r = _half_power_piece(b_right, two_beta, order)
        c_l, r_l = _half_power_piece(b_left, two_alpha, order)
        if r_r + r_l <= target:
            break
        if order > MAX_SERIES_ORDER:
            raise PrecisionExhausted(
                f"series truncation radius stuck above target at order {order}"
            )
        order *= 2

    ctx = MPIntervalContext()
    ctx.prec = precision_bits + 16
    sqrt2 = ctx.sqrt(ctx.mpf(2))
    total = ctx.mpf(0)
    for (center, radius), two_g in ((c_r, r_r), two_beta), ((c_l, r_l), two_alpha):
        piece = _iv_center_radius(ctx, center, radius)
        piece = piece * ctx.mpf(2) ** (two_g // 2)
        if two_g % 2:
            piece = piece * sqrt2
        total = total + piece
    total = total * _iv_scalar(ctx, pref)
    return IntervalScalar(ctx, total, precision_bits)


# -- Monte Carlo double-sphere moments ----------------------------------------


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


def _unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # a fresh draw for the (measure-zero) event of an underflowed norm
    bad = norms[:, 0] < 1e-150
    while bad.any():
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms[bad] = np.linalg.norm(g[bad], axis=1, keepdims=True)
        bad = norms[:, 0] < 1e-150
    return g / norms


_CHUNK = 1 << 17


def mc_double_sphere_moment(d: int, J: int, K: int, samples: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the double-sphere moment constant.

    Each draw is an independent pair (w1, w2) of uniform sphere points with
    the probe direction fixed to the first coordinate axis (a unit vector,
    so no rescaling of the estimate is needed); the surface-measure
    normalization multiplies the sample mean by the squared sphere area.
    Sub-streams are split off the seed with numpy's SeedSequence.spawn, one
    per chunk of 2^17 pairs, so results are reproducible and chunk order
    independent.
    """
    if samples < 10**4:
        raise ValueError("samples must be >= 10^4")
    if d < 2 or J < 0 or K < 0:
        raise ValueError("need d >= 2, J >= 0, K >= 0")
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    total = 0.0
    total_sq = 0.0
    done = 0
    for ss in streams:
        n = min(_CHUNK, samples - done)
        rng = np.random.default_rng(ss)
        w = _unit_rows(rng, 2 * n, d)
        s = w[:n] + w[n:]
        x = np.ones(n)
        if J:
            x = np.einsum("ij,ij->i", s, s) ** J
        if K:
            x = x * s[:, 0] ** K
        total += float(x.sum())
        total_sq += float((x * x).sum())
        done += n
    area = float(sphere_surface(d).to_interval(64).center)
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    scale = area * area
    return McEstimate(
        mean=scale * mean,
        stderr=scale * (var / samples) ** 0.5,
        samples=samples,
        seed=seed,
    )


def mc_agrees(estimate: McEstimate, exact: ExactScalar, sigmas: float = 4.0) -> bool:
    target = float(exact.to_interval(64).center) if not exact.is_zero() else 0.0
    # constant integrands have zero sample variance; leave room for the
    # double-precision rounding of the exact target in that degenerate case
    slack = 1e-12 * max(1.0, abs(target), abs(estimate.mean))
    return abs(estimate.mean - target) <= sigmas * estimate.stderr + slack


def mc_check_moment(
    d: int, J: int, K: int, samples: int = 10**6, seed: int = 0, sigmas: float = 4.0
):
    """Estimate one moment and compare against the exact value.

    A single miss at ``sigmas`` standard errors triggers one rerun at four
    times the sample count on a distinct sub-seed; a repeated miss is a
    genuine disagreement.  Returns (estimate, agrees).
    """
    exact = MomentTable(d).get(J, K)
    est = mc_double_sphere_moment(d, J, K, samples, seed)
    if mc_agrees(est, exact, sigmas):
        return est, True
    retry_seed = int(np.random.SeedSequence(seed).spawn(2)[1].generate_state(1)[0])
    est = mc_double_sphere_moment(d, J, K, 4 * samples, retry_seed)
    return est, mc_agrees(est, exact, sigmas)
