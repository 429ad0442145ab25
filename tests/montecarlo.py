"""Monte Carlo estimates of the double-sphere moment constants, for the tests.

``mc_double_sphere_moments`` estimates the constants by vectorized Monte
Carlo with a fixed probe direction, every requested (J, K) from one draw
of pairs; it is a statistical sanity check of
``sharpcert.kernels.MomentTable`` (K = 0) and of the Beta product
``sigma_conv_constant`` x ``directional_sphere_moment`` x ``radial_moment``
(K > 0), never a certification path, and the only reader of numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sharpcert.kernels import MomentTable, directional_sphere_moment, radial_moment, sigma_conv_constant
from sharpcert.scalars import ExactScalar, sphere_surface


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


def mc_double_sphere_moments(d: int, moments, samples: int, seed: int) -> dict:
    """Monte Carlo estimates of the double-sphere moment constants, {(J, K): McEstimate}.

    Each draw is an independent pair (w1, w2) of uniform sphere points with
    the probe direction fixed to the first coordinate axis (a unit vector,
    so no rescaling of the estimate is needed); the surface-measure
    normalization multiplies the sample mean by the squared sphere area.
    Every (J, K) in ``moments`` is read from the same pairs.  Sub-streams
    are split off the seed with numpy's SeedSequence.spawn, one per chunk of
    2^17 pairs, so results are reproducible and chunk order independent.
    """
    if samples < 10**4:
        raise ValueError("samples must be >= 10^4")
    if d < 2 or any(J < 0 or K < 0 for J, K in moments):
        raise ValueError("need d >= 2, J >= 0, K >= 0")
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    totals = {jk: [0.0, 0.0] for jk in moments}  # sum and sum of squares
    done = 0
    for ss in streams:
        n = min(_CHUNK, samples - done)
        rng = np.random.default_rng(ss)
        w = _unit_rows(rng, 2 * n, d)
        s = w[:n] + w[n:]
        norm_sq = np.einsum("ij,ij->i", s, s)
        radial = {J: norm_sq ** J for J, _ in moments if J}
        axial = {K: s[:, 0] ** K for _, K in moments if K}
        for (J, K), total in totals.items():
            x = radial[J] if J else np.ones(n)
            if K:
                x = x * axial[K]
            total[0] += float(x.sum())
            total[1] += float((x * x).sum())
        done += n
    scale = float(sphere_surface(d).decimal(17)) ** 2
    estimates = {}
    for jk, (total, total_sq) in totals.items():
        mean = total / samples
        var = max(total_sq / samples - mean * mean, 0.0)
        estimates[jk] = McEstimate(mean=scale * mean, stderr=scale * (var / samples) ** 0.5,
                                   samples=samples, seed=seed)
    return estimates


def mc_double_sphere_moment(d: int, J: int, K: int, samples: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of one double-sphere moment constant."""
    return mc_double_sphere_moments(d, [(J, K)], samples, seed)[J, K]


def mc_agrees(estimate: McEstimate, exact: ExactScalar, sigmas: float = 4.0) -> bool:
    target = float(exact.decimal(17))
    # constant integrands have zero sample variance; leave room for the
    # double-precision rounding of the exact target in that degenerate case
    slack = 1e-12 * max(1.0, abs(target), abs(estimate.mean))
    return abs(estimate.mean - target) <= sigmas * estimate.stderr + slack


def _exact_moment(d: int, J: int, K: int) -> ExactScalar:
    if K == 0:
        table = MomentTable(d)
        return ExactScalar(table.get(J), *table.grade)
    return (sigma_conv_constant(d) * directional_sphere_moment(d, K)
            * radial_moment(d, 2 * J + K + d - 2))


def mc_check_moments(d: int, moments, samples: int = 10**6, seed: int = 0, sigmas: float = 4.0):
    """Estimate the moments from one draw and compare each against its exact value.

    A miss at ``sigmas`` standard errors triggers one rerun at four times the
    sample count on a distinct sub-seed, shared by the moments that missed; a
    repeated miss is a genuine disagreement.  Returns {(J, K): (estimate, agrees)}.
    """
    exact = {(J, K): _exact_moment(d, J, K) for J, K in moments}
    results = {}
    for jk, est in mc_double_sphere_moments(d, moments, samples, seed).items():
        results[jk] = est, mc_agrees(est, exact[jk], sigmas)
    missed = [jk for jk, (_, agrees) in results.items() if not agrees]
    if missed:
        retry_seed = int(np.random.SeedSequence(seed).spawn(2)[1].generate_state(1)[0])
        for jk, est in mc_double_sphere_moments(d, missed, 4 * samples, retry_seed).items():
            results[jk] = est, mc_agrees(est, exact[jk], sigmas)
    return results


def mc_check_moment(
    d: int, J: int, K: int, samples: int = 10**6, seed: int = 0, sigmas: float = 4.0
):
    """Estimate one moment and compare against the exact value; returns (estimate, agrees)."""
    return mc_check_moments(d, [(J, K)], samples, seed, sigmas)[J, K]
