"""Monte Carlo estimates of the double-sphere moment constants, for the tests.

``mc_double_sphere_moment`` estimates the constants by vectorized Monte
Carlo with a fixed probe direction; it is a statistical sanity check of
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
    area = float(sphere_surface(d).decimal(17))
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
    target = float(exact.decimal(17))
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
    if K == 0:
        table = MomentTable(d)
        exact = ExactScalar(table.get(J), *table.grade)
    else:
        exact = (sigma_conv_constant(d) * directional_sphere_moment(d, K)
                 * radial_moment(d, 2 * J + K + d - 2))
    est = mc_double_sphere_moment(d, J, K, samples, seed)
    if mc_agrees(est, exact, sigmas):
        return est, True
    retry_seed = int(np.random.SeedSequence(seed).spawn(2)[1].generate_state(1)[0])
    est = mc_double_sphere_moment(d, J, K, 4 * samples, retry_seed)
    return est, mc_agrees(est, exact, sigmas)
