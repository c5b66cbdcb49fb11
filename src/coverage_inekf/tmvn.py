"""Gaussian probability mass and truncated moments over axis-aligned boxes.

The estimator pushes one randomized low-discrepancy point set through the
Cholesky factor of the covariance by sequential conditioning: each
coordinate is drawn inside its conditional slab and carries the slab
probability as a smooth weight, so every point lands in the box and the
integrand has no discontinuity.  The box probability, truncated mean and
truncated second moment all come from the same weighted points.

A plain rejection-sampling oracle with the same interface serves as the
slow reference; it never runs inside the filter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

# Below this estimated box mass the set is treated as degenerate (an extreme
# outlier for the filter); the estimate is clamped and flagged.
PROB_FLOOR = 1e-9

# Infinite box bounds are clamped to this many marginal standard deviations.
INFINITE_BOUND_SIGMA = 38.0

_TINY = 1e-16


@dataclass
class BoxRegion:
    """Axis-aligned box, possibly unbounded on some sides."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D vectors of equal length")
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper elementwise")

    @property
    def dim(self) -> int:
        return self.lower.size

    @classmethod
    def full_space(cls, dim: int) -> "BoxRegion":
        return cls(np.full(dim, -np.inf), np.full(dim, np.inf))


@dataclass
class TruncatedMoments:
    """Box probability and first two conditional moments of a Gaussian.

    ``degenerate`` marks an estimate whose box mass fell below
    ``PROB_FLOOR``; mean and second moment then fall back to the prior's.
    """

    prob: float
    mean: np.ndarray
    second_moment: np.ndarray
    degenerate: bool = False


@lru_cache(maxsize=8)
def _base_points(n_samples: int, dim: int) -> np.ndarray:
    """Deterministic low-discrepancy base point set in [0, 1)^dim."""
    engine = qmc.Sobol(d=dim, scramble=False)
    with warnings.catch_warnings():
        # Sobol balance warnings for non power-of-two draws are expected
        # here; the per-call randomization restores unbiasedness.
        warnings.simplefilter("ignore", UserWarning)
        pts = engine.random(n_samples)
    pts.setflags(write=False)
    return pts


_MASK64 = (1 << 64) - 1


def _seed_shift(seed: int, dim: int) -> np.ndarray:
    """Uniform shift in [0,1)^dim from a seed (splitmix64 stream)."""
    state = int(seed) & _MASK64
    out = np.empty(dim)
    for j in range(dim):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        out[j] = z / 2.0**64
    return out


def _shifted_uniforms(n_samples: int, dim: int, seed: int) -> np.ndarray:
    """Base point set under a seeded uniform shift modulo one."""
    u = _base_points(n_samples, dim) + _seed_shift(seed, dim)
    u -= np.floor(u)
    return u


def _clamped_bounds(mean, cov, box):
    if np.isfinite(box.lower).all() and np.isfinite(box.upper).all():
        return box.lower, box.upper
    sigma = np.sqrt(np.diag(cov))
    lo = np.where(
        np.isfinite(box.lower), box.lower, mean - INFINITE_BOUND_SIGMA * sigma
    )
    hi = np.where(
        np.isfinite(box.upper), box.upper, mean + INFINITE_BOUND_SIGMA * sigma
    )
    return lo, hi


def _degenerate(mean, cov) -> TruncatedMoments:
    return TruncatedMoments(
        prob=PROB_FLOOR,
        mean=mean.copy(),
        second_moment=cov + np.outer(mean, mean),
        degenerate=True,
    )


def _conditioned_estimate(mean, chol, lo, hi, u):
    """Sequential-conditioning weights and in-box points.

    Walks the Cholesky factor one coordinate at a time: conditioned on the
    previous coordinates each slab has a closed-form normal probability,
    which multiplies into the weight, and the coordinate is drawn inside
    the slab by inverse CDF.  Every point lands in the box; the weight is
    its likelihood ratio.
    """
    n, dim = u.shape
    z = np.empty((n, dim))
    w = np.ones(n)
    shift = np.zeros(n)
    for i in range(dim):
        if i:
            shift = z[:, :i] @ chol[i, :i]
        d_i = ndtr((lo[i] - mean[i] - shift) / chol[i, i])
        e_i = ndtr((hi[i] - mean[i] - shift) / chol[i, i])
        w_i = e_i - d_i
        w *= w_i
        y = d_i + u[:, i] * w_i
        z[:, i] = ndtri(np.clip(y, _TINY, 1.0 - _TINY))
    x = z @ chol.T
    x += mean
    return w, x


def box_moments(
    mean: np.ndarray,
    cov: np.ndarray,
    box: BoxRegion,
    n_samples: int = 1000,
    seed: int = 0,
) -> TruncatedMoments:
    """Estimate box probability and truncated moments of N(mean, cov).

    Deterministic for a fixed seed; estimation error shrinks with
    ``n_samples``.  See the module docstring for the method.

    Parameters
    ----------
    mean, cov : prior moments; cov must be positive definite.
    box : integration region, infinite bounds allowed.
    n_samples : number of quadrature points, at least 100.
    seed : randomization seed.

    Raises
    ------
    numpy.linalg.LinAlgError if cov has no Cholesky factor.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    if box.dim != mean.size:
        raise ValueError("box dimension does not match the prior")
    chol = np.linalg.cholesky(cov)
    lo, hi = _clamped_bounds(mean, cov, box)
    u = _shifted_uniforms(n_samples, mean.size, seed)

    w, x = _conditioned_estimate(mean, chol, lo, hi, u)
    w_sum = float(w.sum())
    prob = w_sum / n_samples
    if prob < PROB_FLOOR:
        return _degenerate(mean, cov)
    mu = (w @ x) / w_sum
    m2 = (x.T @ (x * w[:, None])) / w_sum
    return TruncatedMoments(
        prob=min(prob, 1.0), mean=mu, second_moment=0.5 * (m2 + m2.T)
    )


def oracle_box_moments(
    mean: np.ndarray,
    cov: np.ndarray,
    box: BoxRegion,
    n_samples: int = 10_000_000,
    seed: int = 0,
    chunk: int = 2_000_000,
) -> TruncatedMoments:
    """Plain rejection-sampling reference estimate.

    Slow by design; used to validate :func:`box_moments`, never in the
    filter loop.  Raises ValueError when no sample lands in the box (mass
    below the resolvable floor for the given sample count).
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    chol = np.linalg.cholesky(cov)
    lo, hi = _clamped_bounds(mean, cov, box)

    rng = np.random.default_rng(seed)
    dim = mean.size
    n_in = 0
    sum_x = np.zeros(dim)
    sum_xx = np.zeros((dim, dim))
    remaining = int(n_samples)
    while remaining > 0:
        m = min(chunk, remaining)
        x = rng.standard_normal((m, dim)) @ chol.T
        x += mean
        inside = np.all((x >= lo) & (x <= hi), axis=1)
        xin = x[inside]
        n_in += xin.shape[0]
        sum_x += xin.sum(axis=0)
        sum_xx += xin.T @ xin
        remaining -= m

    if n_in == 0:
        raise ValueError(
            f"no samples accepted out of {n_samples}; box mass below 1/{n_samples}"
        )
    mu = sum_x / n_in
    m2 = sum_xx / n_in
    return TruncatedMoments(
        prob=n_in / n_samples, mean=mu, second_moment=0.5 * (m2 + m2.T)
    )
