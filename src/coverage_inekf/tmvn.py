"""Gaussian probability mass and truncated moments over axis-aligned boxes.

The rule walks the Cholesky factor L of the covariance one coordinate at a
time, in standardized coordinates z with x = mean + L z.  Conditioned on
the coordinates before it, each z_i is confined to a slab [a_i, b_i] whose
normal mass Phi(b_i) - Phi(a_i) is known in closed form.

* Every coordinate but the last is integrated with a fixed NODES-point
  (24) Gauss-Legendre rule placed on its slab clipped to +-Z_CLAMP (8) and
  weighted by the normal density.  The weights are rescaled so that each
  slab carries its exact mass: a full-space box has probability exactly 1
  and a narrow slab keeps its mass.
* The last coordinate is integrated in closed form over [alpha, beta]:
  mass Phi(beta) - Phi(alpha), first moment phi(alpha) - phi(beta), second
  moment the mass plus alpha phi(alpha) - beta phi(beta).

Coordinates are walked in order of increasing marginal box mass, so the
narrowest slabs get the nodes and the widest is the closed-form one; in
the opposite order a slab that follows an open axis becomes a ridge the
nodes cannot resolve.  The outer nodes of a d-dimensional box form a
broadcast grid of NODES^(d-1) points, so one code path serves d = 1, 2
and 3, and the result is deterministic.

Measured errors: on 200 correlated 3-D boxes with masses from 1e-3 to 0.7,
the median errors against an x-space tensor Gauss-Legendre reference are
1e-16 in mass, 2e-15 in mean and 9e-15 in second moment (at most 2e-11).
An axis open on both sides carries the 24-node error of the normal second
moment over +-8: 3.4e-6 relative to the second moment, both on the full
space and on boxes open on two axes (against a 96-node run of this rule);
mass and mean stay within 1e-14.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

# Below this box mass the set is treated as degenerate (an extreme outlier
# for the filter); the estimate is clamped and flagged.
PROB_FLOOR = 1e-9

# Infinite box bounds are clamped to this many marginal standard deviations,
# far enough out that the normal mass and density beyond them vanish in
# double precision.
INFINITE_BOUND_SIGMA = 38.0

# Gauss-Legendre nodes per outer coordinate, and the standardized half-width
# their slabs are clipped to.  The normal mass beyond 8 sigma is 6e-16, under
# 1e-6 of a tail slab at PROB_FLOOR (about 6 sigma out), so the clip moves
# even the faintest slab the filter keeps by less than 1e-6 sigma.
NODES = 24
Z_CLAMP = 8.0
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(NODES)

# The z-space box of the coverage update is 3-D; a larger grid would grow
# as NODES^(d-1).
MAX_DIM = 3

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


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
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise ValueError("box bounds must not be NaN")
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


def _clamped_bounds(mean, sigma, box):
    if np.isfinite(box.lower).all() and np.isfinite(box.upper).all():
        return box.lower, box.upper
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


def _slab(chol, lo, hi, i, outer):
    """Standardized bounds of coordinate i given the outer coordinates."""
    shift = sum(chol[i, j] * z for j, z in enumerate(outer))
    return (lo[i] - shift) / chol[i, i], (hi[i] - shift) / chol[i, i]


def box_moments(mean: np.ndarray, cov: np.ndarray, box: BoxRegion) -> TruncatedMoments:
    """Box probability and truncated moments of N(mean, cov).

    Deterministic; see the module docstring for the rule.

    Parameters
    ----------
    mean, cov : prior moments of dimension at most MAX_DIM (3); cov must be
        positive definite.
    box : integration region, infinite bounds allowed.

    Raises
    ------
    ValueError if the dimension exceeds MAX_DIM.
    numpy.linalg.LinAlgError if cov has no Cholesky factor.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if box.dim != mean.size:
        raise ValueError("box dimension does not match the prior")
    if mean.size > MAX_DIM:
        raise ValueError(f"box_moments supports at most {MAX_DIM} dimensions")
    sigma = np.sqrt(np.diag(cov))
    lo, hi = _clamped_bounds(mean, sigma, box)
    lo, hi = lo - mean, hi - mean
    # narrowest marginal slab first, so that the closed-form last
    # coordinate is the widest and the grid resolves the narrow ones
    order = np.argsort(ndtr(hi / sigma) - ndtr(lo / sigma), kind="stable")
    lo, hi = lo[order], hi[order]
    chol = np.linalg.cholesky(cov[np.ix_(order, order)])
    last = mean.size - 1

    # outer coordinates: one grid axis each; w is the product weight and
    # every entry of `outer` broadcasts against it
    w = np.ones(())
    outer = []
    for i in range(last):
        a, b = _slab(chol, lo, hi, i, outer)
        mass = ndtr(b) - ndtr(a)
        a = np.minimum(np.maximum(a, -Z_CLAMP), Z_CLAMP)[..., None]
        b = np.minimum(np.maximum(b, -Z_CLAMP), Z_CLAMP)[..., None]
        z = 0.5 * (a + b) + 0.5 * (b - a) * _NODES
        wi = _WEIGHTS * np.exp(-0.5 * z * z)
        wi *= mass[..., None] / wi.sum(axis=-1, keepdims=True)
        w = w[..., None] * wi
        outer = [zj[..., None] for zj in outer] + [z]

    # last coordinate in closed form
    alpha, beta = _slab(chol, lo, hi, last, outer)
    pdf_a = _INV_SQRT_2PI * np.exp(-0.5 * alpha * alpha)
    pdf_b = _INV_SQRT_2PI * np.exp(-0.5 * beta * beta)
    m0 = w * (ndtr(beta) - ndtr(alpha))
    m1 = w * (pdf_a - pdf_b)
    m2 = m0 + w * (alpha * pdf_a - beta * pdf_b)

    prob = float(m0.sum())
    if prob < PROB_FLOOR:
        return _degenerate(mean, cov)
    u = np.empty((last,) + w.shape)
    for j, z in enumerate(outer):
        u[j] = z
    u = u.reshape(last, w.size)
    m0, m1 = m0.ravel(), m1.ravel()
    ez = np.empty(last + 1)
    ez[:last] = u @ m0
    ez[last] = m1.sum()
    ez /= prob
    ezz = np.empty((last + 1, last + 1))
    ezz[:last, :last] = (u * m0) @ u.T
    ezz[:last, last] = ezz[last, :last] = u @ m1
    ezz[last, last] = m2.sum()
    ezz /= prob

    # x - mean = lx z, with the rows of the factor back in box order
    lx = np.empty_like(chol)
    lx[order] = chol
    mu = mean + lx @ ez
    c = lx @ (ezz - np.outer(ez, ez)) @ lx.T
    return TruncatedMoments(
        prob=min(prob, 1.0), mean=mu, second_moment=0.5 * (c + c.T) + np.outer(mu, mu)
    )
