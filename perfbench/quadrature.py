"""Box-moment problems and their deterministic reference.

The reference integrates the Gaussian density, ``x`` and ``x x^T`` over a
finite box with a tensor-product Gauss-Legendre rule.  It shares no code with
``coverage_inekf.tmvn``, so it can judge that module's estimator, and unlike
a rejection oracle it has no sampling noise: two rule orders agree to
roundoff on the problems generated here, which each run checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rule orders per axis; the run compares the two and trusts the higher.
LOW_ORDER = 24
HIGH_ORDER = 32

# Agreement the two orders must reach; far below the estimator errors
# measured against them (>= 1e-6).
PROB_TOL = 1e-10
MOMENT_TOL = 1e-8

# Grid rows per block, to keep the working set small (peak RSS is a metric).
_BLOCK_ROWS = 8


@dataclass
class Moments:
    prob: float
    mean: np.ndarray
    second_moment: np.ndarray


@dataclass
class Problem:
    mean: np.ndarray
    cov: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def random_problems(seed: int, count: int, dim: int = 3) -> list[Problem]:
    """Correlated Gaussians with boxes placed off-centre at varied widths.

    The box masses span about 1e-3 to 0.7, a wider range than the filter
    produces, and the correlations are stronger.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a = rng.standard_normal((dim, dim))
        cov = a @ a.T + 0.3 * np.eye(dim)
        mean = rng.normal(0.0, 1.0, dim)
        sigma = np.sqrt(np.diag(cov))
        center = mean + rng.uniform(-1.5, 1.5, dim) * sigma
        half = rng.uniform(0.3, 2.0, dim) * sigma
        out.append(Problem(mean, cov, center - half, center + half))
    return out


def gauss_legendre_moments(
    mean: np.ndarray,
    cov: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    order: int,
) -> Moments:
    """Box mass and truncated moments of N(mean, cov) by an order^d rule."""
    mean = np.asarray(mean, float)
    dim = mean.size
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (np.asarray(upper, float) - np.asarray(lower, float))
    mid = 0.5 * (np.asarray(upper, float) + np.asarray(lower, float))
    axes = [mid[j] + half[j] * nodes for j in range(dim)]
    axis_w = [half[j] * weights for j in range(dim)]

    # the remaining axes form one fixed sub-grid, swept block by block
    # along the first axis
    rest = np.stack(np.meshgrid(*axes[1:], indexing="ij"), -1).reshape(-1, dim - 1)
    rest_w = np.ones(1)
    for w in axis_w[1:]:
        rest_w = np.multiply.outer(rest_w, w).ravel()

    chol = np.linalg.cholesky(cov)
    whiten = np.linalg.inv(chol).T
    log_norm = -0.5 * dim * np.log(2.0 * np.pi) - np.log(np.diag(chol)).sum()
    mass = 0.0
    first = np.zeros(dim)
    second = np.zeros((dim, dim))
    for i0 in range(0, order, _BLOCK_ROWS):
        head = axes[0][i0 : i0 + _BLOCK_ROWS]
        x = np.empty((head.size, rest.shape[0], dim))
        x[:, :, 0] = head[:, None]
        x[:, :, 1:] = rest[None]
        x = x.reshape(-1, dim)
        w = np.multiply.outer(axis_w[0][i0 : i0 + _BLOCK_ROWS], rest_w).ravel()
        z = (x - mean) @ whiten
        f = w * np.exp(log_norm - 0.5 * np.einsum("ij,ij->i", z, z))
        mass += f.sum()
        first += f @ x
        second += x.T @ (x * f[:, None])
    return Moments(mass, first / mass, second / mass)


def reference_moments(problem: Problem) -> tuple[Moments, Moments]:
    """Reference at the high order, plus the low-order value to check it."""
    args = (problem.mean, problem.cov, problem.lower, problem.upper)
    return (
        gauss_legendre_moments(*args, HIGH_ORDER),
        gauss_legendre_moments(*args, LOW_ORDER),
    )


def converged(high: Moments, low: Moments) -> bool:
    """True when two rule orders agree to the stated tolerances."""
    return (
        abs(high.prob - low.prob) <= PROB_TOL
        and np.linalg.norm(high.mean - low.mean) <= MOMENT_TOL * (1.0 + np.linalg.norm(high.mean))
        and np.linalg.norm(high.second_moment - low.second_moment)
        <= MOMENT_TOL * (1.0 + np.linalg.norm(high.second_moment))
    )
