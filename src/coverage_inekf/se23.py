"""Matrix Lie-group machinery for SO(3) and the extended pose group SE2(3).

An extended pose packs orientation R, velocity v, and position p into one
5x5 matrix

    X = [R  v  p]
        [0  1  0]
        [0  0  1]

with tangent vectors ordered (rotation, velocity, position).  That ordering
is a global convention of this package (see ``TANGENT_ORDER``); the
15-dimensional filter error state appends (accel bias, gyro bias) to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Global tangent ordering. Everything downstream (error states, Jacobians,
# covariance blocks) indexes against this.
TANGENT_ORDER = ("rot", "vel", "pos")

# Below this rotation angle (rad) the Rodrigues coefficients switch to their
# 4th-order Taylor expansions to avoid 0/0.
SMALL_ANGLE_EPS = 1e-4

# log() is a hard error within this distance of the pi singularity.
PI_SINGULARITY_EPS = 1e-6

# Off-pattern entries of a Lie-algebra matrix larger than this are rejected
# by vee().
ALGEBRA_PATTERN_TOL = 1e-12

# Compositions drift; re-orthonormalize after chains longer than this.
RENORM_CHAIN_LENGTH = 100


def skew(v: np.ndarray) -> np.ndarray:
    """3x3 skew-symmetric matrix of a 3-vector (so(3) hat operator)."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def unskew(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`skew`."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def _rodrigues_coefficients(theta: float) -> tuple[float, float, float, float]:
    """Series coefficients (a, b, c, d) with

    exp(w^) = I + a*w^ + b*w^2        (Rodrigues)
    J_l(w)  = I + b*w^ + c*w^2        (left Jacobian)
    G2(w)   = I/2 + c*w^ + d*w^2      (second integral, used by propagation)

    where a = sin(t)/t, b = (1-cos t)/t^2, c = (t-sin t)/t^3,
    d = (t^2 + 2cos t - 2)/(2 t^4), all evaluated stably near t = 0.
    """
    if theta < SMALL_ANGLE_EPS:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        c = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
        d = 1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0
        return a, b, c, d
    t2 = theta * theta
    s, co = math.sin(theta), math.cos(theta)
    a = s / theta
    b = (1.0 - co) / t2
    c = (theta - s) / (t2 * theta)
    d = (t2 + 2.0 * co - 2.0) / (2.0 * t2 * t2)
    return a, b, c, d


def so3_exp(w: np.ndarray) -> np.ndarray:
    """Exponential map so(3) -> SO(3) via the Rodrigues formula."""
    theta = math.sqrt(float(w @ w))
    a, b, _, _ = _rodrigues_coefficients(theta)
    wx = skew(w)
    return np.eye(3) + a * wx + b * (wx @ wx)


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Logarithm map SO(3) -> so(3) as a rotation vector.

    Raises ValueError for angles within ``PI_SINGULARITY_EPS`` of pi, where
    the axis is not recoverable from the skew part; the filter never visits
    that regime.
    """
    trace = float(np.trace(rot))
    theta = math.acos(min(1.0, max(-1.0, (trace - 1.0) / 2.0)))
    if theta >= math.pi - PI_SINGULARITY_EPS:
        raise ValueError(
            f"rotation angle {theta:.9f} rad is within {PI_SINGULARITY_EPS} of pi; "
            "log map is singular there"
        )
    if theta < SMALL_ANGLE_EPS:
        # log(R) ~ (R - R^T)/2 with an O(theta^3) angle correction
        return unskew(rot - rot.T) * (0.5 + theta * theta / 12.0)
    return unskew(rot - rot.T) * (0.5 * theta / math.sin(theta))


def so3_left_jacobian(w: np.ndarray) -> np.ndarray:
    """Left Jacobian J_l of SO(3)."""
    theta = math.sqrt(float(w @ w))
    _, b, c, _ = _rodrigues_coefficients(theta)
    wx = skew(w)
    return np.eye(3) + b * wx + c * (wx @ wx)


def so3_left_jacobian_inv(w: np.ndarray) -> np.ndarray:
    """Inverse left Jacobian J_l^-1 of SO(3)."""
    theta = math.sqrt(float(w @ w))
    wx = skew(w)
    if theta < SMALL_ANGLE_EPS:
        t2 = theta * theta
        coeff = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    else:
        coeff = (1.0 / (theta * theta)
                 - (1.0 + math.cos(theta)) / (2.0 * theta * math.sin(theta)))
    return np.eye(3) - 0.5 * wx + coeff * (wx @ wx)


def orthonormalize(rot: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix (polar factor via SVD)."""
    u, _, vt = np.linalg.svd(rot)
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


@dataclass
class Se23Element:
    """Extended pose: orientation, velocity, and position.

    ``chain`` counts compositions since the last re-orthonormalization; it is
    bookkeeping, not state, and is excluded from equality.
    """

    rot: np.ndarray
    vel: np.ndarray
    pos: np.ndarray
    chain: int = field(default=0, compare=False, repr=False)

    @classmethod
    def identity(cls) -> "Se23Element":
        return cls(np.eye(3), np.zeros(3), np.zeros(3))

    def as_matrix(self) -> np.ndarray:
        m = np.eye(5)
        m[:3, :3] = self.rot
        m[:3, 3] = self.vel
        m[:3, 4] = self.pos
        return m

    def check_valid(self, atol: float = 1e-9) -> None:
        """Raise ValueError unless rot is orthonormal with det +1."""
        err = np.abs(self.rot @ self.rot.T - np.eye(3)).max()
        if err > atol:
            raise ValueError(f"rotation not orthonormal: max |R R^T - I| = {err:.3e}")
        if abs(np.linalg.det(self.rot) - 1.0) > atol:
            raise ValueError("rotation determinant is not +1")


def compose(a: Se23Element, b: Se23Element) -> Se23Element:
    """Group composition a * b, with periodic rotation re-orthonormalization."""
    rot = a.rot @ b.rot
    chain = a.chain + b.chain + 1
    if chain > RENORM_CHAIN_LENGTH:
        rot = orthonormalize(rot)
        chain = 0
    return Se23Element(rot, a.rot @ b.vel + a.vel, a.rot @ b.pos + a.pos, chain)


def inverse(x: Se23Element) -> Se23Element:
    """Group inverse (R^T, -R^T v, -R^T p)."""
    rt = x.rot.T
    return Se23Element(rt.copy(), -(rt @ x.vel), -(rt @ x.pos), x.chain)


def hat(v: np.ndarray) -> np.ndarray:
    """Hat operator R^9 -> 5x5 Lie-algebra matrix.

    Input ordering follows ``TANGENT_ORDER``: v = (xi_rot, xi_vel, xi_pos).
    """
    v = np.asarray(v, dtype=float)
    m = np.zeros((5, 5))
    m[:3, :3] = skew(v[0:3])
    m[:3, 3] = v[3:6]
    m[:3, 4] = v[6:9]
    return m


def vee(m: np.ndarray) -> np.ndarray:
    """Vee operator, inverse of :func:`hat`.

    Rejects matrices that violate the algebra sparsity pattern (nonzero
    bottom rows, non-skew top-left block) beyond ``ALGEBRA_PATTERN_TOL``.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (5, 5):
        raise ValueError(f"expected 5x5 matrix, got {m.shape}")
    if np.abs(m[3:, :]).max() > ALGEBRA_PATTERN_TOL:
        raise ValueError("bottom rows must be zero for a Lie-algebra matrix")
    if np.abs(m[:3, :3] + m[:3, :3].T).max() > ALGEBRA_PATTERN_TOL:
        raise ValueError("top-left block must be skew-symmetric")
    return np.concatenate([unskew(m[:3, :3]), m[:3, 3], m[:3, 4]])


def exp_se23(v: np.ndarray) -> Se23Element:
    """Exponential map R^9 -> SE2(3).

    Closed form: Rodrigues rotation, with the left Jacobian applied to the
    velocity and position components.
    """
    v = np.asarray(v, dtype=float)
    w = v[0:3]
    rot = so3_exp(w)
    jl = so3_left_jacobian(w)
    return Se23Element(rot, jl @ v[3:6], jl @ v[6:9])


def log_se23(x: Se23Element) -> np.ndarray:
    """Logarithm map SE2(3) -> R^9, inverse of :func:`exp_se23`."""
    w = so3_log(x.rot)
    jinv = so3_left_jacobian_inv(w)
    return np.concatenate([w, jinv @ x.vel, jinv @ x.pos])

