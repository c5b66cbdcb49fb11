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

# Below this rotation angle (rad) so3_log and so3_left_jacobian_inv switch to
# Taylor expansions to avoid 0/0.
SMALL_ANGLE_EPS = 1e-4

# Below this rotation angle (rad) so3_gammas takes c and d from their power
# series: their closed forms lose eps/theta^2 of relative accuracy to
# cancellation.  Through t^8, the truncation error stays below 1e-16 here.
SERIES_ANGLE = 0.25

# log() is a hard error within this distance of the pi singularity.
PI_SINGULARITY_EPS = 1e-6

# Off-pattern entries of a Lie-algebra matrix larger than this are rejected
# by vee().
ALGEBRA_PATTERN_TOL = 1e-12

# Compositions drift; re-orthonormalize after chains longer than this.
RENORM_CHAIN_LENGTH = 100


# Levi-Civita tensor with the sign of the hat map: skew(v)[i, j] = _HAT[i, j] @ v.
_HAT = np.zeros((3, 3, 3))
_HAT[0, 1, 2] = _HAT[1, 2, 0] = _HAT[2, 0, 1] = -1.0
_HAT[0, 2, 1] = _HAT[1, 0, 2] = _HAT[2, 1, 0] = 1.0
_HAT.setflags(write=False)

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrices of 3-vectors (so(3) hat operator).

    Batched over leading axes: (..., 3) -> (..., 3, 3).
    """
    return (_HAT @ np.asarray(v)[..., None, :, None])[..., 0]


def unskew(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`skew`, batched over leading axes."""
    return m[..., [2, 0, 1], [1, 2, 0]]


def _series_terms(w: np.ndarray) -> tuple:
    """(w^, w^2, a, b, c, d): the terms of every Gamma_k, see :func:`so3_gammas`.

    :func:`so3_gammas` assembles all three Gamma_k from them and
    :func:`exp_se23` only Gamma_0 and Gamma_1.
    """
    theta = math.sqrt(float(w @ w))
    t2 = theta * theta
    if theta < SERIES_ANGLE:
        # Horner forms of sum_n (-t^2)^n / (2n + 3)! and of / (2n + 4)!
        c = (1 - t2 / 20 * (1 - t2 / 42 * (1 - t2 / 72 * (1 - t2 / 110)))) / 6
        d = (1 - t2 / 30 * (1 - t2 / 56 * (1 - t2 / 90 * (1 - t2 / 132)))) / 24
        a = 1.0 - t2 * c
        b = 0.5 - t2 * d
    else:
        a = math.sin(theta) / theta
        h = math.sin(0.5 * theta) / theta
        b = 2.0 * h * h
        c = (1.0 - a) / t2
        d = (0.5 - b) / t2
    wx = skew(w)
    return wx, wx @ wx, a, b, c, d


def so3_gammas(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The series Gamma_k(w) = sum_n (w^)^n / (n + k)! for k = 0, 1, 2.

    Gamma_0 = exp(w^) = I + a*w^ + b*w^2       (Rodrigues)
    Gamma_1 = J_l(w)  = I + b*w^ + c*w^2       (left Jacobian)
    Gamma_2           = I/2 + c*w^ + d*w^2     (second integral, used by propagation)

    where a = sin(t)/t, b = (1-cos t)/t^2, c = (t-sin t)/t^3 and
    d = (t^2 + 2cos t - 2)/(2 t^4).  Since Gamma_k = I/k! + w^ Gamma_{k+1},
    a = 1 - t^2 c and b = 1/2 - t^2 d.  Below ``SERIES_ANGLE`` c and d come
    from their power series, above it a and b from sines; each side uses
    the pair that does not cancel.  ``w`` is one 3-vector: every caller
    evaluates it once per step.
    """
    wx, wx2, a, b, c, d = _series_terms(w)
    return (
        _EYE3 + a * wx + b * wx2,
        _EYE3 + b * wx + c * wx2,
        0.5 * _EYE3 + c * wx + d * wx2,
    )


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Logarithm map SO(3) -> so(3) as rotation vectors.

    Batched over leading axes: (..., 3, 3) -> (..., 3).  The angle comes
    from the trace; the axis from the skew part, scaled by
    theta / sin(theta), which is replaced by its Taylor series below
    ``SMALL_ANGLE_EPS``.  Raises ValueError for angles within
    ``PI_SINGULARITY_EPS`` of pi, where the axis is not recoverable from
    the skew part; the filter never visits that regime.
    """
    rot = np.asarray(rot, dtype=float)
    trace = np.trace(rot, axis1=-2, axis2=-1)
    theta = np.arccos(np.clip(0.5 * (trace - 1.0), -1.0, 1.0))
    if np.any(theta >= math.pi - PI_SINGULARITY_EPS):
        raise ValueError(
            f"rotation angle {np.max(theta):.9f} rad is within "
            f"{PI_SINGULARITY_EPS} of pi; log map is singular there"
        )
    small = theta < SMALL_ANGLE_EPS
    factor = np.where(
        small, 1.0 + theta * theta / 6.0, theta / np.where(small, 1.0, np.sin(theta))
    )
    return unskew(rot - np.swapaxes(rot, -1, -2)) * (0.5 * factor)[..., None]


def so3_left_jacobian_inv(w: np.ndarray) -> np.ndarray:
    """Inverse left Jacobian J_l^-1 of SO(3), batched over leading axes."""
    w = np.asarray(w, dtype=float)
    t2 = np.sum(w * w, axis=-1)
    theta = np.sqrt(t2)
    small = theta < SMALL_ANGLE_EPS
    t = np.where(small, 1.0, theta)
    coeff = np.where(
        small,
        1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
        1.0 / (t * t) - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t)),
    )
    wx = skew(w)
    return _EYE3 - 0.5 * wx + coeff[..., None, None] * (wx @ wx)


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


def renormalized(rot, vel, pos, chain: int) -> Se23Element:
    """The element (rot, vel, pos) ``chain`` compositions after the last
    re-orthonormalization; past ``RENORM_CHAIN_LENGTH`` the rotation is
    re-orthonormalized and the count restarts."""
    if chain > RENORM_CHAIN_LENGTH:
        return Se23Element(orthonormalize(rot), vel, pos, 0)
    return Se23Element(rot, vel, pos, chain)


def compose(a: Se23Element, b: Se23Element) -> Se23Element:
    """Group composition a * b, with periodic rotation re-orthonormalization."""
    return renormalized(
        a.rot @ b.rot,
        a.rot @ b.vel + a.vel,
        a.rot @ b.pos + a.pos,
        a.chain + b.chain + 1,
    )


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

    Closed form: Rodrigues rotation (Gamma_0), with the left Jacobian
    (Gamma_1) applied to the velocity and position components; Gamma_2 is
    not built.
    """
    v = np.asarray(v, dtype=float)
    wx, wx2, a, b, c, _ = _series_terms(v[0:3])
    jl = _EYE3 + b * wx + c * wx2
    return Se23Element(_EYE3 + a * wx + b * wx2, jl @ v[3:6], jl @ v[6:9])


def log_se23(x: Se23Element) -> np.ndarray:
    """Logarithm map SE2(3) -> R^9, inverse of :func:`exp_se23`.

    Batched over leading axes of the element's arrays.
    """
    w = so3_log(x.rot)
    jinv = so3_left_jacobian_inv(w)
    vel = np.einsum("...ij,...j->...i", jinv, x.vel)
    pos = np.einsum("...ij,...j->...i", jinv, x.pos)
    return np.concatenate([w, vel, pos], axis=-1)
