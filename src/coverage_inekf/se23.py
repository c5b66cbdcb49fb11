"""Matrix Lie-group machinery for SO(3) and the extended pose group SE2(3).

An extended pose packs orientation R, velocity v, and position p into one
5x5 matrix

    X = [R  v  p]
        [0  1  0]
        [0  0  1]

with tangent vectors ordered (rotation, velocity, position).  That ordering
is a global convention of this package; the 15-dimensional filter error
state appends (accel bias, gyro bias) to it.

Elements are plain values: every operation returns new arrays and none
writes into an element's arrays, so elements may share them (the filter's
states share the ones a step leaves unchanged).  Nothing
re-orthonormalizes a rotation.  Products of rotations leave SO(3) only at
roundoff, linearly in their number (figures in :class:`Se23Element`): the
filter's estimate stayed within 2.7e-14 of SO(3), max |R R^T - I|, over
60 s, 100 Hz campaigns of both noise models and both arms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this rotation angle (rad) so3_log and so3_left_jacobian_inv switch to
# Taylor expansions to avoid 0/0.
SMALL_ANGLE_EPS = 1e-4

# Below this rotation angle (rad) so3_gammas takes c and d from their power
# series: their closed forms lose eps/theta^2 of relative accuracy to
# cancellation.  Through t^8, the truncation error stays below 1e-16 here.
SERIES_ANGLE = 0.25

# log() is a hard error within this distance of the pi singularity.
PI_SINGULARITY_EPS = 1e-6


# Levi-Civita tensor with the sign of the hat map, flattened so that one
# product gives every entry: skew(v).ravel() == v @ _HAT.
_HAT = np.zeros((3, 3, 3))
_HAT[2, 0, 1] = _HAT[0, 1, 2] = _HAT[1, 2, 0] = -1.0
_HAT[1, 0, 2] = _HAT[2, 1, 0] = _HAT[0, 2, 1] = 1.0
_HAT = _HAT.reshape(3, 9)
_HAT.setflags(write=False)

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrices of 3-vectors (so(3) hat operator).

    Batched over leading axes: (..., 3) -> (..., 3, 3).
    """
    v = np.asarray(v)
    return np.dot(v, _HAT).reshape(v.shape + (3,))


def unskew(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`skew`, batched over leading axes."""
    return m[..., [2, 0, 1], [1, 2, 0]]


def so3_gammas(w: np.ndarray) -> np.ndarray:
    """The series Gamma_k(w) = sum_n (w^)^n / (n + k)! for k = 0, 1, 2,
    stacked as a (3, 3, 3) array.

    Gamma_0 = exp(w^) = I + a*w^ + b*w^2       (Rodrigues)
    Gamma_1 = J_l(w)  = I + b*w^ + c*w^2       (left Jacobian)
    Gamma_2           = I/2 + c*w^ + d*w^2     (second integral, used by propagation)

    where a = sin(t)/t, b = (1-cos t)/t^2, c = (t-sin t)/t^3 and
    d = (t^2 + 2cos t - 2)/(2 t^4).  Since Gamma_k = I/k! + w^ Gamma_{k+1},
    a = 1 - t^2 c and b = 1/2 - t^2 d.  Below ``SERIES_ANGLE`` c and d come
    from their power series, above it a and b from sines; each side uses
    the pair that does not cancel.

    The basis [I, w^, w^2] is written as one (3, 9) array straight from the
    components of ``w`` (w^2 = w w^T - t^2 I), and all three Gamma_k come
    from one product with the coefficient rows.  ``w`` is one 3-vector:
    every caller evaluates it once per step.
    """
    x, y, z = np.asarray(w, dtype=float).tolist()
    xx, yy, zz = x * x, y * y, z * z
    t2 = xx + yy + zz
    theta = math.sqrt(t2)
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
    xy, xz, yz = x * y, x * z, y * z
    basis = np.array([
        1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0,
        0.0, -z, y, z, 0.0, -x, -y, x, 0.0,
        -(yy + zz), xy, xz, xy, -(xx + zz), yz, xz, yz, -(xx + yy),
    ]).reshape(3, 9)
    coef = np.array([1.0, a, b, 1.0, b, c, 0.5, c, d]).reshape(3, 3)
    return np.dot(coef, basis).reshape(3, 3, 3)


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


@dataclass
class Se23Element:
    """Extended pose: orientation, velocity, and position.

    A plain value: no operation re-orthonormalizes ``rot``.  Composed
    with one 0.3 rad element over and over, it drifts max |R R^T - I| to
    7.0e-14 after 1e3 compositions, 7.4e-13 after 1e4 and 7.3e-12 after 1e5.
    """

    rot: np.ndarray
    vel: np.ndarray
    pos: np.ndarray

    @classmethod
    def identity(cls) -> "Se23Element":
        return cls(np.eye(3), np.zeros(3), np.zeros(3))


def compose(a: Se23Element, b: Se23Element) -> Se23Element:
    """Group composition a * b."""
    return Se23Element(
        np.dot(a.rot, b.rot),
        np.dot(a.rot, b.vel) + a.vel,
        np.dot(a.rot, b.pos) + a.pos,
    )


def exp_se23(v: np.ndarray) -> Se23Element:
    """Exponential map R^9 -> SE2(3).

    Closed form: Rodrigues rotation (Gamma_0), with the left Jacobian
    (Gamma_1) applied to the velocity and position components in one
    product.
    """
    v = np.asarray(v, dtype=float)
    gammas = so3_gammas(v[0:3])
    vel_pos = np.dot(v[3:9].reshape(2, 3), gammas[1].T)
    return Se23Element(gammas[0], vel_pos[0], vel_pos[1])


def log_se23(x: Se23Element) -> np.ndarray:
    """Logarithm map SE2(3) -> R^9, inverse of :func:`exp_se23`.

    Batched over leading axes of the element's arrays.
    """
    w = so3_log(x.rot)
    jinv = so3_left_jacobian_inv(w)
    vel = np.einsum("...ij,...j->...i", jinv, x.vel)
    pos = np.einsum("...ij,...j->...i", jinv, x.pos)
    return np.concatenate([w, vel, pos], axis=-1)
