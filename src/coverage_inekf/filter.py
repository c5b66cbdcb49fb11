"""Invariant extended Kalman filtering core for an IMU-driven rigid body.

State: an SE2(3) extended pose plus accelerometer and gyroscope biases.
Uncertainty lives on the 15-dimensional right-invariant error state

    (xi_rot, xi_vel, xi_pos, d_bias_accel, d_bias_gyro)

following the package-wide tangent ordering.  The module provides strapdown
propagation of the state and the error covariance, the on-manifold
correction operator, and a baseline Gaussian update for body-frame velocity
measurements.

Every update folds its error-mean correction into the state estimate, so
the error mean is reset to zero after each update (the standard invariant
EKF reset) and stays zero under propagation.  The error belief is therefore
carried as its 15x15 covariance alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from coverage_inekf import se23
from coverage_inekf.se23 import _EYE3, Se23Element, skew

# Gravity in the world frame (m/s^2).
GRAVITY = np.array([0.0, 0.0, -9.81])

ERROR_DIM = 15
NOISE_DIM = 12

# Matrices that must be inverted (projected priors, innovation covariances)
# are rejected above this condition number.
MAX_COND = 1e12


@dataclass
class AugmentedState:
    """Navigation state plus IMU biases."""

    nav: Se23Element
    bias_accel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))

    @classmethod
    def identity(cls) -> "AugmentedState":
        return cls(Se23Element.identity())


def _diag_of_squares(*blocks) -> np.ndarray:
    """Diagonal matrix of squared per-block values, each a scalar or a
    3-vector broadcast to three axes."""
    x = np.concatenate(
        [np.broadcast_to(np.atleast_1d(np.asarray(s, dtype=float)), (3,))
         for s in blocks]
    )
    return np.diag(x**2)


def cov_from_std(rot, vel, pos, bias_accel, bias_gyro) -> np.ndarray:
    """Diagonal 15x15 error covariance from per-block standard deviations."""
    return _diag_of_squares(rot, vel, pos, bias_accel, bias_gyro)


@dataclass
class ImuSample:
    """One accelerometer/gyroscope reading over a time step."""

    accel: np.ndarray
    gyro: np.ndarray
    dt: float

    def __post_init__(self):
        self.accel = np.asarray(self.accel, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)
        if not 0.0 < self.dt <= 0.1:
            raise ValueError(f"dt must lie in (0, 0.1] s, got {self.dt}")


@dataclass
class ProcessNoise:
    """Continuous-time noise power densities as a 12x12 PSD matrix.

    Block order matches the process noise vector
    (accel, gyro, accel bias walk, gyro bias walk).
    """

    q: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        if self.q.shape != (NOISE_DIM, NOISE_DIM):
            raise ValueError("Q must be 12x12")
        if np.abs(self.q - self.q.T).max() > 1e-12:
            raise ValueError("Q must be symmetric")
        if np.linalg.eigvalsh(self.q).min() < -1e-12:
            raise ValueError("Q must be PSD")

    @classmethod
    def from_densities(cls, accel, gyro, accel_bias, gyro_bias) -> "ProcessNoise":
        """Diagonal Q from white-noise densities (per-axis or scalar)."""
        return cls(_diag_of_squares(accel, gyro, accel_bias, gyro_bias))


def velocity_output_matrix(rot: np.ndarray) -> np.ndarray:
    """Observation matrix H of the body-velocity invariant output.

    Linearizing the output through the right-invariant error gives
    H = [0, -R^T, 0, 0, 0]: only the velocity error enters, rotated into the
    body frame; bias columns are zero.  Both update rules apply it by its
    velocity block (:func:`velocity_projection`).
    """
    h = np.zeros((3, ERROR_DIM))
    h[:, 3:6] = -rot.T
    return h


def predicted_body_velocity(x: AugmentedState) -> np.ndarray:
    """First three components of the invariant output X^-1 d."""
    return x.nav.rot.T @ x.nav.vel


def velocity_residual(x: AugmentedState, meas: np.ndarray) -> np.ndarray:
    """Innovation of a body-velocity measurement, shared by both update rules.

    Raises ValueError on a non-finite measurement, which neither rule can
    use.
    """
    meas = np.asarray(meas, dtype=float)
    if not np.isfinite(meas).all():
        raise ValueError(f"measurement must be finite, got {meas}")
    return meas - predicted_body_velocity(x)


def velocity_projection(cov: np.ndarray, rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sigma H^T and H Sigma H^T for H = :func:`velocity_output_matrix` (rot).

    H is applied by its velocity block alone: Sigma H^T = -Sigma[:, 3:6] R
    and H Sigma H^T is -R^T times that product's velocity rows.  Both update
    rules project their prior through it.
    """
    sigma_ht = -(cov[:, 3:6] @ rot)
    return sigma_ht, -rot.T @ sigma_ht[3:6]


def check_conditioning(m: np.ndarray, what: str) -> None:
    """Raise LinAlgError unless the 3x3 matrix ``m`` is positive definite
    with cond <= MAX_COND.

    Definiteness is Sylvester's test: the leading minors m00,
    m00 m11 - m01 m10 and det must all be positive.  Conditioning is
    screened with the SPD bound cond <= trace^d / det, and the exact
    condition number is computed only when the bound trips, so the common
    case costs one determinant and two products.  A non-finite matrix fails
    both checks.
    """
    with np.errstate(invalid="ignore"):
        det = np.linalg.det(m)
    spd = m[0, 0] > 0.0 and m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] > 0.0 and det > 0.0
    if spd and np.trace(m) ** m.shape[0] <= MAX_COND * det:
        return
    cond = float(np.linalg.cond(m))
    if not spd:
        raise np.linalg.LinAlgError(
            f"{what} is not positive definite (cond={cond:.3e})"
        )
    if not np.isfinite(cond) or cond > MAX_COND:
        raise np.linalg.LinAlgError(
            f"{what} is numerically singular (cond={cond:.3e})"
        )


def propagate_mean(x: AugmentedState, u: ImuSample) -> AugmentedState:
    """Strapdown propagation of the state estimate over one IMU sample.

    Bias-corrected rates are held constant over the interval, for which the
    closed form below is exact: the rotation advances by the SO(3)
    exponential while velocity and position use its first and second
    integrals.  Biases are constant under the nominal dynamics.
    """
    w = (u.gyro - x.bias_gyro) * u.dt
    a = u.accel - x.bias_accel
    rot, vel, pos = x.nav.rot, x.nav.vel, x.nav.pos
    gamma0, gamma1, gamma2 = se23.so3_gammas(w)
    dt = u.dt
    nav = se23.renormalized(
        rot @ gamma0,
        vel + (rot @ (gamma1 @ a) + GRAVITY) * dt,
        pos + vel * dt + (rot @ (gamma2 @ a) + 0.5 * GRAVITY) * dt * dt,
        x.nav.chain + 1,
    )
    return AugmentedState(nav, x.bias_accel.copy(), x.bias_gyro.copy())


def error_dynamics_matrices(x: AugmentedState) -> tuple[np.ndarray, np.ndarray]:
    """Continuous right-invariant error dynamics (A, N).

    d/dt delta = A delta + N w, with w the 12-dim process noise in the order
    (accel, gyro, accel bias walk, gyro bias walk), evaluated at the current
    estimate.  N's top 9x9 action is the group adjoint carrying body-frame
    IMU noise into the invariant error coordinates.
    """
    rot, vel, pos = x.nav.rot, x.nav.vel, x.nav.pos
    vx_r = skew(vel) @ rot
    px_r = skew(pos) @ rot

    a_mat = np.zeros((ERROR_DIM, ERROR_DIM))
    a_mat[0:3, 12:15] = -rot
    a_mat[3:6, 0:3] = skew(GRAVITY)
    a_mat[3:6, 9:12] = -rot
    a_mat[3:6, 12:15] = -vx_r
    a_mat[6:9, 3:6] = _EYE3
    a_mat[6:9, 12:15] = -px_r

    n_mat = np.zeros((ERROR_DIM, NOISE_DIM))
    n_mat[0:3, 3:6] = rot
    n_mat[3:6, 0:3] = rot
    n_mat[3:6, 3:6] = vx_r
    n_mat[6:9, 3:6] = px_r
    n_mat[9:12, 6:9] = -_EYE3
    n_mat[12:15, 9:12] = -_EYE3
    return a_mat, n_mat


def transition_from_dynamics(a_mat: np.ndarray, dt: float) -> np.ndarray:
    """exp(A dt) for the error dynamics matrix.

    A is nilpotent of index 4 (gravity feeds velocity feeds position, biases
    feed nothing), so the exponential equals the finite sum
    I + A dt + A^2 dt^2/2 + A^3 dt^3/6 exactly.
    """
    a_dt = a_mat * dt
    a2 = a_dt @ a_dt
    phi = a_dt + 0.5 * a2 + (a2 @ a_dt) / 6.0
    phi.flat[:: ERROR_DIM + 1] += 1.0
    return phi


def error_transition(
    x: AugmentedState, u: ImuSample, noise: ProcessNoise
) -> tuple[np.ndarray, np.ndarray]:
    """Discrete error-state transition Phi and process noise Q_d.

    Phi is the exact exponential of the continuous dynamics over dt; Q_d
    uses the first-order discretization Phi N Q N^T Phi^T dt.
    """
    a_mat, n_mat = error_dynamics_matrices(x)
    phi = transition_from_dynamics(a_mat, u.dt)
    phi_n = phi @ n_mat
    q_d = (phi_n @ noise.q @ phi_n.T) * u.dt
    return phi, 0.5 * (q_d + q_d.T)


def propagate_cov(cov: np.ndarray, phi: np.ndarray, q_d: np.ndarray) -> np.ndarray:
    """Covariance propagation Phi Sigma Phi^T + Q_d, symmetrized."""
    cov = phi @ cov @ phi.T + q_d
    return 0.5 * (cov + cov.T)


def apply_correction(x: AugmentedState, delta: np.ndarray) -> AugmentedState:
    """On-manifold correction: nav <- exp(-xi^) nav, biases <- b - d_bias."""
    delta = np.asarray(delta, dtype=float)
    nav = se23.compose(se23.exp_se23(-delta[0:9]), x.nav)
    return AugmentedState(
        nav, x.bias_accel - delta[9:12], x.bias_gyro - delta[12:15]
    )


def realized_error(x_est: AugmentedState, x_true: AugmentedState) -> np.ndarray:
    """Error-state realization consistent with the correction operator.

    Returns delta such that x_true == x_est boxplus delta (to the group's
    exactness): the log of the right-invariant error, with bias differences
    appended.  Batched over leading axes of the states' arrays.
    """
    rot_e = x_est.nav.rot @ np.swapaxes(x_true.nav.rot, -1, -2)
    nav_e = Se23Element(
        rot_e,
        x_est.nav.vel - np.einsum("...ij,...j->...i", rot_e, x_true.nav.vel),
        x_est.nav.pos - np.einsum("...ij,...j->...i", rot_e, x_true.nav.pos),
    )
    return np.concatenate(
        [
            se23.log_se23(nav_e),
            x_est.bias_accel - x_true.bias_accel,
            x_est.bias_gyro - x_true.bias_gyro,
        ],
        axis=-1,
    )


def gaussian_update(
    x: AugmentedState,
    cov: np.ndarray,
    meas: np.ndarray,
    r: np.ndarray,
) -> tuple[AugmentedState, np.ndarray]:
    """Baseline right-invariant Kalman update for a body-velocity measurement.

    ``meas`` is the measured body-frame velocity, ``r`` its assumed Gaussian
    noise covariance.  Innovation is formed from the invariant output
    residual; the posterior error mean is folded into the state and the
    posterior covariance is returned.

    H = [0, -R^T, 0, 0, 0] (:func:`velocity_output_matrix`) is applied by
    its velocity block alone (:func:`velocity_projection`), and I - K H
    differs from the identity only in the velocity columns, by K R^T.
    """
    r = np.asarray(r, dtype=float)
    rot = x.nav.rot
    residual = velocity_residual(x, meas)

    pht, hpht = velocity_projection(cov, rot)
    s = hpht + r
    check_conditioning(s, "innovation covariance")
    k = pht @ np.linalg.inv(s)

    ikh = np.eye(ERROR_DIM)
    ikh[:, 3:6] += k @ rot.T
    cov = ikh @ cov @ ikh.T + k @ r @ k.T
    x_new = apply_correction(x, k @ residual)
    return x_new, 0.5 * (cov + cov.T)
