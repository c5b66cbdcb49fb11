"""Invariant extended Kalman filtering core for an IMU-driven rigid body.

State: an SE2(3) extended pose plus accelerometer and gyroscope biases.
Uncertainty lives on the 15-dimensional right-invariant error state

    (xi_rot, xi_vel, xi_pos, d_bias_accel, d_bias_gyro)

following the package-wide tangent ordering.  The module provides strapdown
propagation of the state and the error covariance, the on-manifold
correction operator, the steps of the body-velocity measurement update
and its baseline Gaussian rule.

Every update runs one pipeline, :func:`coverage_inekf.coverage.update`:
the residual of the measurement against :func:`predicted_body_velocity`,
:func:`velocity_projection` onto z = H dx, a 3x3 rule
``rule(cov_z, residual, arm)`` on the unsymmetrized cov_z, and one lift,
:func:`lift_and_apply`.  The rule returns ``(lift, diag)``, ``lift``
None to leave the state alone or a weight W, a correction y and a noise N
in z; with K = Sigma H^T W the posterior is the Joseph form
(I - K H) Sigma (I - K H)^T + K N K^T.  Kalman's rule,
:func:`gaussian_update`, lifts ((H Sigma H^T + R)^-1, residual, R); the
coverage rule lifts (cov_z^-1, its moment-matched z mean and covariance
P'), giving Sigma + K (P' - cov_z) K^T.  Both inverses pass
:func:`spd_factor`'s screen and are taken from its factor by
:func:`factor_inverse`; the factor is the package's one SPD factorization,
:func:`coverage_inekf.tmvn.cholesky`.  The coverage rule screens first and
inverts cov_z only on an active update.  The Joseph form is a sum of PSD
terms; the shorter Sigma + Sigma H^T B H Sigma cancels when R << H Sigma H^T
and went indefinite by up to 2.2e-7 of ||Sigma|| on test priors with R in
[1e-14, 1e-8].

Every update folds its error-mean correction into the state estimate, so
the error mean is reset to zero after each update (the standard invariant
EKF reset) and stays zero under propagation.  The error belief is therefore
carried as its 15x15 covariance alone.

The error dynamics d/dt delta = A delta + N w have a nilpotent A (index 4),
so the transition Phi = exp(A dt) = I + A dt + A^2 dt^2/2 + A^3 dt^3/6 has
a closed form (Hartley et al. 2020, "Contact-aided invariant extended
Kalman filtering for robot state estimation", IJRR).  Besides the identity
its nonzero blocks, with g^ the skew of gravity, are

    Phi[r, bg] = -R dt
    Phi[v, r]  = g^ dt
    Phi[v, ba] = -R dt
    Phi[v, bg] = -v^R dt - g^R dt^2/2
    Phi[p, r]  = g^ dt^2/2
    Phi[p, v]  = I dt
    Phi[p, ba] = -R dt^2/2
    Phi[p, bg] = -p^R dt - v^R dt^2/2 - g^R dt^3/6

and Phi N is a combination of the same matrices, so both are built from
the features [R, v^R, p^R, g^R, g^, I] without forming A.  Every block
uses either the four that depend on the state or the constant two, so the
constant blocks, like every coefficient, depend on dt alone; a step builds
only the others, from one product (12x3) R of [I; v^; p^; g^].

The step functions trust their inputs: IMU readings that are finite
3-vectors, a step dt in (0, 0.1] s, a finite measurement 3-vector and an R
that is a symmetric positive-definite 3x3.
:func:`coverage_inekf.sim.filter_stream`, where streams enter the step
loop, checks all of these once, before the first step.

States are values of two arrays, the navigation rows [R | v | p], shape
(3, 5), and the biases, shape (6,).  Every function here returns new
arrays for what it changes, shares the arrays it leaves unchanged with its
input, and writes into no state's arrays.  Propagation is one product and
one add, x M + g_dt (:func:`propagate_mean`), a new [R | v | p] beside the
input's bias array; a correction makes both arrays anew; an update that
leaves the state alone returns it as it is.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from coverage_inekf import se23
from coverage_inekf.se23 import _EYE3, Se23Element, skew
from coverage_inekf.tmvn import cholesky

# Gravity in the world frame (m/s^2).
GRAVITY = np.array([0.0, 0.0, -9.81])
GRAVITY.setflags(write=False)

ERROR_DIM = 15
NOISE_DIM = 12

# Matrices that must be inverted (projected priors, innovation covariances)
# are rejected above this condition number.
MAX_COND = 1e12


@dataclass
class AugmentedState:
    """Navigation state plus IMU biases: ``bias`` is one (..., 6) array,
    the accelerometer bias then the gyroscope bias, read through the views
    ``bias_accel`` and ``bias_gyro``.  The split matches the error state:
    delta[:9] corrects ``nav`` and delta[9:] ``bias``.

    A value: states may share arrays (module docstring), so code that
    holds one never writes into its arrays.  Batched over leading axes of
    the arrays where a function says so.
    """

    nav: Se23Element
    bias: np.ndarray = field(default_factory=lambda: np.zeros(6))

    @property
    def bias_accel(self) -> np.ndarray:
        return self.bias[..., :3]

    @property
    def bias_gyro(self) -> np.ndarray:
        return self.bias[..., 3:]

    @classmethod
    def identity(cls) -> "AugmentedState":
        return cls(Se23Element.identity())


def _finite_real(s) -> bool:
    """Whether ``s`` is a finite real number.  A bool is not one, though it
    compares as 0 or 1, nor is a string or an array."""
    return isinstance(s, numbers.Real) and not isinstance(s, bool) and math.isfinite(s)


def _check_deviations(*stds) -> None:
    """Raise ValueError unless every deviation is a finite real >= 0."""
    if not all(_finite_real(s) and s >= 0.0 for s in stds):
        raise ValueError(f"deviations must be finite scalars >= 0, got {stds}")


def cov_from_std(rot, vel, pos, bias_accel, bias_gyro) -> np.ndarray:
    """Diagonal 15x15 error covariance from per-block standard deviations,
    each a scalar shared by three axes."""
    stds = (rot, vel, pos, bias_accel, bias_gyro)
    _check_deviations(*stds)
    return np.diag(np.repeat(np.array(stds, dtype=float), 3) ** 2)


@dataclass(frozen=True)
class ProcessNoise:
    """Continuous-time white-noise densities of the IMU, one scalar per
    block, shared by its three axes: accelerometer, gyroscope, accelerometer
    bias walk and gyroscope bias walk.

    A negative or non-finite density raises ValueError.  ``_tables`` holds
    :func:`error_transition`'s tables for this noise, keyed by dt, at most
    ``TABLES_PER_NOISE`` of them.
    """

    accel: float
    gyro: float
    accel_bias: float
    gyro_bias: float
    _tables: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        _check_deviations(self.accel, self.gyro, self.accel_bias, self.gyro_bias)


def predicted_body_velocity(x: AugmentedState) -> np.ndarray:
    """First three components of the invariant output X^-1 d."""
    return np.dot(x.nav.rot.T, x.nav.vel)


def velocity_projection(cov: np.ndarray, rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sigma H^T and H Sigma H^T for the body-velocity output matrix H.

    Linearizing the invariant output X^-1 d through the right-invariant
    error gives H = [0, -R^T, 0, 0, 0]: only the velocity error enters,
    rotated into the body frame.  H is never formed; it is applied by its
    velocity block alone: Sigma H^T = -Sigma[:, 3:6] R
    and H Sigma H^T is -R^T times that product's velocity rows.  Every
    update projects its prior through it.
    """
    neg_rot = -rot
    sigma_ht = np.dot(cov[:, 3:6], neg_rot)
    return sigma_ht, np.dot(neg_rot.T, sigma_ht[3:6])


def spd_factor(rows: list, what: str) -> tuple[list, list]:
    """Cholesky factor and pivots of the symmetric 3x3 matrix ``rows``
    (nested lists, lower triangle factored): the screen every matrix the
    update rules invert passes.

    Raises LinAlgError unless ``rows`` is positive definite with
    cond <= MAX_COND.  Definiteness is that :func:`~coverage_inekf.tmvn.cholesky`
    factors it and that the upper triangle is finite.  Conditioning is
    screened with cond <= trace^3 / det, det the product of the pivots, and
    the exact condition number is computed only when the bound trips, as an
    infinite diagonal entry makes it.
    """
    try:
        factor = cholesky(rows)
        p0, p1, p2 = factor[1]
    except np.linalg.LinAlgError:
        p0 = p1 = p2 = math.nan
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = p0 * p1 * p2 if math.isfinite(b + c + f) else math.nan
    trace = a + e + i
    if not trace * trace * trace <= MAX_COND * det < math.inf:
        finite = all(map(math.isfinite, (a, b, c, d, e, f, g, h, i)))
        cond = float(np.linalg.cond(rows)) if finite else math.nan
        fault = "not positive definite" if math.isnan(det) else "numerically singular"
        if math.isnan(det) or not cond <= MAX_COND:
            raise np.linalg.LinAlgError(f"{what} is {fault} (cond={cond:.3e})")
    return factor


def factor_inverse(chol: list, pivots: list) -> np.ndarray:
    """The inverse L^-T L^-1 of a 3x3 matrix from its :func:`spd_factor`,
    written out as V^T D^-1 V, V the inverse of the unit lower factor
    L diag(L)^-1 and D the pivots, so a diagonal matrix inverts exactly."""
    (l00, _, _), (l10, l11, _), (l20, l21, _) = chol
    q1, q2 = 1.0 / pivots[1], 1.0 / pivots[2]
    t10, t21 = l10 / l00, l21 / l11
    v20 = t10 * t21 - l20 / l00
    v20q2 = v20 * q2
    m01, m12 = -(t10 * q1 + v20q2 * t21), -t21 * q2
    return np.array([
        1.0 / pivots[0] + t10 * t10 * q1 + v20 * v20q2, m01, v20q2,
        m01, q1 + t21 * t21 * q2, m12,
        v20q2, m12, q2,
    ]).reshape(3, 3)


def propagate_mean(
    x: AugmentedState, accel: np.ndarray, gyro: np.ndarray, dt: float,
    noise: ProcessNoise,
) -> AugmentedState:
    """Strapdown propagation of the state estimate over one IMU sample,
    the accelerometer and gyroscope 3-vectors held over dt.

    Bias-corrected rates w and a are held constant over the interval, for
    which the closed form is exact (Barrau & Bonnabel 2017): X+ = G X U
    on the 5x5 matrices, with the increment U from the rates and G from
    gravity.  On the element's rows [R | v | p] that is x+ = x M + g_dt,

        M = [Gamma_0  Gamma_1 a dt  Gamma_2 a dt^2]    g_dt = [0 | g dt | g dt^2/2]
            [0        1             dt            ]
            [0        0             1             ]

    with Gamma_k(w dt) from :func:`~coverage_inekf.se23.gamma_block`: the
    rotation advances by the SO(3) exponential while velocity and position
    use its first and second integrals.  M is built from floats by one
    array call; g_dt depends on dt alone and is kept with ``noise``'s
    other tables of this dt (:func:`_tables_at`), the only reason the
    mean's propagation takes the noise.  Biases are constant under the
    nominal dynamics, so the result shares the input's bias array.
    """
    ax, ay, az, wx, wy, wz = (np.concatenate((accel, gyro)) - x.bias).tolist()
    dt2 = dt * dt
    # [Gamma_0 | Gamma_1 a dt  Gamma_2 a dt^2] at w dt
    top = se23.gamma_block(
        (wx * dt, wy * dt, wz * dt), (ax * dt, ay * dt, az * dt),
        (ax * dt2, ay * dt2, az * dt2), 2,
    )
    m = np.array(top + [0.0, 0.0, 0.0, 1.0, dt, 0.0, 0.0, 0.0, 0.0, 1.0]).reshape(5, 5)
    nav = Se23Element(np.dot(x.nav.x, m) + _tables_at(dt, noise)[2])
    return AugmentedState(nav, x.bias)


# The closed-form transition's features: the four that depend on the state,
# the rows of [I; v^; p^; g^] R in order, and the two constants.
_FEATURES = ("R", "v^R", "p^R", "g^R")
_STATE_FEATURES = len(_FEATURES)
_CONSTANTS = {"g^": skew(GRAVITY).ravel(), "I": _EYE3.ravel()}

# [I; v^; p^; g^] flattened: one product of the element's 15 entries
# [R | v | p], row by row, with this map, plus the constant blocks
_STACK_MAP = np.zeros((15, 36))
_STACK_MAP[3::5, 9:18] = _STACK_MAP[4::5, 18:27] = se23._HAT
_STACK_MAP.setflags(write=False)
_STACK_BASE = np.concatenate((_CONSTANTS["I"], np.zeros(18), _CONSTANTS["g^"]))
_STACK_BASE.setflags(write=False)

# Nonzero 3x3 blocks of Phi (15x15, error blocks rot, vel, pos, accel bias,
# gyro bias) and of Phi N (15x12, noise blocks accel, gyro, accel-bias walk,
# gyro-bias walk), keyed by (matrix, row block, column block).  A term
# (feature, s, k) contributes s * feature * dt^k / k!.
_TRANSITION_BLOCKS = {
    ("phi", 0, 0): (("I", 1, 0),),
    ("phi", 0, 4): (("R", -1, 1),),
    ("phi", 1, 0): (("g^", 1, 1),),
    ("phi", 1, 1): (("I", 1, 0),),
    ("phi", 1, 3): (("R", -1, 1),),
    ("phi", 1, 4): (("v^R", -1, 1), ("g^R", -1, 2)),
    ("phi", 2, 0): (("g^", 1, 2),),
    ("phi", 2, 1): (("I", 1, 1),),
    ("phi", 2, 2): (("I", 1, 0),),
    ("phi", 2, 3): (("R", -1, 2),),
    ("phi", 2, 4): (("p^R", -1, 1), ("v^R", -1, 2), ("g^R", -1, 3)),
    ("phi", 3, 3): (("I", 1, 0),),
    ("phi", 4, 4): (("I", 1, 0),),
    ("phi_n", 0, 1): (("R", 1, 0),),
    ("phi_n", 0, 3): (("R", 1, 1),),
    ("phi_n", 1, 0): (("R", 1, 0),),
    ("phi_n", 1, 1): (("v^R", 1, 0), ("g^R", 1, 1)),
    ("phi_n", 1, 2): (("R", 1, 1),),
    ("phi_n", 1, 3): (("v^R", 1, 1), ("g^R", 1, 2)),
    ("phi_n", 2, 0): (("R", 1, 1),),
    ("phi_n", 2, 1): (("p^R", 1, 0), ("v^R", 1, 1), ("g^R", 1, 2)),
    ("phi_n", 2, 2): (("R", 1, 2),),
    ("phi_n", 2, 3): (("p^R", 1, 1), ("v^R", 1, 2), ("g^R", 1, 3)),
    ("phi_n", 3, 2): (("I", -1, 0),),
    ("phi_n", 4, 3): (("I", -1, 0),),
}
_BUFFER = ERROR_DIM * (ERROR_DIM + NOISE_DIM)


def _transition_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of :func:`_tables_at` as polynomials in
    (1, dt, dt^2/2, dt^3/6), shape (4, columns): first the buffer holding
    Phi then Phi N with the constant blocks in place, then the state
    blocks' coefficients of [R, v^R, p^R, g^R], four per block.  Also each
    column's scale, 0 for Phi and 1 + j for noise block j, and the flat
    positions of the state blocks' entries in the buffer."""
    base, coef = np.zeros((4, _BUFFER)), []
    scale, coef_scale, index = np.zeros(_BUFFER, dtype=int), [], []
    entry = np.arange(3)
    for (matrix, i, j), terms in _TRANSITION_BLOCKS.items():
        cols, offset = (
            (ERROR_DIM, 0) if matrix == "phi" else (NOISE_DIM, ERROR_DIM * ERROR_DIM)
        )
        at = offset + ((3 * i + entry)[:, None] * cols + 3 * j + entry).ravel()
        scale[at] = 0 if matrix == "phi" else 1 + j
        if terms[0][0] in _CONSTANTS:
            for feature, sign, k in terms:
                base[k, at] += sign * _CONSTANTS[feature]
            continue
        block = np.zeros((4, _STATE_FEATURES))
        for feature, sign, k in terms:
            block[k, _FEATURES.index(feature)] = sign
        coef.append(block)
        coef_scale += [scale[at[0]]] * _STATE_FEATURES
        index.append(at)
    poly = np.concatenate((base, np.stack(coef, axis=1).reshape(4, -1)), axis=1)
    tables = poly, np.concatenate((scale, coef_scale)), np.concatenate(index)
    for table in tables:
        table.setflags(write=False)
    return tables


_POLY, _POLY_SCALE, _STATE_INDEX = _transition_tables()

# error_transition's tables kept per ProcessNoise: the 10-14 distinct float
# steps of a uniform 100 Hz grid fit; a full cache is emptied.
TABLES_PER_NOISE = 64


def _tables_at(dt: float, noise: ProcessNoise) -> tuple[np.ndarray, ...]:
    """The tables of a step of ``dt``, made on the first call with this
    (dt, noise) and kept in ``noise._tables``.  First those of
    :func:`error_transition`, made by one product: a buffer holding the
    constant blocks, and the state blocks' coefficients (blocks, 4).  The
    noise blocks are scaled by sqrt(q dt), so that they hold
    G = Phi N diag(sqrt(q dt)) rather than Phi N.  Then the gravity term
    [0 | g dt | g dt^2/2] of :func:`propagate_mean`, shape (3, 5)."""
    cache = noise._tables
    tables = cache.get(dt)
    if tables is not None:
        return tables
    root = math.sqrt(dt)
    scale = np.array((1.0, noise.accel * root, noise.gyro * root,
                      noise.accel_bias * root, noise.gyro_bias * root))
    powers = np.array((1.0, dt, dt * dt / 2.0, dt * dt * dt / 6.0))
    table = np.dot(powers, _POLY) * scale[_POLY_SCALE]
    if len(cache) >= TABLES_PER_NOISE:
        cache.clear()
    gravity = np.outer(GRAVITY, (0.0, 0.0, 0.0, dt, 0.5 * dt * dt))
    tables = cache[dt] = (
        table[:_BUFFER], table[_BUFFER:].reshape(-1, _STATE_FEATURES), gravity
    )
    return tables


def error_transition(
    x: AugmentedState, dt: float, noise: ProcessNoise
) -> tuple[np.ndarray, np.ndarray]:
    """Discrete error-state transition Phi and process noise Q_d over dt.

    Phi is the exact exponential of the continuous dynamics over dt, in the
    closed form of the module docstring; Q_d uses the first-order
    discretization Phi N Q N^T Phi^T dt, with Q = diag(q) the 12x12 power
    spectral density, q the squared densities of ``noise``, three axes
    each; it is computed as G G^T with G = Phi N diag(sqrt(q dt)), which
    numpy's A A^T product makes exactly symmetric.  The coefficients at dt
    and the constant blocks come from :func:`_tables_at`; the state's
    features [R, v^R, p^R, g^R] from one product (12x3) R, and their blocks
    from one product with the coefficients.
    """
    base, coef, _ = _tables_at(dt, noise)
    nav = x.nav.x
    stack = np.dot(nav.ravel(), _STACK_MAP) + _STACK_BASE
    feats = np.dot(stack.reshape(-1, 3), nav[:, :3]).reshape(_STATE_FEATURES, 9)
    out = base.copy()
    out[_STATE_INDEX] = np.dot(coef, feats).ravel()
    phi = out[: ERROR_DIM * ERROR_DIM].reshape(ERROR_DIM, ERROR_DIM)
    g = out[ERROR_DIM * ERROR_DIM :].reshape(ERROR_DIM, NOISE_DIM)
    return phi, np.dot(g, g.T)


def propagate_cov(cov: np.ndarray, phi: np.ndarray, q_d: np.ndarray) -> np.ndarray:
    """Covariance propagation Phi Sigma Phi^T + Q_d: Phi Sigma Phi^T is
    symmetrized, and Q_d, which :func:`error_transition` makes exactly
    symmetric, added to it."""
    cov = np.dot(np.dot(phi, cov), phi.T)
    return 0.5 * (cov + cov.T) + q_d


def apply_correction(x: AugmentedState, delta: np.ndarray) -> AugmentedState:
    """On-manifold correction: nav <- exp(-xi^) nav, bias <- bias - delta[9:],
    all new arrays."""
    delta = np.asarray(delta, dtype=float)
    nav = se23.compose(se23.exp_se23(-delta[0:9]), x.nav)
    return AugmentedState(nav, x.bias - delta[9:])


def realized_error(x_est: AugmentedState, x_true: AugmentedState) -> np.ndarray:
    """Error-state realization consistent with the correction operator.

    Returns delta such that x_true == x_est boxplus delta (to the group's
    exactness): the log of the right-invariant error, with bias differences
    appended.  Batched over leading axes of the states' arrays.
    """
    rot_e = x_est.nav.rot @ np.swapaxes(x_true.nav.rot, -1, -2)
    # X_est X_true^-1 = [rot_e | v_est - rot_e v_true  p_est - rot_e p_true]
    nav_e = x_est.nav.x - rot_e @ x_true.nav.x
    nav_e[..., :3] = rot_e
    return np.concatenate(
        [se23.log_se23(Se23Element(nav_e)), x_est.bias - x_true.bias], axis=-1
    )


def lift_and_apply(
    x: AugmentedState,
    cov: np.ndarray,
    sigma_ht: np.ndarray,
    w: np.ndarray,
    y: np.ndarray,
    n: np.ndarray,
) -> tuple[AugmentedState, np.ndarray]:
    """Apply K y and return the Joseph-form posterior, K = Sigma H^T W.

    The one lift of both update rules (module docstring); ``sigma_ht`` is
    from :func:`velocity_projection` at the rotation of ``x``.  I - K H
    differs from the identity only in the velocity columns, by M = K R^T:
    (I - K H) Sigma = Sigma + M Sigma[3:6, :], and that times (I - K H)^T
    adds its velocity columns times M^T.
    """
    k = np.dot(sigma_ht, w)
    m = np.dot(k, x.nav.rot.T)
    ikh_cov = cov + np.dot(m, cov[3:6])
    cov = ikh_cov + np.dot(ikh_cov[:, 3:6], m.T) + np.dot(np.dot(k, n), k.T)
    x_new = apply_correction(x, np.dot(k, y))
    return x_new, 0.5 * (cov + cov.T)


def gaussian_update(
    cov_z: np.ndarray, residual: np.ndarray, r: np.ndarray
) -> tuple[tuple, None]:
    """Kalman's z-rule for a body-velocity measurement whose noise has the
    assumed Gaussian covariance ``r``: the lift ((cov_z + r)^-1, residual,
    r) and no diagnostics (module docstring).  ``r`` is a symmetric
    positive-definite 3x3 array, which
    :func:`~coverage_inekf.sim.filter_stream` checks.
    """
    w = factor_inverse(*spd_factor((cov_z + r).tolist(), "innovation covariance"))
    return (w, residual, r), None
