"""Synthetic truth, sensor generation, and the Monte-Carlo filter harness.

A trial is three stages, one function each:

* :func:`simulate` draws the streams from the trial's seed: a closed-form
  rigid-body trajectory (the truth), the IMU stream inverted from its
  strapdown dynamics, body-velocity pseudo-measurements, and the first
  estimate.  The IMU stream is three arrays, ``(accel, gyro, dt)`` of
  shapes (n, 3), (n, 3) and (n,), one row per step; the measurements are
  an (n + 1, 3) array, one row per truth sample.
* :func:`filter_stream` checks the streams and the arm once, then runs
  the filter over them with that arm, through the one measurement update
  (:func:`coverage_inekf.coverage.update`) with the arm's z-rule, and
  returns the :class:`Track` of what its step loop stores.
* :func:`score` scores a track against the truth in one batched pass
  after the loop: per-step squared position errors and position NEES.

:func:`run_trial` composes them and reduces the scores to a
:class:`TrialResult`; :func:`run_monte_carlo` runs every arm over shared
trial seeds and aggregates position RMSE / NEES statistics across trials.
The streams depend on the seed alone, so every arm filters the same ones.

The measurement noise comes from a noise source: any object with two
draws, ``calibration(rng, n)``, the (n, 3) held-out errors a campaign
calibrates on, and ``stream(rng, n)``, the (n, 3) errors of one trial's
pseudo-measurements.  The one source here is a Gaussian mixture whose
component is drawn once per trial and then held fixed; Gaussian noise is
its one-component case.

No arm reads the noise law: both calibrate on one held-out set of iid
errors the campaign draws from its noise model.  The Gaussian arm's R is
the set's sample covariance, a Gaussian fitted to the errors; the coverage
arms' radii are its split conformal quantiles
(:func:`coverage_inekf.calibration.conformal_thresholds`).  The set's rows
are exchangeable, as split conformal assumes; a time-ordered, correlated
error stream would need calibrating on block means instead.

A campaign sets the trajectory, noise model, trials, seed and arms.  The
rest of the scenario is fixed: ``PROCESS_NOISE`` (IMU noise densities, also
the filter's Q), ``BIAS_ACCEL`` and ``BIAS_GYRO`` (true IMU biases) and
``INIT_STD`` (initial error deviations of rotation, velocity, position and
the two biases), whose covariance ``INIT_COV`` both draws the initial
error and starts the filter.

The simulator draws from each model as the model defines it: the IMU's
white noise from the ``ProcessNoise`` accelerometer and gyroscope
densities, the calibration set from the noise source's ``calibration``
and each trial's pseudo-measurement errors from its ``stream``, and the
first estimate from the true first state by the filter's own correction,
:func:`~coverage_inekf.filter.apply_correction`, with an initial error
drawn at ``INIT_STD``.  The true biases stay fixed: the bias-walk
densities enter only the filter's Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from coverage_inekf import se23
from coverage_inekf.calibration import CoverageSpec, conformal_thresholds
from coverage_inekf.coverage import coverage_update, update
from coverage_inekf.filter import (
    GRAVITY,
    AugmentedState,
    ProcessNoise,
    apply_correction,
    cov_from_std,
    error_transition,
    gaussian_update,
    propagate_cov,
    propagate_mean,
    realized_error,
)
# exp_se23 is not called here; perfbench's tracer test reads sim.exp_se23
from coverage_inekf.se23 import Se23Element, exp_se23  # noqa: F401
from coverage_inekf.tmvn import cholesky


# ---------------------------------------------------------------------------
# Truth trajectories
# ---------------------------------------------------------------------------


# Speed scale of the trajectories, m/s: the circle's speed and the
# serpentine's amplitude scale.
TRAJECTORY_SPEED = 0.5


def _check_positive(name: str, value) -> None:
    """Raise ValueError, naming the argument ``name``, unless ``value`` is a
    positive finite scalar.  A bool is not one, though True compares as 1."""
    if isinstance(value, (bool, np.bool_)) or np.ndim(value) != 0 or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite scalar, got {value!r}")


@dataclass
class TrajectorySpec:
    """Closed-form rigid-body trajectory parameters."""

    duration: float = 60.0
    pattern: str = "serpentine"
    # the IMU rate, Hz; every trajectory is sampled at it
    rate: ClassVar[float] = 100.0

    def __post_init__(self):
        _check_positive("duration", self.duration)
        # the step count generate_truth takes; a trial needs one IMU step
        if round(self.duration * self.rate) < 1:
            raise ValueError(
                f"duration {self.duration} s is under one step at {self.rate} Hz"
            )
        if self.pattern not in ("serpentine", "circle"):
            raise ValueError(f"unknown pattern {self.pattern!r}")


@dataclass
class TruthTrajectory:
    """Ground truth sampled on a uniform grid, with optional true biases."""

    times: np.ndarray
    rots: np.ndarray
    vels: np.ndarray
    poss: np.ndarray
    bias_accel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))

    @property
    def n(self) -> int:
        return self.times.size

    def state_at(self, i: int | slice) -> AugmentedState:
        """The true state at sample i; a slice gives a batch of states."""
        return AugmentedState(
            Se23Element(self.rots[i], self.vels[i], self.poss[i]),
            self.bias_accel.copy(),
            self.bias_gyro.copy(),
        )

    def body_velocities(self) -> np.ndarray:
        return np.einsum("nji,nj->ni", self.rots, self.vels)


def _euler_rots(yaw, pitch, roll):
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    n = yaw.size
    r = np.empty((n, 3, 3))
    r[:, 0, 0] = cy * cp
    r[:, 0, 1] = cy * sp * sr - sy * cr
    r[:, 0, 2] = cy * sp * cr + sy * sr
    r[:, 1, 0] = sy * cp
    r[:, 1, 1] = sy * sp * sr + cy * cr
    r[:, 1, 2] = sy * sp * cr - cy * sr
    r[:, 2, 0] = -sp
    r[:, 2, 1] = cp * sr
    r[:, 2, 2] = cp * cr
    return r


def generate_truth(spec: TrajectorySpec) -> TruthTrajectory:
    """Sample a smooth closed-form trajectory at the IMU rate.

    The default serpentine weaves in the plane with gentle height bobbing
    and an oscillating heading (several heading reversals per minute), all
    from analytic sinusoids so velocities are exact derivatives of the
    positions.  The circle pattern closes on itself with a 20 s period.
    """
    n = int(round(spec.duration * spec.rate)) + 1
    t = np.arange(n) / spec.rate
    s = TRAJECTORY_SPEED

    if spec.pattern == "circle":
        period = 20.0
        omega = 2.0 * math.pi / period
        radius = s / omega
        pos = np.stack(
            [radius * np.sin(omega * t), radius * (1.0 - np.cos(omega * t)),
             np.zeros(n)], axis=1
        )
        vel = np.stack(
            [s * np.cos(omega * t), s * np.sin(omega * t), np.zeros(n)], axis=1
        )
        rots = _euler_rots(omega * t, np.zeros(n), np.zeros(n))
        return TruthTrajectory(t, rots, vel, pos)

    # serpentine: Lissajous-style planar weave, mild roll/pitch/yaw sway
    w1, w2, w3 = 2 * math.pi / 17.0, 2 * math.pi / 11.0, 2 * math.pi / 5.0
    a1, a2, a3 = 0.8 * s / w1, 0.6 * s / w2, 0.08 * s / w3
    pos = np.stack(
        [a1 * np.sin(w1 * t), a2 * np.sin(w2 * t), a3 * np.sin(w3 * t)], axis=1
    )
    vel = np.stack(
        [a1 * w1 * np.cos(w1 * t), a2 * w2 * np.cos(w2 * t),
         a3 * w3 * np.cos(w3 * t)], axis=1
    )
    yaw = 1.2 * np.sin(2 * math.pi * t / 20.0)
    pitch = 0.08 * np.sin(2 * math.pi * t / 7.0 + 0.5)
    roll = 0.06 * np.sin(2 * math.pi * t / 9.0 + 1.0)
    return TruthTrajectory(t, _euler_rots(yaw, pitch, roll), vel, pos)


# ---------------------------------------------------------------------------
# Sensor synthesis
# ---------------------------------------------------------------------------


def synthesize_imu(
    truth: TruthTrajectory, noise: ProcessNoise | None = None, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert the strapdown dynamics into the IMU stream ``(accel, gyro,
    dt)``, arrays of shapes (n - 1, 3), (n - 1, 3) and (n - 1,) for the
    truth's n samples: one row per interval.

    Each row holds the constant body rates that reproduce the truth's
    rotation and velocity increments exactly under the closed-form
    propagation: the gyro rate is the SO(3) log of the relative rotation
    over dt, and the acceleration is the body-frame velocity increment
    mapped through the inverse left Jacobian J_l^-1 of that log.  The truth's
    fixed biases and (optionally) white noise are then added: per axis,
    deviation ``noise.accel / sqrt(dt)`` and ``noise.gyro / sqrt(dt)``.
    """
    n = truth.n
    dts = np.diff(truth.times)

    # relative rotations and their logs; a turn of nearly pi within one
    # sample raises ValueError
    rel = np.einsum("nji,njk->nik", truth.rots[:-1], truth.rots[1:])
    phis = se23.so3_log(rel)
    w = phis / dts[:, None]

    # accelerations from the velocity increments, inverting the first
    # integral J_l(phi) of the closed-form propagation
    dv = (truth.vels[1:] - truth.vels[:-1]) / dts[:, None] - GRAVITY
    body_dv = np.einsum("nji,nj->ni", truth.rots[:-1], dv)
    a = np.einsum("nij,nj->ni", se23.so3_left_jacobian_inv(phis), body_dv)

    gyro = w + truth.bias_gyro
    accel = a + truth.bias_accel
    if noise is not None:
        rng = np.random.default_rng(seed)
        root_dt = np.sqrt(dts)[:, None]
        accel = accel + rng.standard_normal((n - 1, 3)) * (noise.accel / root_dt)
        gyro = gyro + rng.standard_normal((n - 1, 3)) * (noise.gyro / root_dt)
    return accel, gyro, dts


@dataclass
class FixedComponentMixture:
    """Gaussian mixture error; one component is drawn per trial and held.

    Models a persistently biased pseudo-measurement: each trial commits to
    one component mean for the whole trajectory.  Zero-mean Gaussian noise
    is the one-component mixture (:meth:`isotropic`).  ``chols`` holds the
    covariances' lower Cholesky factors, which both draws,
    :meth:`calibration` and :meth:`stream`, sample with.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    chols: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights = w = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.covs = np.asarray(self.covs, dtype=float)
        if w.ndim != 1 or not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12):
            raise ValueError("mixture weights must be 1-D, >= 0 and sum to 1")
        if self.means.shape != (w.size, 3) or self.covs.shape != (w.size, 3, 3):
            raise ValueError(
                f"{w.size} components need means of shape ({w.size}, 3) and "
                f"covs of shape ({w.size}, 3, 3), got {self.means.shape} and "
                f"{self.covs.shape}"
            )
        if not (np.isfinite(self.means).all() and np.isfinite(self.covs).all()):
            raise ValueError("mixture means and covariances must be finite")
        if not np.array_equal(self.covs, self.covs.transpose(0, 2, 1)):
            raise ValueError("mixture covariances must be symmetric")
        # LinAlgError, a ValueError, unless every covariance is positive definite
        self.chols = np.linalg.cholesky(self.covs)

    @classmethod
    def isotropic(cls, sigma: float) -> "FixedComponentMixture":
        """Zero-mean Gaussian noise, sigma per axis: one component."""
        _check_positive("sigma", sigma)
        return cls(np.ones(1), np.zeros((1, 3)), sigma**2 * np.eye(3)[None])

    @classmethod
    def default_biased(
        cls, bias: float = 0.15, sigma: float = 0.05
    ) -> "FixedComponentMixture":
        """Four equally likely planar bias hypotheses with isotropic spread."""
        _check_positive("sigma", sigma)
        means = np.array(
            [[bias, bias, 0.0], [bias, -bias, 0.0],
             [-bias, bias, 0.0], [-bias, -bias, 0.0]]
        )
        covs = np.broadcast_to(sigma**2 * np.eye(3), (4, 3, 3)).copy()
        return cls(np.full(4, 0.25), means, covs)

    def _sample(self, rng: np.random.Generator, component: int, n: int) -> np.ndarray:
        """n iid errors, shape (n, 3), of one component."""
        return self.means[component] + rng.standard_normal((n, 3)) @ self.chols[component].T

    def calibration(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n held-out iid errors, shape (n, 3), each row of a component of
        its own.

        Per-component counts, then each component's rows: neither statistic
        a campaign takes depends on row order.  The weights are renormalized
        because they sum to 1 only within 1e-12, and multinomial refuses a
        weight above 1.
        """
        counts = rng.multinomial(n, self.weights / self.weights.sum())
        return np.concatenate([self._sample(rng, j, m) for j, m in enumerate(counts)])

    def stream(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """One trial's n errors, shape (n, 3), all of one component.

        The component index is drawn once at the start of the stream; a
        one-component model draws none, so its stream holds the Gaussian
        draws alone.
        """
        k = self.weights.size
        component = int(rng.choice(k, p=self.weights)) if k > 1 else 0
        return self._sample(rng, component, n)


# Gaussian noise is the one-component mixture; the name is kept for callers.
GaussianNoise = FixedComponentMixture


def synthesize_measurements(
    truth: TruthTrajectory, model: FixedComponentMixture, seed: int = 0
):
    """Body-frame velocity pseudo-measurements corrupted by the noise
    source's ``stream``, seeded by ``seed``.

    Returns an (N, 3) array aligned with the truth samples.
    """
    return truth.body_velocities() + model.stream(np.random.default_rng(seed), truth.n)


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


# The scenario every campaign runs; see the module docstring.
PROCESS_NOISE = ProcessNoise(0.02, 0.002, 1e-4, 1e-5)
BIAS_ACCEL = np.array([0.05, -0.03, 0.02])
BIAS_ACCEL.setflags(write=False)
BIAS_GYRO = np.array([0.002, -0.001, 0.0015])
BIAS_GYRO.setflags(write=False)
INIT_STD = (0.02, 0.05, 0.05, 0.02, 0.002)
INIT_COV = cov_from_std(*INIT_STD)
INIT_COV.setflags(write=False)
# The factor Generator.multivariate_normal takes from its SVD of INIT_COV on
# every call: 15 standard normals times it are that method's draw, bit for
# bit, with the SVD taken once.
_INIT_SVD = np.linalg.svd(INIT_COV)
_INIT_FACTOR = np.sqrt(_INIT_SVD.S)[:, None] * _INIT_SVD.Vh


@dataclass
class TrialResult:
    """Metrics of one trial.

    ``skipped`` counts the coverage updates skipped as outliers (prior set
    mass at the probability floor).
    """

    rmse_pos: float
    nees_mean: float
    fraction_active: float
    diverged: bool = False
    skipped: int = 0


def simulate(campaign: CampaignConfig, seed: int):
    """The streams of one trial: ``(truth, imu, meas, x0)``.

    The truth carries the scenario's IMU biases; ``imu`` is the noisy IMU
    stream of :func:`synthesize_imu`, one row per step, and ``meas`` the
    (N, 3) pseudo-measurements, aligned with the truth samples.  ``x0``,
    the first estimate, is the true first state corrected by an initial
    error drawn from ``INIT_COV``.  The IMU noise, the measurement errors
    and the initial error each draw from their own child of
    ``SeedSequence(seed)``, so the streams depend on the seed alone, never
    on the arm that filters them.
    """
    root = np.random.SeedSequence(seed)
    s_imu, s_meas, s_init = (int(c.generate_state(1)[0]) for c in root.spawn(3))

    truth = generate_truth(campaign.trajectory)
    truth.bias_accel, truth.bias_gyro = BIAS_ACCEL, BIAS_GYRO
    imu = synthesize_imu(truth, PROCESS_NOISE, s_imu)
    meas = synthesize_measurements(truth, campaign.noise_model, s_meas)
    delta0 = np.random.default_rng(s_init).standard_normal(15) @ _INIT_FACTOR
    return truth, imu, meas, apply_correction(truth.state_at(0), -delta0)


@dataclass
class Track:
    """What a filter run stores: each step's posterior estimate, as one
    batched state whose arrays hold a row per step, the (n, 3, 3) position
    blocks of its covariances, and the active and skipped coverage updates.
    A run that diverged is shorter than its stream: its arrays hold the
    steps taken."""

    states: AugmentedState
    cov_pos: np.ndarray
    active: int = 0
    skipped: int = 0


def filter_stream(x0: AugmentedState, imu, meas: np.ndarray, arm) -> Track:
    """Propagate from ``x0`` with covariance ``INIT_COV`` over each step of
    the IMU stream ``imu = (accel, gyro, dt)``, and update with the
    measurement at its end.

    ``arm`` picks the z-rule: a measurement covariance R runs Kalman's
    rule :func:`~coverage_inekf.filter.gaussian_update`, a
    :class:`CoverageSpec` the coverage rule
    :func:`~coverage_inekf.coverage.coverage_update`.  The rule and every
    step function are looked up by their names in this module on every
    run, so a rebinding of a name (a tracer's or a test's) is seen.  Each
    step makes one :func:`~coverage_inekf.coverage.update` call with the
    rule and arm, and writes the posterior into the track's preallocated
    rows, so no step's objects outlive it.

    The step functions trust their inputs, so every input from outside is
    checked here, once, before the first step; a fault raises ValueError.
    For n steps, ``accel`` and ``gyro`` must be finite (n, 3) arrays and
    ``dt`` an (n,) array in (0, 0.1] s.  ``meas`` holds a row per truth
    sample, so its shape must be (n + 1, 3), and the n rows the steps read,
    all but the first, must be finite.  R must be a symmetric 3x3 matrix
    that :func:`~coverage_inekf.tmvn.cholesky` finds positive definite; it
    raises LinAlgError, a ValueError, if not.

    A non-finite entry in the prior position, velocity or covariance ends
    the run before the update, which would refuse it or fail; so does an
    entry beyond 1e154, whose square overflows.
    """
    accel, gyro, dts = (np.asarray(a, dtype=float) for a in imu)
    n = dts.size
    if not accel.shape == gyro.shape == (n, 3) or dts.shape != (n,):
        raise ValueError(
            f"accel and gyro must be 3-vectors, one per dt: got shapes "
            f"{accel.shape} and {gyro.shape} for dt of shape {dts.shape}"
        )
    if not np.isfinite((accel, gyro)).all():
        raise ValueError("accel and gyro must be finite")
    if (bad := dts[~((0.0 < dts) & (dts <= 0.1))]).size:
        raise ValueError(f"dt must lie in (0, 0.1] s, got {bad[0]}")
    meas = np.asarray(meas, dtype=float)
    if meas.shape != (n + 1, 3):
        raise ValueError(
            f"{n} IMU samples need meas of shape {(n + 1, 3)}, got {meas.shape}"
        )
    zs = meas[1:]
    if (bad := zs[~np.isfinite(zs).all(axis=1)]).size:
        raise ValueError(f"measurement must be finite, got {bad[0]}")
    if isinstance(arm, CoverageSpec):
        rule = coverage_update
    else:
        rule, arm = gaussian_update, np.asarray(arm, dtype=float)
        if arm.shape != (3, 3):
            raise ValueError(f"r must be a 3x3 matrix, got shape {arm.shape}")
        (_, b, c), (d, _, f), (g, h, _) = rows = arm.tolist()
        if not (b == d and c == g and f == h):
            raise ValueError(f"r must be symmetric, got {rows}")
        cholesky(rows)
    rot, cov_pos = np.empty((n, 3, 3)), np.empty((n, 3, 3))
    vel, pos, bias_accel, bias_gyro = np.empty((4, n, 3))
    x, cov, active, skipped, taken = x0, INIT_COV, 0, 0, 0
    for a, w, dt, z in zip(accel, gyro, dts.tolist(), zs):
        phi, q_d = error_transition(x, dt, PROCESS_NOISE)
        x = propagate_mean(x, a, w, dt)
        cov = propagate_cov(cov, phi, q_d)
        # a sum of squares is finite only if every term is; np.vdot, unlike
        # np.dot, does not warn when a square overflows
        p, v = x.nav.pos, x.nav.vel
        if not math.isfinite(np.vdot(p, p) + np.vdot(v, v) + np.vdot(cov, cov)):
            break
        x, cov, diag = update(x, cov, z, rule, arm)
        if diag is not None:
            active += diag.active
            skipped += diag.skipped
        rot[taken], vel[taken], pos[taken] = x.nav.rot, x.nav.vel, x.nav.pos
        bias_accel[taken], bias_gyro[taken] = x.bias_accel, x.bias_gyro
        cov_pos[taken] = cov[6:9, 6:9]
        taken += 1
    nav = Se23Element(rot[:taken], vel[:taken], pos[:taken])
    states = AugmentedState(nav, bias_accel[:taken], bias_gyro[:taken])
    return Track(states, cov_pos[:taken], active, skipped)


def score(track: Track, truth: TruthTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """Per-step squared position errors and position NEES of a track, in
    one batched pass against the truth samples after the first; two empty
    arrays for a track without steps.

    NEES uses the position block of the realized invariant error against
    the filter's position covariance; the squared error is the plain
    position error's.
    """
    n = len(track.cov_pos)
    e_p = realized_error(track.states, truth.state_at(slice(1, n + 1)))[:, 6:9]
    solved = np.linalg.solve(track.cov_pos, e_p[:, :, None])[:, :, 0]
    sq_pos_err = np.sum((track.states.nav.pos - truth.poss[1 : n + 1]) ** 2, axis=1)
    return sq_pos_err, np.einsum("ni,ni->n", e_p, solved)


def run_trial(
    campaign: CampaignConfig, arm: np.ndarray | CoverageSpec, seed: int
) -> TrialResult:
    """One trial: :func:`simulate`, :func:`filter_stream` with ``arm``,
    then :func:`score`, reduced to a :class:`TrialResult`.

    RMSE and NEES are the means of the per-step scores.  A track shorter
    than its stream flags the trial as diverged, and it is not scored; a
    non-finite NEES flags it as diverged too.  The active fraction counts
    the updates made, and is NaN for the Gaussian arm.
    """
    truth, imu, meas, x0 = simulate(campaign, seed)
    track = filter_stream(x0, imu, meas, arm)
    taken = len(track.cov_pos)
    rmse = nees_mean = math.nan
    if taken == truth.n - 1:
        sq_pos_err, nees = score(track, truth)
        if np.isfinite(nees).all():
            rmse = math.sqrt(float(sq_pos_err.mean()))
            nees_mean = float(nees.mean())
    frac = track.active / taken if (isinstance(arm, CoverageSpec) and taken) else math.nan
    return TrialResult(rmse, nees_mean, frac, math.isnan(nees_mean), track.skipped)


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


@dataclass
class CampaignConfig:
    """A Monte-Carlo comparison: one baseline arm plus a gamma sweep.

    Both arms calibrate on the one held-out set of errors that
    ``noise_model``, a noise source (module docstring), and ``seed`` give
    (see :func:`_arms`); the trials run on its ``stream``.  Every trial
    runs the scenario of the module constants ``PROCESS_NOISE``,
    ``BIAS_ACCEL``, ``BIAS_GYRO`` and ``INIT_STD``.
    """

    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    noise_model: FixedComponentMixture = field(
        default_factory=lambda: FixedComponentMixture.isotropic(0.1)
    )
    trials: int = 50
    seed: int = 1234
    gammas: tuple = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
    include_baseline: bool = True


@dataclass
class CampaignRow:
    """Aggregate of one (method, gamma) arm over its finite trials.

    ``diverged`` counts the trials whose RMSE and NEES are NaN and so are
    left out of the means and spreads.  ``skipped`` sums the outlier-skipped
    coverage updates over all of the arm's trials.
    """

    method: str
    gamma: float | None
    rmse_mean: float
    rmse_std: float
    nees_mean: float
    nees_std: float
    frac_active: float
    diverged: int
    skipped: int


# Size of the held-out calibration set every arm of a campaign is fitted
# on.  The conformal rank exists for gamma up to (8192/8193)^3 ~ 0.99963.
CALIBRATION_SAMPLES = 8192


def _arms(campaign: CampaignConfig) -> list[np.ndarray | CoverageSpec]:
    """The Gaussian arm's R, then one statement per gamma, all fitted on
    one held-out calibration set.

    The set is the noise source's ``calibration`` of ``CALIBRATION_SAMPLES``
    errors, seeded by a child of the campaign seed, so that the trial seeds
    stay as they are.  R is its sample covariance, symmetrized because the
    Gaussian rule refuses an R that is not bit-symmetric; every gamma's
    radii are its split-conformal quantiles
    (:func:`~coverage_inekf.calibration.conformal_thresholds`).  Split
    conformal assumes the rows are exchangeable: the mixture's are, since
    each row draws its own component, while a trial's time-ordered stream,
    which holds one component, is not.  A campaign without the baseline
    and without gammas raises ValueError, and so does a gamma the set is
    too small for (``conformal_thresholds``' error), both before any trial
    runs.
    """
    if not (campaign.include_baseline or campaign.gammas):
        raise ValueError("campaign has no arm: include_baseline is False, gammas empty")
    rng = np.random.default_rng(np.random.SeedSequence(campaign.seed).spawn(1)[0])
    errors = campaign.noise_model.calibration(rng, CALIBRATION_SAMPLES)
    arms = []
    if campaign.include_baseline:
        r = np.cov(errors, rowvar=False)
        arms.append(0.5 * (r + r.T))
    return arms + [conformal_thresholds(errors, g) for g in campaign.gammas]


def _finite_stats(values) -> tuple[float, float]:
    """Mean and standard deviation of the finite entries; NaN if none."""
    x = np.asarray(values, dtype=float)
    x = x[np.isfinite(x)]
    if x.size == 0:
        return float("nan"), float("nan")
    return float(np.mean(x)), float(np.std(x))


def run_monte_carlo(campaign: CampaignConfig) -> list[CampaignRow]:
    """Run every arm over the shared trial seeds and aggregate.

    The same trial seeds recur across arms, so all methods see identical
    sensor streams.  Trials run one after another, arm by arm; the rows are
    deterministic for a fixed campaign seed, which must be a non-negative
    integer: None would draw fresh OS entropy.
    """
    if type(campaign.trials) is bool or not isinstance(campaign.trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, got {campaign.trials!r}")
    if campaign.trials < 1:
        raise ValueError("campaign needs at least one trial")
    seed = campaign.seed
    if type(seed) is bool or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    seeds = np.random.SeedSequence(seed).generate_state(
        campaign.trials, dtype=np.uint64
    ).tolist()

    rows = []
    for arm in _arms(campaign):
        chunk = [run_trial(campaign, arm, seed) for seed in seeds]
        coverage = isinstance(arm, CoverageSpec)
        rmse_mean, rmse_std = _finite_stats([r.rmse_pos for r in chunk])
        nees_mean, nees_std = _finite_stats([r.nees_mean for r in chunk])
        rows.append(
            CampaignRow(
                method="coverage" if coverage else "gaussian",
                gamma=arm.gamma if coverage else None,
                rmse_mean=rmse_mean,
                rmse_std=rmse_std,
                nees_mean=nees_mean,
                nees_std=nees_std,
                frac_active=_finite_stats([r.fraction_active for r in chunk])[0],
                diverged=sum(r.diverged for r in chunk),
                skipped=sum(r.skipped for r in chunk),
            )
        )
    return rows


def campaign_rows_to_csv(rows: list[CampaignRow]) -> str:
    """Deterministic CSV rendering of campaign aggregates."""
    lines = [
        "method,gamma,rmse_mean,rmse_std,nees_mean,nees_std,frac_active,"
        "diverged,skipped"
    ]
    for r in rows:
        gamma = "" if r.gamma is None else f"{r.gamma:.10g}"
        frac = "" if math.isnan(r.frac_active) else f"{r.frac_active:.10g}"
        lines.append(
            f"{r.method},{gamma},{r.rmse_mean:.10g},{r.rmse_std:.10g},"
            f"{r.nees_mean:.10g},{r.nees_std:.10g},{frac},{r.diverged},{r.skipped}"
        )
    return "\n".join(lines) + "\n"
