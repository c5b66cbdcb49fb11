"""Synthetic truth, sensor generation, and the Monte-Carlo filter harness.

Builds closed-form rigid-body trajectories, inverts the strapdown dynamics
into ideal IMU samples, corrupts body-velocity pseudo-measurements with noise
from one model, a Gaussian mixture whose component is drawn once per trial
and then held fixed (Gaussian noise is its one-component case), runs filter
trials through the one measurement update
(:func:`coverage_inekf.coverage.update`) with either z-rule as the arm, and
aggregates position RMSE / NEES statistics across trials.

The coverage arms assume no noise law: their radii are calibrated by split
conformal prediction (:func:`coverage_inekf.calibration.conformal_thresholds`)
on a held-out set of iid errors the campaign draws from its noise model.
Its rows are exchangeable, as split conformal assumes; a time-ordered,
correlated error stream would need calibrating on block means instead.

A campaign sets the trajectory, noise model, trials, seed and arms.  The
rest of the scenario is fixed: ``PROCESS_NOISE`` (IMU noise densities, also
the filter's Q), ``BIAS_ACCEL`` and ``BIAS_GYRO`` (true IMU biases) and
``INIT_STD`` (initial error deviations of rotation, velocity, position and
the two biases).

The simulator draws from each model as the model defines it: the IMU's
white noise from the ``ProcessNoise`` accelerometer and gyroscope
densities, every pseudo-measurement and calibration error from
:meth:`FixedComponentMixture.sample`, and the first estimate from the
true first state by the filter's own correction,
:func:`~coverage_inekf.filter.apply_correction`, with an initial error
drawn at ``INIT_STD``.  The true biases stay fixed: the bias-walk
densities enter only the filter's Q.

A trial's step loop only filters and stores each posterior estimate; the
trial is scored once, after the loop, in one batched pass over the stored
estimates.
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
    ImuSample,
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


# ---------------------------------------------------------------------------
# Truth trajectories
# ---------------------------------------------------------------------------


# Speed scale of the trajectories, m/s: the circle's speed and the
# serpentine's amplitude scale.
TRAJECTORY_SPEED = 0.5


@dataclass
class TrajectorySpec:
    """Closed-form rigid-body trajectory parameters."""

    duration: float = 60.0
    pattern: str = "serpentine"
    # the IMU rate, Hz; every trajectory is sampled at it
    rate: ClassVar[float] = 100.0

    def __post_init__(self):
        if not 0.0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
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
) -> list[ImuSample]:
    """Invert the strapdown dynamics into per-interval IMU samples.

    Each sample holds the constant body rates that reproduce the truth's
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
    return [ImuSample(accel[k], gyro[k], dts[k]) for k in range(n - 1)]


@dataclass
class FixedComponentMixture:
    """Gaussian mixture error; one component is drawn per trial and held.

    Models a persistently biased pseudo-measurement: each trial commits to
    one component mean for the whole trajectory.  Zero-mean Gaussian noise
    is the one-component mixture (:meth:`isotropic`).  ``chols`` holds the
    covariances' lower Cholesky factors, which :meth:`sample` draws with.
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
        return cls(np.ones(1), np.zeros((1, 3)), sigma**2 * np.eye(3)[None])

    @classmethod
    def default_biased(
        cls, bias: float = 0.15, sigma: float = 0.05
    ) -> "FixedComponentMixture":
        """Four equally likely planar bias hypotheses with isotropic spread."""
        means = np.array(
            [[bias, bias, 0.0], [bias, -bias, 0.0],
             [-bias, bias, 0.0], [-bias, -bias, 0.0]]
        )
        covs = np.broadcast_to(sigma**2 * np.eye(3), (4, 3, 3)).copy()
        return cls(np.full(4, 0.25), means, covs)

    def sample(self, rng: np.random.Generator, component: int, n: int) -> np.ndarray:
        """n iid errors, shape (n, 3), of one component."""
        return self.means[component] + rng.standard_normal((n, 3)) @ self.chols[component].T

    def fitted_covariance(self) -> np.ndarray:
        """Single-Gaussian fit: mean of covariances plus covariance of means,
        symmetrized, since the Gaussian rule refuses an R that is not
        exactly symmetric and (C^T w) C need not be."""
        mbar = self.weights @ self.means
        centered = self.means - mbar
        spread = (centered.T * self.weights) @ centered
        fit = np.einsum("i,ijk->jk", self.weights, self.covs) + spread
        return 0.5 * (fit + fit.T)


# Gaussian noise is the one-component mixture; the name is kept for callers.
GaussianNoise = FixedComponentMixture


def synthesize_measurements(
    truth: TruthTrajectory, model: FixedComponentMixture, seed: int = 0
):
    """Body-frame velocity pseudo-measurements corrupted by the error model.

    Returns an (N, 3) array aligned with the truth samples.  The component
    index is drawn once at the start of the stream; a one-component model
    draws none, so its stream holds the Gaussian draws alone.
    """
    rng = np.random.default_rng(seed)
    k = model.weights.size
    comp = int(rng.choice(k, p=model.weights)) if k > 1 else 0
    return truth.body_velocities() + model.sample(rng, comp, truth.n)


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


def run_trial(
    campaign: CampaignConfig, arm: np.ndarray | CoverageSpec, seed: int
) -> TrialResult:
    """Propagate and update at the IMU rate, then score the trial once.

    ``arm`` picks the z-rule once per trial: a measurement covariance R
    runs Kalman's rule :func:`~coverage_inekf.filter.gaussian_update`, a
    :class:`CoverageSpec` the coverage rule
    :func:`~coverage_inekf.coverage.coverage_update`.  The rule is looked up
    by its name in this module on every trial, so a rebinding of that name
    (a tracer's or a test's) is seen.  Each step makes one
    :func:`~coverage_inekf.coverage.update` call with the rule and arm, and
    counts the active and skipped updates its diagnostics report.

    Each step stores the posterior estimate and the position block of its
    covariance.  After the last step, one batched pass over the stored
    estimates scores them: NEES uses the position block of the realized
    invariant error against the filter's position covariance; RMSE is the
    plain position error.  A non-finite entry in the prior position,
    velocity or covariance (or a covariance entry beyond 1e154, whose
    square overflows) flags the trial as diverged and ends it before the
    update, which would refuse it or fail; a diverged trial is not scored.
    A non-finite score flags it as diverged too.
    """
    root = np.random.SeedSequence(seed)
    s_imu, s_meas, s_init = (int(c.generate_state(1)[0]) for c in root.spawn(3))

    truth = generate_truth(campaign.trajectory)
    truth.bias_accel, truth.bias_gyro = BIAS_ACCEL, BIAS_GYRO
    imu = synthesize_imu(truth, PROCESS_NOISE, s_imu)
    meas = synthesize_measurements(truth, campaign.noise_model, s_meas)

    cov = cov_from_std(*INIT_STD)
    rng_init = np.random.default_rng(s_init)
    delta0 = rng_init.multivariate_normal(np.zeros(15), cov)
    # the first estimate: the true first state corrected by -delta0
    x = apply_correction(truth.state_at(0), -delta0)

    coverage = isinstance(arm, CoverageSpec)
    rule = coverage_update if coverage else gaussian_update

    # posterior estimates and position covariances, one row per update
    steps = truth.n - 1
    est_rot = np.empty((steps, 3, 3))
    est_vel, est_pos = np.empty((steps, 3)), np.empty((steps, 3))
    est_ba, est_bg = np.empty((steps, 3)), np.empty((steps, 3))
    cov_pos = np.empty((steps, 3, 3))
    n_active = 0
    n_skipped = 0
    taken = steps

    for k in range(steps):
        u = imu[k]
        phi, q_d = error_transition(x, u, PROCESS_NOISE)
        x = propagate_mean(x, u)
        cov = propagate_cov(cov, phi, q_d)
        # a sum is finite only if every term is
        terms = sum(x.nav.pos.tolist()) + sum(x.nav.vel.tolist())
        if not (math.isfinite(terms) and math.isfinite(np.vdot(cov, cov))):
            taken = k
            break

        x, cov, diag = update(x, cov, meas[k + 1], rule, arm)
        if diag is not None:
            n_active += diag.active
            n_skipped += diag.skipped

        est_rot[k] = x.nav.rot
        est_vel[k] = x.nav.vel
        est_pos[k] = x.nav.pos
        est_ba[k] = x.bias_accel
        est_bg[k] = x.bias_gyro
        cov_pos[k] = cov[6:9, 6:9]

    diverged = taken < steps
    rmse = nees_mean = float("nan")
    if not diverged:
        est = AugmentedState(Se23Element(est_rot, est_vel, est_pos), est_ba, est_bg)
        e_p = realized_error(est, truth.state_at(slice(1, None)))[:, 6:9]
        solved = np.linalg.solve(cov_pos, e_p[:, :, None])[:, :, 0]
        nees = np.einsum("ni,ni->n", e_p, solved)
        if np.isfinite(nees).all():
            sq_pos_err = np.sum((est_pos - truth.poss[1:]) ** 2, axis=1)
            rmse = math.sqrt(float(sq_pos_err.mean()))
            nees_mean = float(nees.mean())
        else:
            diverged = True
    frac = n_active / taken if (coverage and taken) else float("nan")
    return TrialResult(
        rmse_pos=rmse,
        nees_mean=nees_mean,
        fraction_active=frac,
        diverged=diverged,
        skipped=n_skipped,
    )


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


@dataclass
class CampaignConfig:
    """A Monte-Carlo comparison: one baseline arm plus a gamma sweep.

    Every trial runs the scenario of the module constants
    ``PROCESS_NOISE``, ``BIAS_ACCEL``, ``BIAS_GYRO`` and ``INIT_STD``.
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


# Size of the held-out calibration set a campaign draws for its coverage
# arms.  The conformal rank exists for gamma up to (8192/8193)^3 ~ 0.99963.
CALIBRATION_SAMPLES = 8192


def _arms(campaign: CampaignConfig) -> list[np.ndarray | CoverageSpec]:
    """The fitted R of the Gaussian arm, then one statement per gamma.

    Every gamma's radii are split-conformal quantiles
    (:func:`~coverage_inekf.calibration.conformal_thresholds`) of one
    held-out calibration set: ``CALIBRATION_SAMPLES`` iid errors of the
    noise model, seeded by a child of the campaign seed, so that the trial
    seeds stay as they are.  Each row draws its own component, so the rows
    are exchangeable, as split conformal assumes; a trial's time-ordered
    stream, which holds one component, is not.  A campaign without gammas
    draws nothing.  A gamma the set is too small for raises
    ``conformal_thresholds``' ValueError before any trial runs.
    """
    model = campaign.noise_model
    arms = [model.fitted_covariance()] if campaign.include_baseline else []
    if not campaign.gammas:
        return arms
    rng = np.random.default_rng(np.random.SeedSequence(campaign.seed).spawn(1)[0])
    # per-component counts, then each component's rows: the scores do not
    # depend on row order.  The weights are renormalized because they sum to
    # 1 only within 1e-12, and multinomial refuses a weight above 1.
    weights = model.weights / model.weights.sum()
    counts = rng.multinomial(CALIBRATION_SAMPLES, weights)
    errors = np.concatenate([model.sample(rng, j, n) for j, n in enumerate(counts)])
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
    deterministic for a fixed campaign seed.
    """
    if not isinstance(campaign.trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, got {campaign.trials!r}")
    if campaign.trials < 1:
        raise ValueError("campaign needs at least one trial")
    seeds = np.random.SeedSequence(campaign.seed).generate_state(
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
