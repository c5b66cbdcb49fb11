"""Synthetic truth, sensor generation, and the Monte-Carlo filter harness.

Builds closed-form rigid-body trajectories, inverts the strapdown dynamics
into ideal IMU samples, corrupts body-velocity pseudo-measurements with
configurable noise (Gaussian, or a Gaussian mixture whose component is drawn
once per trial and then held fixed), runs filter trials with either update
rule, and aggregates position RMSE / NEES statistics across trials.

A trial's step loop only filters and stores each posterior estimate; the
trial is scored once, after the loop, in one batched pass over the stored
estimates.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from coverage_inekf import se23
from coverage_inekf.coverage import CoverageSpec, coverage_update
from coverage_inekf.filter import (
    GRAVITY,
    AugmentedState,
    ImuSample,
    ProcessNoise,
    cov_from_std,
    error_transition,
    gaussian_update,
    propagate_cov,
    propagate_mean,
    realized_error,
)
from coverage_inekf.se23 import Se23Element, exp_se23


# ---------------------------------------------------------------------------
# Truth trajectories
# ---------------------------------------------------------------------------


@dataclass
class TrajectorySpec:
    """Closed-form rigid-body trajectory parameters."""

    duration: float = 60.0
    rate: float = 100.0
    pattern: str = "serpentine"
    speed: float = 0.5

    def __post_init__(self):
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        if not 50.0 <= self.rate <= 1000.0:
            raise ValueError("rate must lie in [50, 1000] Hz")
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
    s = spec.speed

    if s == 0.0:
        zeros = np.zeros((n, 3))
        return TruthTrajectory(t, np.broadcast_to(np.eye(3), (n, 3, 3)).copy(),
                               zeros, zeros.copy())

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
    truth: TruthTrajectory,
    bias_accel: np.ndarray | None = None,
    bias_gyro: np.ndarray | None = None,
    noise: ProcessNoise | None = None,
    seed: int = 0,
) -> list[ImuSample]:
    """Invert the strapdown dynamics into per-interval IMU samples.

    Each sample holds the constant body rates that reproduce the truth's
    rotation and velocity increments exactly under the closed-form
    propagation, then adds the fixed biases and (optionally) white noise
    with the given densities.
    """
    ba = np.zeros(3) if bias_accel is None else np.asarray(bias_accel, float)
    bg = np.zeros(3) if bias_gyro is None else np.asarray(bias_gyro, float)
    n = truth.n
    dts = np.diff(truth.times)

    # relative rotations and their logs; a turn of nearly pi within one
    # sample raises ValueError
    rel = np.einsum("nji,njk->nik", truth.rots[:-1], truth.rots[1:])
    phis, theta = se23._so3_log_angle(rel)
    w = phis / dts[:, None]

    # accelerations from the velocity increments through the first integral
    wx = se23.skew(phis)
    small = theta < se23.SMALL_ANGLE_EPS
    t2 = theta * theta
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(theta)) / np.where(small, 1.0, t2))
    c = np.where(
        small, 1.0 / 6.0 - t2 / 120.0,
        (theta - np.sin(theta)) / np.where(small, 1.0, t2 * theta),
    )
    gamma1 = np.eye(3) + b[:, None, None] * wx + c[:, None, None] * (wx @ wx)
    dv = (truth.vels[1:] - truth.vels[:-1]) / dts[:, None] - GRAVITY
    body_dv = np.einsum("nji,nj->ni", truth.rots[:-1], dv)
    a = np.linalg.solve(gamma1, body_dv[:, :, None])[:, :, 0]

    gyro = w + bg
    accel = a + ba
    if noise is not None:
        densities = np.sqrt(np.diag(noise.q))
        rng = np.random.default_rng(seed)
        accel = accel + rng.standard_normal((n - 1, 3)) * (
            densities[0:3] / np.sqrt(dts)[:, None]
        )
        gyro = gyro + rng.standard_normal((n - 1, 3)) * (
            densities[3:6] / np.sqrt(dts)[:, None]
        )
    return [ImuSample(accel[k], gyro[k], dts[k]) for k in range(n - 1)]


@dataclass
class GaussianNoise:
    """Zero-mean Gaussian pseudo-measurement error."""

    cov: np.ndarray

    def __post_init__(self):
        self.cov = np.asarray(self.cov, dtype=float)
        np.linalg.cholesky(self.cov)

    @classmethod
    def isotropic(cls, sigma: float) -> "GaussianNoise":
        return cls(sigma**2 * np.eye(3))

    def fitted_covariance(self) -> np.ndarray:
        return self.cov.copy()

    def epsilon_for(self, gamma: float) -> np.ndarray:
        """Per-axis radii at the exact Gaussian quantiles for joint gamma."""
        per_axis = gamma ** (1.0 / 3.0)
        z = ndtri(0.5 * (1.0 + per_axis))
        return z * np.sqrt(np.diag(self.cov))


@dataclass
class FixedComponentMixture:
    """Gaussian mixture error; one component is drawn per trial and held.

    Models a persistently biased pseudo-measurement: each trial commits to
    one component mean for the whole trajectory.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.covs = np.asarray(self.covs, dtype=float)
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        for c in self.covs:
            np.linalg.cholesky(c)

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

    def fitted_covariance(self) -> np.ndarray:
        """Single-Gaussian fit: mean of covariances plus covariance of means."""
        mbar = self.weights @ self.means
        centered = self.means - mbar
        spread = (centered.T * self.weights) @ centered
        return np.einsum("i,ijk->jk", self.weights, self.covs) + spread

    def marginal_abs_cdf(self, axis: int, radius: float) -> float:
        total = 0.0
        for w, m, c in zip(self.weights, self.means, self.covs):
            s = math.sqrt(c[axis, axis])
            total += w * (
                ndtr((radius - m[axis]) / s) - ndtr((-radius - m[axis]) / s)
            )
        return total

    def epsilon_for(self, gamma: float) -> np.ndarray:
        """Per-axis outer quantile radii, by bisection of the monotone
        ``marginal_abs_cdf`` until the bracket cannot be split further."""
        per_axis = gamma ** (1.0 / 3.0)
        top = float(np.abs(self.means).max() + 12.0 * np.sqrt(self.covs.max()))
        eps = np.empty(3)
        for j in range(3):
            lo, hi = 0.0, top
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:
                if self.marginal_abs_cdf(j, mid) < per_axis:
                    lo = mid
                else:
                    hi = mid
                mid = 0.5 * (lo + hi)
            eps[j] = mid
        return eps


def synthesize_measurements(truth: TruthTrajectory, model, seed: int = 0):
    """Body-frame velocity pseudo-measurements corrupted by the error model.

    Returns an (N, 3) array aligned with the truth samples.  For the fixed
    mixture, the component index is drawn once at the start of the stream.
    """
    rng = np.random.default_rng(seed)
    body_vel = truth.body_velocities()
    n = truth.n
    if isinstance(model, GaussianNoise):
        chol = np.linalg.cholesky(model.cov)
        err = rng.standard_normal((n, 3)) @ chol.T
    elif isinstance(model, FixedComponentMixture):
        comp = int(rng.choice(model.weights.size, p=model.weights))
        chol = np.linalg.cholesky(model.covs[comp])
        err = model.means[comp] + rng.standard_normal((n, 3)) @ chol.T
    else:
        raise TypeError(f"unsupported noise model {type(model).__name__}")
    return body_vel + err


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


@dataclass
class Arm:
    """One update rule of a campaign and the measurement model it uses."""

    method: str  # "gaussian" | "coverage"
    gamma: float | None = None
    epsilon: np.ndarray | None = None
    r_meas: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in ("gaussian", "coverage"):
            raise ValueError("method must be 'gaussian' or 'coverage'")
        if self.method == "coverage" and (self.gamma is None or self.epsilon is None):
            raise ValueError("coverage update needs gamma and epsilon")
        if self.method == "gaussian" and self.r_meas is None:
            raise ValueError("gaussian update needs a measurement covariance")


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


def run_trial(campaign: CampaignConfig, arm: Arm, seed: int) -> TrialResult:
    """Propagate and update at the IMU rate, then score the trial once.

    Each step stores the posterior estimate and the position block of its
    covariance.  After the last step, one batched pass over the stored
    estimates scores them: NEES uses the position block of the realized
    invariant error against the filter's position covariance; RMSE is the
    plain position error.  A non-finite prior (state or covariance) flags
    the trial as diverged and ends it before the update, which would
    refuse it; a diverged trial is not scored.  A non-finite score flags
    it as diverged too.
    """
    root = np.random.SeedSequence(seed)
    s_imu, s_meas, s_init = (int(c.generate_state(1)[0]) for c in root.spawn(3))

    truth = generate_truth(campaign.trajectory)
    truth.bias_accel = np.asarray(campaign.bias_accel, float)
    truth.bias_gyro = np.asarray(campaign.bias_gyro, float)
    imu = synthesize_imu(
        truth, truth.bias_accel, truth.bias_gyro, campaign.process, s_imu
    )
    meas = synthesize_measurements(truth, campaign.noise_model, s_meas)

    cov = cov_from_std(*campaign.init_std)
    rng_init = np.random.default_rng(s_init)
    delta0 = rng_init.multivariate_normal(np.zeros(15), cov)
    x = AugmentedState(
        se23.compose(exp_se23(delta0[:9]), truth.state_at(0).nav),
        truth.bias_accel + delta0[9:12],
        truth.bias_gyro + delta0[12:15],
    )

    spec = None
    if arm.method == "coverage":
        spec = CoverageSpec(np.asarray(arm.epsilon, float), arm.gamma)

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
        phi, q_d = error_transition(x, u, campaign.process)
        x = propagate_mean(x, u)
        cov = propagate_cov(cov, phi, q_d)
        if not np.isfinite(x.nav.pos).all() or not np.isfinite(cov[0, 0]):
            taken = k
            break

        if arm.method == "gaussian":
            x, cov = gaussian_update(x, cov, meas[k + 1], arm.r_meas)
        else:
            x, cov, diag = coverage_update(x, cov, meas[k + 1], spec)
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
    frac = n_active / taken if (arm.method == "coverage" and taken) else float("nan")
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
    """A Monte-Carlo comparison: one baseline arm plus a gamma sweep."""

    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    noise_model: object = field(default_factory=lambda: GaussianNoise.isotropic(0.1))
    trials: int = 50
    seed: int = 1234
    gammas: tuple = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
    include_baseline: bool = True
    jobs: int = 1
    process: ProcessNoise = field(
        default_factory=lambda: ProcessNoise.from_densities(0.02, 0.002, 1e-4, 1e-5)
    )
    bias_accel: np.ndarray = field(
        default_factory=lambda: np.array([0.05, -0.03, 0.02])
    )
    bias_gyro: np.ndarray = field(
        default_factory=lambda: np.array([0.002, -0.001, 0.0015])
    )
    init_std: tuple = (0.02, 0.05, 0.05, 0.02, 0.002)


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


def _arms(campaign: CampaignConfig) -> list[Arm]:
    r_fit = campaign.noise_model.fitted_covariance()
    arms = [Arm("gaussian", r_meas=r_fit)] if campaign.include_baseline else []
    for gamma in campaign.gammas:
        arms.append(Arm("coverage", gamma, campaign.noise_model.epsilon_for(gamma)))
    return arms


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
    sensor streams.  Deterministic for a fixed campaign seed; trials are
    independent, so the aggregation does not depend on execution order or
    on ``jobs``.
    """
    if campaign.trials < 1:
        raise ValueError("campaign needs at least one trial")
    seeds = np.random.SeedSequence(campaign.seed).generate_state(
        campaign.trials, dtype=np.uint64
    ).tolist()
    arms = _arms(campaign)
    trial_arms = [arm for arm in arms for _ in seeds]
    trial_seeds = seeds * len(arms)
    campaigns = [campaign] * len(trial_seeds)
    if campaign.jobs > 1:
        with ProcessPoolExecutor(max_workers=campaign.jobs) as pool:
            results = list(
                pool.map(run_trial, campaigns, trial_arms, trial_seeds, chunksize=4)
            )
    else:
        results = list(map(run_trial, campaigns, trial_arms, trial_seeds))

    rows = []
    for i, arm in enumerate(arms):
        chunk = results[i * campaign.trials : (i + 1) * campaign.trials]
        rmse_mean, rmse_std = _finite_stats([r.rmse_pos for r in chunk])
        nees_mean, nees_std = _finite_stats([r.nees_mean for r in chunk])
        rows.append(
            CampaignRow(
                method=arm.method,
                gamma=arm.gamma,
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
