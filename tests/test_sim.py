import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from oracles import gaussian_radius, mixture_covariance, mixture_radii, resting_stream

from coverage_inekf import coverage, sim
from coverage_inekf.calibration import (
    CoverageSpec,
    conformal_thresholds,
    min_samples_for,
)
from coverage_inekf.coverage import UpdateDiagnostics
from coverage_inekf.filter import AugmentedState, propagate_mean, realized_error
from coverage_inekf.sim import (
    CampaignConfig,
    CampaignRow,
    FixedComponentMixture,
    TrajectorySpec,
    TrialResult,
    TruthTrajectory,
    campaign_rows_to_csv,
    generate_truth,
    run_monte_carlo,
    synthesize_imu,
    synthesize_measurements,
)

NAN = float("nan")

# Rows of the 2 s, 3-trial, seed-7 campaign below, in full repr precision.
# Any change to them is a change in the filter's output, not a refactor.
GOLDEN = {
    "mixture": [
        CampaignRow(method="gaussian", gamma=None, rmse_mean=0.24129998582151166,
                    rmse_std=0.014181100498412855, nees_mean=20.259047563902683,
                    nees_std=2.197196059931353, frac_active=NAN, diverged=0,
                    skipped=0),
        CampaignRow(method="coverage", gamma=0.8, rmse_mean=0.21985265319650416,
                    rmse_std=0.013427051215523818, nees_mean=9.261315126318026,
                    nees_std=1.1875876890838615, frac_active=0.2733333333333334,
                    diverged=0, skipped=0),
    ],
    "gaussian": [
        CampaignRow(method="gaussian", gamma=None, rmse_mean=0.07631812734127631,
                    rmse_std=0.03791117485449529, nees_mean=2.8388219428940755,
                    nees_std=2.5553131541492005, frac_active=NAN, diverged=0,
                    skipped=0),
        CampaignRow(method="coverage", gamma=0.8, rmse_mean=0.08644083490423381,
                    rmse_std=0.0363000984433725, nees_mean=3.027675412229088,
                    nees_std=2.4299145483156397, frac_active=0.4483333333333333,
                    diverged=0, skipped=2),
    ],
}

NOISE_MODELS = {
    "mixture": FixedComponentMixture.default_biased,
    "gaussian": lambda: FixedComponentMixture.isotropic(0.1),
}


def golden_campaign(name):
    return CampaignConfig(
        trajectory=TrajectorySpec(duration=2.0),
        noise_model=NOISE_MODELS[name](),
        trials=3,
        seed=7,
        gammas=(0.8,),
    )


def assert_rows_identical(got, want):
    """Field-by-field exact equality; NaN matches only NaN."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in dataclasses.fields(CampaignRow):
            a, b = getattr(g, f.name), getattr(w, f.name)
            same = a == b or (
                isinstance(a, float) and isinstance(b, float)
                and math.isnan(a) and math.isnan(b)
            )
            assert same, f"{g.method} {f.name}: {a!r} != {b!r}"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_campaign_rows(name):
    assert_rows_identical(run_monte_carlo(golden_campaign(name)), GOLDEN[name])


def script_trials(monkeypatch, diverge):
    """Replace run_trial: trial i of every arm scores RMSE i + 1, NEES
    2 (i + 1) and active fraction 0.1 (i + 1); the calls numbered in
    ``diverge`` (0-based, arm by arm) diverge instead."""
    calls = itertools.count()

    def scripted(campaign, arm, seed):
        n = next(calls)
        i = n % campaign.trials
        frac = 0.1 * (i + 1) if isinstance(arm, CoverageSpec) else NAN
        if n in diverge:
            return TrialResult(NAN, NAN, frac, diverged=True)
        return TrialResult(float(i + 1), 2.0 * (i + 1), frac)

    monkeypatch.setattr(sim, "run_trial", scripted)


def test_diverged_trial_is_counted_not_averaged(monkeypatch):
    script_trials(monkeypatch, diverge={0})
    gauss, cover = run_monte_carlo(golden_campaign("gaussian"))
    # the baseline arm keeps trials 1 and 2 (RMSE 2 and 3)
    assert (gauss.rmse_mean, gauss.rmse_std) == (2.5, 0.5)
    assert (gauss.nees_mean, gauss.nees_std) == (5.0, 1.0)
    assert gauss.diverged == 1
    assert math.isnan(gauss.frac_active)
    assert (cover.rmse_mean, cover.nees_mean, cover.diverged) == (2.0, 4.0, 0)
    assert cover.frac_active == pytest.approx(0.2)
    lines = campaign_rows_to_csv([gauss, cover]).splitlines()
    assert lines[0].endswith(",frac_active,diverged,skipped")
    assert lines[1].endswith(",,1,0") and lines[2].endswith(",0,0")


def test_all_trials_diverged_reports_nan_without_warning(monkeypatch):
    script_trials(monkeypatch, diverge={0, 1, 2})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gauss, _ = run_monte_carlo(golden_campaign("gaussian"))
    assert gauss.diverged == 3
    for value in (gauss.rmse_mean, gauss.rmse_std, gauss.nees_mean, gauss.nees_std):
        assert math.isnan(value)


def test_skipped_updates_are_counted(monkeypatch):
    """Every tenth coverage update is skipped as an outlier; the others
    leave the state alone.  Three 0.5 s trials make 150 updates, 15 of
    them skipped."""
    calls = itertools.count()

    def scripted(cov_z, residual, spec):
        skipped = next(calls) % 10 == 0
        faces = [-math.inf] * 3, [math.inf] * 3
        return None, UpdateDiagnostics(np.eye(3), *faces, skipped=skipped)

    monkeypatch.setattr(sim, "coverage_update", scripted)
    campaign = CampaignConfig(
        trajectory=TrajectorySpec(duration=0.5),
        noise_model=FixedComponentMixture.isotropic(0.1),
        trials=3,
        seed=7,
        gammas=(0.8,),
        include_baseline=False,
    )
    (row,) = run_monte_carlo(campaign)
    assert (row.skipped, row.diverged, row.frac_active) == (15, 0, 0.0)
    assert campaign_rows_to_csv([row]).splitlines()[1].endswith(",0,0,15")


# (golden noise model, update rule) pairs for single-trial tests
ARMS = [("gaussian", "gaussian"), ("mixture", "coverage")]


def one_trial(name, method, duration=1.0):
    """A trial of ``method`` on the golden campaign's noise, and the
    campaign and arm it ran with."""
    campaign = dataclasses.replace(
        golden_campaign(name), trajectory=TrajectorySpec(duration=duration)
    )
    arms = sim._arms(campaign)
    arm = next(a for a in arms if isinstance(a, CoverageSpec) == (method == "coverage"))
    return campaign, arm


def spy(monkeypatch, name):
    """Wrap ``sim.<name>``; returns the list of (args, result) per call."""
    calls = []
    real = getattr(sim, name)

    def wrapped(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(sim, name, wrapped)
    return calls


def test_grid_runs_only_where_the_constraint_can_bind(monkeypatch):
    """On a 2.5 s biased-mixture trial at gamma 0.8 the marginal-tail
    bound certifies most inactive updates, so ``box_moments`` serves at
    most 35 % of the 250 updates (measured: 60), the same count on every
    run."""
    grid = []
    real = coverage.box_moments

    def counted(*args):
        grid.append(args)
        return real(*args)

    monkeypatch.setattr(coverage, "box_moments", counted)
    updates = spy(monkeypatch, "coverage_update")
    campaign, arm = one_trial("mixture", "coverage", duration=2.5)
    counts = []
    for _ in range(2):
        grid.clear()
        result = sim.run_trial(campaign, arm, seed=11)
        counts.append(len(grid))
    assert len(updates) == 500 and not result.diverged
    assert counts[0] == counts[1] <= 0.35 * 250
    assert counts[0] >= result.fraction_active * 250


def nan_velocity_block(cov):
    cov = cov.copy()
    cov[3:6, 3:6] = np.nan
    return cov


def infinite_velocity(x):
    x.nav.vel = x.nav.vel + [np.inf, 0.0, 0.0]
    return x


def huge_position(x):
    x.nav.pos = x.nav.pos + [1e155, 0.0, 0.0]
    return x


# a fault in the prior: the propagation step it corrupts, and how
PRIOR_FAULTS = {
    "nan_cov": ("propagate_cov", lambda cov: np.full_like(cov, np.nan)),
    "nan_velocity_cov": ("propagate_cov", nan_velocity_block),
    "inf_velocity": ("propagate_mean", infinite_velocity),
    "huge_position": ("propagate_mean", huge_position),
}


@pytest.mark.parametrize("fault", sorted(PRIOR_FAULTS))
@pytest.mark.parametrize("name, method", ARMS)
def test_nan_prior_diverges_the_trial(monkeypatch, name, method, fault):
    """A non-finite prior out of propagation at step 50 of a real 1 s
    trial ends it before the update: a NaN covariance, a NaN velocity
    block (which the update would refuse), an infinite velocity (which
    would make an empty box for the coverage rule and overflow in the
    Gaussian one) or a position of 1e155, whose square overflows.  The active fraction counts the 50 updates made; the
    track holds 50 rows, each that update's output bit for bit; the trial
    is not scored."""
    steps = itertools.count()
    target, corrupt = PRIOR_FAULTS[fault]
    real = getattr(sim, target)

    def fault_at_step_50(*args):
        out = real(*args)
        return corrupt(out) if next(steps) == 50 else out

    monkeypatch.setattr(sim, target, fault_at_step_50)
    updates = spy(monkeypatch, "update")
    scores = spy(monkeypatch, "realized_error")
    tracks = spy(monkeypatch, "filter_stream")
    campaign, arm = one_trial(name, method)
    result = sim.run_trial(campaign, arm, seed=11)

    assert result.diverged
    assert math.isnan(result.rmse_pos) and math.isnan(result.nees_mean)
    assert len(updates) == 50
    assert scores == []
    ((_, track),) = tracks
    est = track.states
    rows = (est.nav.rot, est.nav.vel, est.nav.pos, est.bias_accel, est.bias_gyro,
            track.cov_pos)
    assert [len(r) for r in rows] == [50] * 6
    for k, (_, (x, cov, _)) in enumerate(updates):
        want = (x.nav.rot, x.nav.vel, x.nav.pos, x.bias_accel, x.bias_gyro, cov[6:9, 6:9])
        assert all(np.array_equal(r[k], w) for r, w in zip(rows, want))
    if method == "coverage":
        active = sum(out[2].active for _, out in updates)
        assert 0 < active < 50
        assert track.active == active
        assert result.fraction_active == active / 50
    else:
        assert math.isnan(result.fraction_active)


@pytest.mark.parametrize("name, method", ARMS)
def test_track_of_a_trial_diverged_at_its_first_step_scores_empty(
    monkeypatch, name, method
):
    """A NaN covariance out of the first propagation ends the run before
    any update: the track holds no step, and scoring it gives two empty
    arrays (it raised numpy's matmul ValueError when the track was a list
    of states)."""
    monkeypatch.setattr(sim, "propagate_cov", lambda cov, phi, q_d: np.full_like(cov, np.nan))
    campaign, arm = one_trial(name, method)
    truth, imu, meas, x0 = sim.simulate(campaign, 11)
    track = sim.filter_stream(x0, imu, meas, arm)
    assert track.cov_pos.shape == (0, 3, 3) and track.states.nav.rot.shape == (0, 3, 3)
    sq, nees = sim.score(track, truth)
    assert sq.shape == nees.shape == (0,)
    assert sim.run_trial(campaign, arm, 11).diverged


# measurement streams of the wrong shape, cut from a trial's own
WRONG_STREAMS = {
    "short": lambda meas: meas[:20],
    "long": lambda meas: np.vstack([meas, meas[-1:]]),
    "two_columns": lambda meas: meas[:, :2],
}


@pytest.mark.parametrize("stream", sorted(WRONG_STREAMS))
def test_measurement_stream_of_the_wrong_shape_is_refused(monkeypatch, stream):
    """50 IMU samples take 51 measurement rows of 3.  A 20-row stream used
    to give a 19-step track, which the trial counted as diverged, and an
    extra row was ignored; every other shape is refused, naming both
    shapes, before the first step."""
    steps = spy(monkeypatch, "error_transition")
    campaign, arm = one_trial("gaussian", "gaussian", duration=0.5)
    truth, imu, meas, x0 = sim.simulate(campaign, 11)
    assert imu[2].shape == (50,) and meas.shape == (51, 3)
    bad = WRONG_STREAMS[stream](meas)
    want = re.escape(f"50 IMU samples need meas of shape (51, 3), got {bad.shape}")
    with pytest.raises(ValueError, match=want):
        sim.filter_stream(x0, imu, bad, arm)
    assert steps == []


# a fault in an input only the last step reads: (accel, gyro, dt, meas,
# R) index, entry, value, and the refusal's message
LAST_STEP_FAULTS = {
    "nan_imu": (0, (-1, 1), NAN, "accel and gyro must be finite"),
    "long_dt": (2, -1, 0.2, re.escape("dt must lie in (0, 0.1] s, got 0.2")),
    "nan_meas": (3, (-1, 2), NAN, "measurement must be finite"),
    "asymmetric_r": (4, (0, 2), 1e-3, "r must be symmetric"),
}


@pytest.mark.parametrize("fault", sorted(LAST_STEP_FAULTS))
def test_malformed_input_is_refused_before_any_step(monkeypatch, fault):
    """Every outside input is checked where it enters the step loop,
    once: a NaN reading or a dt of 0.2 s in the last IMU sample, a NaN in
    the last measurement row and an R that is not symmetric each raise
    ValueError before the first step of a 50-step stream."""
    steps = spy(monkeypatch, "error_transition")
    campaign, arm = one_trial("gaussian", "gaussian", duration=0.5)
    _, imu, meas, x0 = sim.simulate(campaign, 11)
    inputs = [a.copy() for a in (*imu, meas, arm)]
    which, entry, value, message = LAST_STEP_FAULTS[fault]
    inputs[which][entry] = value
    accel, gyro, dt, meas, r = inputs
    with pytest.raises(ValueError, match=message):
        sim.filter_stream(x0, (accel, gyro, dt), meas, r)
    assert steps == []


@pytest.mark.parametrize("name, method", ARMS)
def test_trial_is_scored_once_like_step_by_step(monkeypatch, name, method):
    """One batched scoring pass over all 100 stored posteriors gives, step
    for step, the squared position error and NEES that scoring each
    posterior as it is made gives, and so the trial's RMSE and NEES."""
    updates = spy(monkeypatch, "update")
    scores = spy(monkeypatch, "realized_error")
    passes = spy(monkeypatch, "score")
    campaign, arm = one_trial(name, method)
    result = sim.run_trial(campaign, arm, seed=11)

    assert not result.diverged
    ((_, batch),) = scores
    assert batch.shape == (100, 15)
    ((_, (sq_batch, nees_batch)),) = passes

    truth = sim.simulate(campaign, 11)[0]
    nees, sq = [], []
    for k, (_, out) in enumerate(updates):
        x, cov = out[0], out[1]
        e_p = realized_error(x, truth.state_at(k + 1))[6:9]
        nees.append(e_p @ np.linalg.solve(cov[6:9, 6:9], e_p))
        sq.append(np.sum((x.nav.pos - truth.poss[k + 1]) ** 2))
    assert len(nees) == 100
    assert nees_batch == pytest.approx(np.array(nees), rel=1e-12, abs=0.0)
    assert sq_batch == pytest.approx(np.array(sq), rel=1e-12, abs=0.0)
    assert result.nees_mean == pytest.approx(np.mean(nees), rel=1e-12)
    assert result.rmse_pos == pytest.approx(math.sqrt(np.mean(sq)), rel=1e-12)


def test_every_arm_sees_the_same_streams():
    """``simulate`` draws a trial's streams from its seed alone.  One set
    of streams, with the measurements read-only, filtered by the Gaussian
    arm and by the gamma 0.8 coverage arm and scored, gives each arm the
    result ``run_trial`` gives for that seed, bit for bit."""
    campaign = golden_campaign("mixture")
    truth, imu, meas, x0 = sim.simulate(campaign, 11)
    meas.setflags(write=False)
    results = []
    for arm in sim._arms(campaign):
        track = sim.filter_stream(x0, imu, meas, arm)
        sq, nees = sim.score(track, truth)
        coverage = isinstance(arm, CoverageSpec)
        frac = track.active / len(track.cov_pos) if coverage else NAN
        got = TrialResult(
            math.sqrt(float(sq.mean())), float(nees.mean()), frac, False, track.skipped
        )
        want = sim.run_trial(campaign, arm, 11)
        assert np.array_equal(
            dataclasses.astuple(got), dataclasses.astuple(want), equal_nan=True
        )
        results.append(got)
    gauss, cover = results
    assert imu[2].shape == (200,) and 0.0 < cover.fraction_active < 1.0
    assert gauss.nees_mean != cover.nees_mean


def test_initial_error_is_the_multivariate_normal_draw(monkeypatch):
    """``simulate`` draws the initial error as 15 standard normals times a
    factor of ``INIT_COV`` taken once at import, and on 200 seeds that is
    ``Generator.multivariate_normal``'s draw, which factors INIT_COV by SVD
    on every call, bit for bit: the random stream, and so ``GOLDEN``, is
    the one that method gives."""
    drawn = []
    monkeypatch.setattr(sim, "apply_correction", lambda x, delta: drawn.append(-delta))
    campaign = CampaignConfig(trajectory=TrajectorySpec(duration=0.05), trials=1)
    for seed in range(200):
        sim.simulate(campaign, seed)
        s_init = int(np.random.SeedSequence(seed).spawn(3)[2].generate_state(1)[0])
        want = np.random.default_rng(s_init).multivariate_normal(np.zeros(15), sim.INIT_COV)
        assert np.array_equal(drawn[-1], want)
    assert len(drawn) == 200


def test_small_turn_gives_exact_gyro():
    """A turn of theta within one 10 ms sample, on either side of
    SMALL_ANGLE_EPS, while the velocity changes.  theta / sin(theta) has
    the series 1 + theta^2/6; a factor of 1 + theta^2/12 would make the
    gyro off by theta^2/12 = 6.75e-10 relative at 9e-5 rad.  The
    acceleration goes through J_l^-1 of the same angle, so propagating
    the sample lands on the truth's velocity to roundoff."""
    dt = 0.01
    vels = np.array([[0.5, -0.2, 0.1], [0.52, -0.19, 0.08]])
    for theta in (9e-5, 2e-4):
        c, s = math.cos(theta), math.sin(theta)
        rots = np.array([np.eye(3), [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]])
        truth = TruthTrajectory(np.array([0.0, dt]), rots, vels, np.zeros((2, 3)))
        ((accel,), (gyro,), (step,)) = synthesize_imu(truth)
        rate = theta / dt
        assert np.abs(gyro - [0.0, 0.0, rate]).max() <= 1e-14 * rate
        vel = propagate_mean(truth.state_at(0), accel, gyro, step).nav.vel
        assert np.abs(vel - vels[1]).max() <= 1e-14 * np.abs(vels[1]).max()


@pytest.mark.parametrize("pattern", ["serpentine", "circle"])
def test_noise_free_imu_inversion_round_trip(pattern):
    """Strapdown propagation of the synthesized IMU retraces the truth.

    Rotation and velocity are reproduced to roundoff (measured <= 2e-13).
    Position carries the truncation error of constant rates within a
    sample, measured at 9.5e-6 m on the serpentine after 5 s; that error
    follows the trajectory's oscillations and does not accumulate, so it
    is no larger over the next 5 s.
    """
    truth = generate_truth(TrajectorySpec(duration=10.0, pattern=pattern))
    imu = synthesize_imu(truth)
    steps = truth.n - 1
    x = truth.state_at(0)
    err = np.empty((steps, 3))
    for k, u in enumerate(zip(*imu)):
        x = propagate_mean(x, *u)
        err[k] = [
            np.abs(x.nav.rot - truth.rots[k + 1]).max(),
            np.abs(x.nav.vel - truth.vels[k + 1]).max(),
            np.abs(x.nav.pos - truth.poss[k + 1]).max(),
        ]
    assert err[:, :2].max() <= 1e-10
    half = steps // 2
    first, second = err[:half, 2].max(), err[half:, 2].max()
    assert first <= 5e-5
    assert second <= 1.1 * first + 1e-12


@pytest.mark.parametrize("duration", [NAN, math.inf, 0.0, -1.0])
def test_trajectory_spec_rejects_bad_duration(duration):
    with pytest.raises(ValueError, match="duration"):
        TrajectorySpec(duration=duration)


@pytest.mark.parametrize("duration, steps", [(0.005, 0), (0.006, 1)])
def test_trajectory_spec_needs_one_step(duration, steps):
    """At 100 Hz, 0.005 s rounds to no step (half to even) and is refused
    before a campaign can score an empty trial; 0.006 s is one step, whose
    one-trial campaign gives finite rows."""
    if steps == 0:
        with pytest.raises(ValueError, match="duration"):
            TrajectorySpec(duration=duration)
        return
    spec = TrajectorySpec(duration=duration)
    assert generate_truth(spec).n == steps + 1
    cfg = CampaignConfig(
        trajectory=spec, noise_model=FixedComponentMixture.default_biased(), trials=1
    )
    for row in run_monte_carlo(cfg):
        assert math.isfinite(row.rmse_mean) and math.isfinite(row.nees_mean)
        assert row.diverged == 0


def fitted_r(model, seed):
    """The Gaussian arm's R in a campaign on ``model`` with ``seed``."""
    (r,) = sim._arms(CampaignConfig(noise_model=model, seed=seed, gammas=()))
    return r


@pytest.mark.parametrize("bias, sigma", [(0.15, 0.05), (0.3, 0.1), (0.02, 0.2)])
def test_fitted_covariance_is_covariance_plus_spread_of_means(bias, sigma):
    """The Gaussian arm's R, fitted on the calibration set, approaches the
    law's covariance, the oracle's mean of covariances plus spread of
    means.  The oracle gives the closed forms to a few ulp of the largest
    entry: the four planar biases (+-b, +-b, 0) have mean zero and add b^2
    on x and y, and one component adds nothing.  Over 20 campaign seeds R
    lies within 5 % of the largest entry, and the seed mean of R within
    1 %.  Measured at worst: 4.2 % on Gaussian noise and on the
    near-Gaussian mixture b = 0.02, sigma = 0.2, 2.7 % on the other two;
    0.73 % for the seed mean."""
    ulp = np.finfo(float).eps
    biased = FixedComponentMixture.default_biased(bias, sigma)
    want = np.diag([sigma**2 + bias**2, sigma**2 + bias**2, sigma**2])
    assert np.abs(mixture_covariance(biased) - want).max() <= 4 * ulp * want.max()
    white = FixedComponentMixture.isotropic(sigma)
    got = mixture_covariance(white)
    assert np.abs(got - sigma**2 * np.eye(3)).max() <= 4 * ulp * sigma**2
    for model in (biased, white):
        law = mixture_covariance(model)
        rel = np.array([fitted_r(model, s) - law for s in range(20)]) / law.max()
        assert np.abs(rel).max() <= 0.05
        assert np.abs(rel.mean(axis=0)).max() <= 0.01


def test_fitted_covariance_is_exactly_symmetric():
    """The Gaussian arm refuses an R that is not bit-symmetric, and
    ``np.cov`` does not promise one; on both noise models the fitted R of
    20 campaign seeds is symmetric bit for bit, and ``filter_stream``
    takes it as an arm."""
    for model, seed in itertools.product(NOISE_MODELS.values(), range(20)):
        r = fitted_r(model(), seed)
        assert np.array_equal(r, r.T)
        sim.filter_stream(AugmentedState.identity(), *resting_stream(1), r)


@pytest.mark.parametrize("name", sorted(NOISE_MODELS))
def test_both_arms_calibrate_on_one_set(name):
    """R and every gamma's radii come from the one held-out set: drawn
    again from the campaign seed's first child, component counts first,
    its symmetrized sample covariance is R and its conformal radii are
    the coverage arms', bit for bit, on 20 campaign seeds."""
    model, gammas = NOISE_MODELS[name](), (0.5, 0.8, 0.95)
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        counts = rng.multinomial(sim.CALIBRATION_SAMPLES, model.weights)
        errors = np.concatenate([model._sample(rng, j, n) for j, n in enumerate(counts)])
        cov = np.cov(errors, rowvar=False)
        campaign = CampaignConfig(noise_model=model, seed=seed, gammas=gammas)
        r, *specs = sim._arms(campaign)
        assert np.array_equal(r, 0.5 * (cov + cov.T))
        for spec, gamma in zip(specs, gammas, strict=True):
            want = conformal_thresholds(errors, gamma)
            assert np.array_equal(spec.epsilon, want.epsilon)


def test_mixture_sample_draws_one_component():
    """``_sample`` draws component j as means[j] + N(0, I) chols[j]^T, with
    the factor ``__post_init__`` kept: the one-matrix factor bit for bit.
    Over 20000 draws the mean lies within 5 sigma / sqrt(n) of the
    component's and the covariance within 5 % of its largest entry."""
    covs = np.array([0.01 * np.eye(3), [[0.04, 0.01, 0.0], [0.01, 0.02, -0.005],
                                        [0.0, -0.005, 0.03]]])
    model = FixedComponentMixture([0.5, 0.5], [[0.0, 0.0, 0.0], [0.3, -0.2, 0.1]], covs)
    for j in range(2):
        assert np.array_equal(model.chols[j], np.linalg.cholesky(covs[j]))
    n = 20_000
    draws = model._sample(np.random.default_rng(5), 1, n)
    z = np.random.default_rng(5).standard_normal((n, 3))
    assert np.array_equal(draws, model.means[1] + z @ model.chols[1].T)
    sd = np.sqrt(np.diag(covs[1]))
    assert np.all(np.abs(draws.mean(axis=0) - model.means[1]) <= 5.0 * sd / math.sqrt(n))
    assert np.abs(np.cov(draws.T) - covs[1]).max() <= 0.05 * covs[1].max()


def test_a_noise_source_is_its_two_draws():
    """A campaign reads its noise source only through ``calibration`` and
    ``stream``: a source with just those two methods, each handing its
    draw to the biased mixture, gives the mixture's own rows."""
    model = FixedComponentMixture.default_biased()

    class Source:
        def calibration(self, rng, n):
            return model.calibration(rng, n)

        def stream(self, rng, n):
            return model.stream(rng, n)

    def rows(noise_model):
        return run_monte_carlo(CampaignConfig(
            TrajectorySpec(duration=2.0), noise_model, trials=2, seed=7, gammas=(0.8,)
        ))

    assert_rows_identical(rows(Source()), rows(model))


def test_imu_noise_deviation_is_density_over_root_dt():
    """The noise synthesize_imu adds has per-axis deviation density /
    sqrt(dt), within 5 % on a 60 s stream (6000 samples an axis, so the
    estimate's own spread is about 0.9 %)."""
    truth = generate_truth(TrajectorySpec(duration=60.0))
    noise = sim.PROCESS_NOISE
    clean, noisy = synthesize_imu(truth), synthesize_imu(truth, noise, seed=9)
    dt = 1.0 / TrajectorySpec.rate
    for sensor, density in enumerate((noise.accel, noise.gyro)):
        added = noisy[sensor] - clean[sensor]
        assert added.shape == (6000, 3)
        assert np.abs(added.std(axis=0) / (density / math.sqrt(dt)) - 1.0).max() <= 0.05


@pytest.mark.parametrize("trials", [2.5, 1.0, "2", True, False])
def test_trial_count_must_be_an_integer(monkeypatch, trials):
    """2.5 used to fail in numpy with "expected a sequence of integers",
    and True ran one trial; the campaign refuses them by name before any
    trial runs."""
    calls = spy(monkeypatch, "run_trial")
    campaign = dataclasses.replace(golden_campaign("gaussian"), trials=trials)
    with pytest.raises(ValueError, match="trials must be an integer"):
        run_monte_carlo(campaign)
    assert calls == []


@pytest.mark.parametrize("seed", [None, True, False, 1.5, "7", -1])
def test_campaign_seed_must_be_a_non_negative_integer(monkeypatch, seed):
    """None used to run on fresh OS entropy, so the rows changed on every
    call; True ran seed 1, and 1.5 and "7" raised TypeError inside
    SeedSequence.  The campaign refuses them by name before any trial
    runs."""
    calls = spy(monkeypatch, "run_trial")
    campaign = dataclasses.replace(golden_campaign("gaussian"), seed=seed)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        run_monte_carlo(campaign)
    assert calls == []


def test_numpy_integer_seed_runs_as_its_int():
    """The seed check admits numpy integers, and they seed as their int."""
    campaign = dataclasses.replace(golden_campaign("gaussian"), trials=1)
    want = run_monte_carlo(campaign)
    got = run_monte_carlo(dataclasses.replace(campaign, seed=np.int64(campaign.seed)))
    assert_rows_identical(got, want)


def test_campaign_without_arms_is_refused(monkeypatch):
    """No baseline and no gammas used to return no rows, silently; the
    campaign refuses it by name before any trial runs."""
    trials = spy(monkeypatch, "run_trial")
    campaign = dataclasses.replace(
        golden_campaign("gaussian"), include_baseline=False, gammas=()
    )
    with pytest.raises(ValueError, match="include_baseline"):
        run_monte_carlo(campaign)
    assert trials == []


def test_measurement_stream_holds_one_component():
    """On a resting truth the measurements are the errors alone.  Over
    10^4 samples their mean lies within 5 sigma / sqrt(n) per axis of
    exactly one component mean (the means are 0.3 apart, 120 such
    widths), and different seeds reach different components."""
    n, model = 10_000, FixedComponentMixture.default_biased()
    rots = np.broadcast_to(np.eye(3), (n, 3, 3))
    truth = TruthTrajectory(0.01 * np.arange(n), rots, np.zeros((n, 3)), np.zeros((n, 3)))
    width = 5.0 * 0.05 / math.sqrt(n)
    reached = set()
    for seed in range(8):
        mean_err = synthesize_measurements(truth, model, seed).mean(axis=0)
        (hit,) = np.flatnonzero(np.abs(model.means - mean_err).max(axis=1) <= width)
        reached.add(int(hit))
    assert len(reached) > 1


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.3])
def test_oracle_radii_match_closed_form(sigma):
    """On one component the oracle's root lands within a few ulp of the
    closed-form Gaussian quantile (measured <= 1.2e-15 relative)."""
    for gamma in (0.5, 0.8, 0.95):
        eps = mixture_radii(FixedComponentMixture.isotropic(sigma), gamma)
        ref = gaussian_radius(sigma, gamma)
        assert np.abs(eps / ref - 1.0).max() <= 4e-15


def calibrated_radii(model, gammas, seed):
    """The radii of a campaign's coverage arms, one row per gamma."""
    campaign = CampaignConfig(
        noise_model=model, seed=seed, gammas=gammas, include_baseline=False
    )
    return np.array([arm.epsilon for arm in sim._arms(campaign)])


@pytest.mark.parametrize("name", sorted(NOISE_MODELS))
def test_calibrated_radii_converge_to_the_oracle(name):
    """At CALIBRATION_SAMPLES the conformal radii of 20 campaign seeds
    lie within 5 % of the law's quantiles, and their seed mean within
    1 %.  Measured over 200 seeds: at worst 4.1 %, median 0.3-0.8 %;
    over these 20 the mean is off by at most 0.4 %."""
    gammas = (0.5, 0.8, 0.95)
    model = NOISE_MODELS[name]()
    ref = np.array([mixture_radii(model, g) for g in gammas])
    rel = np.array([calibrated_radii(model, gammas, s) for s in range(20)]) / ref - 1.0
    assert np.abs(rel).max() <= 0.05
    assert np.abs(rel.mean(axis=0)).max() <= 0.01


def test_weight_above_one_within_the_sum_tolerance_calibrates():
    """The mixture accepts weights that sum to 1 within 1e-12, such as
    (1 + 9e-13, 0), which ``multinomial`` refuses as they are.  The
    calibration set draws its component counts from them renormalized:
    the same set as weights (1, 0) give."""
    covs = [np.eye(3), 4.0 * np.eye(3)]
    model = FixedComponentMixture([1.0 + 9e-13, 0.0], np.zeros((2, 3)), covs)
    exact = FixedComponentMixture([1.0, 0.0], np.zeros((2, 3)), covs)
    want = calibrated_radii(exact, (0.8,), seed=3)
    assert np.array_equal(calibrated_radii(model, (0.8,), seed=3), want)


# The golden campaigns' calibrated radii (x, y, z) in full repr precision:
# a change to the calibration set or to the conformal rank shows bit for bit.
PINNED_RADII = {
    "mixture": {
        0.5: (0.19043832998281632, 0.19091962885570332, 0.06316144321374545),
        0.7: (0.21025628138136657, 0.21060813496501346, 0.07956657547169538),
        0.8: (0.22334191536970716, 0.2233337779573596, 0.09010610022148409),
        0.95: (0.25857868640406, 0.25707828679781225, 0.11926637173913478),
        0.99: (0.28757291213685693, 0.2866322976197799, 0.14482596441299564),
    },
    "gaussian": {
        0.5: (0.12605311028630786, 0.12478977689272322, 0.1263228864274909),
        0.7: (0.16030993624729725, 0.15760878568945236, 0.15913315094339076),
        0.8: (0.1815636732642085, 0.17764847197054967, 0.18021220044296818),
        0.95: (0.2414924011528914, 0.235628363199959, 0.23853274347826955),
        0.99: (0.29656953797261976, 0.2951068914004133, 0.2896519288259913),
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_RADII))
def test_radii_are_pinned(name):
    campaign = dataclasses.replace(
        golden_campaign(name), gammas=tuple(PINNED_RADII[name])
    )
    arms = sim._arms(campaign)
    assert isinstance(arms[0], np.ndarray)
    for arm, (gamma, want) in zip(arms[1:], PINNED_RADII[name].items()):
        assert arm.gamma == gamma
        assert tuple(arm.epsilon.tolist()) == want


def test_unsupported_gamma_is_refused_before_any_trial(monkeypatch):
    """gamma 0.9999 needs more calibration samples than the campaign
    draws; the campaign fails with conformal_thresholds' error, which
    names the minimum, and runs no trial."""
    trials = spy(monkeypatch, "run_trial")
    campaign = dataclasses.replace(golden_campaign("mixture"), gammas=(0.8, 0.9999))
    need = min_samples_for(0.9999)
    assert need > sim.CALIBRATION_SAMPLES
    with pytest.raises(
        ValueError, match=f"at least {need} samples, got {sim.CALIBRATION_SAMPLES}"
    ):
        run_monte_carlo(campaign)
    assert trials == []


EYES = np.broadcast_to(np.eye(3), (2, 3, 3))


@pytest.mark.parametrize(
    "weights, means, covs",
    [
        ([1.5, -0.5], np.zeros((2, 3)), EYES),
        ([0.6, 0.6], np.zeros((2, 3)), EYES),
        ([[0.5, 0.5]], np.zeros((2, 3)), EYES),
        ([np.nan, 1.0], np.zeros((2, 3)), EYES),
        ([0.5, 0.5], np.zeros((3, 3)), EYES),
        ([0.5, 0.5], np.zeros((2, 2)), EYES),
        ([0.5, 0.5], np.zeros((2, 3)), np.eye(3)),
        ([0.5, 0.5], np.zeros((2, 3)), [np.eye(3), np.diag([1.0, 0.0, 1.0])]),
        ([0.5, 0.5], [[0.0, np.nan, 0.0], [0.0, 0.0, 0.0]], EYES),
        ([0.5, 0.5], np.zeros((2, 3)), [np.eye(3), np.full((3, 3), np.nan)]),
        ([1.0], np.zeros((1, 3)), [[[0.01, 0.5, 0], [0, 0.01, 0], [0, 0, 0.01]]]),
    ],
    ids=["negative-weight", "weights-sum", "weights-2d", "nan-weight",
         "means-rows", "means-cols", "covs-shape", "covs-singular",
         "nan-mean", "nan-cov", "covs-asymmetric"],
)
def test_malformed_mixture_is_rejected(weights, means, covs):
    with pytest.raises(ValueError):
        FixedComponentMixture(weights, means, covs)
