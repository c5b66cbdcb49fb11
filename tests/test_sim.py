import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from coverage_inekf import sim
from coverage_inekf.coverage import UpdateDiagnostics
from coverage_inekf.filter import propagate_mean
from coverage_inekf.sim import (
    CampaignConfig,
    CampaignRow,
    FixedComponentMixture,
    GaussianNoise,
    TrajectorySpec,
    TrialResult,
    campaign_rows_to_csv,
    generate_truth,
    run_monte_carlo,
    synthesize_imu,
)
from coverage_inekf.tmvn import PROB_FLOOR

NAN = float("nan")

# Rows of the 2 s, 3-trial, seed-7 campaign below, in full repr precision.
# Any change to them is a change in the filter's output, not a refactor.
GOLDEN = {
    "mixture": [
        CampaignRow(method="gaussian", gamma=None, rmse_mean=0.24123384393958167,
                    rmse_std=0.014152129925418666, nees_mean=20.227191423594373,
                    nees_std=2.176123059797559, frac_active=NAN, diverged=0,
                    skipped=0),
        CampaignRow(method="coverage", gamma=0.8, rmse_mean=0.21963922802022626,
                    rmse_std=0.013731795316793607, nees_mean=9.273306621147137,
                    nees_std=1.292751514862138, frac_active=0.27499999999999997,
                    diverged=0, skipped=0),
    ],
    "gaussian": [
        CampaignRow(method="gaussian", gamma=None, rmse_mean=0.07631534107758006,
                    rmse_std=0.037924234005869396, nees_mean=2.839262815262964,
                    nees_std=2.5558181027511506, frac_active=NAN, diverged=0,
                    skipped=0),
        CampaignRow(method="coverage", gamma=0.8, rmse_mean=0.08673370543638836,
                    rmse_std=0.03629006016650421, nees_mean=3.044359435306346,
                    nees_std=2.433826063756055, frac_active=0.43166666666666664,
                    diverged=0, skipped=2),
    ],
}

NOISE_MODELS = {
    "mixture": FixedComponentMixture.default_biased,
    "gaussian": lambda: GaussianNoise.isotropic(0.1),
}


def golden_campaign(name, **overrides):
    return CampaignConfig(
        trajectory=TrajectorySpec(duration=2.0),
        noise_model=NOISE_MODELS[name](),
        trials=3,
        seed=7,
        gammas=(0.8,),
        **overrides,
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


def test_jobs_do_not_change_rows():
    rows = run_monte_carlo(golden_campaign("mixture", jobs=2))
    assert_rows_identical(rows, GOLDEN["mixture"])


def script_trials(monkeypatch, diverge):
    """Replace run_trial: trial i of every arm scores RMSE i + 1, NEES
    2 (i + 1) and active fraction 0.1 (i + 1); the calls numbered in
    ``diverge`` (0-based, arm by arm) diverge instead."""
    calls = itertools.count()

    def scripted(campaign, arm, seed):
        n = next(calls)
        i = n % campaign.trials
        frac = 0.1 * (i + 1) if arm.method == "coverage" else NAN
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

    def scripted(x, cov, meas, spec, **kwargs):
        skipped = next(calls) % 10 == 0
        pi = PROB_FLOOR if skipped else 0.9
        return x, cov, UpdateDiagnostics(pi, active=False, skipped=skipped)

    monkeypatch.setattr(sim, "coverage_update", scripted)
    campaign = CampaignConfig(
        trajectory=TrajectorySpec(duration=0.5),
        noise_model=GaussianNoise.isotropic(0.1),
        trials=3,
        seed=7,
        gammas=(0.8,),
        include_baseline=False,
    )
    (row,) = run_monte_carlo(campaign)
    assert (row.skipped, row.diverged, row.frac_active) == (15, 0, 0.0)
    assert campaign_rows_to_csv([row]).splitlines()[1].endswith(",0,0,15")


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
    x = truth.state_at(0)
    err = np.empty((len(imu), 3))
    for k, u in enumerate(imu):
        x = propagate_mean(x, u)
        err[k] = [
            np.abs(x.nav.rot - truth.rots[k + 1]).max(),
            np.abs(x.nav.vel - truth.vels[k + 1]).max(),
            np.abs(x.nav.pos - truth.poss[k + 1]).max(),
        ]
    assert err[:, :2].max() <= 1e-10
    half = len(imu) // 2
    first, second = err[:half, 2].max(), err[half:, 2].max()
    assert first <= 5e-5
    assert second <= 1.1 * first + 1e-12
