"""The benchmark's workloads, driven only through the public API.

Two kinds:

* campaigns: ``run_monte_carlo(CampaignConfig(...))`` with trials run in
  order in this process.  Each config passes only the fields that define
  the workload, so library defaults (``jobs``, ``n_samples``, ...) apply.
* the estimator: ``box_moments(mean, cov, box)`` at the library defaults on
  problems from :mod:`quadrature`.

Accuracy is measured on a fixed input set that does not depend on the
run's seed, so it repeats exactly.  Filter errors of a 40-trial campaign
vary by 10-15 % from seed to seed, which would hide an accuracy change of
that size.  The seed varies the timed inputs.

Throughput is timed in short chunks, each between two passes of
:func:`calibrate.reference_seconds`, and scaled to the nominal host speed
(see :mod:`calibrate`).
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
import traceback

import numpy as np

import calibrate
import coverage_inekf
import quadrature
import spans
from coverage_inekf import BoxRegion
from coverage_inekf.sim import (
    CampaignConfig,
    FixedComponentMixture,
    GaussianNoise,
    TrajectorySpec,
    run_monte_carlo,
)

ACCURACY_SEED = 1234

# Trials last DURATION_S seconds at the default 100 Hz.  ACCURACY_CAMPAIGNS
# campaigns of TRIALS trials with fixed seeds give the accuracy metrics;
# throughput is timed on one-trial campaigns (0.1-0.3 s each) seeded by the
# run, so each chunk sits close in time to its reference passes.
DURATION_S = 2.5
TRIALS = 8
ACCURACY_CAMPAIGNS = 2
CHUNK_TRIALS = 1
MIN_TIMED = 8
TRACE_CAMPAIGNS = 4

# Estimator: problems in the fixed accuracy set and in the seeded timed set;
# one timed pass over the latter takes about 0.1 s.
ACCURACY_PROBLEMS = 200
TIMED_PROBLEMS = 256
TRACE_PASSES = 5
SWEEP_N = (128, 256, 1000, 4096)

# Loose ceilings on the default estimator's median errors, 20-30x the
# values measured when the benchmark was written; beyond them the output
# is wrong rather than imprecise.
MAX_ERR = {"prob_err": 1e-3, "mean_err": 0.1, "m2_err": 0.5}

TRACED = (
    "sim.run_trial",
    "sim.generate_truth",
    "sim.synthesize_imu",
    "sim.synthesize_measurements",
    "filter.error_transition",
    "filter.propagate_mean",
    "filter.propagate_cov",
    "filter.gaussian_update",
    "filter.realized_error",
    "filter.apply_correction",
    "coverage.coverage_update",
    "coverage.build_feasible_set",
    "coverage.project_prior",
    "coverage.kl_coverage_posterior",
    "coverage.lift_and_apply",
    "tmvn.box_moments",
    "se23.exp_se23",
    "se23.compose",
    "se23.so3_log",
)
DEGENERATE_FLAG = {
    "tmvn.box_moments": lambda out: bool(getattr(out, "degenerate", False))
}

# Metric names and units: end to end (--trace 0) and per layer (--trace 1).
END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "err_mean": "1",
    "err_cov": "1",
}

SPAN_STATS = {"calls": "count", "self_s": "s", "us_per_call": "us", "share": "frac"}
RATIOS = {
    "coverage.active_frac": "frac",
    "tmvn.degenerate_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.accounted_frac": "frac",
    "trace.absent": "count",
}
SWEEP_STATS = {"us_per_call": "us", "prob_err": "1", "mean_err": "1", "m2_err": "1"}


def per_layer_units() -> dict[str, str]:
    units = {f"{t}.{k}": u for t in TRACED for k, u in SPAN_STATS.items()}
    units.update(RATIOS)
    units.update({f"tmvn.n{n}.{k}": u for n in SWEEP_N for k, u in SWEEP_STATS.items()})
    return units


class Outcome:
    """Counts and correctness of one run, plus its metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


def derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def scaled_rates(chunk, seconds: float, min_chunks: int) -> list[float]:
    """Rates of ``chunk(i) -> (operations, seconds)`` run for ``seconds``,
    each scaled to nominal host speed by the reference passes on either
    side of it."""
    rates = []
    before = calibrate.reference_seconds()
    t0 = time.perf_counter()
    while len(rates) < min_chunks or time.perf_counter() - t0 < seconds:
        ops, wall = chunk(len(rates))
        after = calibrate.reference_seconds()
        rates.append(ops / wall * calibrate.slowdown(before, after))
        before = after
    return rates


def _span_dump(tracer: spans.Tracer, path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **tracer.arrays())


def _layer_metrics(tracer: spans.Tracer, wall: float, untraced: float) -> dict[str, float]:
    summary = tracer.summary(wall)
    out = {}
    for target, row in summary.items():
        for key, value in row.items():
            out[f"{target}.{key}"] = value
    box = summary["tmvn.box_moments"]["calls"]
    out["tmvn.degenerate_frac"] = tracer.flagged["tmvn.box_moments"] / box if box else 0.0
    out["trace.overhead_frac"] = wall / untraced - 1.0
    out["trace.accounted_frac"] = tracer.root_time() / wall
    out["trace.absent"] = float(len(tracer.absent))
    return out


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


class Campaign:
    def __init__(self, noise_model, **arms):
        self.noise_model = noise_model
        self.arms = arms

    def config(self, seed: int, trials: int, duration: float = DURATION_S) -> CampaignConfig:
        return CampaignConfig(
            trajectory=TrajectorySpec(duration=duration),
            noise_model=self.noise_model(),
            trials=trials,
            seed=seed,
            **self.arms,
        )

    def first_call(self) -> None:
        run_monte_carlo(self.config(0, 1, duration=0.05))

    def _run(self, cfg: CampaignConfig, out: Outcome):
        """One campaign: its rows, IMU steps and wall time."""
        t0 = time.perf_counter()
        rows = run_monte_carlo(cfg)
        wall = time.perf_counter() - t0
        spec = cfg.trajectory
        steps = cfg.trials * len(rows) * int(round(spec.duration * spec.rate))
        out.attempted += cfg.trials * len(rows)
        for r in rows:
            out.failed += r.diverged
            values = (r.rmse_mean, r.rmse_std, r.nees_mean, r.nees_std)
            out.check(
                bool(np.isfinite(values).all()) and r.nees_mean > 0.0,
                f"campaign {cfg.seed} {r.method}: non-finite row {values}",
            )
            if r.method == "coverage":
                out.check(
                    0.0 < r.frac_active < 1.0,
                    f"campaign {cfg.seed}: frac_active {r.frac_active} not in (0, 1)",
                )
        return rows, steps, wall

    def untraced(self, seed: int, seconds: float, out: Outcome) -> None:
        self.first_call()
        accuracy_rows = []
        for i in range(ACCURACY_CAMPAIGNS):
            cfg = self.config(derived_seed(ACCURACY_SEED, i), TRIALS)
            accuracy_rows += self._run(cfg, out)[0]

        def chunk(i: int) -> tuple[int, float]:
            return self._run(self.config(derived_seed(seed, i), CHUNK_TRIALS), out)[1:]

        out.metrics["ops_per_s"] = statistics.median(scaled_rates(chunk, seconds, MIN_TIMED))
        out.metrics["err_mean"] = float(np.mean([r.rmse_mean for r in accuracy_rows]))
        # NEES / 3 is 1 for a consistent filter; the ratio's larger way
        # round penalizes over- and under-confidence alike and is never 0
        ratio = float(np.mean([r.nees_mean for r in accuracy_rows])) / 3.0
        out.metrics["err_cov"] = max(ratio, 1.0 / ratio)

    def traced(self, seed: int, out: Outcome, dump) -> None:
        self.first_call()
        configs = [self.config(derived_seed(seed, i), TRIALS) for i in range(TRACE_CAMPAIGNS)]
        tracer = spans.Tracer(TRACED, DEGENERATE_FLAG)
        untraced, results = 0.0, []
        for c in configs:  # interleaved, so drift in machine load cancels
            untraced += self._run(c, out)[2]
            with tracer:
                results.append(self._run(c, out))
        wall = sum(r[2] for r in results)
        out.metrics.update(_layer_metrics(tracer, wall, untraced))
        cov_rows = [r for rows, _, _ in results for r in rows if r.method == "coverage"]
        out.metrics["coverage.active_frac"] = (
            float(np.mean([r.frac_active for r in cov_rows])) if cov_rows else 0.0
        )
        _span_dump(tracer, dump)


# ---------------------------------------------------------------------------
# Estimator
# ---------------------------------------------------------------------------


def _boxes(problems):
    return [BoxRegion(p.lower, p.upper) for p in problems]


def _check_moments(est, p: quadrature.Problem, out: Outcome) -> bool:
    """Properties any exact answer has; False marks a failed call."""
    if not (
        np.isfinite(est.prob)
        and np.isfinite(est.mean).all()
        and np.isfinite(est.second_moment).all()
    ):
        return False
    if est.degenerate:
        return True
    width = p.upper - p.lower
    cov = est.second_moment - np.outer(est.mean, est.mean)
    out.check(0.0 <= est.prob <= 1.0, f"box mass {est.prob} outside [0, 1]")
    inside = np.all(est.mean >= p.lower - 1e-9 * width) and np.all(
        est.mean <= p.upper + 1e-9 * width
    )
    out.check(bool(inside), "truncated mean outside its box")
    out.check(
        np.linalg.eigvalsh(0.5 * (cov + cov.T)).min() >= -1e-9 * np.abs(cov).max(),
        "truncated covariance not positive semidefinite",
    )
    return True


def _calls(problems, boxes, **kwargs) -> list:
    """box_moments on each problem; None where the call raised."""
    results = []
    for p, b in zip(problems, boxes):
        try:
            # looked up per call so a tracer installed on the package sees it
            results.append(coverage_inekf.box_moments(p.mean, p.cov, b, **kwargs))
        except Exception:  # a raising call is a failed operation, not a crash
            traceback.print_exc(limit=2, file=sys.stderr)
            results.append(None)
    return results


def _tally(results, problems, out: Outcome) -> list:
    """Count and check calls; failed ones become None."""
    kept = []
    for est, p in zip(results, problems):
        out.attempted += 1
        if est is None or not _check_moments(est, p, out):
            out.failed += 1
            est = None
        kept.append(est)
    return kept


def _errors(estimates, refs) -> dict[str, float]:
    pairs = [(e, r) for e, r in zip(estimates, refs) if e is not None]
    return {
        "prob_err": float(np.median([abs(e.prob - r.prob) for e, r in pairs])),
        "mean_err": float(np.median([np.linalg.norm(e.mean - r.mean) for e, r in pairs])),
        "m2_err": float(
            np.median([np.linalg.norm(e.second_moment - r.second_moment) for e, r in pairs])
        ),
    }


def _pass(problems, boxes, out: Outcome) -> float:
    """Seconds taken by one pass of calls over ``problems``."""
    p0 = time.perf_counter()
    results = _calls(problems, boxes)
    duration = time.perf_counter() - p0
    _tally(results, problems, out)
    return duration


class Estimator:
    def first_call(self) -> None:
        p = quadrature.random_problems(0, 1)[0]
        coverage_inekf.box_moments(p.mean, p.cov, BoxRegion(p.lower, p.upper))

    @staticmethod
    def _reference():
        problems = quadrature.random_problems(ACCURACY_SEED, ACCURACY_PROBLEMS)
        refs = []
        for p in problems:
            high, low = quadrature.reference_moments(p)
            if not quadrature.converged(high, low):
                raise SystemExit("reference quadrature did not converge; benchmark is broken")
            refs.append(high)
        return problems, refs

    def untraced(self, seed: int, seconds: float, out: Outcome) -> None:
        problems, refs = self._reference()
        errors = _errors(_tally(_calls(problems, _boxes(problems)), problems, out), refs)
        for key, ceiling in MAX_ERR.items():
            out.check(errors[key] <= ceiling, f"median {key} {errors[key]:.3g} above {ceiling}")
        out.metrics["err_mean"] = errors["mean_err"]
        out.metrics["err_cov"] = errors["m2_err"]

        timed = quadrature.random_problems(derived_seed(seed, 0), TIMED_PROBLEMS)
        boxes = _boxes(timed)
        _pass(timed, boxes, out)  # warm-up

        def chunk(i: int) -> tuple[int, float]:
            return len(timed), _pass(timed, boxes, out)

        out.metrics["ops_per_s"] = statistics.median(scaled_rates(chunk, seconds, MIN_TIMED))

    def traced(self, seed: int, out: Outcome, dump) -> None:
        problems, refs = self._reference()
        boxes = _boxes(problems)
        if "n_samples" in inspect.signature(coverage_inekf.box_moments).parameters:
            for n in SWEEP_N:
                t0 = time.perf_counter()
                results = _calls(problems, boxes, n_samples=n)
                per_call = (time.perf_counter() - t0) / len(problems)
                out.metrics[f"tmvn.n{n}.us_per_call"] = per_call * 1e6
                for key, value in _errors(_tally(results, problems, out), refs).items():
                    out.metrics[f"tmvn.n{n}.{key}"] = value

        timed = quadrature.random_problems(derived_seed(seed, 0), TIMED_PROBLEMS)
        timed_boxes = _boxes(timed)
        _pass(timed, timed_boxes, out)  # warm-up
        tracer = spans.Tracer(TRACED, DEGENERATE_FLAG)
        untraced = wall = 0.0
        for _ in range(TRACE_PASSES):  # interleaved, so drift in machine load cancels
            untraced += _pass(timed, timed_boxes, out)
            with tracer:
                wall += _pass(timed, timed_boxes, out)
        out.metrics.update(_layer_metrics(tracer, wall, untraced))
        _span_dump(tracer, dump)


WORKLOADS = {
    "mixture_coverage": Campaign(
        FixedComponentMixture.default_biased, gammas=(0.8,), include_baseline=False
    ),
    "gaussian_baseline": Campaign(lambda: GaussianNoise.isotropic(0.1), gammas=()),
    "box_estimator": Estimator(),
}
