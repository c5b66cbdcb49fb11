"""Tests of the benchmark's own code: span arithmetic, the tracer's
binding swap, the quadrature reference, the speed scaling of rates and
the metric tables."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import truncnorm

import quadrature
import spans

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class TestSelfTimes:
    def test_synthetic_tree(self):
        # 0: root [0, 10]
        #   1: [1, 3] and 2: [2, 4] overlap, so together they cover [1, 4]
        #   3: [6, 8] with grandchild 4: [6.5, 7]
        #   5: [9, 12] runs past its parent; only [9, 10] counts
        # 6: second root [20, 21] with no children
        start = [0.0, 1.0, 2.0, 6.0, 6.5, 9.0, 20.0]
        end = [10.0, 3.0, 4.0, 8.0, 7.0, 12.0, 21.0]
        parent = [-1, 0, 0, 0, 3, 0, -1]
        own = spans.self_times(start, end, parent)
        np.testing.assert_allclose(own, [10 - 3 - 2 - 1, 2, 2, 1.5, 0.5, 3, 1])


class TestTracer:
    def test_swaps_every_binding_and_restores(self):
        from coverage_inekf import filter as kf
        from coverage_inekf import se23, sim

        original = se23.exp_se23
        state = kf.AugmentedState.identity()
        with spans.Tracer(
            ["filter.apply_correction", "se23.exp_se23", "se23.compose", "se23.gone"]
        ) as tracer:
            # sim holds its own copy of exp_se23 from a from-import
            assert sim.exp_se23 is se23.exp_se23 is not original
            kf.apply_correction(state, np.full(15, 1e-3))
        assert se23.exp_se23 is original and sim.exp_se23 is original
        assert tracer.absent == ["se23.gone"]

        summary = tracer.summary(wall_s=1.0)
        assert [summary[t]["calls"] for t in tracer.targets] == [1, 1, 1, 0]
        a = tracer.arrays()
        # both se23 calls are children of apply_correction
        assert list(a["parent"]) == [-1, 0, 0]
        assert summary["se23.gone"]["us_per_call"] == 0.0


class TestReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_diagonal_covariance_matches_truncated_normal_product(self, seed):
        rng = np.random.default_rng(seed)
        mean = rng.normal(0.0, 1.0, 3)
        sigma = rng.uniform(0.3, 2.0, 3)
        lower = mean + rng.uniform(-2.0, 0.5, 3) * sigma
        upper = lower + rng.uniform(0.3, 3.0, 3) * sigma

        a, b = (lower - mean) / sigma, (upper - mean) / sigma
        axes = truncnorm(a, b, loc=mean, scale=sigma)
        prob = np.prod(ndtr(b) - ndtr(a))
        tmean = axes.mean()
        second = np.outer(tmean, tmean)
        second[np.diag_indices(3)] = axes.var() + tmean**2

        got = quadrature.gauss_legendre_moments(
            mean, np.diag(sigma**2), lower, upper, quadrature.HIGH_ORDER
        )
        assert got.prob == pytest.approx(prob, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(got.mean, tmean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got.second_moment, second, rtol=1e-10, atol=1e-12)

    def test_two_orders_agree_on_generated_problems(self):
        for problem in quadrature.random_problems(7, 5):
            assert quadrature.converged(*quadrature.reference_moments(problem))

    def test_disagreeing_orders_are_caught(self):
        problem = quadrature.random_problems(7, 1)[0]
        high, _ = quadrature.reference_moments(problem)
        coarse = quadrature.gauss_legendre_moments(
            problem.mean, problem.cov, problem.lower, problem.upper, 3
        )
        assert not quadrature.converged(high, coarse)


class TestScaledRates:
    def test_rates_scale_to_nominal_host_speed(self, monkeypatch):
        import calibrate
        import workloads

        # the host slows to half speed during the second chunk and stays
        # there; the reference passes slow down with it, so 50 operations
        # per chunk scale to the same nominal rate each time
        refs = iter(calibrate.NOMINAL_S * np.array([1.0, 1.0, 2.0, 2.0]))
        monkeypatch.setattr(calibrate, "reference_seconds", lambda: next(refs))
        walls = iter([0.1, 0.15, 0.2])
        rates = workloads.scaled_rates(lambda i: (50, next(walls)), 0.0, 3)
        np.testing.assert_allclose(rates, [500.0, 500.0, 500.0])


def test_benchmark_json_lists_the_emitted_metrics():
    import workloads

    doc = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == workloads.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
