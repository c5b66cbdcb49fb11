import numpy as np
import pytest

from oracles import (
    mass_inside_piecewise_posterior_1d,
    piecewise_posterior_moments_1d,
)

from coverage_inekf import se23
from coverage_inekf.coverage import (
    CoverageSpec,
    DegenerateMassError,
    FeasibleSet,
    build_feasible_set,
    coverage_update,
    kl_coverage_posterior,
    lift_and_apply,
    project_prior,
)
from coverage_inekf.filter import (
    AugmentedState,
    apply_correction,
    cov_from_std,
    gaussian_update,
    predicted_body_velocity,
)
from coverage_inekf.se23 import Se23Element, so3_exp
from coverage_inekf.tmvn import box_moments


def random_state(rng):
    w = rng.standard_normal(3)
    w *= rng.uniform(0.1, 2.0) / np.linalg.norm(w)
    return AugmentedState(
        Se23Element(so3_exp(w), rng.standard_normal(3), 3 * rng.standard_normal(3)),
        bias_accel=0.05 * rng.standard_normal(3),
        bias_gyro=0.005 * rng.standard_normal(3),
    )


def fd_output_jacobian(x, step=1e-6):
    """Central finite differences of the invariant output through the
    correction operator, column by column."""

    def output(delta):
        return predicted_body_velocity(apply_correction(x, delta))

    jac = np.zeros((3, 15))
    for j in range(15):
        e = np.zeros(15)
        e[j] = step
        jac[:, j] = (output(e) - output(-e)) / (2.0 * step)
    return jac


def one_d_feasible(lo, hi):
    return FeasibleSet(np.zeros((1, 15)), np.array([lo]), np.array([hi]))


class TestCoverageSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoverageSpec(np.array([0.1, -0.1, 0.1]), 0.8)
        with pytest.raises(ValueError):
            CoverageSpec(np.array([0.1, 0.1, 0.1]), 1.0)


class TestBuildFeasibleSet:
    def test_zero_innovation_centers_box(self):
        rng = np.random.default_rng(0)
        x = random_state(rng)
        eps = np.array([0.1, 0.1, 0.1])
        fs = build_feasible_set(x, predicted_body_velocity(x), CoverageSpec(eps, 0.8))
        assert np.allclose(fs.lower, -eps, atol=1e-14)
        assert np.allclose(fs.upper, eps, atol=1e-14)

    def test_identity_rotation_velocity_block(self):
        x = AugmentedState.identity()
        fs = build_feasible_set(x, np.zeros(3), CoverageSpec(np.ones(3), 0.8))
        assert np.array_equal(fs.h[:, 3:6], -np.eye(3))

    def test_h_matches_finite_difference_jacobian(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = random_state(rng)
            fs = build_feasible_set(
                x, predicted_body_velocity(x), CoverageSpec(np.ones(3), 0.8)
            )
            jac = fd_output_jacobian(x)
            # the corrected state is exp(-xi^) X, so the output moves as +H
            rel = np.linalg.norm(jac - fs.h) / np.linalg.norm(fs.h)
            assert rel <= 1e-6


class TestProjectPrior:
    def test_identity_cov_projects_to_identity(self):
        rng = np.random.default_rng(2)
        x = random_state(rng)
        fs = build_feasible_set(
            x, predicted_body_velocity(x), CoverageSpec(np.ones(3), 0.8)
        )
        cov_z, gain = project_prior(np.eye(15), fs)
        assert np.allclose(cov_z, np.eye(3), atol=1e-12)

    def test_gain_identity(self):
        rng = np.random.default_rng(3)
        x = random_state(rng)
        fs = build_feasible_set(
            x, predicted_body_velocity(x), CoverageSpec(np.ones(3), 0.8)
        )
        a = rng.standard_normal((15, 15))
        cov = a @ a.T + 0.5 * np.eye(15)
        cov_z, gain = project_prior(cov, fs)
        assert np.allclose(gain @ cov_z, cov @ fs.h.T, atol=1e-9)

    def test_collapsed_prior_rejected(self):
        rng = np.random.default_rng(4)
        x = random_state(rng)
        fs = build_feasible_set(
            x, predicted_body_velocity(x), CoverageSpec(np.ones(3), 0.8)
        )
        cov = np.eye(15)
        cov[3:6, 3:6] = np.diag([1.0, 1e-15, 1.0])
        with pytest.raises(np.linalg.LinAlgError, match="cond"):
            project_prior(cov, fs)


class TestKlCoveragePosterior:
    def test_inactive_constraint_returns_prior(self):
        # N(0,1) on [-3,3] holds ~0.9973 mass, above gamma
        zp = kl_coverage_posterior(
            np.eye(1),
            one_d_feasible(-3.0, 3.0),
            gamma=0.8,
            n_samples=4096,
            seed=0,
        )
        assert zp.prior_mass >= 0.8
        assert np.array_equal(zp.mean, np.zeros(1))
        assert np.array_equal(zp.cov, np.eye(1))

    def test_active_1d_matches_quadrature_oracle(self):
        # frozen reference: N(0,1), C=[1,2], gamma=0.5 via piecewise Simpson
        ref_mean, ref_var = 0.5828118857337737, 1.075748758692856
        zp = kl_coverage_posterior(
            np.eye(1),
            one_d_feasible(1.0, 2.0),
            gamma=0.5,
            n_samples=2**17,
            seed=1,
        )
        assert abs(zp.mean[0] - ref_mean) / abs(ref_mean) < 1e-3
        assert abs(zp.cov[0, 0] - ref_var) / ref_var < 1e-3

    def test_oracle_self_consistency(self):
        pi, mass, _, _ = piecewise_posterior_moments_1d(0.0, 1.0, 1.0, 2.0, 0.5)
        assert abs(mass - 1.0) < 1e-9
        inside = mass_inside_piecewise_posterior_1d(0.0, 1.0, 1.0, 2.0, 0.5)
        assert abs(inside - 0.5) < 1e-10

    def test_symmetric_box_keeps_mean_shrinks_variance(self):
        fs = FeasibleSet(
            np.zeros((3, 15)), -0.5 * np.ones(3), 0.5 * np.ones(3)
        )
        zp = kl_coverage_posterior(
            np.eye(3),
            fs,
            gamma=0.9,
            n_samples=2**14,
            seed=2,
        )
        assert zp.prior_mass < 0.9
        assert np.allclose(zp.mean, 0, atol=5e-3)
        assert np.all(np.diag(zp.cov) < 1.0)

    def test_mass_improvement_diagnostic(self):
        rng = np.random.default_rng(5)
        improved = 0
        cases = 0
        for trial in range(50):
            center = rng.uniform(0.5, 2.0, 3)
            half = rng.uniform(0.3, 1.0, 3)
            fs = FeasibleSet(np.zeros((3, 15)), center - half, center + half)
            zp = kl_coverage_posterior(
                np.eye(3),
                fs,
                gamma=0.85,
                n_samples=2048,
                seed=trial,
            )
            if zp.prior_mass >= 0.85:
                continue
            cases += 1
            pi_post = box_moments(zp.mean, zp.cov, fs.box(), 2048, trial).prob
            if pi_post > zp.prior_mass:
                improved += 1
            assert pi_post <= 0.85 + 0.05
        assert cases > 30
        assert improved / cases >= 0.95

    def test_extreme_outlier_raises(self):
        with pytest.raises(DegenerateMassError):
            kl_coverage_posterior(
                np.eye(1),
                one_d_feasible(50.0, 51.0),
                gamma=0.8,
                n_samples=1000,
                seed=3,
            )


class TestLiftAndApply:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.x = random_state(rng)
        a = rng.standard_normal((15, 15))
        self.cov = 0.01 * (a @ a.T + 2 * np.eye(15))
        self.fs = build_feasible_set(
            self.x,
            predicted_body_velocity(self.x) + np.array([0.3, 0.0, -0.2]),
            CoverageSpec(0.1 * np.ones(3), 0.8),
        )
        self.cov_z, self.gain = project_prior(self.cov, self.fs)

    def test_noop_when_posterior_is_prior(self):
        from coverage_inekf.coverage import ZPosterior

        zp = ZPosterior(mean=np.zeros(3), cov=self.cov_z.copy(), prior_mass=0.9)
        x2, cov2 = lift_and_apply(self.x, self.cov, zp, self.gain, self.cov_z)
        assert np.allclose(x2.nav.as_matrix(), self.x.nav.as_matrix(), atol=1e-14)
        assert np.allclose(cov2, self.cov, atol=1e-14)

    def test_zero_z_cov_matches_kalman_noise_free(self):
        from coverage_inekf.coverage import ZPosterior

        zp = ZPosterior(
            mean=np.array([0.05, -0.02, 0.01]), cov=np.zeros((3, 3)), prior_mass=0.5
        )
        _, cov2 = lift_and_apply(self.x, self.cov, zp, self.gain, self.cov_z)
        h = self.fs.h
        k = self.cov @ h.T @ np.linalg.inv(h @ self.cov @ h.T)
        ikh = np.eye(15) - k @ h
        kalman_cov = ikh @ self.cov @ ikh.T
        assert np.allclose(cov2, kalman_cov, atol=1e-9)

    def test_pushforward_identity(self):
        zp = kl_coverage_posterior(
            self.cov_z, self.fs, 0.8, n_samples=4096, seed=7
        )
        _, cov2 = lift_and_apply(self.x, self.cov, zp, self.gain, self.cov_z)
        assert np.allclose(self.fs.h @ self.gain @ zp.mean, zp.mean, atol=1e-9)
        assert np.allclose(self.fs.h @ cov2 @ self.fs.h.T, zp.cov, atol=1e-9)

    def test_indefinite_result_rejected(self):
        from coverage_inekf.coverage import ZPosterior

        zp = ZPosterior(mean=np.zeros(3), cov=np.zeros((3, 3)), prior_mass=0.5)
        bogus_cov_z = 100.0 * self.cov_z
        with pytest.raises(np.linalg.LinAlgError):
            lift_and_apply(self.x, self.cov, zp, self.gain, bogus_cov_z)


class TestCoverageUpdate:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.x = random_state(rng)
        self.cov = cov_from_std(0.02, 0.1, 0.1, 0.01, 0.001)

    def test_wide_bounds_are_bit_identical_noop(self):
        spec = CoverageSpec(np.array([5.0, 5.0, 5.0]), 0.8)
        x2, cov2, diag = coverage_update(
            self.x, self.cov, predicted_body_velocity(self.x), spec,
            n_samples=1000, seed=0,
        )
        assert x2 is self.x
        assert cov2 is self.cov
        assert not diag.active and not diag.skipped
        assert diag.pi_prior >= 0.8

    def test_offset_measurement_activates(self):
        spec = CoverageSpec(np.array([0.05, 0.05, 0.05]), 0.8)
        meas = predicted_body_velocity(self.x) + np.array([0.25, 0.0, 0.0])
        x2, _, diag = coverage_update(
            self.x, self.cov, meas, spec, n_samples=4096, seed=1
        )
        assert diag.active
        assert diag.pi_prior < 0.8
        # the moment-matched posterior moves z-space mass toward gamma
        fs = build_feasible_set(self.x, meas, spec)
        cov_z, _ = project_prior(self.cov, fs)
        zp = kl_coverage_posterior(cov_z, fs, spec.gamma, n_samples=4096, seed=1)
        pi_post = box_moments(zp.mean, zp.cov, fs.box(), 4096, 1).prob
        assert diag.pi_prior < pi_post <= 0.8 + 0.03
        # estimate moves toward the measurement
        before = np.linalg.norm(meas - predicted_body_velocity(self.x))
        after = np.linalg.norm(meas - predicted_body_velocity(x2))
        assert after < before

    def test_extreme_outlier_skipped(self):
        spec = CoverageSpec(np.array([0.05, 0.05, 0.05]), 0.8)
        meas = predicted_body_velocity(self.x) + np.array([500.0, 0.0, 0.0])
        x2, cov2, diag = coverage_update(
            self.x, self.cov, meas, spec, n_samples=1000, seed=2
        )
        assert diag.skipped and not diag.active
        assert x2 is self.x and cov2 is self.cov

    def test_determinism(self):
        spec = CoverageSpec(np.array([0.05, 0.05, 0.05]), 0.8)
        meas = predicted_body_velocity(self.x) + np.array([0.2, -0.1, 0.0])
        out1 = coverage_update(self.x, self.cov, meas, spec, n_samples=1000, seed=3)
        out2 = coverage_update(self.x, self.cov, meas, spec, n_samples=1000, seed=3)
        assert np.array_equal(out1[0].nav.as_matrix(), out2[0].nav.as_matrix())
        assert np.array_equal(out1[1], out2[1])
        assert out1[2].pi_prior == out2[2].pi_prior

    def test_posterior_cov_stays_psd(self):
        rng = np.random.default_rng(9)
        spec = CoverageSpec(np.array([0.05, 0.08, 0.05]), 0.85)
        x, cov = self.x, self.cov
        for k in range(50):
            meas = predicted_body_velocity(x) + rng.normal(0.1, 0.1, 3)
            x, cov, _ = coverage_update(x, cov, meas, spec, n_samples=1000, seed=k)
            assert np.linalg.eigvalsh(cov).min() >= -1e-10


both_rules = pytest.mark.parametrize(
    "update",
    [
        lambda x, cov, meas: gaussian_update(x, cov, meas, 0.01 * np.eye(3)),
        lambda x, cov, meas: coverage_update(
            x, cov, meas, CoverageSpec(0.05 * np.ones(3), 0.8)
        ),
    ],
    ids=["gaussian", "coverage"],
)


@both_rules
def test_nan_prior_rejected_by_both_rules(update):
    x = random_state(np.random.default_rng(10))
    cov = np.full((15, 15), np.nan)
    with pytest.raises(np.linalg.LinAlgError):
        update(x, cov, predicted_body_velocity(x) + 0.1)


@both_rules
def test_nan_measurement_rejected_by_both_rules(update):
    x = random_state(np.random.default_rng(11))
    cov = np.eye(15)
    meas = predicted_body_velocity(x) + np.array([np.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        update(x, cov, meas)
