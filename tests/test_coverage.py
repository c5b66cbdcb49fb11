import pickle

import numpy as np
import pytest
from scipy.special import ndtr

from oracles import (
    mass_inside_piecewise_posterior_1d,
    piecewise_posterior_moments_1d,
)

from coverage_inekf import coverage, se23
from coverage_inekf.coverage import (
    CERTIFY_MARGIN,
    NEAR_FULL_MASS,
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
from coverage_inekf.se23 import Se23Element, so3_gammas
from coverage_inekf.tmvn import box_mass_lower_bound, box_moments


def random_state(rng):
    w = rng.standard_normal(3)
    w *= rng.uniform(0.1, 2.0) / np.linalg.norm(w)
    return AugmentedState(
        Se23Element(so3_gammas(w)[0], rng.standard_normal(3), 3 * rng.standard_normal(3)),
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
        zp = kl_coverage_posterior(np.eye(1), one_d_feasible(-3.0, 3.0), gamma=0.8)
        assert zp.prior_mass >= 0.8
        assert np.array_equal(zp.mean, np.zeros(1))
        assert np.array_equal(zp.cov, np.eye(1))

    def test_active_1d_matches_quadrature_oracle(self):
        # frozen reference: N(0,1), C=[1,2], gamma=0.5 via piecewise Simpson
        ref_mean, ref_var = 0.5828118857337737, 1.075748758692856
        zp = kl_coverage_posterior(np.eye(1), one_d_feasible(1.0, 2.0), gamma=0.5)
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
        zp = kl_coverage_posterior(np.eye(3), fs, gamma=0.9)
        assert zp.prior_mass < 0.9
        assert np.allclose(zp.mean, 0, atol=5e-3)
        assert np.all(np.diag(zp.cov) < 1.0)

    def test_mass_improvement_diagnostic(self):
        rng = np.random.default_rng(5)
        improved = 0
        cases = 0
        for _ in range(50):
            center = rng.uniform(0.5, 2.0, 3)
            half = rng.uniform(0.3, 1.0, 3)
            fs = FeasibleSet(np.zeros((3, 15)), center - half, center + half)
            zp = kl_coverage_posterior(np.eye(3), fs, gamma=0.85)
            if zp.prior_mass >= 0.85:
                continue
            cases += 1
            pi_post = box_moments(zp.mean, zp.cov, fs.box()).prob
            if pi_post > zp.prior_mass:
                improved += 1
            assert pi_post <= 0.85 + 0.05
        assert cases > 30
        assert improved / cases >= 0.95

    def test_extreme_outlier_raises(self):
        with pytest.raises(DegenerateMassError):
            kl_coverage_posterior(np.eye(1), one_d_feasible(50.0, 51.0), gamma=0.8)


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
        zp = kl_coverage_posterior(self.cov_z, self.fs, 0.8)
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
            self.x, self.cov, predicted_body_velocity(self.x), spec
        )
        assert x2 is self.x
        assert cov2 is self.cov
        assert not diag.active and not diag.skipped
        assert diag.pi_prior >= 0.8

    def test_offset_measurement_activates(self):
        spec = CoverageSpec(np.array([0.05, 0.05, 0.05]), 0.8)
        meas = predicted_body_velocity(self.x) + np.array([0.25, 0.0, 0.0])
        x2, _, diag = coverage_update(self.x, self.cov, meas, spec)
        assert diag.active
        assert diag.pi_prior < 0.8
        # the moment-matched posterior moves z-space mass toward gamma
        fs = build_feasible_set(self.x, meas, spec)
        cov_z, _ = project_prior(self.cov, fs)
        zp = kl_coverage_posterior(cov_z, fs, spec.gamma)
        pi_post = box_moments(zp.mean, zp.cov, fs.box()).prob
        assert diag.pi_prior < pi_post <= 0.8 + 0.03
        # estimate moves toward the measurement
        before = np.linalg.norm(meas - predicted_body_velocity(self.x))
        after = np.linalg.norm(meas - predicted_body_velocity(x2))
        assert after < before

    def test_extreme_outlier_skipped(self):
        spec = CoverageSpec(np.array([0.05, 0.05, 0.05]), 0.8)
        meas = predicted_body_velocity(self.x) + np.array([500.0, 0.0, 0.0])
        x2, cov2, diag = coverage_update(self.x, self.cov, meas, spec)
        assert diag.skipped and not diag.active
        assert x2 is self.x and cov2 is self.cov

    @pytest.mark.parametrize("radius, near_full", [(5.5, True), (4.5, False)])
    def test_near_full_mass_flag(self, radius, near_full):
        """Radii of ``radius`` prior sigmas on every axis: 1 - pi is 1.1e-7
        at 5.5 (flagged) and 2.0e-5 at 4.5 (not flagged)."""
        x = AugmentedState.identity()
        sd = 0.1
        cov = cov_from_std(0.02, sd, 0.1, 0.01, 0.001)
        spec = CoverageSpec(np.full(3, radius * sd), 0.8)
        x2, cov2, diag = coverage_update(x, cov, predicted_body_velocity(x), spec)
        expected = (2.0 * ndtr(radius) - 1.0) ** 3
        assert abs(diag.pi_prior - expected) <= 1e-12
        assert (1.0 - expected < NEAR_FULL_MASS) == near_full
        assert diag.near_full_mass == near_full
        assert not diag.active and x2 is x and cov2 is cov

    def test_determinism(self):
        spec = CoverageSpec(np.array([0.05, 0.05, 0.05]), 0.8)
        meas = predicted_body_velocity(self.x) + np.array([0.2, -0.1, 0.0])
        out1 = coverage_update(self.x, self.cov, meas, spec)
        out2 = coverage_update(self.x, self.cov, meas, spec)
        assert np.array_equal(out1[0].nav.as_matrix(), out2[0].nav.as_matrix())
        assert np.array_equal(out1[1], out2[1])
        assert out1[2].pi_prior == out2[2].pi_prior

    def test_posterior_cov_stays_psd(self):
        rng = np.random.default_rng(9)
        spec = CoverageSpec(np.array([0.05, 0.08, 0.05]), 0.85)
        x, cov = self.x, self.cov
        for k in range(50):
            meas = predicted_body_velocity(x) + rng.normal(0.1, 0.1, 3)
            x, cov, _ = coverage_update(x, cov, meas, spec)
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


# A velocity block with two negative eigenvalues and a positive determinant,
# and one with a positive diagonal as well: 0.01 (11/3 J - I) has
# eigenvalues (0.1, -0.01, -0.01).
INDEFINITE_VELOCITY_BLOCKS = [
    np.diag([0.05, -0.01, -0.01]),
    0.01 * (11.0 / 3.0 * np.ones((3, 3)) - np.eye(3)),
]


@pytest.mark.parametrize("block", INDEFINITE_VELOCITY_BLOCKS, ids=["diagonal", "dense"])
@pytest.mark.parametrize("radius", [0.05, 50.0], ids=["narrow", "wide"])
def test_indefinite_prior_rejected_by_both_rules(block, radius):
    """Both rules raise on an indefinite prior.  The wide box would be
    certified inactive from the dense block's positive diagonal, so the
    prior must be refused before the certificate is tried."""
    x = AugmentedState.identity()
    cov = cov_from_std(0.02, 0.1, 0.1, 0.01, 0.001)
    cov[3:6, 3:6] = block
    meas = predicted_body_velocity(x) + 0.01
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        gaussian_update(x, cov, meas, 0.001 * np.eye(3))
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        coverage_update(x, cov, meas, CoverageSpec(np.full(3, radius), 0.8))


def random_correlation(rng, max_abs=0.95):
    while True:
        r = np.eye(3)
        r[0, 1], r[0, 2], r[1, 2] = rng.uniform(-max_abs, max_abs, 3)
        r = np.triu(r) + np.triu(r, 1).T
        if np.linalg.eigvalsh(r).min() > 1e-3:
            return r


def certificate_problem(rng, kind):
    """A prior whose projected covariance has scale 1e-3 to 1e3 and
    correlations up to 0.95, and a measurement and radii making a centred,
    offset or partly infinite box of 0.5 to 5 marginal sigmas per side."""
    x = random_state(rng)
    sd = 10.0 ** rng.uniform(-3.0, 3.0) * 10.0 ** rng.uniform(-0.5, 0.5, 3)
    cov_z = random_correlation(rng) * np.outer(sd, sd)
    cov = cov_from_std(0.02, 1.0, 0.1, 0.01, 0.001)
    # H = -R^T on the velocity block, so this block projects to cov_z
    cov[3:6, 3:6] = x.nav.rot @ cov_z @ x.nav.rot.T
    eps = rng.uniform(0.5, 5.0, 3) * sd
    shift = np.zeros(3) if kind == "centred" else rng.uniform(-2.0, 2.0, 3) * sd
    if kind == "infinite":
        eps[rng.permutation(3)[: rng.integers(1, 3)]] = np.inf
    gamma = float(rng.choice([0.5, 0.8, 0.95]))
    return x, cov, predicted_body_velocity(x) + shift, CoverageSpec(eps, gamma)


class TestCertificate:
    def count_grid_calls(self, monkeypatch):
        calls = []
        real = coverage.box_moments

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(coverage, "box_moments", counted)
        return calls

    def test_certified_updates_match_the_grid(self, monkeypatch):
        """2000 random problems.  Wherever the bound clears gamma by the
        margin, the grid's mass is at least gamma, the update runs no grid,
        and the diagnostics read later (also after pickling) are the grid
        path's bit for bit."""
        rng = np.random.default_rng(42)
        grid = self.count_grid_calls(monkeypatch)
        certified = 0
        for k in range(2000):
            kind = ("centred", "offset", "infinite")[k % 3]
            x, cov, meas, spec = certificate_problem(rng, kind)
            fs = build_feasible_set(x, meas, spec)
            cov_z, _ = project_prior(cov, fs)
            pi = box_moments(np.zeros(3), cov_z, fs.box()).prob
            bound = box_mass_lower_bound(np.zeros(3), cov_z, fs.box())
            assert bound <= pi + 1e-14

            grid.clear()
            x2, cov2, diag = coverage_update(x, cov, meas, spec)
            if bound < spec.gamma + CERTIFY_MARGIN:
                assert len(grid) == 1
                continue
            certified += 1
            assert pi >= spec.gamma
            assert grid == []
            assert x2 is x and cov2 is cov
            assert not diag.active and not diag.skipped
            unread = pickle.loads(pickle.dumps(diag))
            assert diag.pi_prior == pi
            assert diag.near_full_mass == ((1.0 - pi) < NEAR_FULL_MASS)
            read = pickle.loads(pickle.dumps(diag))
            for d in (unread, read):
                assert d.pi_prior == pi
                assert d.near_full_mass == diag.near_full_mass
        assert 600 <= certified <= 1400

    @pytest.mark.parametrize("clearance, certified", [(0.5, False), (2.0, True)])
    def test_bound_within_margin_defers_to_the_grid(
        self, monkeypatch, clearance, certified
    ):
        """gamma set ``clearance`` margins below the bound: within one
        margin the grid decides, beyond it the bound does."""
        x = AugmentedState.identity()
        cov = cov_from_std(0.02, 0.1, 0.1, 0.01, 0.001)
        meas = predicted_body_velocity(x) + np.array([0.05, -0.02, 0.0])
        eps = np.array([0.3, 0.25, 0.3])
        fs = build_feasible_set(x, meas, CoverageSpec(eps, 0.5))
        cov_z, _ = project_prior(cov, fs)
        bound = box_mass_lower_bound(np.zeros(3), cov_z, fs)
        spec = CoverageSpec(eps, bound - clearance * CERTIFY_MARGIN)
        grid = self.count_grid_calls(monkeypatch)
        _, _, diag = coverage_update(x, cov, meas, spec)
        assert len(grid) == (0 if certified else 1)
        assert not diag.active and diag.pi_prior >= spec.gamma

    def test_diagnostics_need_one_source_of_pi(self):
        with pytest.raises(ValueError):
            coverage.UpdateDiagnostics(active=False, skipped=False)
