import itertools
import pickle

import numpy as np
import pytest

from oracles import (
    box_mass_lower_bound,
    conditional_swap_lift,
    resting_stream,
    se23_matrix,
    tensor_gauss_legendre_box_moments,
    velocity_output_matrix,
)

from coverage_inekf import coverage, sim
from coverage_inekf.coverage import (
    CERTIFY_MARGIN,
    CoverageSpec,
    build_feasible_set,
    coverage_update,
    kl_coverage_posterior,
    project_prior,
    update,
)
from coverage_inekf.filter import (
    AugmentedState,
    apply_correction,
    cov_from_std,
    factor_inverse,
    gaussian_update,
    lift_and_apply,
    predicted_body_velocity,
    velocity_projection,
)
from coverage_inekf.se23 import Se23Element, so3_gammas
from coverage_inekf.tmvn import (
    PROB_FLOOR,
    BoxRegion,
    TruncatedMoments,
    box_moments,
    cholesky,
)


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


def grid_posterior(cov_z, box, gamma):
    """The moment-matched posterior from the grid's moments of N(0, cov_z)
    on ``box``, as an active coverage update computes it."""
    tm = box_moments(np.zeros(cov_z.shape[0]), cov_z, box)
    return kl_coverage_posterior(cov_z, tm, gamma)


def feasible_box(x, meas, spec):
    """The coverage rule's faces for ``meas`` at ``x``, as a box."""
    residual = meas - predicted_body_velocity(x)
    return BoxRegion(*build_feasible_set(residual, spec.epsilon))


def projected_prior(cov, rot):
    """The update's projection and the coverage rule's screen of it:
    (cov_z symmetrized, Sigma H^T, cov_z^-1)."""
    sigma_ht, cov_z = velocity_projection(cov, rot)
    cov_z, _, factor = project_prior(cov_z)
    return cov_z, sigma_ht, factor_inverse(*factor)


def coverage_arm(x, cov, meas, spec):
    """The update with the coverage rule: (x, cov, diagnostics)."""
    return update(x, cov, meas, coverage_update, spec)


class TestCoverageSpec:
    def test_validation(self):
        for eps in ([0.1, -0.1, 0.1], [0.1, np.nan, 0.1]):
            with pytest.raises(ValueError):
                CoverageSpec(np.array(eps), 0.8)
        # an infinite radius leaves its axis open
        CoverageSpec(np.array([0.1, np.inf, 0.1]), 0.8)
        with pytest.raises(ValueError):
            CoverageSpec(np.array([0.1, 0.1, 0.1]), 1.0)


class TestBuildFeasibleSet:
    def test_zero_innovation_centers_box(self):
        rng = np.random.default_rng(0)
        x = random_state(rng)
        eps = np.array([0.1, 0.1, 0.1])
        box = feasible_box(x, predicted_body_velocity(x), CoverageSpec(eps, 0.8))
        assert np.allclose(box.lower, -eps, atol=1e-14)
        assert np.allclose(box.upper, eps, atol=1e-14)

    def test_identity_rotation_velocity_block(self):
        x = AugmentedState.identity()
        _, sigma_ht, _ = projected_prior(np.eye(15), x.nav.rot)
        assert np.array_equal(sigma_ht[3:6], -np.eye(3))

    def test_h_matches_finite_difference_jacobian(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = random_state(rng)
            jac = fd_output_jacobian(x)
            # the corrected state is exp(-xi^) X, so the output moves as +H
            h = velocity_output_matrix(x.nav.rot)
            rel = np.linalg.norm(jac - h) / np.linalg.norm(h)
            assert rel <= 1e-6


class TestProjectPrior:
    def test_identity_cov_projects_to_identity(self):
        rng = np.random.default_rng(2)
        x = random_state(rng)
        cov_z, _, _ = projected_prior(np.eye(15), x.nav.rot)
        assert np.allclose(cov_z, np.eye(3), atol=1e-12)

    def test_gain_identity(self):
        rng = np.random.default_rng(3)
        x = random_state(rng)
        a = rng.standard_normal((15, 15))
        cov = a @ a.T + 0.5 * np.eye(15)
        cov_z, sigma_ht, cov_z_inv = projected_prior(cov, x.nav.rot)
        scale = np.abs(cov).max()
        h = velocity_output_matrix(x.nav.rot)
        assert np.allclose(sigma_ht, cov @ h.T, rtol=0, atol=1e-14 * scale)
        assert np.allclose(cov_z_inv, np.linalg.inv(cov_z), rtol=1e-12, atol=0)
        gain = sigma_ht @ cov_z_inv
        assert np.allclose(gain @ cov_z, cov @ h.T, atol=1e-9)

    def test_collapsed_prior_rejected(self):
        rng = np.random.default_rng(4)
        x = random_state(rng)
        cov = np.eye(15)
        cov[3:6, 3:6] = np.diag([1.0, 1e-15, 1.0])
        with pytest.raises(np.linalg.LinAlgError, match="cond"):
            projected_prior(cov, x.nav.rot)


class TestKlCoveragePosterior:
    def test_active_3d_matches_quadrature_oracle(self):
        """A correlated prior and a box of mass pi < gamma: the grid's
        posterior against the set-mass posterior's own moments, from
        tensor Gauss-Legendre quadrature of the prior over the 27 cells
        that the box's faces cut from +-10 sigma, the box's cell weighted
        gamma / pi and every other (1 - gamma) / (1 - pi)."""
        cov_z = np.array([[1.0, 0.3, -0.2], [0.3, 0.8, 0.1], [-0.2, 0.1, 1.2]])
        lower, upper, gamma = np.array([1.0, -0.5, -1.0]), np.array([2.0, 0.5, 0.8]), 0.5
        sd = np.sqrt(np.diag(cov_z))
        edges = np.stack([-10.0 * sd, lower, upper, 10.0 * sd])
        pi = tensor_gauss_legendre_box_moments(np.zeros(3), cov_z, lower, upper, 32)[0]
        mass, first, second = 0.0, np.zeros(3), np.zeros((3, 3))
        for cell in itertools.product(range(3), repeat=3):
            lo, hi = edges[list(cell), range(3)], edges[np.add(cell, 1), range(3)]
            m, mu, m2 = tensor_gauss_legendre_box_moments(np.zeros(3), cov_z, lo, hi, 32)
            m *= gamma / pi if cell == (1, 1, 1) else (1.0 - gamma) / (1.0 - pi)
            mass, first, second = mass + m, first + m * mu, second + m * m2
        assert pi < gamma and abs(mass - 1.0) < 1e-9
        ref_mean, ref_cov = first, second - np.outer(first, first)
        mean, cov = grid_posterior(cov_z, BoxRegion(lower, upper), gamma)
        assert np.abs(mean - ref_mean).max() < 1e-3 * np.abs(ref_mean).max()
        assert np.abs(cov - ref_cov).max() < 1e-3 * np.abs(ref_cov).max()

    def test_symmetric_box_keeps_mean_shrinks_variance(self):
        box = BoxRegion(-0.5 * np.ones(3), 0.5 * np.ones(3))
        assert box_moments(np.zeros(3), np.eye(3), box).prob < 0.9
        mean, cov = grid_posterior(np.eye(3), box, gamma=0.9)
        assert np.allclose(mean, 0, atol=5e-3)
        assert np.all(np.diag(cov) < 1.0)

    def test_mass_improvement_diagnostic(self):
        rng = np.random.default_rng(5)
        improved = 0
        cases = 0
        for _ in range(50):
            center = rng.uniform(0.5, 2.0, 3)
            half = rng.uniform(0.3, 1.0, 3)
            box = BoxRegion(center - half, center + half)
            tm = box_moments(np.zeros(3), np.eye(3), box)
            pi = tm.prob
            if pi >= 0.85:
                continue
            cases += 1
            posterior = kl_coverage_posterior(np.eye(3), tm, gamma=0.85)
            pi_post = box_moments(*posterior, box).prob
            if pi_post > pi:
                improved += 1
            assert pi_post <= 0.85 + 0.05
        assert cases > 30
        assert improved / cases >= 0.95


class TestMomentMatchedCovariance:
    """The moment-matched z posterior is the gamma : 1 - gamma mixture of
    the prior truncated inside and outside the box, so on an active update
    its covariance is positive definite, and exactly symmetric because
    every entry pair is computed from equal operands."""

    @staticmethod
    def stress_problem(rng):
        """An active problem over the stress ranges: a random 3x3 cov_z with
        axis scales 1e-3..1e3, box half-widths 1e-4..10 marginal sigmas
        with 20 % of faces open, and gamma from just above pi to 0.9999;
        None when the box's mass leaves no such gamma."""
        u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        cov_z = (u * 10.0 ** rng.uniform(-6.0, 6.0, 3)) @ u.T
        cov_z = 0.5 * (cov_z + cov_z.T)
        sd = np.sqrt(np.diag(cov_z))
        center = sd * rng.standard_normal(3)
        half = sd * 10.0 ** rng.uniform(-4.0, 1.0, 3)
        lower = np.where(rng.random(3) < 0.2, -np.inf, center - half)
        upper = np.where(rng.random(3) < 0.2, np.inf, center + half)
        tm = box_moments(np.zeros(3), cov_z, BoxRegion(lower, upper))
        if tm.degenerate or tm.prob >= 0.9999:
            return None
        gamma = tm.prob + (0.9999 - tm.prob) * 10.0 ** rng.uniform(-6.0, 0.0)
        return cov_z, tm, gamma

    def test_active_posteriors_are_symmetric_and_definite(self):
        rng = np.random.default_rng(21)
        active = 0
        while active < 2000:
            problem = self.stress_problem(rng)
            if problem is None:
                continue
            active += 1
            _, cov = kl_coverage_posterior(*problem)
            assert np.array_equal(cov, cov.T)
            cholesky(cov.tolist())

    @pytest.mark.parametrize("low", [-1e-9, -1e-4, np.nan])
    def test_indefinite_rows_are_refused(self, low):
        """Moments whose mixture has the eigenvalues (low, 0.5, 2) raise
        LinAlgError: at pi = 0.5 and gamma = 0.8 the posterior's second
        moment is 0.6 S + 0.4 cov_z for the inside's S."""
        u = np.linalg.qr(np.random.default_rng(12).standard_normal((3, 3)))[0]
        target = (u * [low, 0.5, 2.0]) @ u.T
        tm = TruncatedMoments(0.5, np.zeros(3), (target - 0.4 * np.eye(3)) / 0.6)
        with pytest.raises(np.linalg.LinAlgError, match="moment matching"):
            kl_coverage_posterior(np.eye(3), tm, 0.8)


class TestLiftAndApply:
    """The shared Joseph-form lift with the coverage rule's inputs:
    W = cov_z^-1, the z-space posterior mean as y and its covariance as N."""

    def setup_method(self):
        rng = np.random.default_rng(6)
        self.x = random_state(rng)
        a = rng.standard_normal((15, 15))
        self.cov = 0.01 * (a @ a.T + 2 * np.eye(15))
        self.box = feasible_box(
            self.x,
            predicted_body_velocity(self.x) + np.array([0.3, 0.0, -0.2]),
            CoverageSpec(0.1 * np.ones(3), 0.8),
        )
        self.cov_z, self.sigma_ht, self.cov_z_inv = projected_prior(
            self.cov, self.x.nav.rot
        )

    def lift(self, z_mean, z_cov):
        return lift_and_apply(
            self.x, self.cov, self.sigma_ht, self.cov_z_inv, z_mean, z_cov
        )

    def test_noop_when_posterior_is_prior(self):
        x2, cov2 = self.lift(np.zeros(3), self.cov_z)
        assert np.allclose(se23_matrix(x2.nav), se23_matrix(self.x.nav), atol=1e-14)
        assert np.allclose(cov2, self.cov, atol=1e-14)

    def test_zero_z_cov_matches_kalman_noise_free(self):
        _, cov2 = self.lift(np.array([0.05, -0.02, 0.01]), np.zeros((3, 3)))
        h = velocity_output_matrix(self.x.nav.rot)
        k = self.cov @ h.T @ np.linalg.inv(h @ self.cov @ h.T)
        ikh = np.eye(15) - k @ h
        kalman_cov = ikh @ self.cov @ ikh.T
        assert np.allclose(cov2, kalman_cov, atol=1e-9)

    def test_pushforward_identity(self):
        z_mean, z_cov = grid_posterior(self.cov_z, self.box, 0.8)
        _, cov2 = self.lift(z_mean, z_cov)
        h = velocity_output_matrix(self.x.nav.rot)
        gain = self.sigma_ht @ self.cov_z_inv
        assert np.allclose(h @ gain @ z_mean, z_mean, atol=1e-9)
        assert np.allclose(h @ cov2 @ h.T, z_cov, atol=1e-9)

    def test_matches_conditional_swap_reference(self):
        """On 200 seeded priors and active moment-matched posteriors, the
        Joseph-form lift equals Sigma + G (P' - cov_z) G^T within
        1e-14 ||Sigma||_2 (measured worst 3.6e-16), and its correction is
        the reference's bit for bit.  Per-block deviations span 1e-3 to 1;
        wider spreads part the two further (1.9e-7 with per-coordinate
        deviations from 1e-4 to 10), where the reference's sum cancels."""
        rng = np.random.default_rng(26)
        for _ in range(200):
            x = random_state(rng)
            a = rng.standard_normal((15, 15))
            std = np.repeat(10.0 ** rng.uniform(-3.0, 0.0, 5), 3)
            cov = (a @ a.T) / 15.0 * np.outer(std, std)
            cov_z = velocity_projection(cov, x.nav.rot)[1]
            offset = np.linalg.cholesky(cov_z) @ (1.5 * rng.standard_normal(3))
            spec = CoverageSpec(0.5 * np.sqrt(np.diag(cov_z)), 0.8)
            box = feasible_box(x, predicted_body_velocity(x) + offset, spec)
            cov_z, sigma_ht, cov_z_inv = projected_prior(cov, x.nav.rot)
            assert box_moments(np.zeros(3), cov_z, box).prob < spec.gamma
            z_mean, z_cov = grid_posterior(cov_z, box, spec.gamma)

            x2, cov2 = lift_and_apply(x, cov, sigma_ht, cov_z_inv, z_mean, z_cov)
            delta, cov_ref = conditional_swap_lift(
                cov, sigma_ht, cov_z_inv, cov_z, z_mean, z_cov
            )
            tol = 1e-14 * np.linalg.norm(cov, 2)
            assert np.abs(cov2 - cov_ref).max() <= tol
            x_ref = apply_correction(x, delta)
            assert np.array_equal(se23_matrix(x2.nav), se23_matrix(x_ref.nav))
            assert np.array_equal(x2.bias_accel, x_ref.bias_accel)
            assert np.array_equal(x2.bias_gyro, x_ref.bias_gyro)


class TestCoverageUpdate:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.x = random_state(rng)
        self.cov = cov_from_std(0.02, 0.1, 0.1, 0.01, 0.001)

    def test_wide_bounds_are_bit_identical_noop(self):
        spec = CoverageSpec(np.array([5.0, 5.0, 5.0]), 0.8)
        x2, cov2, diag = coverage_arm(
            self.x, self.cov, predicted_body_velocity(self.x), spec
        )
        assert x2 is self.x
        assert cov2 is self.cov
        assert not diag.active and not diag.skipped
        assert diag.pi_prior >= 0.8

    def test_offset_measurement_activates(self):
        spec = CoverageSpec(np.array([0.05, 0.05, 0.05]), 0.8)
        meas = predicted_body_velocity(self.x) + np.array([0.25, 0.0, 0.0])
        x2, _, diag = coverage_arm(self.x, self.cov, meas, spec)
        assert diag.active
        assert diag.pi_prior < 0.8
        # the moment-matched posterior moves z-space mass toward gamma
        box = feasible_box(self.x, meas, spec)
        cov_z, _, _ = projected_prior(self.cov, self.x.nav.rot)
        pi_post = box_moments(*grid_posterior(cov_z, box, spec.gamma), box).prob
        assert diag.pi_prior < pi_post <= 0.8 + 0.03
        # estimate moves toward the measurement
        before = np.linalg.norm(meas - predicted_body_velocity(self.x))
        after = np.linalg.norm(meas - predicted_body_velocity(x2))
        assert after < before

    def test_extreme_outlier_skipped(self):
        spec = CoverageSpec(np.array([0.05, 0.05, 0.05]), 0.8)
        meas = predicted_body_velocity(self.x) + np.array([500.0, 0.0, 0.0])
        x2, cov2, diag = coverage_arm(self.x, self.cov, meas, spec)
        assert diag.skipped and not diag.active
        assert x2 is self.x and cov2 is self.cov

    def test_determinism(self):
        spec = CoverageSpec(np.array([0.05, 0.05, 0.05]), 0.8)
        meas = predicted_body_velocity(self.x) + np.array([0.2, -0.1, 0.0])
        out1 = coverage_arm(self.x, self.cov, meas, spec)
        out2 = coverage_arm(self.x, self.cov, meas, spec)
        assert np.array_equal(se23_matrix(out1[0].nav), se23_matrix(out2[0].nav))
        assert np.array_equal(out1[1], out2[1])
        assert out1[2].pi_prior == out2[2].pi_prior

    def test_posterior_cov_stays_psd(self):
        rng = np.random.default_rng(9)
        spec = CoverageSpec(np.array([0.05, 0.08, 0.05]), 0.85)
        x, cov = self.x, self.cov
        for k in range(50):
            meas = predicted_body_velocity(x) + rng.normal(0.1, 0.1, 3)
            x, cov, _ = coverage_arm(x, cov, meas, spec)
            assert np.linalg.eigvalsh(cov).min() >= -1e-10



class TestUpdate:
    """The one pipeline's contract, driven by a scripted rule."""

    def setup_method(self):
        rng = np.random.default_rng(27)
        self.x = random_state(rng)
        a = rng.standard_normal((15, 15))
        self.cov = 0.01 * (a @ a.T + 2 * np.eye(15))
        self.meas = predicted_body_velocity(self.x) + np.array([0.1, -0.2, 0.05])

    def run(self, lift):
        """``update`` with a rule that records its arguments and returns
        ``lift``; the update's output and the rule's arguments."""
        seen = []

        def rule(cov_z, residual, arm):
            seen.append((cov_z, residual, arm))
            return lift, "diag"

        return update(self.x, self.cov, self.meas, rule, "arm"), seen

    def test_rule_gets_the_unsymmetrized_projection_and_the_residual(self):
        _, [(cov_z, residual, arm)] = self.run(None)
        assert np.array_equal(cov_z, velocity_projection(self.cov, self.x.nav.rot)[1])
        assert not np.array_equal(cov_z, cov_z.T)  # roundoff left in
        assert np.array_equal(residual, self.meas - predicted_body_velocity(self.x))
        assert arm == "arm"

    def test_no_lift_returns_the_inputs(self):
        (x2, cov2, diag), _ = self.run(None)
        assert x2 is self.x and cov2 is self.cov
        assert diag == "diag"

    def test_lift_is_lift_and_apply_bit_for_bit(self):
        rng = np.random.default_rng(28)
        b = rng.standard_normal((3, 3))
        lift = (b @ b.T + np.eye(3), rng.standard_normal(3), 0.01 * np.eye(3))
        (x2, cov2, diag), _ = self.run(lift)
        sigma_ht, _ = velocity_projection(self.cov, self.x.nav.rot)
        x_ref, cov_ref = lift_and_apply(self.x, self.cov, sigma_ht, *lift)
        assert np.array_equal(cov2, cov_ref)
        assert np.array_equal(se23_matrix(x2.nav), se23_matrix(x_ref.nav))
        assert np.array_equal(x2.bias_accel, x_ref.bias_accel)
        assert np.array_equal(x2.bias_gyro, x_ref.bias_gyro)
        assert diag == "diag"

both_rules = pytest.mark.parametrize(
    "update",
    [
        lambda x, cov, meas: update(x, cov, meas, gaussian_update, 0.01 * np.eye(3)),
        lambda x, cov, meas: coverage_arm(
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


@pytest.mark.parametrize(
    "arm", [0.01 * np.eye(3), CoverageSpec(0.05 * np.ones(3), 0.8)],
    ids=["gaussian", "coverage"],
)
def test_nan_measurement_rejected_by_both_rules(arm):
    """A NaN in the last measurement of a stream is refused where the
    stream enters the step loop, whichever rule the arm picks."""
    imu, meas = resting_stream(2)
    meas[-1] += [np.nan, 0.0, 0.0]
    with pytest.raises(ValueError, match="finite"):
        sim.filter_stream(AugmentedState.identity(), imu, meas, arm)


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
        update(x, cov, meas, gaussian_update, 0.001 * np.eye(3))
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        coverage_arm(x, cov, meas, CoverageSpec(np.full(3, radius), 0.8))


@pytest.mark.parametrize("radius, certifiable", [(0.05, False), (50.0, True)],
                         ids=["narrow", "wide"])
def test_collapsed_prior_refused_before_the_certificate(radius, certifiable):
    """A velocity block of diag(1, 1e-15, 1) projects to a prior of
    cond 1e15.  The update refuses it on a narrow box and on a wide one
    whose Bonferroni bound would certify the update inactive: the screen
    runs ahead of the certificate."""
    x = random_state(np.random.default_rng(4))
    cov = np.eye(15)
    cov[3:6, 3:6] = np.diag([1.0, 1e-15, 1.0])
    meas = predicted_body_velocity(x) + 0.01
    spec = CoverageSpec(np.full(3, radius), 0.8)
    _, cov_z = velocity_projection(cov, x.nav.rot)
    bound = box_mass_lower_bound(np.zeros(3), cov_z, feasible_box(x, meas, spec))
    assert (bound >= spec.gamma + CERTIFY_MARGIN) == certifiable
    with pytest.raises(np.linalg.LinAlgError, match="cond"):
        coverage_arm(x, cov, meas, spec)


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
    offset or partly infinite box of 0.5 to 5 marginal sigmas per side; an
    outlier's box lies 40 sigmas out on its first axis."""
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
    if kind == "outlier":
        shift[0] += 40.0 * sd[0]
    gamma = float(rng.choice([0.5, 0.8, 0.95]))
    return x, cov, predicted_body_velocity(x) + shift, CoverageSpec(eps, gamma)


class TestCertificate:
    @staticmethod
    def count_calls(monkeypatch, name):
        """Record each call of ``coverage.<name>`` and pass it through."""
        calls = []
        real = getattr(coverage, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(coverage, name, counted)
        return calls

    def test_certified_updates_match_the_grid(self, monkeypatch):
        """2000 random problems and 100 outliers.  Wherever the bound clears
        gamma by the margin, the grid's mass is at least gamma and the
        update builds none of the grid path: no ``box_moments`` call, no
        ``BoxRegion`` and no cov_z^-1.  Elsewhere it builds the box and
        runs the grid once, and inverts cov_z only when active.  On every
        update pi read later (also after pickling) is the grid's bit for
        bit, PROB_FLOOR on a skip, and decides the branch taken; reading it
        runs the grid on a certified update only, so every update has made
        one grid call once pi is read."""
        rng = np.random.default_rng(42)
        grid = self.count_calls(monkeypatch, "box_moments")
        boxes = self.count_calls(monkeypatch, "BoxRegion")
        inverses = self.count_calls(monkeypatch, "factor_inverse")
        certified = skipped = 0
        for k in range(2100):
            kind = ("centred", "offset", "infinite")[k % 3] if k < 2000 else "outlier"
            x, cov, meas, spec = certificate_problem(rng, kind)
            box = feasible_box(x, meas, spec)
            cov_z, _, _ = projected_prior(cov, x.nav.rot)
            pi = box_moments(np.zeros(3), cov_z, box).prob
            bound = box_mass_lower_bound(np.zeros(3), cov_z, box)
            assert bound <= pi + 1e-14

            for calls in (grid, boxes, inverses):
                calls.clear()
            x2, cov2, diag = coverage_arm(x, cov, meas, spec)
            if bound < spec.gamma + CERTIFY_MARGIN:
                assert (len(grid), len(boxes)) == (1, 1)
                assert len(inverses) == diag.active
            else:
                certified += 1
                assert pi >= spec.gamma
                assert grid == boxes == inverses == []
                assert x2 is x and cov2 is cov
                assert not diag.active and not diag.skipped
            skipped += diag.skipped
            assert diag.skipped == (pi == PROB_FLOOR) == (kind == "outlier")
            assert diag.active == (not diag.skipped and pi < spec.gamma)
            unread = pickle.loads(pickle.dumps(diag))
            assert diag.pi_prior == pi
            assert len(grid) == 1
            read = pickle.loads(pickle.dumps(diag))
            for d in (unread, read):
                assert d.pi_prior == pi
        assert 600 <= certified <= 1400
        assert skipped == 100

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
        box = feasible_box(x, meas, CoverageSpec(eps, 0.5))
        cov_z, _, _ = projected_prior(cov, x.nav.rot)
        bound = box_mass_lower_bound(np.zeros(3), cov_z, box)
        spec = CoverageSpec(eps, bound - clearance * CERTIFY_MARGIN)
        grid = self.count_calls(monkeypatch, "box_moments")
        _, _, diag = coverage_arm(x, cov, meas, spec)
        assert len(grid) == (0 if certified else 1)
        assert not diag.active and diag.pi_prior >= spec.gamma
