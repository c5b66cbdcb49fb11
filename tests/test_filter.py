import dataclasses
import math
import re

import numpy as np
import pytest
from oracles import (
    check_se23_valid,
    error_dynamics_matrices,
    error_transition_reference,
    process_noise_psd,
    random_state,
    resting_stream,
    se23_inverse,
    se23_matrix,
    transition_from_dynamics,
    velocity_output_matrix,
)
from scipy.linalg import expm

from coverage_inekf import se23, sim
from coverage_inekf.coverage import update
from coverage_inekf.filter import (
    GRAVITY,
    MAX_COND,
    TABLES_PER_NOISE,
    AugmentedState,
    ProcessNoise,
    apply_correction,
    cov_from_std,
    error_transition,
    factor_inverse,
    gaussian_update,
    lift_and_apply,
    predicted_body_velocity,
    propagate_cov,
    propagate_mean,
    realized_error,
    spd_factor,
    velocity_projection,
)
from coverage_inekf.se23 import Se23Element, log_se23, skew
from coverage_inekf.sim import TrajectorySpec, generate_truth, synthesize_imu


def screened_inverse(m, what):
    """The update rules' screen and inverse of the symmetric 3x3 ``m``."""
    return factor_inverse(*spd_factor(m.tolist(), what))


def kalman_update(x, cov, meas, r):
    """The Gaussian arm's update: the pipeline with Kalman's rule."""
    return update(x, cov, meas, gaussian_update, r)[:2]


def filter_resting(imu=None, meas=None, arm=0.01 * np.eye(3)):
    """``sim.filter_stream`` from the identity over a two-step
    :func:`resting_stream`, with the parts given replacing its own."""
    rest_imu, rest_meas = resting_stream(2)
    return sim.filter_stream(
        AugmentedState.identity(),
        rest_imu if imu is None else imu,
        rest_meas if meas is None else meas,
        arm,
    )


def stack_states(states):
    """One AugmentedState whose arrays stack those of ``states``."""
    return AugmentedState(
        Se23Element(
            np.array([x.nav.rot for x in states]),
            np.array([x.nav.vel for x in states]),
            np.array([x.nav.pos for x in states]),
        ),
        np.array([x.bias_accel for x in states]),
        np.array([x.bias_gyro for x in states]),
    )


def rk4_strapdown(rot, vel, pos, gyro, accel, dt, substeps=20, gravity=GRAVITY):
    """RK4 oracle for the continuous kinematics under held body rates."""

    def deriv(r, v):
        return r @ skew(gyro), gravity + r @ accel, v

    h = dt / substeps
    for _ in range(substeps):
        k1r, k1v, k1p = deriv(rot, vel)
        k2r, k2v, k2p = deriv(rot + 0.5 * h * k1r, vel + 0.5 * h * k1v)
        k3r, k3v, k3p = deriv(rot + 0.5 * h * k2r, vel + 0.5 * h * k2v)
        k4r, k4v, k4p = deriv(rot + h * k3r, vel + h * k3v)
        pos = pos + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        vel = vel + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        rot = rot + (h / 6.0) * (k1r + 2 * k2r + 2 * k3r + k4r)
    return rot, vel, pos


class TestPropagateMean:
    def test_hover_equilibrium(self):
        rng = np.random.default_rng(0)
        x = random_state(rng)
        x.nav.vel = np.zeros(3)
        y = propagate_mean(x, -x.nav.rot.T @ GRAVITY + x.bias_accel, x.bias_gyro, 0.01)
        assert np.allclose(y.nav.rot, x.nav.rot, atol=1e-14)
        assert np.allclose(y.nav.vel, 0, atol=1e-14)
        assert np.allclose(y.nav.pos, x.nav.pos, atol=1e-14)

    def test_pure_yaw_closed_form(self):
        omega = 0.7
        x = AugmentedState.identity()
        for k in range(200):
            x = propagate_mean(x, -x.nav.rot.T @ GRAVITY, np.array([0.0, 0.0, omega]), 0.01)
        angle = omega * 200 * 0.01
        expected = np.array(
            [
                [math.cos(angle), -math.sin(angle), 0.0],
                [math.sin(angle), math.cos(angle), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        assert np.allclose(x.nav.rot, expected, atol=1e-10)
        assert np.allclose(x.nav.vel, 0, atol=1e-10)

    def test_random_inputs_match_rk4_oracle(self):
        rng = np.random.default_rng(1)
        x = random_state(rng)
        rot, vel, pos = x.nav.rot.copy(), x.nav.vel.copy(), x.nav.pos.copy()
        dt = 1e-3
        for _ in range(1000):
            gyro = rng.uniform(-1.0, 1.0, 3)
            accel = rng.uniform(-2.0, 2.0, 3)
            x = propagate_mean(x, accel + x.bias_accel, gyro + x.bias_gyro, dt)
            rot, vel, pos = rk4_strapdown(rot, vel, pos, gyro, accel, dt)
        assert np.linalg.norm(x.nav.pos - pos) <= 1e-6
        assert np.linalg.norm(x.nav.vel - vel) <= 1e-6

    def test_biases_unchanged(self):
        rng = np.random.default_rng(2)
        x = random_state(rng)
        y = propagate_mean(x, rng.normal(size=3), rng.normal(size=3), 0.01)
        assert np.array_equal(y.bias_accel, x.bias_accel)
        assert np.array_equal(y.bias_gyro, x.bias_gyro)


class TestRotationDrift:
    """Nothing re-orthonormalizes the estimate's rotation; products of
    rotations leave SO(3) only at roundoff."""

    def test_serpentine_propagation_stays_on_so3(self):
        """6000 steps (60 s at 100 Hz) of the serpentine's exact IMU stay
        within 1e-12 of SO(3); measured: 1.3e-14 at the end, 1.8e-14 at
        most on the way."""
        truth = generate_truth(TrajectorySpec(duration=60.0))
        x = truth.state_at(0)
        for accel, gyro, dt in zip(*synthesize_imu(truth)):
            x = propagate_mean(x, accel, gyro, dt)
        assert len(truth.times) == 6001
        check_se23_valid(x.nav, atol=1e-12)


class TestImuSample:
    """The IMU samples of a stream, checked where ``sim.filter_stream``
    takes them, before the first step."""

    @pytest.mark.parametrize(
        "accel, gyro",
        [(1.0, np.zeros(3)), (np.zeros(3), 0.0), (np.zeros(2), np.zeros(3)),
         (np.zeros(3), np.zeros((1, 3))), (np.zeros((2, 3)), np.zeros((2, 3)))],
        ids=["scalar accel", "scalar gyro", "2-vector", "row matrix", "batch"],
    )
    def test_rejects_anything_but_3_vectors(self, accel, gyro):
        """A stream of two samples of each reading.  A scalar would
        broadcast to all three axes: propagated from the identity over
        0.01 s, accel 1.0 and gyro 0.0 read velocity [0.01, 0.01, -0.0881]."""
        imu = np.array([accel] * 2), np.array([gyro] * 2), np.full(2, 0.01)
        with pytest.raises(ValueError, match="3-vectors"):
            filter_resting(imu)

    @pytest.mark.parametrize(
        "field, bad",
        [("accel", np.inf), ("accel", -np.inf),
         ("gyro", np.nan), ("gyro", np.inf), ("gyro", -np.inf)],
    )
    def test_rejects_non_finite_readings(self, field, bad):
        """A NaN reading in the last sample would surface only one step
        later, as a diverged trial.  A NaN accel is ``test_sim``'s
        ``nan_imu`` case."""
        imu, _ = resting_stream(2)
        imu[("accel", "gyro").index(field)][-1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            filter_resting(imu)


class TestErrorTransition:
    def test_tiny_dt_limits(self):
        rng = np.random.default_rng(3)
        x = random_state(rng)
        q = ProcessNoise(0.1, 0.01, 1e-3, 1e-4)
        phi, q_d = error_transition(x, 1e-8, q)
        assert np.allclose(phi, np.eye(15), atol=1e-6)
        assert np.abs(q_d).max() < 1e-9

    def test_dynamics_matrix_is_nilpotent(self):
        rng = np.random.default_rng(4)
        a_mat, _ = error_dynamics_matrices(random_state(rng))
        a4 = np.linalg.matrix_power(a_mat, 4)
        assert np.array_equal(a4, np.zeros((15, 15)))

    def test_transition_matches_dense_expm(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = random_state(rng)
            a_mat, _ = error_dynamics_matrices(x)
            dt = rng.uniform(0.001, 0.1)
            assert np.allclose(
                transition_from_dynamics(a_mat, dt), expm(a_mat * dt), atol=1e-12
            )

    def test_flow_group_property(self):
        rng = np.random.default_rng(6)
        x = random_state(rng)
        a_mat, _ = error_dynamics_matrices(x)
        fwd = transition_from_dynamics(a_mat, 0.05)
        bwd = transition_from_dynamics(a_mat, -0.05)
        assert np.allclose(fwd @ bwd, np.eye(15), atol=1e-9)

    @pytest.mark.parametrize("dt", [1e-8, 1e-3, 0.01, 0.1])
    def test_closed_form_matches_dense_references(self, dt):
        """Phi within 1e-12 absolute of the dense finite sum and of
        scipy's expm(A dt); Q_d within 1e-14 of the dense Phi N Q N^T Phi^T
        dt, relative to its largest entry, for random densities."""
        rng = np.random.default_rng(25)
        for _ in range(20):
            x = random_state(rng)
            q = ProcessNoise(*rng.uniform(1e-4, 0.1, 4))
            phi, q_d = error_transition(x, dt, q)
            phi_ref, q_d_ref = error_transition_reference(x, dt, process_noise_psd(q))
            a_mat, _ = error_dynamics_matrices(x)
            assert np.abs(phi - phi_ref).max() <= 1e-12
            assert np.abs(phi - expm(a_mat * dt)).max() <= 1e-12
            assert np.abs(q_d - q_d_ref).max() <= 1e-14 * np.abs(q_d_ref).max()
            assert np.array_equal(q_d, q_d.T)

    def test_cached_tables_never_go_stale(self):
        """The tables are kept per (dt, noise).  Over a stream whose dt
        alternates between two values, under two noises taken in turn,
        every call matches the dense reference within the bounds above and
        gives an exactly symmetric Q_d; after 1000 distinct dt values the
        noise holds at most TABLES_PER_NOISE tables."""
        rng = np.random.default_rng(26)
        noises = (ProcessNoise(0.02, 0.002, 1e-4, 1e-5),
                  ProcessNoise(*rng.uniform(1e-4, 0.1, 4)))
        steps = [(dt, noise) for noise in noises for dt in (0.01, 0.02)] * 5
        steps += [(dt, noises[0]) for dt in np.linspace(0.001, 0.1, 1000)]
        for dt, noise in steps:
            x = random_state(rng)
            phi, q_d = error_transition(x, dt, noise)
            phi_ref, q_d_ref = error_transition_reference(
                x, dt, process_noise_psd(noise)
            )
            assert np.abs(phi - phi_ref).max() <= 1e-12
            assert np.abs(q_d - q_d_ref).max() <= 1e-14 * np.abs(q_d_ref).max()
            assert np.array_equal(q_d, q_d.T)
        assert 0 < len(noises[0]._tables) <= TABLES_PER_NOISE
        assert len(noises[1]._tables) == 2

    def test_zero_q_gives_zero_qd(self):
        rng = np.random.default_rng(7)
        x = random_state(rng)
        _, q_d = error_transition(x, 0.01, ProcessNoise(0.0, 0.0, 0.0, 0.0))
        assert np.array_equal(q_d, np.zeros((15, 15)))

    def test_qd_is_psd(self):
        rng = np.random.default_rng(8)
        q = ProcessNoise(0.1, 0.01, 1e-3, 1e-4)
        for _ in range(5):
            _, q_d = error_transition(random_state(rng), 0.01, q)
            assert np.linalg.eigvalsh(q_d).min() >= -1e-15


class TestPropagateCov:
    def test_identity_transition_no_noise(self):
        cov = cov_from_std(0.01, 0.1, 0.1, 0.01, 0.001)
        out = propagate_cov(cov, np.eye(15), np.zeros((15, 15)))
        assert np.allclose(out, cov, atol=0)

    def test_zero_prior_gets_qd(self):
        q0 = np.diag(np.arange(1.0, 16.0))
        out = propagate_cov(np.zeros((15, 15)), np.eye(15), q0)
        assert np.allclose(out, q0, atol=0)

    def test_eigenvalues_stay_nonnegative(self):
        rng = np.random.default_rng(9)
        q = ProcessNoise(0.1, 0.01, 1e-3, 1e-4)
        cov = cov_from_std(0.01, 0.1, 0.1, 0.01, 0.001)
        x = random_state(rng)
        for _ in range(200):
            phi, q_d = error_transition(x, 0.01, q)
            cov = propagate_cov(cov, phi, q_d)
            x = propagate_mean(x, rng.normal(size=3), rng.normal(size=3), 0.01)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10
        assert np.array_equal(cov, cov.T)


class TestApplyCorrection:
    def test_zero_delta_is_identity(self):
        rng = np.random.default_rng(10)
        x = random_state(rng)
        y = apply_correction(x, np.zeros(15))
        assert np.allclose(se23_matrix(y.nav), se23_matrix(x.nav), atol=1e-15)
        assert np.array_equal(y.bias_accel, x.bias_accel)

    def test_pure_bias_delta_leaves_nav(self):
        rng = np.random.default_rng(11)
        x = random_state(rng)
        delta = np.zeros(15)
        delta[9:] = rng.normal(size=6)
        y = apply_correction(x, delta)
        assert np.allclose(se23_matrix(y.nav), se23_matrix(x.nav), atol=1e-15)
        assert np.allclose(y.bias_accel, x.bias_accel - delta[9:12], atol=0)
        assert np.allclose(y.bias_gyro, x.bias_gyro - delta[12:15], atol=0)

    def test_log_of_nav_error_recovers_delta(self):
        rng = np.random.default_rng(12)
        x = random_state(rng)
        delta = np.zeros(15)
        delta[:9] = 1e-3 * rng.standard_normal(9)
        y = apply_correction(x, delta)
        xi = log_se23(se23.compose(y.nav, se23_inverse(x.nav)))
        assert np.allclose(xi, -delta[:9], atol=1e-12)

    def test_realized_error_roundtrip(self):
        rng = np.random.default_rng(13)
        est = random_state(rng)
        delta = 0.01 * rng.standard_normal(15)
        truth = apply_correction(est, delta)
        assert np.allclose(realized_error(est, truth), delta, atol=1e-12)

        # a batch of pairs gives each pair's error
        pairs = []
        for _ in range(50):
            est = random_state(rng)
            pairs.append((est, apply_correction(est, 0.3 * rng.standard_normal(15))))
        batched = realized_error(*(stack_states(p) for p in zip(*pairs)))
        single = np.array([realized_error(e, t) for e, t in pairs])
        assert batched.shape == (50, 15)
        assert np.allclose(batched, single, rtol=0, atol=1e-14)


class TestGaussianUpdate:
    def setup_method(self):
        rng = np.random.default_rng(14)
        self.x = random_state(rng)
        self.cov = cov_from_std(0.02, 0.1, 0.1, 0.01, 0.001)
        self.r = np.diag([0.01, 0.01, 0.01])

    def test_zero_innovation_keeps_state(self):
        meas = predicted_body_velocity(self.x)
        x2, cov2 = kalman_update(self.x, self.cov, meas, self.r)
        assert np.allclose(se23_matrix(x2.nav), se23_matrix(self.x.nav), atol=1e-14)
        assert np.all(np.diag(cov2) <= np.diag(self.cov) + 1e-12)

    def test_uninformative_measurement_keeps_prior(self):
        meas = predicted_body_velocity(self.x) + np.array([0.5, -0.2, 0.1])
        x2, cov2 = kalman_update(self.x, self.cov, meas, 1e12 * np.eye(3))
        assert np.allclose(se23_matrix(x2.nav), se23_matrix(self.x.nav), atol=1e-6)
        assert np.allclose(cov2, self.cov, atol=1e-6)

    def test_scalar_case_matches_textbook_gain(self):
        # identity rotation isolates one velocity axis: 1-D Kalman algebra
        x = AugmentedState.identity()
        var0, rvar = 0.04, 0.01
        cov = np.zeros((15, 15))
        cov[3, 3] = var0
        cov[4, 4] = 1e-6
        cov[5, 5] = 1e-6
        innov = 0.3
        meas = np.array([innov, 0.0, 0.0])
        x2, cov2 = kalman_update(x, cov, meas, rvar * np.eye(3))
        gain = var0 / (var0 + rvar)
        # H velocity block is -I at identity rotation: xi_v = -gain*innov,
        # and the correction subtracts xi_v from the velocity
        assert abs(x2.nav.vel[0] - gain * innov) < 1e-12
        assert abs(cov2[3, 3] - var0 * rvar / (var0 + rvar)) < 1e-12

    def test_strong_measurement_matches_observation(self):
        meas = predicted_body_velocity(self.x) + np.array([0.05, 0.02, -0.04])
        x2, _ = kalman_update(self.x, self.cov, meas, 1e-12 * np.eye(3))
        assert np.allclose(predicted_body_velocity(x2), meas, atol=1e-6)

    def test_matches_dense_h_formula(self):
        """The block-structured update equals the textbook one with the
        dense 3x15 H, on a prior with full cross-covariances."""
        rng = np.random.default_rng(18)
        for _ in range(20):
            x = random_state(rng)
            a = 0.1 * rng.standard_normal((15, 15))
            cov = a @ a.T + 1e-4 * np.eye(15)
            meas = predicted_body_velocity(x) + 0.1 * rng.standard_normal(3)
            b = 0.1 * rng.standard_normal((3, 3))
            r = b @ b.T + 1e-3 * np.eye(3)

            h = velocity_output_matrix(x.nav.rot)
            k = cov @ h.T @ np.linalg.inv(h @ cov @ h.T + r)
            ikh = np.eye(15) - k @ h
            cov_ref = ikh @ cov @ ikh.T + k @ r @ k.T
            x_ref = apply_correction(x, k @ (meas - predicted_body_velocity(x)))

            x2, cov2 = kalman_update(x, cov, meas, r)
            assert np.allclose(cov2, cov_ref, rtol=0, atol=1e-14 * np.abs(cov).max())
            nav, nav_ref = se23_matrix(x2.nav), se23_matrix(x_ref.nav)
            assert np.allclose(nav, nav_ref, rtol=0, atol=1e-12)
            assert np.allclose(x2.bias_accel, x_ref.bias_accel, rtol=0, atol=1e-14)
            assert np.allclose(x2.bias_gyro, x_ref.bias_gyro, rtol=0, atol=1e-14)

    def test_singular_innovation_rejected(self):
        meas = predicted_body_velocity(self.x)
        with pytest.raises(np.linalg.LinAlgError):
            kalman_update(self.x, np.zeros((15, 15)), meas, np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "r", [0.01, 0.01 * np.ones(3), 0.01 * np.eye(2), 0.01 * np.eye(3)[None]],
        ids=["scalar", "3-vector", "2x2", "batch"],
    )
    def test_refuses_r_that_is_not_3x3(self, r):
        """Refused where the stream enters the step loop.  A scalar 0.01
        used to broadcast onto the off-diagonals: the posterior velocity
        block read 0.00875 on its diagonal and -0.00125 off it, where
        0.01 I gives 0.005 and 0."""
        with pytest.raises(ValueError, match="3x3"):
            filter_resting(arm=r)

    @pytest.mark.parametrize(
        "r", [-0.001 * np.eye(3), np.diag([0.01, -1e-6, 0.01]), np.zeros((3, 3)),
              np.diag([0.01, np.nan, 0.01])],
        ids=["negative", "indefinite", "zero", "nan"],
    )
    def test_refuses_r_that_is_not_positive_definite(self, r):
        """-0.001 I passes the innovation screen, since the prior's
        0.01 outweighs it, and gave a posterior velocity variance of
        -0.0011; the stream's entry refuses it."""
        with pytest.raises(np.linalg.LinAlgError):
            filter_resting(arm=r)


def test_steps_leave_their_input_state_unchanged():
    """States share the arrays a step leaves unchanged (propagation keeps
    the biases), so no step writes into its input: propagating, updating
    by Kalman's rule and correcting leave every array of each input
    bit-identical."""
    rng = np.random.default_rng(27)

    def arrays(x):
        return [x.nav.rot, x.nav.vel, x.nav.pos, x.bias_accel, x.bias_gyro]

    def kept(x):
        return x, [a.copy() for a in arrays(x)]

    x = random_state(rng)
    cov = cov_from_std(0.02, 0.05, 0.05, 0.02, 0.002)
    inputs = [kept(x)]
    prior = propagate_mean(x, rng.standard_normal(3), rng.standard_normal(3), 0.01)
    assert prior.bias_accel is x.bias_accel and prior.bias_gyro is x.bias_gyro
    inputs.append(kept(prior))
    post, _ = kalman_update(prior, cov, rng.standard_normal(3), 0.01 * np.eye(3))
    inputs.append(kept(post))
    apply_correction(post, 0.01 * rng.standard_normal(15))
    for state, copies in inputs:
        assert all(np.array_equal(a, c) for a, c in zip(arrays(state), copies))


def test_lift_stays_psd_near_noise_free_measurements():
    """The Joseph-form lift keeps the posterior PSD when the z-space noise
    vanishes against the prior.

    500 seeded priors with per-coordinate deviations from 1e-4 to 10 and
    random correlations; R = 10^U(-14, -8) I for the Gaussian update, and
    the lift with W = (H Sigma H^T)^-1 and N = 0 (a coverage posterior
    collapsed onto its mean) as the second input.  The smallest eigenvalue
    must be >= -1e-14 ||Sigma||_2; measured worst: +6.8e-17 for the
    Gaussian update (none negative) and -1.1e-16 for N = 0, whose exact
    posterior is singular.  The lift rewritten in the shorter form
    Sigma + Sigma H^T B H Sigma fails this test: on these priors that form
    falls below the bound on 79 Gaussian updates (down to -4.8e-8) and on
    156 of the N = 0 lifts (down to -2.2e-7).
    """
    rng = np.random.default_rng(19)
    for _ in range(500):
        x = random_state(rng)
        a = rng.standard_normal((15, 15))
        std = 10.0 ** rng.uniform(-4.0, 1.0, 15)
        cov = (a @ a.T) / 15.0 * np.outer(std, std)
        r = 10.0 ** rng.uniform(-14.0, -8.0) * np.eye(3)
        meas = predicted_body_velocity(x) + 0.1 * rng.standard_normal(3)
        tol = -1e-14 * np.linalg.norm(cov, 2)

        _, cov_gauss = kalman_update(x, cov, meas, r)
        assert np.linalg.eigvalsh(cov_gauss).min() >= tol

        sigma_ht, cov_z = velocity_projection(cov, x.nav.rot)
        w = screened_inverse(0.5 * (cov_z + cov_z.T), "projected prior")
        _, cov_n0 = lift_and_apply(x, cov, sigma_ht, w, np.zeros(3), np.zeros((3, 3)))
        assert np.linalg.eigvalsh(cov_n0).min() >= tol


class TestCheckConditioning:
    """spd_factor and factor_inverse: the check-and-inverse both update
    rules share."""

    def test_screen_trips_but_exact_check_passes(self):
        # trace^3 / det = 4e12 trips the screen; the exact cond is 5e11
        inv = screened_inverse(np.diag([1.0, 1.0, 2e-12]), "test matrix")
        assert np.array_equal(inv, np.diag([1.0, 1.0, 5e11]))

    @pytest.mark.parametrize(
        "m",
        [
            np.diag([5.0, -1.0, -1.0]),
            11.0 / 3.0 * np.ones((3, 3)) - np.eye(3),
            np.diag([-1.0, -1.0, 5.0]),
        ],
        ids=["diagonal", "dense", "negative-leading"],
    )
    def test_indefinite_rejected(self, m):
        """Two negative eigenvalues give a positive determinant and a small
        condition number; a leading minor is what gives them away."""
        assert np.linalg.det(m) > 0.0 and np.linalg.cond(m) < 20.0
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            screened_inverse(m, "test matrix")

    @pytest.mark.parametrize(
        "m",
        [
            np.diag([1.0, -1.0, 1.0]),
            np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ],
        ids=["diagonal", "dense"],
    )
    def test_negative_second_minor_rejected(self, m):
        """m00 > 0 and a positive last pivot, but m00 m11 - m01 m10 < 0:
        only the 2x2 leading minor gives these away."""
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            screened_inverse(m, "test matrix")

    @pytest.mark.parametrize(
        "entry, value, message",
        [
            ((0, 0), math.nan, "not positive definite"),
            ((2, 2), math.nan, "not positive definite"),
            ((1, 2), math.nan, "not positive definite"),
            ((0, 0), math.inf, "numerically singular"),
            ((2, 2), math.inf, "numerically singular"),
            ((0, 2), math.inf, "not positive definite"),
            ((1, 1), -math.inf, "not positive definite"),
        ],
    )
    def test_non_finite_rejected(self, entry, value, message):
        m = np.eye(3)
        m[entry] = value
        with pytest.raises(np.linalg.LinAlgError, match=message):
            screened_inverse(m, "test matrix")

    @pytest.mark.parametrize("cond", [2e12, 1e13, 1e14])
    def test_ill_conditioned_rejected(self, cond):
        rng = np.random.default_rng(26)
        u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        m = (u * [1.0, 1.0 / math.sqrt(cond), 1.0 / cond]) @ u.T
        with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
            screened_inverse(0.5 * (m + m.T), "test matrix")

    def test_matches_numpy_inverse(self):
        """Random SPD matrices with cond from 1 to 1e11: the closed-form
        inverse is within 4 cond eps of numpy's, relative to its largest
        entry (measured worst: 0.98 cond eps over 2000 such matrices)."""
        rng = np.random.default_rng(27)
        eps = np.finfo(float).eps
        for log_cond in np.linspace(0.0, 11.0, 200):
            u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            spread = np.array([0.0, rng.uniform(0, log_cond), log_cond])
            vals = 10.0 ** (rng.uniform(-3, 3) - spread)
            m = (u * vals) @ u.T
            m = 0.5 * (m + m.T)
            cond = np.linalg.cond(m)
            ref = np.linalg.inv(m)
            inv = screened_inverse(m, "test matrix")
            assert np.abs(inv - ref).max() <= 4.0 * cond * eps * np.abs(ref).max()
        assert cond <= MAX_COND


class TestTypes:
    def test_imu_sample_rejects_bad_dt(self):
        """A last sample of 0 s is refused by the stream's entry; one of
        0.2 s is ``test_sim``'s ``long_dt`` case."""
        imu, _ = resting_stream(2)
        imu[2][-1] = 0.0
        with pytest.raises(ValueError, match="dt must lie"):
            filter_resting(imu)

    def test_process_noise_is_four_densities(self):
        """The noise is its four densities: they are its fields, its
        equality and its repr, and Q is the 12x12 diagonal of their
        squares, three axes each."""
        noise = ProcessNoise(0.1, 0.01, 1e-3, 1e-4)
        assert [f.name for f in dataclasses.fields(noise) if f.init] == [
            "accel", "gyro", "accel_bias", "gyro_bias"
        ]
        want = np.diag(np.repeat([0.1, 0.01, 1e-3, 1e-4], 3) ** 2)
        assert np.array_equal(process_noise_psd(noise), want)
        assert noise == ProcessNoise(0.1, 0.01, 1e-3, 1e-4)
        assert repr(noise) == (
            "ProcessNoise(accel=0.1, gyro=0.01, accel_bias=0.001, gyro_bias=0.0001)"
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            noise.accel = 0.2

    @pytest.mark.parametrize(
        "bad", [-1e-3, [0.1, 0.1, 0.1], True], ids=["negative", "per-axis", "bool"]
    )
    def test_process_noise_refuses_bad_density(self, bad):
        """A negative density used to be squared without a word; each
        density is one scalar for its three axes; True used to pass as
        1.0."""
        for block in range(4):
            densities = [0.1, 0.01, 1e-3, 1e-4]
            densities[block] = bad
            with pytest.raises(ValueError, match="deviations"):
                ProcessNoise(*densities)

    @pytest.mark.parametrize(
        "densities",
        [(np.inf, 1.0, 1.0, 1.0), (np.nan,) * 4],
        ids=["inf-entry", "all-nan"],
    )
    def test_process_noise_rejects_non_finite(self, densities):
        with pytest.raises(ValueError, match="finite"):
            ProcessNoise(*densities)

    @pytest.mark.parametrize(
        "bad", [-0.01, np.nan, -np.inf, np.ones(3), True],
        ids=["negative", "nan", "inf", "per-axis", "bool"],
    )
    def test_cov_from_std_refuses_bad_deviation(self, bad):
        """True used to pass as a deviation of 1."""
        stds = [0.01, 0.1, 0.1, 0.01, 0.001]
        for block in range(5):
            with pytest.raises(ValueError, match="deviations"):
                cov_from_std(*stds[:block], bad, *stds[block + 1:])

    @pytest.mark.parametrize(
        "meas", [[0.5], 0.5, np.zeros(4), np.zeros((1, 3))],
        ids=["1-vector", "scalar", "4-vector", "row matrix"],
    )
    def test_velocity_residual_refuses_anything_but_a_3_vector(self, meas):
        """A stream of three such measurements is refused by its entry.
        [0.5] used to broadcast to [0.5, 0.5, 0.5]; a scalar failed with
        TypeError."""
        with pytest.raises(ValueError, match=re.escape("need meas of shape (3, 3)")):
            filter_resting(meas=np.array([meas] * 3))

    def test_velocity_projection_matches_dense_h(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            x = random_state(rng)
            a = rng.standard_normal((15, 15))
            cov = a @ a.T
            h = velocity_output_matrix(x.nav.rot)
            sigma_ht, hsht = velocity_projection(cov, x.nav.rot)
            scale = np.abs(cov).max()
            assert np.allclose(sigma_ht, cov @ h.T, rtol=0, atol=1e-14 * scale)
            assert np.allclose(hsht, h @ cov @ h.T, rtol=0, atol=1e-14 * scale)

    def test_predicted_body_velocity_matches_dense_oracle(self):
        # the invariant output X^-1 d with d = (0, 0, 0, -1, 0)
        rng = np.random.default_rng(17)
        d = np.array([0.0, 0.0, 0.0, -1.0, 0.0])
        for _ in range(50):
            x = random_state(rng)
            dense = np.linalg.inv(se23_matrix(x.nav)) @ d
            assert np.allclose(predicted_body_velocity(x), dense[:3], atol=1e-12)


class TestLongRunStability:
    def test_many_cycles_keep_cov_psd(self):
        rng = np.random.default_rng(16)
        q = ProcessNoise(0.1, 0.01, 1e-3, 1e-4)
        x = random_state(rng)
        cov = cov_from_std(0.02, 0.1, 0.1, 0.01, 0.001)
        r = 0.01 * np.eye(3)
        for k in range(2000):
            phi, q_d = error_transition(x, 0.01, q)
            cov = propagate_cov(cov, phi, q_d)
            x = propagate_mean(x, rng.normal(0, 1, 3), rng.normal(0, 0.5, 3), 0.01)
            if k % 5 == 0:
                meas = predicted_body_velocity(x) + rng.normal(0, 0.1, 3)
                x, cov = kalman_update(x, cov, meas, r)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10
        assert np.abs(cov - cov.T).max() <= 1e-12
        check_se23_valid(x.nav, atol=1e-9)
