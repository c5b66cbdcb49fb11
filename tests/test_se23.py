import math

import numpy as np
import pytest

from oracles import check_se23_valid, se23_matrix
from oracles import se23_hat as hat
from oracles import se23_inverse as inverse

from coverage_inekf import se23
from coverage_inekf.se23 import Se23Element, compose, exp_se23, log_se23


def series_exp(m: np.ndarray, terms: int = 20) -> np.ndarray:
    """Truncated matrix-power series oracle for the exponential."""
    out = np.eye(m.shape[0])
    acc = np.eye(m.shape[0])
    for k in range(1, terms):
        acc = acc @ m / k
        out = out + acc
    return out


def random_tangent(rng, scale=1.0):
    v = rng.standard_normal(9)
    return scale * v / np.linalg.norm(v)


def random_element(rng, angle_scale=1.0):
    v = rng.standard_normal(9)
    v[0:3] *= angle_scale / max(np.linalg.norm(v[0:3]), 1e-12)
    return exp_se23(v)


class TestHatVee:
    def test_zero_vector(self):
        assert np.array_equal(hat(np.zeros(9)), np.zeros((5, 5)))

    def test_unit_z_rotation_block(self):
        m = hat(np.array([0.0, 0.0, 1.0, 0, 0, 0, 0, 0, 0]))
        expected = np.zeros((5, 5))
        expected[:3, :3] = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
        assert np.array_equal(m, expected)


class TestExpLog:
    def test_exp_zero_is_identity(self):
        x = exp_se23(np.zeros(9))
        assert np.allclose(se23_matrix(x), np.eye(5), atol=0)

    def test_quarter_turn_about_z(self):
        v = np.zeros(9)
        v[2] = math.pi / 2
        x = exp_se23(v)
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
        assert np.allclose(x.rot, expected, atol=1e-12)
        assert np.allclose(x.vel, 0) and np.allclose(x.pos, 0)

    def test_exp_matches_series_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = random_tangent(rng, scale=rng.uniform(0.01, 1.0))
            assert np.allclose(
                se23_matrix(exp_se23(v)), series_exp(hat(v)), atol=1e-10
            )

    def test_first_order_approximation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = random_tangent(rng, scale=1e-5)
            err = np.abs(se23_matrix(exp_se23(v)) - (np.eye(5) + hat(v))).max()
            assert err <= 1e-9

    def test_log_identity(self):
        assert np.allclose(log_se23(Se23Element.identity()), 0, atol=0)

    def test_log_exp_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = random_tangent(rng, scale=rng.uniform(1e-8, 1.0))
            assert np.linalg.norm(log_se23(exp_se23(v)) - v) <= 1e-9

    def test_exp_log_roundtrip_on_group(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = random_element(rng, angle_scale=rng.uniform(0.1, 3.0))
            y = exp_se23(log_se23(x))
            assert np.allclose(se23_matrix(y), se23_matrix(x), atol=1e-9)

    def test_log_rejects_pi_rotation(self):
        v = np.zeros(9)
        v[0] = math.pi
        x = exp_se23(v)
        with pytest.raises(ValueError):
            log_se23(x)


class TestSo3Gammas:
    # both sides of SMALL_ANGLE_EPS and of SERIES_ANGLE
    ANGLES = (0.0, 1e-9, 9e-5, 1.1e-4, 0.2499, 0.2501, 0.3, 2.5)

    @staticmethod
    def power_series(w, k, terms=60):
        """Gamma_k(w) = sum_n (w^)^n / (n + k)!, truncated."""
        wx = se23.skew(w)
        out, term = np.zeros((3, 3)), np.eye(3)
        for n in range(terms):
            out = out + term / math.factorial(n + k)
            term = term @ wx
        return out

    @pytest.mark.parametrize("angle", ANGLES)
    def test_matches_power_series(self, angle):
        """Measured within 9e-16.  The textbook closed forms of b, c and d
        miss by 4e-13 (Gamma_1) and 5e-10 (Gamma_2) at 1.1e-4 rad."""
        rng = np.random.default_rng(24)
        for _ in range(10):
            axis = rng.standard_normal(3)
            w = angle * axis / np.linalg.norm(axis)
            for k, gamma in enumerate(se23.so3_gammas(w)):
                assert np.abs(gamma - self.power_series(w, k)).max() <= 1e-14


class TestBatchedSo3:
    """so3_log, so3_left_jacobian_inv and log_se23 take leading batch axes;
    each entry of a batch is that entry's own result."""

    def rotation_vectors(self, rng, n=60):
        w = rng.standard_normal((n, 3))
        # angles on both sides of SMALL_ANGLE_EPS, and up to near pi
        angles = np.concatenate(
            [[0.0, 1e-9, 9e-5, 1.1e-4], rng.uniform(1e-3, 3.1, n - 4)]
        )
        return w / np.linalg.norm(w, axis=1, keepdims=True) * angles[:, None]

    def test_log_batch_matches_each_entry(self):
        w = self.rotation_vectors(np.random.default_rng(20))
        rots = np.array([se23.so3_gammas(v)[0] for v in w])
        batched = se23.so3_log(rots)
        assert batched.shape == w.shape
        for i, r in enumerate(rots):
            assert np.array_equal(batched[i], se23.so3_log(r))
        assert np.abs(batched - w).max() <= 1e-9
        assert se23.so3_log(rots.reshape(6, 10, 3, 3)).shape == (6, 10, 3)

    def test_left_jacobian_inv_inverts_left_jacobian(self):
        w = self.rotation_vectors(np.random.default_rng(21))
        jinv = se23.so3_left_jacobian_inv(w)
        assert jinv.shape == (len(w), 3, 3)
        for v, m in zip(w, jinv):
            assert np.abs(m @ se23.so3_gammas(v)[1] - np.eye(3)).max() <= 1e-12
            assert np.array_equal(m, se23.so3_left_jacobian_inv(v))

    def test_log_se23_batch_matches_each_entry(self):
        rng = np.random.default_rng(22)
        xs = [random_element(rng, angle_scale=rng.uniform(0.1, 3.0)) for _ in range(20)]
        batch = Se23Element(
            np.array([x.rot for x in xs]),
            np.array([x.vel for x in xs]),
            np.array([x.pos for x in xs]),
        )
        single = np.array([log_se23(x) for x in xs])
        assert np.allclose(log_se23(batch), single, rtol=0, atol=1e-14)

    def test_skew_batch_matches_each_entry(self):
        v = np.random.default_rng(23).standard_normal((4, 5, 3))
        m = se23.skew(v)
        assert m.shape == (4, 5, 3, 3)
        assert np.array_equal(m, -np.swapaxes(m, -1, -2))
        cross = (m @ v[::-1, ..., None])[..., 0]
        assert np.allclose(cross, np.cross(v, v[::-1]), rtol=0, atol=1e-14)
        assert np.array_equal(se23.unskew(m), v)

    def test_log_rejects_pi_anywhere_in_batch(self):
        w = np.zeros((3, 3))
        w[1, 2] = math.pi
        rots = np.array([se23.so3_gammas(v)[0] for v in w])
        with pytest.raises(ValueError):
            se23.so3_log(rots)


class TestGroupOps:
    def test_inverse_of_identity(self):
        x = inverse(Se23Element.identity())
        assert np.allclose(se23_matrix(x), np.eye(5), atol=0)

    def test_inverse_of_pure_translation(self):
        p = np.array([1.0, -2.0, 3.0])
        x = Se23Element(np.eye(3), np.zeros(3), p)
        assert np.allclose(inverse(x).pos, -p, atol=0)

    def test_inverse_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = random_element(rng)
            assert np.allclose(
                se23_matrix(inverse(x)), np.linalg.inv(se23_matrix(x)), atol=1e-10
            )

    def test_compose_times_inverse_is_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = random_element(rng)
            assert np.allclose(
                se23_matrix(compose(x, inverse(x))), np.eye(5), atol=1e-12
            )

    def test_compose_matches_dense_product(self):
        rng = np.random.default_rng(7)
        a, b = random_element(rng), random_element(rng)
        assert np.allclose(
            se23_matrix(compose(a, b)), se23_matrix(a) @ se23_matrix(b), atol=1e-12
        )

    def test_long_chain_stays_orthonormal(self):
        """compose does not re-orthonormalize: 1000 compositions of one
        0.3 rad step drift 7.0e-14 off SO(3), growing linearly (7.4e-13
        after 1e4, 7.3e-12 after 1e5)."""
        rng = np.random.default_rng(8)
        x = Se23Element.identity()
        step = random_element(rng, angle_scale=0.3)
        for _ in range(1000):
            x = compose(x, step)
        check_se23_valid(x, atol=1e-12)

