"""Independent reference computations shared by the test suite, and the
adapters that call the package on their inputs."""

import math
import warnings

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal, norm, qmc, truncnorm

from coverage_inekf.filter import ERROR_DIM, GRAVITY, NOISE_DIM, AugmentedState
from coverage_inekf.se23 import Se23Element, so3_gammas
from coverage_inekf.tmvn import (
    INFINITE_BOUND_SIGMA,
    NODES,
    PROB_FLOOR,
    Z_CLAMP,
    BoxRegion,
    TruncatedMoments,
    bonferroni_bound,
)


def full_space(dim=3):
    """The box open on every side of ``dim`` axes; ``BoxRegion`` refuses
    every ``dim`` but 3."""
    return BoxRegion(np.full(dim, -np.inf), np.full(dim, np.inf))


def empirical_coverage(errors, spec):
    """Fraction of the (n, 3) errors inside the radii, jointly and per axis."""
    inside = np.abs(errors) <= spec.epsilon
    return float(inside.all(axis=1).mean()), inside.mean(axis=0)


def truncated_normal_1d(m, s, lo, hi):
    """Mass, mean and variance of N(m, s^2) restricted to [lo, hi]."""
    a, b = (lo - m) / s, (hi - m) / s
    mean, var = truncnorm.stats(a, b, loc=m, scale=s, moments="mv")
    return norm.cdf(b) - norm.cdf(a), float(mean), float(var)


def tensor_gauss_legendre_box_moments(mean, cov, lower, upper, order):
    """Mass, mean and second moment of N(mean, cov) over a finite box.

    Integrates the density, x and x x^T directly in x-space with an
    order^d tensor-product Gauss-Legendre rule: no factorization of the
    covariance and no conditioning, so it shares no steps with the
    library's estimator.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (np.asarray(upper) - np.asarray(lower))
    mid = 0.5 * (np.asarray(upper) + np.asarray(lower))
    axes = [mid[j] + half[j] * nodes for j in range(mid.size)]
    x = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, mid.size)
    w = np.ones(1)
    for j in range(mid.size):
        w = np.multiply.outer(w, half[j] * weights).ravel()
    f = w * multivariate_normal(mean, cov).pdf(x)
    mass = f.sum()
    return mass, f @ x / mass, x.T @ (x * f[:, None]) / mass


def oracle_box_moments(mean, cov, box, n_samples, seed=0, chunk=1_000_000):
    """Rejection-sampling estimate of box mass and truncated moments.

    Normal draws are the points of SciPy's unscrambled Sobol engine
    (``qmc.Sobol(d, scramble=False)``), taken in order in chunks from one
    engine, under a seeded uniform shift modulo one and pushed through the
    inverse normal CDF; a draw counts if it lands in the box.  It shares
    no quadrature with ``box_moments``.  SciPy warns when a first draw is
    not a power of two, because such a prefix of the sequence is less
    evenly balanced; the tests' sample counts are round numbers and their
    tolerances allow for that, so the warning is silenced here, where it
    would otherwise fail a run under ``-W error``.
    Raises ValueError when no draw lands in the box.
    """
    mean = np.asarray(mean, dtype=float)
    chol = np.linalg.cholesky(np.asarray(cov, dtype=float))
    dim = mean.size
    shift = np.random.default_rng(seed).random(dim)
    engine = qmc.Sobol(d=dim, scramble=False)
    n_in = 0
    sum_x = np.zeros(dim)
    sum_xx = np.zeros((dim, dim))
    for start in range(0, n_samples, chunk):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "The balance properties", UserWarning)
            u = engine.random(min(chunk, n_samples - start)) + shift
        u -= np.floor(u)
        x = ndtri(np.clip(u, 1e-16, 1.0 - 1e-16)) @ chol.T + mean
        xin = x[np.all((x >= box.lower) & (x <= box.upper), axis=1)]
        n_in += xin.shape[0]
        sum_x += xin.sum(axis=0)
        sum_xx += xin.T @ xin
    if n_in == 0:
        raise ValueError(f"no draw out of {n_samples} landed in the box")
    m2 = sum_xx / n_in
    return TruncatedMoments(
        prob=n_in / n_samples, mean=sum_x / n_in, second_moment=0.5 * (m2 + m2.T)
    )


def _hat(v):
    """so(3) hat of one 3-vector, written out entry by entry."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def se23_hat(v):
    """The 5x5 Lie-algebra matrix of a tangent vector ordered (rotation,
    velocity, position)."""
    v = np.asarray(v, dtype=float)
    m = np.zeros((5, 5))
    m[:3, :3] = _hat(v[0:3])
    m[:3, 3] = v[3:6]
    m[:3, 4] = v[6:9]
    return m


def random_state(rng, max_angle=2.5, pos_scale=5.0):
    """An AugmentedState drawn from ``rng``: a turn of U(0.1, max_angle)
    rad about a random axis, a standard normal velocity, a position of
    ``pos_scale`` times a standard normal, and small biases."""
    w = rng.standard_normal(3)
    w *= rng.uniform(0.1, max_angle) / np.linalg.norm(w)
    return AugmentedState(
        Se23Element(
            so3_gammas(w)[0], rng.standard_normal(3), pos_scale * rng.standard_normal(3)
        ),
        bias_accel=0.05 * rng.standard_normal(3),
        bias_gyro=0.005 * rng.standard_normal(3),
    )


def se23_inverse(x):
    """Group inverse (R^T, -R^T v, -R^T p) of an extended pose."""
    rt = x.rot.T
    return Se23Element(rt.copy(), -(rt @ x.vel), -(rt @ x.pos))


def se23_matrix(x):
    """The 5x5 homogeneous matrix [[R, v, p], [0, 1, 0], [0, 0, 1]] of an
    extended pose."""
    m = np.eye(5)
    m[:3, :3] = x.rot
    m[:3, 3] = x.vel
    m[:3, 4] = x.pos
    return m


def check_se23_valid(x, atol=1e-9):
    """Raise ValueError unless the rotation is orthonormal with det +1."""
    err = np.abs(x.rot @ x.rot.T - np.eye(3)).max()
    if err > atol:
        raise ValueError(f"rotation not orthonormal: max |R R^T - I| = {err:.3e}")
    if abs(np.linalg.det(x.rot) - 1.0) > atol:
        raise ValueError("rotation determinant is not +1")


def error_dynamics_matrices(x):
    """Continuous right-invariant error dynamics (A, N).

    d/dt delta = A delta + N w, with w the 12-dim process noise in the order
    (accel, gyro, accel bias walk, gyro bias walk), evaluated at the state
    ``x``.  N's top 9x9 action is the group adjoint carrying body-frame IMU
    noise into the invariant error coordinates.  The reference for the
    closed-form transition of ``filter.error_transition``.
    """
    rot, vel, pos = x.nav.rot, x.nav.vel, x.nav.pos
    vx_r = _hat(vel) @ rot
    px_r = _hat(pos) @ rot

    a_mat = np.zeros((ERROR_DIM, ERROR_DIM))
    a_mat[0:3, 12:15] = -rot
    a_mat[3:6, 0:3] = _hat(GRAVITY)
    a_mat[3:6, 9:12] = -rot
    a_mat[3:6, 12:15] = -vx_r
    a_mat[6:9, 3:6] = np.eye(3)
    a_mat[6:9, 12:15] = -px_r

    n_mat = np.zeros((ERROR_DIM, NOISE_DIM))
    n_mat[0:3, 3:6] = rot
    n_mat[3:6, 0:3] = rot
    n_mat[3:6, 3:6] = vx_r
    n_mat[6:9, 3:6] = px_r
    n_mat[9:12, 6:9] = -np.eye(3)
    n_mat[12:15, 9:12] = -np.eye(3)
    return a_mat, n_mat


def transition_from_dynamics(a_mat, dt):
    """exp(A dt) for the error dynamics matrix.

    A is nilpotent of index 4 (gravity feeds velocity feeds position, biases
    feed nothing), so the exponential equals the finite sum
    I + A dt + A^2 dt^2/2 + A^3 dt^3/6 exactly.
    """
    a_dt = a_mat * dt
    a2 = a_dt @ a_dt
    phi = a_dt + 0.5 * a2 + (a2 @ a_dt) / 6.0
    phi.flat[:: ERROR_DIM + 1] += 1.0
    return phi


def process_noise_psd(noise):
    """The 12x12 diagonal power spectral density Q of a ``ProcessNoise``:
    its four squared densities, three axes each, in the order of the
    process noise vector."""
    densities = (noise.accel, noise.gyro, noise.accel_bias, noise.gyro_bias)
    return np.diag(np.repeat(np.array(densities, dtype=float), 3) ** 2)


def error_transition_reference(x, dt, q):
    """(Phi, Q_d) from the dense dynamics: Phi by the finite sum above and
    Q_d = Phi N Q N^T Phi^T dt, symmetrized."""
    a_mat, n_mat = error_dynamics_matrices(x)
    phi = transition_from_dynamics(a_mat, dt)
    phi_n = phi @ n_mat
    q_d = (phi_n @ q @ phi_n.T) * dt
    return phi, 0.5 * (q_d + q_d.T)


def velocity_output_matrix(rot):
    """Dense observation matrix H = [0, -R^T, 0, 0, 0] of the body-velocity
    invariant output, which the filter applies by its velocity block."""
    h = np.zeros((3, ERROR_DIM))
    h[:, 3:6] = -rot.T
    return h


def resting_stream(steps):
    """``(imu, meas)`` for ``sim.filter_stream`` from the identity state of
    a level body at rest: ``steps`` IMU samples of 0.01 s, each reading the
    reaction to gravity and no turn, and ``steps + 1`` zero body
    velocities.  Every call returns new arrays."""
    imu = np.tile(-GRAVITY, (steps, 1)), np.zeros((steps, 3)), np.full(steps, 0.01)
    return imu, np.zeros((steps + 1, 3))


def spy(monkeypatch, module, name):
    """Wrap ``module.<name>`` for the test; returns the list of
    (args, result) of its calls."""
    calls = []
    real = getattr(module, name)

    def wrapped(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, wrapped)
    return calls


def conditional_swap_lift(cov, sigma_ht, cov_z_inv, cov_z, z_mean, z_cov):
    """The coverage update's lift in its conditional form: keep the prior
    p(dx | z) and swap in the z-space posterior N(z_mean, z_cov).

    With G = Sigma H^T cov_z^-1 the correction is G z_mean and the
    covariance Sigma + G (z_cov - cov_z) G^T, symmetrized.  Returns
    (correction, covariance).
    """
    gain = sigma_ht @ cov_z_inv
    lifted = cov + gain @ (z_cov - cov_z) @ gain.T
    return gain @ z_mean, 0.5 * (lifted + lifted.T)


def gaussian_radius(sigma, gamma):
    """Closed-form per-axis radius of zero-mean N(0, sigma^2) noise whose
    three independent axes jointly cover gamma: sigma times the
    (1 + gamma^(1/3)) / 2 standard-normal quantile."""
    return sigma * ndtri(0.5 * (1.0 + gamma ** (1.0 / 3.0)))


def mixture_radii(model, gamma):
    """Per-axis radii r_j of a Gaussian mixture's law with
    P(|e_j| <= r_j) = gamma^(1/3): ``brentq`` roots of the marginal |e|
    CDF sum_k w_k [Phi((r - m_kj) / s_kj) - Phi((-r - m_kj) / s_kj)].
    The radii that calibrated ones approach as the calibration set grows."""
    per_axis = gamma ** (1.0 / 3.0)
    sd = np.sqrt(np.diagonal(model.covs, axis1=1, axis2=2))
    top = np.abs(model.means).max() + 12.0 * sd.max()

    def excess(r, j):
        m, s = model.means[:, j], sd[:, j]
        return model.weights @ (ndtr((r - m) / s) - ndtr((-r - m) / s)) - per_axis

    return np.array(
        [brentq(excess, 0.0, top, args=(j,), xtol=1e-15) for j in range(3)]
    )


def mixture_covariance(model):
    """Covariance of a Gaussian mixture's law: the weighted mean of the
    component covariances plus the weighted spread of the component means.
    The Gaussian arm's R, a sample covariance, approaches it as the
    calibration set grows."""
    centered = model.means - model.weights @ model.means
    spread = (centered.T * model.weights) @ centered
    return np.einsum("k,kij->ij", model.weights, model.covs) + spread


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(NODES)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _clamped_bounds(mean, sigma, box):
    if np.isfinite(box.lower).all() and np.isfinite(box.upper).all():
        return box.lower, box.upper
    lo = np.where(
        np.isfinite(box.lower), box.lower, mean - INFINITE_BOUND_SIGMA * sigma
    )
    hi = np.where(
        np.isfinite(box.upper), box.upper, mean + INFINITE_BOUND_SIGMA * sigma
    )
    return lo, hi


def _slab(chol, lo, hi, i, outer):
    """Standardized bounds of coordinate i given the outer coordinates."""
    shift = sum(chol[i, j] * z for j, z in enumerate(outer))
    return (lo[i] - shift) / chol[i, i], (hi[i] - shift) / chol[i, i]


def nested_grid_box_moments(mean, cov, box):
    """The ``tmvn.box_moments`` rule, evaluated the way it first was: a
    LAPACK Cholesky of the permuted covariance, one ``ndtr`` per face and
    separate reductions per moment.  The reference that pins the lean
    kernel to the same rule at roundoff."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if box.lower.size != mean.size:
        raise ValueError("box dimension does not match the prior")
    variances = np.diag(cov)
    if not np.all(variances > 0.0):
        raise np.linalg.LinAlgError(
            f"covariance diagonal {variances} is not positive; "
            "cov has no Cholesky factor"
        )
    sigma = np.sqrt(variances)
    lo, hi = _clamped_bounds(mean, sigma, box)
    lo, hi = lo - mean, hi - mean
    # narrowest marginal slab first, so that the closed-form last
    # coordinate is the widest and the grid resolves the narrow ones
    order = np.argsort(ndtr(hi / sigma) - ndtr(lo / sigma), kind="stable")
    lo, hi = lo[order], hi[order]
    chol = np.linalg.cholesky(cov[np.ix_(order, order)])
    last = mean.size - 1

    # outer coordinates: one grid axis each; w is the product weight and
    # every entry of `outer` broadcasts against it
    w = np.ones(())
    outer = []
    for i in range(last):
        a, b = _slab(chol, lo, hi, i, outer)
        mass = ndtr(b) - ndtr(a)
        a = np.minimum(np.maximum(a, -Z_CLAMP), Z_CLAMP)[..., None]
        b = np.minimum(np.maximum(b, -Z_CLAMP), Z_CLAMP)[..., None]
        z = 0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES
        wi = _GL_WEIGHTS * np.exp(-0.5 * z * z)
        wi *= mass[..., None] / wi.sum(axis=-1, keepdims=True)
        w = w[..., None] * wi
        outer = [zj[..., None] for zj in outer] + [z]

    # last coordinate in closed form
    alpha, beta = _slab(chol, lo, hi, last, outer)
    pdf_a = _INV_SQRT_2PI * np.exp(-0.5 * alpha * alpha)
    pdf_b = _INV_SQRT_2PI * np.exp(-0.5 * beta * beta)
    m0 = w * (ndtr(beta) - ndtr(alpha))
    m1 = w * (pdf_a - pdf_b)
    m2 = m0 + w * (alpha * pdf_a - beta * pdf_b)

    prob = float(m0.sum())
    if prob < PROB_FLOOR:
        return TruncatedMoments(
            prob=PROB_FLOOR,
            mean=mean.copy(),
            second_moment=cov + np.outer(mean, mean),
            degenerate=True,
        )
    u = np.empty((last,) + w.shape)
    for j, z in enumerate(outer):
        u[j] = z
    u = u.reshape(last, w.size)
    m0, m1 = m0.ravel(), m1.ravel()
    ez = np.empty(last + 1)
    ez[:last] = u @ m0
    ez[last] = m1.sum()
    ez /= prob
    ezz = np.empty((last + 1, last + 1))
    ezz[:last, :last] = (u * m0) @ u.T
    ezz[:last, last] = ezz[last, :last] = u @ m1
    ezz[last, last] = m2.sum()
    ezz /= prob

    # x - mean = lx z, with the rows of the factor back in box order
    lx = np.empty_like(chol)
    lx[order] = chol
    mu = mean + lx @ ez
    c = lx @ (ezz - np.outer(ez, ez)) @ lx.T
    return TruncatedMoments(
        prob=min(prob, 1.0), mean=mu, second_moment=0.5 * (c + c.T) + np.outer(mu, mu)
    )


def box_mass_lower_bound(mean, cov, box):
    """``tmvn.bonferroni_bound`` on the mass of N(mean, cov) in ``box``: the
    box's faces relative to the mean and the marginal deviations of cov,
    as floats."""
    mean = np.asarray(mean, dtype=float).tolist()
    sd = [math.sqrt(v) for v in np.diagonal(cov).tolist()]
    lo = [x - m for x, m in zip(box.lower.tolist(), mean)]
    hi = [x - m for x, m in zip(box.upper.tolist(), mean)]
    return bonferroni_bound(lo, hi, sd)
