"""Coverage-constrained measurement update for the invariant filter.

Given a body-velocity pseudo-measurement whose error is known only to lie in
a calibrated box with probability at least gamma, the update finds the
distribution closest to the Gaussian prior in KL divergence subject to that
set-mass constraint, moment-matches it back to a Gaussian, and applies the
result on-manifold.

The set-mass constraint only involves the 3-dim output z = H dx, so the
expensive truncated-moment work runs in z-space; the full 15-dim posterior
is recovered by keeping the prior conditional p(dx | z) and swapping in the
new marginal over z.

As in :mod:`coverage_inekf.filter`, every correction is folded into the
state, so the prior error mean is zero: the prior is the 15x15 covariance
alone, and its projection onto z is zero-mean.

Most updates find the constraint inactive (prior mass pi >= gamma) and
leave the state alone, so the update first tries to certify that from
the marginal tails: :func:`coverage_inekf.tmvn.box_mass_lower_bound`
(six values of Phi) is a lower bound on pi.  When it clears gamma by
``CERTIFY_MARGIN`` (1e-9), far above the grid's mass error (1e-14
relative), the grid would find pi >= gamma too, so the update returns its
inputs without running ``box_moments``; the decision is the grid's, and a
certified update is never a degenerate skip.  Its diagnostics keep the
projected prior and box, and compute pi with the grid's own call only when
``pi_prior`` or ``near_full_mass`` is read, so a diagnostic nobody reads
costs nothing and one that is read has the grid path's value bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from coverage_inekf.filter import (
    AugmentedState,
    apply_correction,
    check_conditioning,
    velocity_output_matrix,
    velocity_projection,
    velocity_residual,
)
from coverage_inekf.tmvn import (
    PROB_FLOOR,
    BoxRegion,
    box_mass_lower_bound,
    box_moments,
)

log = logging.getLogger(__name__)

# Eigenvalue floor applied to posterior covariances so downstream Cholesky
# factorizations always succeed.
COV_EIG_FLOOR = 1e-12

# A posterior covariance with an eigenvalue below this is treated as a bug
# in the inputs rather than roundoff.
COV_EIG_HARD_MIN = -1e-8

# Complement reweighting becomes ill-conditioned when nearly all prior mass
# is already inside the set; such updates are flagged in the diagnostics.
NEAR_FULL_MASS = 1e-6

# An update is certified inactive when the Bonferroni bound on its prior set
# mass clears gamma by this much.  The grid's mass is within 1e-14 relative
# of the x-space reference, and the bound's own rounding is a few 1e-16, so
# a bound >= gamma + 1e-9 proves that the grid, too, finds pi >= gamma: five
# orders of headroom, and the certified decision is the grid's decision.
CERTIFY_MARGIN = 1e-9


class DegenerateMassError(ValueError):
    """Estimated prior set mass fell below the probability floor."""


@dataclass
class CoverageSpec:
    """Calibrated per-axis error radii with joint confidence gamma."""

    epsilon: np.ndarray
    gamma: float

    def __post_init__(self):
        self.epsilon = np.asarray(self.epsilon, dtype=float)
        if self.epsilon.shape != (3,) or np.any(self.epsilon < 0.0):
            raise ValueError("epsilon must be three non-negative radii")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")


@dataclass
class FeasibleSet:
    """Error-state region {dx : lower <= H dx <= upper} induced by coverage."""

    h: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def box(self) -> BoxRegion:
        return BoxRegion(self.lower, self.upper)


@dataclass
class ZPosterior:
    """Moment-matched posterior of the projected error z = H dx.

    ``prior_mass`` is the prior box probability pi.  The prior mean of z is
    zero, so ``mean`` is also the shift the update applies.
    """

    mean: np.ndarray
    cov: np.ndarray
    prior_mass: float


class UpdateDiagnostics:
    """Per-update record: prior set mass pi, and the branch taken.

    ``near_full_mass`` flags pi within ``NEAR_FULL_MASS`` of 1.  An update
    certified inactive passes ``prior = (cov_z, lower, upper)`` instead of
    pi; the first read of ``pi_prior`` or ``near_full_mass`` computes pi
    from it with the ``box_moments`` call the grid path makes, so the value
    is the grid path's bit for bit, and a record nobody reads costs nothing.
    """

    def __init__(self, pi_prior=None, active=False, skipped=False, prior=None):
        if (pi_prior is None) == (prior is None):
            raise ValueError("give exactly one of pi_prior and prior")
        self._pi = pi_prior
        self._prior = prior
        self.active = active
        self.skipped = skipped

    @property
    def pi_prior(self) -> float:
        if self._pi is None:
            cov_z, lower, upper = self._prior
            self._pi = box_moments(
                np.zeros(cov_z.shape[0]), cov_z, BoxRegion(lower, upper)
            ).prob
            self._prior = None
        return self._pi

    @property
    def near_full_mass(self) -> bool:
        return (1.0 - self.pi_prior) < NEAR_FULL_MASS

    def __repr__(self) -> str:
        return (
            f"UpdateDiagnostics(pi_prior={self.pi_prior!r}, active={self.active}, "
            f"skipped={self.skipped})"
        )


def _floor_spd(m: np.ndarray, context: str) -> np.ndarray:
    """Symmetrize and floor-clip eigenvalues; error on clearly indefinite input."""
    m = 0.5 * (m + m.T)
    try:
        np.linalg.cholesky(m)
        return m
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(m)
    if vals.min() < COV_EIG_HARD_MIN:
        raise np.linalg.LinAlgError(
            f"{context}: covariance lost positive semidefiniteness "
            f"(min eigenvalue {vals.min():.3e})"
        )
    return (vecs * np.maximum(vals, COV_EIG_FLOOR)) @ vecs.T


def build_feasible_set(
    prior_state: AugmentedState, meas: np.ndarray, spec: CoverageSpec
) -> FeasibleSet:
    """Feasible set of the error state induced by the coverage statement.

    H comes from the shared invariant-output linearization
    (:func:`coverage_inekf.filter.velocity_output_matrix`); the bounds are
    the innovation plus/minus the calibrated radii.
    """
    innovation = velocity_residual(prior_state, meas)
    h = velocity_output_matrix(prior_state.nav.rot)
    return FeasibleSet(h, innovation - spec.epsilon, innovation + spec.epsilon)


def project_prior(
    cov: np.ndarray, fs: FeasibleSet
) -> tuple[np.ndarray, np.ndarray]:
    """Project the prior covariance onto z = H dx.

    Returns (cov_z, gain) where cov_z = H Sigma H^T is the projected
    covariance and gain = Sigma H^T cov_z^-1 lifts z-space corrections back
    to the full error state.  H is the velocity output matrix, applied by
    its velocity block -R^T (:func:`coverage_inekf.filter.velocity_projection`).
    Raises LinAlgError when the prior is not positive definite or has
    collapsed along a measured direction.
    """
    sigma_ht, cov_z = velocity_projection(cov, -fs.h[:, 3:6].T)
    cov_z = 0.5 * (cov_z + cov_z.T)
    check_conditioning(cov_z, "projected prior")
    gain = sigma_ht @ np.linalg.inv(cov_z)
    return cov_z, gain


def kl_coverage_posterior(
    cov_z: np.ndarray,
    fs: FeasibleSet,
    gamma: float,
) -> ZPosterior:
    """KL-minimal set-mass posterior in z-space, moment-matched to a Gaussian.

    The prior is N(0, cov_z).  If it already puts mass >= gamma in the box,
    the constraint is inactive and the prior moments are returned unchanged.
    Otherwise the minimizer rescales the prior to mass gamma inside the box
    and 1 - gamma outside; its first two moments follow from the truncated
    moments inside the box and the law of total expectation for the
    complement.

    Raises DegenerateMassError when the estimated prior mass is at the
    probability floor (extreme outlier; callers should skip the update).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    d = cov_z.shape[0]
    tm = box_moments(np.zeros(d), cov_z, fs.box())
    pi = tm.prob
    if tm.degenerate:
        raise DegenerateMassError(
            f"prior set mass at or below floor ({PROB_FLOOR}); measurement "
            "is an extreme outlier for this prior"
        )
    if pi >= gamma:
        return ZPosterior(mean=np.zeros(d), cov=cov_z.copy(), prior_mass=pi)

    mean_comp = -pi * tm.mean / (1.0 - pi)
    second_comp = (cov_z - pi * tm.second_moment) / (1.0 - pi)

    mean_post = gamma * tm.mean + (1.0 - gamma) * mean_comp
    second_post = gamma * tm.second_moment + (1.0 - gamma) * second_comp
    cov_post = _floor_spd(
        second_post - np.outer(mean_post, mean_post), "moment matching"
    )
    return ZPosterior(mean=mean_post, cov=cov_post, prior_mass=pi)


def lift_and_apply(
    x: AugmentedState,
    cov: np.ndarray,
    zpost: ZPosterior,
    gain: np.ndarray,
    cov_z: np.ndarray,
) -> tuple[AugmentedState, np.ndarray]:
    """Lift the z-space posterior to the full error state and apply it.

    Keeps the prior conditional p(dx | z): the full mean shifts along the
    gain, and the covariance changes only in the measured directions.  The
    correction is folded into the state and the posterior covariance is
    returned.
    """
    cov_full = cov + gain @ (zpost.cov - cov_z) @ gain.T
    cov_full = _floor_spd(cov_full, "lifted posterior")
    x_new = apply_correction(x, gain @ zpost.mean)
    return x_new, cov_full


def coverage_update(
    x: AugmentedState,
    cov: np.ndarray,
    meas: np.ndarray,
    spec: CoverageSpec,
) -> tuple[AugmentedState, np.ndarray, UpdateDiagnostics]:
    """Full coverage-constrained measurement update.

    Builds the feasible set, projects the prior to z-space, computes the
    KL-minimal moment-matched posterior, and lifts it back.  When the
    constraint is inactive the inputs are returned unchanged (the same
    objects).  An update whose Bonferroni bound certifies the constraint
    inactive returns before the grid runs, with pi left for the
    diagnostics to compute when read.  When the prior set mass is at the
    probability floor the update is skipped entirely and logged.
    """
    fs = build_feasible_set(x, meas, spec)
    cov_z, gain = project_prior(cov, fs)
    bound = box_mass_lower_bound(np.zeros(cov_z.shape[0]), cov_z, fs)
    if bound >= spec.gamma + CERTIFY_MARGIN:
        return x, cov, UpdateDiagnostics(prior=(cov_z, fs.lower, fs.upper))
    try:
        zpost = kl_coverage_posterior(cov_z, fs, spec.gamma)
    except DegenerateMassError:
        log.debug(
            "coverage update skipped: prior set mass below %g (outlier)",
            PROB_FLOOR,
        )
        diag = UpdateDiagnostics(pi_prior=PROB_FLOOR, active=False, skipped=True)
        return x, cov, diag

    if zpost.prior_mass >= spec.gamma:
        return x, cov, UpdateDiagnostics(zpost.prior_mass)

    x_new, cov_new = lift_and_apply(x, cov, zpost, gain, cov_z)
    return x_new, cov_new, UpdateDiagnostics(zpost.prior_mass, active=True)
