"""Coverage-constrained measurement update for the invariant filter.

Given a body-velocity pseudo-measurement whose error is known only to lie in
a calibrated box with probability at least gamma, the update finds the
distribution closest to the Gaussian prior in KL divergence subject to that
set-mass constraint, moment-matches it back to a Gaussian, and applies the
result on-manifold.

It is the Gaussian update's pipeline (:mod:`coverage_inekf.filter`) with a
different 3x3 rule in z = H dx: the truncated-moment work runs in z-space,
and the shared lift keeps the prior conditional p(dx | z) and swaps in the
moment-matched marginal of z, PSD because that marginal is.

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
certified update is never a degenerate skip.  Every update's diagnostics
keep the projected prior and box and compute pi with the grid's own call
when first read, so pi nobody reads costs nothing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from coverage_inekf.calibration import CoverageSpec
from coverage_inekf.filter import (
    AugmentedState,
    lift_and_apply,
    spd_inverse,
    velocity_projection,
    velocity_residual,
)
from coverage_inekf.tmvn import (
    PROB_FLOOR,
    BoxRegion,
    box_mass_lower_bound,
    box_moments,
    cholesky,
)

log = logging.getLogger(__name__)

# Eigenvalue floor of the moment-matched z-space posterior P' when
# tmvn.cholesky refuses it; it keeps P' definite, the lifted posterior PSD.
COV_EIG_FLOOR = 1e-12

# A moment-matched covariance with an eigenvalue below this is treated as a
# bug in the inputs rather than roundoff.
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
class ZPosterior:
    """Moment-matched posterior of the projected error z = H dx.

    ``prior_mass`` is the prior box probability pi.  The prior mean of z is
    zero, so ``mean`` is also the shift the update applies.
    """

    mean: np.ndarray
    cov: np.ndarray
    prior_mass: float


@dataclass(eq=False)
class UpdateDiagnostics:
    """Per-update record: the projected prior N(0, cov_z), the box, and the
    branch taken.

    ``pi_prior``, the prior set mass, is the grid path's ``box_moments``
    call, made on first read: bit for bit the value the update saw, and
    ``PROB_FLOOR`` for a skipped update, whose mass the grid clamps there.
    ``near_full_mass`` flags pi within ``NEAR_FULL_MASS`` of 1.
    """

    cov_z: np.ndarray
    box: BoxRegion
    active: bool = False
    skipped: bool = False

    @cached_property
    def pi_prior(self) -> float:
        return box_moments(np.zeros(self.cov_z.shape[0]), self.cov_z, self.box).prob

    @property
    def near_full_mass(self) -> bool:
        return (1.0 - self.pi_prior) < NEAR_FULL_MASS


def _floor_spd(m: np.ndarray) -> np.ndarray:
    """Symmetrize; floor-clip the eigenvalues if tmvn.cholesky refuses."""
    m = 0.5 * (m + m.T)
    try:
        cholesky(m.tolist())
        return m
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(m)
    if vals.min() < COV_EIG_HARD_MIN:
        raise np.linalg.LinAlgError(
            "moment matching: covariance lost positive semidefiniteness "
            f"(min eigenvalue {vals.min():.3e})"
        )
    return (vecs * np.maximum(vals, COV_EIG_FLOOR)) @ vecs.T


def build_feasible_set(
    prior_state: AugmentedState, meas: np.ndarray, spec: CoverageSpec
) -> BoxRegion:
    """The box the coverage statement puts around the innovation in
    z = H dx: the innovation plus/minus the calibrated radii."""
    innovation = velocity_residual(prior_state, meas)
    return BoxRegion(innovation - spec.epsilon, innovation + spec.epsilon)


def project_prior(
    cov: np.ndarray, rot: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project the prior covariance onto z = H dx.

    Returns (cov_z, sigma_ht, cov_z_inv): the projected covariance
    cov_z = H Sigma H^T, the cross-covariance Sigma H^T and the inverse of
    cov_z, the pipeline's projection step; an active update passes the last
    two to :func:`coverage_inekf.filter.lift_and_apply` as Sigma H^T and W.
    H = [0, -R^T, 0, 0, 0] is the body-velocity output matrix at the
    prior's rotation ``rot``, applied by its velocity block
    (:func:`velocity_projection`).  Raises LinAlgError when the prior is
    not positive definite or has collapsed along a measured direction.
    """
    sigma_ht, cov_z = velocity_projection(cov, rot)
    cov_z = 0.5 * (cov_z + cov_z.T)
    return cov_z, sigma_ht, spd_inverse(cov_z, "projected prior")


def kl_coverage_posterior(
    cov_z: np.ndarray,
    box: BoxRegion,
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
    tm = box_moments(np.zeros(d), cov_z, box)
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
    cov_post = _floor_spd(second_post - np.outer(mean_post, mean_post))
    return ZPosterior(mean=mean_post, cov=cov_post, prior_mass=pi)


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
    inactive returns before the grid runs.  When the prior set mass is at the
    probability floor the update is skipped entirely and logged.
    """
    box = build_feasible_set(x, meas, spec)
    cov_z, sigma_ht, cov_z_inv = project_prior(cov, x.nav.rot)
    diag = UpdateDiagnostics(cov_z, box)
    bound = box_mass_lower_bound(np.zeros(cov_z.shape[0]), cov_z, box)
    if bound >= spec.gamma + CERTIFY_MARGIN:
        return x, cov, diag
    try:
        zpost = kl_coverage_posterior(cov_z, box, spec.gamma)
    except DegenerateMassError:
        log.debug(
            "coverage update skipped: prior set mass below %g (outlier)",
            PROB_FLOOR,
        )
        diag.skipped = True
        return x, cov, diag

    if zpost.prior_mass >= spec.gamma:
        return x, cov, diag

    diag.active = True
    x, cov = lift_and_apply(x, cov, sigma_ht, cov_z_inv, zpost.mean, zpost.cov)
    return x, cov, diag
