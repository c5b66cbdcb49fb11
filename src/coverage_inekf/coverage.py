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

An update runs in three stages, and pays for a stage only when the one
before it cannot decide:

1. Screen.  The residual, the projection cov_z = H Sigma H^T and its
   symmetrization, then :func:`coverage_inekf.filter.spd_factor`, the
   definiteness and conditioning test of every matrix the filter inverts.
   A prior that is not positive definite, or has collapsed along a
   measured direction, is refused here, before anything is certified.
2. Certificate.  Most updates find the constraint inactive (prior mass
   pi >= gamma) and leave the state alone.  The Bonferroni bound
   :func:`coverage_inekf.tmvn.bonferroni_bound` on pi takes the six
   standardized face distances as Python floats and one ``ndtr`` call.
   When it clears gamma by ``CERTIFY_MARGIN`` (1e-9), far above the grid's
   mass error (1e-14 relative), the grid would find pi >= gamma too, so the
   update returns its inputs: the decision is the grid's, and a certified
   update is never a degenerate skip.
3. Grid.  Only an uncertified update builds the ``BoxRegion`` and runs
   ``box_moments`` (:func:`kl_coverage_posterior`, whose moment matching
   runs on floats).  An active one takes cov_z^-1 from the screen's
   factor and lifts.

Every update's diagnostics keep cov_z and the box's faces.  pi, the grid's
own call on the box those faces make, is computed when first read, so pi
nobody reads costs nothing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from coverage_inekf.calibration import CoverageSpec
from coverage_inekf.filter import (
    AugmentedState,
    factor_inverse,
    lift_and_apply,
    spd_factor,
    velocity_projection,
    velocity_residual,
)
from coverage_inekf.tmvn import (
    PROB_FLOOR,
    BoxRegion,
    bonferroni_bound,
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
    """Per-update record: the projected prior N(0, cov_z), the faces of the
    box, and the branch taken.

    The update fills it in its own order: cov_z once the screen has passed,
    the faces ``lower`` and ``upper`` (lists of floats) before the
    certificate, and ``skipped`` or ``active`` on the grid path only.
    ``pi_prior``, the prior set mass, builds the box from the faces and
    makes the grid path's ``box_moments`` call on first read: bit for bit
    the value the update saw, and ``PROB_FLOOR`` for a skipped update, whose
    mass the grid clamps there.  ``near_full_mass`` flags pi within
    ``NEAR_FULL_MASS`` of 1.
    """

    cov_z: np.ndarray
    lower: list
    upper: list
    active: bool = False
    skipped: bool = False

    @cached_property
    def pi_prior(self) -> float:
        box = BoxRegion(self.lower, self.upper)
        return box_moments(np.zeros(self.cov_z.shape[0]), self.cov_z, box).prob

    @property
    def near_full_mass(self) -> bool:
        return (1.0 - self.pi_prior) < NEAR_FULL_MASS


def _floor_spd(rows) -> np.ndarray:
    """Symmetrize the square matrix ``rows``, a sequence of rows; floor-clip
    the eigenvalues if tmvn.cholesky refuses."""
    m = [[0.5 * (a + b) for a, b in zip(row, col)]
         for row, col in zip(rows, zip(*rows))]
    try:
        cholesky(m)
        return np.array(m)
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(m)
    if vals.min() < COV_EIG_HARD_MIN:
        raise np.linalg.LinAlgError(
            "moment matching: covariance lost positive semidefiniteness "
            f"(min eigenvalue {vals.min():.3e})"
        )
    return (vecs * np.maximum(vals, COV_EIG_FLOOR)) @ vecs.T


def _faces(residual: list, epsilon: list) -> tuple[list, list]:
    """Lower and upper faces of the box residual +- epsilon, as floats."""
    lower, upper = [], []
    for r, e in zip(residual, epsilon):
        lower.append(r - e)
        upper.append(r + e)
    return lower, upper


def build_feasible_set(
    prior_state: AugmentedState, meas: np.ndarray, spec: CoverageSpec
) -> BoxRegion:
    """The box the coverage statement puts around the innovation in
    z = H dx: the innovation plus/minus the calibrated radii."""
    innovation = velocity_residual(prior_state, meas).tolist()
    return BoxRegion(*_faces(innovation, spec.epsilon.tolist()))


def _screen(
    cov: np.ndarray, rot: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list, list]:
    """The projection and its screen: (cov_z, sigma_ht, rows, factor), with
    cov_z = H Sigma H^T symmetrized, ``rows`` its entries as floats and
    ``factor`` its :func:`~coverage_inekf.filter.spd_factor`."""
    sigma_ht, cov_z = velocity_projection(cov, rot)
    cov_z = 0.5 * (cov_z + cov_z.T)
    rows = cov_z.tolist()
    return cov_z, sigma_ht, rows, spd_factor(rows, "projected prior")


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
    cov_z, sigma_ht, _, factor = _screen(cov, rot)
    return cov_z, sigma_ht, factor_inverse(*factor)


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

    # entry by entry: the complement's moments (prior minus pi times the
    # inside's, over 1 - pi), their gamma : 1 - gamma mixture with the
    # inside's, and the mixture's covariance
    q, h = 1.0 - pi, 1.0 - gamma
    mean_post = [gamma * m + h * (-pi * m / q) for m in tm.mean.tolist()]
    second_post = [
        [gamma * s + h * ((c - pi * s) / q) for c, s in zip(c_row, s_row)]
        for c_row, s_row in zip(cov_z.tolist(), tm.second_moment.tolist())
    ]
    cov_post = _floor_spd(
        [[s - mi * mj for s, mj in zip(row, mean_post)]
         for row, mi in zip(second_post, mean_post)]
    )
    return ZPosterior(mean=np.array(mean_post), cov=cov_post, prior_mass=pi)


def coverage_update(
    x: AugmentedState,
    cov: np.ndarray,
    meas: np.ndarray,
    spec: CoverageSpec,
) -> tuple[AugmentedState, np.ndarray, UpdateDiagnostics]:
    """Full coverage-constrained measurement update, in the stages of the
    module docstring.

    Screens the projected prior, tries to certify the constraint inactive
    from the Bonferroni bound, and only then builds the feasible set,
    computes the KL-minimal moment-matched posterior and lifts it back.
    When the constraint is inactive the inputs are returned unchanged (the
    same objects).  When the prior set mass is at the probability floor the
    update is skipped entirely and logged.
    """
    residual = velocity_residual(x, meas).tolist()
    cov_z, sigma_ht, rows, factor = _screen(cov, x.nav.rot)
    diag = UpdateDiagnostics(cov_z, *_faces(residual, spec.epsilon.tolist()))
    sd = [math.sqrt(rows[i][i]) for i in range(len(rows))]
    if bonferroni_bound(diag.lower, diag.upper, sd) >= spec.gamma + CERTIFY_MARGIN:
        return x, cov, diag
    box = BoxRegion(diag.lower, diag.upper)
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
    x, cov = lift_and_apply(
        x, cov, sigma_ht, factor_inverse(*factor), zpost.mean, zpost.cov
    )
    return x, cov, diag
