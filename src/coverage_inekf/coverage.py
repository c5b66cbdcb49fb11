"""Coverage-constrained measurement update for the invariant filter.

Given a body-velocity pseudo-measurement whose error is known only to lie in
a calibrated box with probability at least gamma, the update finds the
distribution closest to the Gaussian prior in KL divergence subject to that
set-mass constraint, moment-matches it back to a Gaussian, and applies the
result on-manifold.

Every measurement update is :func:`update`: the residual, its projection
cov_z = H Sigma H^T onto z = H dx (:mod:`coverage_inekf.filter`), the
arm's 3x3 rule ``rule(cov_z, residual, arm)`` and one lift,
:func:`~coverage_inekf.filter.lift_and_apply`.  The rule gets cov_z
unsymmetrized and returns ``(lift, diag)``: ``lift`` is the lift's
(W, y, N), or None to leave the state alone.  Kalman's rule is
:func:`~coverage_inekf.filter.gaussian_update`.  The coverage rule,
:func:`coverage_update`, lifts so as to keep the prior conditional
p(dx | z) and swap in the moment-matched marginal of z, PSD because that
marginal is.  As in :mod:`coverage_inekf.filter`, every correction is
folded into the state, so the prior error mean, and the mean of z, is zero.

The coverage rule runs these stages, each paid for only when the ones
before it cannot decide:

1. :func:`project_prior`: cov_z symmetrized, as floats, and
   :func:`~coverage_inekf.filter.spd_factor`'s definiteness and
   conditioning screen.  A prior that is not positive definite, or has
   collapsed along a measured direction, is refused before anything is
   certified.
2. :func:`build_feasible_set`: the faces residual +- epsilon as floats.
3. The certificate.  Most updates find the constraint inactive (prior mass
   pi >= gamma).  The Bonferroni bound
   :func:`~coverage_inekf.tmvn.bonferroni_bound` on pi takes the six
   standardized face distances and one ``ndtr`` call.  When it clears
   gamma by ``CERTIFY_MARGIN`` (1e-9), far above the grid's mass error
   (1e-14 relative), the grid would find pi >= gamma too: the decision is
   the grid's, and a certified update is never a degenerate skip.
4. The grid: the ``BoxRegion`` and the module's one ``box_moments`` call,
   kept as :attr:`UpdateDiagnostics.moments`.
5. The decision, :func:`coverage_update`'s alone: skipped at the
   probability floor (outlier), inactive at pi >= gamma, else active.
6. An active update's lift: cov_z^-1 from the screen's factor, and
   :func:`kl_coverage_posterior`'s moment matching on floats.  The matched
   covariance is the gamma : 1 - gamma mixture of the prior truncated
   inside and outside the box, positive definite because the outside has
   an interior and 1 - gamma > 0; :func:`~coverage_inekf.tmvn.cholesky`
   checks it, and a refusal raises LinAlgError.

Diagnostics keep cov_z, the faces and, past the certificate, the grid's
moments, so pi is the update's own grid call; a certified update runs the
grid when pi is first read, so pi nobody reads costs nothing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

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
    TruncatedMoments,
    bonferroni_bound,
    box_moments,
    cholesky,
)

log = logging.getLogger(__name__)

# An update is certified inactive when the Bonferroni bound on its prior set
# mass clears gamma by this much.  The grid's mass is within 1e-14 relative
# of the x-space reference, and the bound's own rounding is a few 1e-16, so
# a bound >= gamma + 1e-9 proves that the grid, too, finds pi >= gamma: five
# orders of headroom, and the certified decision is the grid's decision.
CERTIFY_MARGIN = 1e-9


@dataclass(eq=False)
class UpdateDiagnostics:
    """Per-update record: the projected prior N(0, cov_z), the faces of the
    box, and the branch taken.

    The coverage rule fills it in its stages' order: cov_z once the screen
    has passed, the faces ``lower`` and ``upper`` (lists of floats) before
    the certificate, and on the grid path only ``moments`` (the grid's
    truncated moments on the box the faces make), ``skipped`` and ``active``.
    ``pi_prior``, the prior set mass, is the moments' ``prob``: bit for bit
    the value the update decided on, and ``PROB_FLOOR`` for a skipped
    update, whose mass the grid clamps there.  On a certified update, first
    reading it runs the grid and keeps its moments.
    """

    cov_z: np.ndarray
    lower: list
    upper: list
    active: bool = False
    skipped: bool = False
    moments: TruncatedMoments | None = None

    @property
    def pi_prior(self) -> float:
        if self.moments is None:
            box = BoxRegion(self.lower, self.upper)
            self.moments = box_moments(np.zeros(self.cov_z.shape[0]), self.cov_z, box)
        return self.moments.prob


def project_prior(cov_z: np.ndarray) -> tuple[np.ndarray, list, tuple[list, list]]:
    """The screen of the projected prior cov_z = H Sigma H^T: (cov_z, rows,
    factor), with cov_z symmetrized, ``rows`` its entries as floats and
    ``factor`` its :func:`~coverage_inekf.filter.spd_factor`.

    Raises LinAlgError when the prior is not positive definite or has
    collapsed along a measured direction.
    """
    cov_z = 0.5 * (cov_z + cov_z.T)
    rows = cov_z.tolist()
    return cov_z, rows, spd_factor(rows, "projected prior")


def build_feasible_set(residual: np.ndarray, epsilon: np.ndarray) -> tuple[list, list]:
    """Lower and upper faces, as floats, of the box the coverage statement
    puts around the innovation in z = H dx: the residual plus/minus the
    calibrated radii."""
    lower, upper = [], []
    for r, e in zip(residual.tolist(), epsilon.tolist()):
        lower.append(r - e)
        upper.append(r + e)
    return lower, upper


def kl_coverage_posterior(
    cov_z: np.ndarray, tm: TruncatedMoments, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """KL-minimal set-mass posterior in z-space, moment-matched to a Gaussian.

    The prior N(0, cov_z) has the grid's truncated moments ``tm`` on the
    box, of mass pi.  The minimizer rescales it to mass gamma inside the box
    and 1 - gamma outside; its first two moments, returned as (mean, cov),
    follow from ``tm`` and the law of total expectation for the complement.

    Precondition, decided by :func:`coverage_update`: the constraint is
    active, so ``tm`` is not degenerate and pi < gamma.  The covariance is
    then positive definite (module docstring), and exactly symmetric when
    cov_z and ``tm`` are; one that :func:`~coverage_inekf.tmvn.cholesky`
    refuses raises LinAlgError.
    """
    pi = tm.prob
    # entry by entry: the complement's moments (prior minus pi times the
    # inside's, over 1 - pi), their gamma : 1 - gamma mixture with the
    # inside's, and the mixture's covariance
    q, h = 1.0 - pi, 1.0 - gamma
    mean_post = [gamma * m + h * (-pi * m / q) for m in tm.mean.tolist()]
    second_post = [
        [gamma * s + h * ((c - pi * s) / q) for c, s in zip(c_row, s_row)]
        for c_row, s_row in zip(cov_z.tolist(), tm.second_moment.tolist())
    ]
    cov_post = [[s - mi * mj for s, mj in zip(row, mean_post)]
                for row, mi in zip(second_post, mean_post)]
    try:
        cholesky(cov_post)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            f"moment matching: posterior covariance is not positive definite ({err})"
        ) from err
    return np.array(mean_post), np.array(cov_post)


def coverage_update(
    cov_z: np.ndarray, residual: np.ndarray, spec: CoverageSpec
) -> tuple[tuple | None, UpdateDiagnostics]:
    """The coverage rule, in the stages of the module docstring.

    Screens the projected prior, tries to certify the constraint inactive
    from the Bonferroni bound, and only then runs the grid and decides.
    Returns the lift (cov_z^-1, mean, cov) of an active update, or None
    with the diagnostics; an update whose prior set mass is at the
    probability floor is skipped and logged.
    """
    cov_z, rows, factor = project_prior(cov_z)
    diag = UpdateDiagnostics(cov_z, *build_feasible_set(residual, spec.epsilon))
    sd = [math.sqrt(rows[i][i]) for i in range(len(rows))]
    if bonferroni_bound(diag.lower, diag.upper, sd) >= spec.gamma + CERTIFY_MARGIN:
        return None, diag
    pi = diag.pi_prior
    if diag.moments.degenerate:
        log.debug("coverage update skipped: prior set mass below %g (outlier)",
                  PROB_FLOOR)
        diag.skipped = True
        return None, diag
    if pi >= spec.gamma:
        return None, diag
    diag.active = True
    posterior = kl_coverage_posterior(cov_z, diag.moments, spec.gamma)
    return (factor_inverse(*factor), *posterior), diag


def update(
    x: AugmentedState, cov: np.ndarray, meas: np.ndarray, rule, arm
) -> tuple[AugmentedState, np.ndarray, object]:
    """One measurement update with the z-rule ``rule`` and its input ``arm``
    (module docstring): returns (x, cov, diag), the inputs themselves when
    the rule leaves the state alone.

    Raises ValueError unless the measurement is a finite 3-vector, and
    LinAlgError from the rule's screen on a prior it cannot invert.
    """
    residual = velocity_residual(x, meas)
    sigma_ht, cov_z = velocity_projection(cov, x.nav.rot)
    lift, diag = rule(cov_z, residual, arm)
    if lift is not None:
        x, cov = lift_and_apply(x, cov, sigma_ht, *lift)
    return x, cov, diag
