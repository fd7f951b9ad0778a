"""Wald standard errors, confidence intervals, and contrast transforms.

Standard errors come from the inverse of the negative Hessian of the
UNPENALIZED approximate log-likelihood at the estimate (for penalized
fits too: the penalized and unpenalized estimators share their
limiting distribution, and this matches how the reported values are
defined).  At q = 1 that Hessian is exact, from the same mode solve
and quadrature nodes as the gradient; at q >= 2 it is the symmetrized
central-difference Jacobian of the exact gradient.  Diagonal entries
of the inverse that come out negative are marked unavailable rather
than reported.

Because the fixed-effects penalty changes only by an additive constant
under an invertible re-parameterization beta -> C beta (with design
X C^{-1}), penalized estimates are equivariant: the transformed fit can
be obtained analytically instead of refitting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .likelihood import ModeFindingError
from .model import ClusteredDataset, Theta
from .optimize import FitError, FitResult, hessian_fd
from .penalties import scale_factor

__all__ = [
    "ContrastMap",
    "WaldSE",
    "wald_se",
    "attach_se",
    "transform_fit",
    "transform_dataset",
    "wald_ci",
    "normal_quantile",
]

# Inverses of Hessians with condition number beyond this are reported as
# unavailable wholesale.
COND_LIMIT = 1e14


@dataclass(frozen=True)
class ContrastMap:
    """An invertible linear re-parameterization of the fixed effects."""

    C: np.ndarray

    def __post_init__(self):
        C = np.array(self.C, dtype=float)
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise ValueError(f"contrast matrix must be square, got shape {C.shape}")
        if not np.isfinite(C).all():
            raise ValueError("contrast matrix has non-finite entries")
        # Rank by SVD against machine epsilon: a change of units such as
        # 1e-4 * I is invertible however small its determinant.
        if np.linalg.matrix_rank(C) < C.shape[0]:
            raise ValueError("contrast matrix is not invertible")
        C.setflags(write=False)
        object.__setattr__(self, "C", C)

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.C)


@dataclass(frozen=True)
class WaldSE:
    """Standard errors with availability flags and the covariance they came from.

    ``se`` is NaN wherever ``available`` is False.  ``cond`` is the
    condition number of the negative Hessian (the diagnostic reported
    when everything is unavailable because the Hessian was singular).
    """

    se: np.ndarray
    available: np.ndarray
    cov: np.ndarray | None
    cond: float


def wald_se(data: ClusteredDataset, fit_result: FitResult) -> WaldSE:
    """Standard errors from the negative Hessian of the approximate loglik.

    The Hessian is of the unpenalized approximate log-likelihood at the
    fitted estimate, regardless of the fitting method: the exact one
    (``LoglikEvaluator.hessian``) at q = 1, from one mode solve, and the
    central differences of the exact gradient (``hessian_fd``) at
    q >= 2.  A breakdown of the mode solve raises ``FitError``, as in
    ``fit``.
    """
    evaluator = fit_result.options.evaluator(data)
    p = data.p

    def loglik_gradient(v):
        return evaluator.value_and_grad(Theta.from_vector(v, p))[1]

    try:
        if data.q == 1:
            neg_H = -evaluator.hessian(fit_result.theta)
        else:
            neg_H = -hessian_fd(loglik_gradient, fit_result.theta.as_vector())
    except ModeFindingError as err:
        raise FitError(f"standard-error evaluation failed: {err}") from err
    cond = float(np.linalg.cond(neg_H))
    cov = None
    if np.isfinite(cond) and cond <= COND_LIMIT:
        try:
            cov = np.linalg.inv(neg_H)
        except np.linalg.LinAlgError:
            pass  # reported as unavailable, like an ill-conditioned Hessian
    return _wald_from_cov(cov, cond, neg_H.shape[0])


def _wald_from_cov(cov: np.ndarray | None, cond: float, d: int) -> WaldSE:
    """SEs from the diagonal of ``cov``; all unavailable when there is none."""
    if cov is None:
        return WaldSE(np.full(d, np.nan), np.zeros(d, dtype=bool), None, cond)
    diag = np.diag(cov)
    available = diag > 0
    return WaldSE(np.where(available, np.sqrt(np.abs(diag)), np.nan), available, cov, cond)


def attach_se(data: ClusteredDataset, fit_result: FitResult) -> tuple[FitResult, WaldSE]:
    """Compute Wald SEs and return the fit with them attached."""
    wald = wald_se(data, fit_result)
    return replace(fit_result, se=wald.se, se_available=wald.available), wald


def transform_dataset(data: ClusteredDataset, cmap: ContrastMap) -> ClusteredDataset:
    """Dataset whose fixed-effects design is X C^{-1}.

    Fitting it estimates gamma = C beta while leaving every linear
    predictor unchanged.
    """
    return data.with_fixed_design(data.X @ cmap.inverse())


def transform_fit(
    fit_result: FitResult,
    cmap: ContrastMap,
    data: ClusteredDataset,
    wald: WaldSE | None = None,
) -> FitResult:
    """Re-express a fit in the gamma = C beta parameterization.

    Returns the analytically transformed result: gamma_hat = C beta_hat,
    psi unchanged, delta-method standard errors from the beta-block
    covariance.  Refitting the transformed model from scratch agrees
    with this up to optimizer tolerance.
    """
    if cmap.p != fit_result.theta.p:
        raise ValueError(
            f"contrast is {cmap.p}x{cmap.p} but the fit has {fit_result.theta.p} fixed effects"
        )
    theta_new = Theta(cmap.C @ fit_result.theta.beta, fit_result.theta.psi)
    # The fixed-effects penalty shifts by -c log|det C| under the
    # transformation, the likelihood not at all.
    pen_shift = 0.0
    if fit_result.options.method == "mspl":
        c = scale_factor(data.p, data.n)
        pen_shift = -c * float(np.linalg.slogdet(cmap.C)[1])
    out = replace(
        fit_result,
        theta=theta_new,
        penalized=fit_result.penalized + pen_shift,
        se=None,
        se_available=None,
    )
    if wald is None and fit_result.se is None:
        return out
    if wald is None:
        wald = wald_se(data, fit_result)
    if wald.cov is not None:
        d = fit_result.theta.dim
        T = np.eye(d)
        T[:cmap.p, :cmap.p] = cmap.C
        wald = _wald_from_cov(T @ wald.cov @ T.T, wald.cond, d)
    return replace(out, se=wald.se, se_available=wald.available)


def normal_quantile(prob: float) -> float:
    """Standard normal quantile, by Wichura's AS 241 in ``statistics.NormalDist``."""
    if not 0.0 < prob < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {prob}")
    return NormalDist().inv_cdf(prob)


def wald_ci(estimate: float, se: float, level: float = 0.95) -> tuple[float, float]:
    """Two-sided Wald interval: estimate +/- z_{(1+level)/2} se."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    if not np.isfinite(se) or se < 0:
        raise ValueError(f"standard error unavailable or invalid: {se}")
    if se == 0.0:
        warnings.warn("zero standard error gives a degenerate interval", stacklevel=2)
        return (float(estimate), float(estimate))
    z = normal_quantile((1.0 + level) / 2.0)
    return (float(estimate - z * se), float(estimate + z * se))
