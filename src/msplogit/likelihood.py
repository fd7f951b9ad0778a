"""Approximate marginal log-likelihood for the clustered logistic model.

The marginal likelihood integrates each cluster's Bernoulli likelihood
against the Gaussian random-effect density.  Writing

    g_i(u) = sum_j [y_ij eta_ij - log(1 + exp(eta_ij))] - u' Sigma^{-1} u / 2,

the exact per-cluster contribution to the log-likelihood is

    log p_i = -q/2 log(2 pi) - 1/2 log det Sigma + log int exp(g_i(u)) du.

Two approximations are provided:

* adaptive Gauss-Hermite quadrature for one-dimensional random effects:
  the integral is approximated by shifting and scaling a fixed rule to
  the mode u_hat_i and curvature of g_i,

      int exp(g_i) du ~= sqrt(2) tau_i sum_m w_m exp(x_m^2)
                         exp(g_i(u_hat_i + sqrt(2) tau_i x_m)),

  with tau_i^2 the inverse of the negative Hessian of g_i at the mode;
* the Laplace approximation for any dimension, which replaces the
  integral by exp(g_i(u_hat)) (2 pi)^{q/2} det(H_i)^{-1/2} with
  H_i = Z_i' W_i Z_i + Sigma^{-1}, so that

      log p_i = g_i(u_hat) - 1/2 log det H_i - 1/2 log det Sigma

  (the (2 pi)^{q/2} from the Laplace integral cancels the
  (2 pi)^{-q/2} normalization exactly, which is why one-node adaptive
  quadrature coincides with the Laplace value when q = 1, and the
  Laplace value at q = 1 is computed as that one-node rule).

Every cluster's mode comes from one damped-Newton loop
(``_damped_newton``).  Each scale gives it only its own exponent, score
and curvature, and Newton step: a clipped scalar step at q = 1, a
batched solve with a capped norm at q >= 2.  Each cluster stops on its
own, once converged or once stalled at machine precision.

Internally both approximations are evaluated in the standardized scale
u = L v (so the Gaussian exponent is -||v||^2/2 and the curvature is
L' Z' W Z L + I >= I).  The change of variables maps modes to modes and
quadrature points to the identical evaluation points, so the computed
values equal the formulas above to rounding while staying
well-conditioned even when Sigma is nearly singular - exactly the
regime an unpenalized fit wanders into.  All reductions are log-space
log-sum-exp with exponent values taken relative to the mode.  At the
quadrature nodes, log(1 + e^eta) and the logistic 1 / (1 + e^-eta) come
from one shared exponential e^-|eta|, and Gauss-Hermite rules are built
once per node count and cached.

``LoglikEvaluator.value_and_grad`` returns the exact gradient in theta
from the same mode solve as the value.  The mode's derivative comes
from the implicit-function theorem: with g the exponent in the
standardized scale and H its negative Hessian at the mode v_hat,

    d v_hat / d theta = H^{-1} d(grad_v g) / d theta.

* Laplace, q >= 2, per cluster:

      d log p_i / d theta = dg_i/dtheta (v_hat) - 1/2 tr(H_i^{-1} dH_i/dtheta),
      dH_i/dtheta = sum_r w_r (1 - 2 mu_r) (deta_r/dtheta) a_r a_r'
                    + sum_r w_r (da_r/dtheta a_r' + a_r da_r'/dtheta),

  with a_r the rows of A = Z L, w = mu (1 - mu), and deta_r/dtheta the
  total derivative of the linear predictor at the moving mode.
* Adaptive quadrature, q = 1, with moving nodes t_m = t_hat + sqrt(2)
  tau x_m and tau = hess^{-1/2}:

      d log p_i / d theta = d log tau / d theta + d log(s / sigma) / d theta
          + sum_m pi_m [dg/dtheta (t_m) + g'(t_m) (dt_hat/dtheta
                        + sqrt(2) x_m tau d log tau / d theta)],

  where pi_m is node m's share of the cluster's quadrature sum and s =
  min(sigma, 1) the integration scale.  In the t scale psi enters g
  through s (eta = x'beta + s z t) and the prior curvature ratio =
  (s / sigma)^2.  ``_q1_scale`` gives both with their derivatives in
  psi, so one formula holds on either side of sigma = 1, as
  ``psi_to_chol`` and ``chol_jacobian`` serve the q >= 2 routine.  The
  Laplace value at q = 1 is the one-node case (x = 0, pi = 1): it runs
  through this routine with the one-node rule.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ClusteredDataset, Theta, chol_jacobian, expit, psi_to_chol

__all__ = [
    "QuadratureRule",
    "ModeFindingError",
    "gauss_hermite_rule",
    "LoglikEvaluator",
    "MAX_QUADRATURE",
]

MAX_QUADRATURE = 200  # largest Gauss-Hermite rule; the smallest has one node
MODE_GRAD_TOL_V = 1e-11  # standardized-scale tolerance of the inner solvers
# A stalled inner solver is accepted when its gradient is below this; the
# remaining mode error is O(gradient / curvature) and the curvature is huge
# precisely in the regimes where the stall can happen.
MODE_GRAD_ESCAPE = 1e-6
MODE_MAX_ITER = 200
# The standardized mode is O(sqrt(cluster size)); capping the Newton step
# keeps a single iteration from jumping to an overflow-prone scale when
# the curvature has underflown.
MODE_MAX_STEP = 100.0

class ModeFindingError(RuntimeError):
    """Newton iteration for a cluster mode failed to converge."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes and weights for the weight function exp(-x^2)."""

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None, typed=True)  # typed: 100.0 must not hit the rule of 100
def gauss_hermite_rule(Q: int) -> QuadratureRule:
    """Gauss-Hermite rule with Q nodes via the Golub-Welsch eigenproblem.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix with off-diagonal entries sqrt(i/2), taken as a dense matrix.
    The weights follow from the same construction through the
    orthonormal-polynomial identity w_m = 1 / sum_j p_j(x_m)^2, by the
    three-term recurrence (the squared-first-eigenvector-component form
    underflows for the extreme nodes of large rules).  Symmetry about
    zero is enforced exactly by averaging each node with its mirror image.

    Each rule is built once per Q and the same object is returned to
    every caller, so its arrays are read-only.
    """
    if not (1 <= operator.index(Q) <= MAX_QUADRATURE):
        raise ValueError(f"quadrature size must be in [1, {MAX_QUADRATURE}], got {Q}")
    if Q == 1:
        nodes, weights = np.zeros(1), np.array([np.sqrt(np.pi)])
    else:
        off = np.sqrt(np.arange(1, Q) / 2.0)
        nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
        nodes = 0.5 * (nodes - nodes[::-1])
        if Q % 2 == 1:
            nodes[Q // 2] = 0.0
        p_prev = np.zeros(Q)
        p = np.full(Q, np.pi ** -0.25)
        total = p * p
        for j in range(1, Q):
            p, p_prev = (nodes * p - np.sqrt((j - 1) / 2.0) * p_prev) / np.sqrt(j / 2.0), p
            total += p * p
        weights = 1.0 / total
        weights = 0.5 * (weights + weights[::-1])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes, weights)


# ---------------------------------------------------------------------------
# Inner solvers in the standardized scale u = L v
# ---------------------------------------------------------------------------


def _segsum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    return np.add.reduceat(values, offsets[:-1], axis=0)


def _softplus_logistic(eta: np.ndarray):
    """log(1 + e^eta) and 1 / (1 + e^-eta) from one exponential.

    Both are taken from z = e^-|eta| <= 1, so neither can overflow.
    """
    z = np.exp(-np.abs(eta))
    return np.maximum(eta, 0.0) + np.log1p(z), np.where(eta >= 0.0, 1.0, z) / (1.0 + z)


def _q1_scale(sigma: float):
    """Integration scale for the scalar random effect, and its derivatives.

    The substitution u = s t with s = min(sigma, 1) keeps the inner
    problem conditioned at both extremes: for small sigma the prior
    curvature is exactly one, for huge sigma the gradient is evaluated
    at unit scale instead of being amplified by sigma.  ``ratio`` is
    (s/sigma)^2, the prior curvature in the t scale.  Returns (s, ratio,
    d log s / d psi, d ratio / d psi) with psi = log sigma: the
    derivatives are (1, 0) for sigma <= 1 and (0, -2 ratio) above.
    """
    if sigma <= 1.0:
        return sigma, 1.0, 1.0, 0.0
    ratio = np.exp(-2.0 * np.log(sigma))
    return 1.0, ratio, 0.0, -2.0 * ratio


def _damped_newton(g_all, score_curvature, newton_step, zero: np.ndarray, v0=None):
    """Maximize every cluster's exponent at once by damped Newton.

    ``g_all(v)`` gives the exponents, ``score_curvature(v)`` their
    gradients, negative Hessians and per-cluster gradient norms, and
    ``newton_step(grad, curvature, lam)`` the step for Levenberg damping
    ``lam``; the first axis of every array runs over clusters.  A warm
    start ``v0`` (``zero`` when None) from a parameter point at a very
    different scale can be worse than a cold start, so each cluster
    starts from whichever of ``v0`` and ``zero`` is better.  Each cluster
    keeps its own damping factor and stops on its own: once its gradient
    norm is below ``MODE_GRAD_TOL_V``, or once no damped step increases
    its exponent (it is then stalled at machine precision).  Returns
    (v_hat, g(v_hat), curvature).
    """
    v = np.array(zero if v0 is None else v0, dtype=float)
    g = g_all(v)
    g0 = g_all(zero)
    worse = ~(g >= g0)
    v[worse] = 0.0
    g[worse] = g0[worse]
    lam = np.zeros(g.shape)
    stalled = np.zeros(g.shape, dtype=bool)
    for _ in range(MODE_MAX_ITER):
        grad, curvature, grad_norm = score_curvature(v)
        pending = ~stalled & (grad_norm >= MODE_GRAD_TOL_V)
        if not pending.any():
            break
        for _ in range(60):
            step = newton_step(grad, curvature, lam)
            step[~pending] = 0.0
            cand = v + step
            g_cand = g_all(cand)
            ok = pending & (g_cand >= g - 1e-12 * (1.0 + np.abs(g)))
            v[ok] = cand[ok]
            g[ok] = g_cand[ok]
            lam = np.where(ok, np.where(lam > 1e-12, lam / 10.0, 0.0), lam)
            pending &= ~ok
            if not pending.any():
                break
            lam = np.where(pending, np.maximum(lam * 10.0, 1e-4), lam)
        stalled |= pending
    else:
        grad, curvature, grad_norm = score_curvature(v)
    if grad_norm.max() < MODE_GRAD_ESCAPE:
        return v, g, curvature
    raise ModeFindingError(
        f"cluster modes stopped at gradient norm {grad_norm.max():.3g} (target "
        f"{MODE_GRAD_TOL_V}), with {int(stalled.sum())} of {stalled.size} clusters stalled"
    )


def _modes_q1(data: ClusteredDataset, xb: np.ndarray, sigma: float, v0=None):
    """All cluster modes at once for q = 1, in the t = u / min(sigma, 1) scale.

    Maximizes gt_i(t) = condloglik(xb + s z t) - ratio t^2 / 2 per
    cluster by ``_damped_newton``, whose step is the scalar Newton step
    clipped to ``MODE_MAX_STEP``.  Returns (t_hat, gt(t_hat), curvature)
    with curvature = s^2 Z'WZ + ratio per cluster.
    """
    offs = data.row_offsets
    idx = data.row_cluster
    y = data.y
    s, ratio = _q1_scale(sigma)[:2]
    sz = s * data.Z[:, 0]

    def g_all(v_vec):
        eta = xb + sz * v_vec[idx]
        return _segsum(y * eta - np.logaddexp(0.0, eta), offs) - 0.5 * ratio * v_vec**2

    def score_curvature(v_vec):
        mu = expit(xb + sz * v_vec[idx])
        grad = _segsum(sz * (y - mu), offs) - ratio * v_vec
        hess = _segsum(sz * sz * mu * (1.0 - mu), offs) + ratio
        return grad, hess, np.abs(grad)

    def newton_step(grad, hess, lam):  # np.clip costs twice this on k-vectors
        return np.minimum(np.maximum(grad / (hess + lam), -MODE_MAX_STEP), MODE_MAX_STEP)

    return _damped_newton(g_all, score_curvature, newton_step, np.zeros(data.k), v0)


def _modes_general(data: ClusteredDataset, xb: np.ndarray, A: np.ndarray, v0=None):
    """All cluster modes at once for any q, in the standardized scale.

    Maximizes gt_i(v) = condloglik(xb + A v) - ||v||^2/2 per cluster,
    with A = Z L row by row, by ``_damped_newton`` on the stacked (k, q)
    iterates, whose step is a batched solve with its norm capped at
    ``MODE_MAX_STEP``.  The curvature A'WA + I is at least the identity,
    so the solve stays well-conditioned for any covariance, including
    nearly singular ones.  Returns (v_hat, gt(v_hat), curvature) of
    shapes (k, q), (k,) and (k, q, q).
    """
    offs = data.row_offsets
    idx = data.row_cluster
    y = data.y
    k, q = data.k, A.shape[1]
    eye = np.eye(q)
    AA = A[:, :, None] * A[:, None, :]

    def eta_of(v):
        return xb + np.einsum("rj,rj->r", A, v[idx])

    def g_all(v):
        eta = eta_of(v)
        return _segsum(y * eta - np.logaddexp(0.0, eta), offs) - 0.5 * np.einsum("ij,ij->i", v, v)

    def score_curvature(v):
        mu = expit(eta_of(v))
        grad = _segsum(A * (y - mu)[:, None], offs) - v
        H = _segsum((mu * (1.0 - mu))[:, None, None] * AA, offs) + eye
        return grad, H, np.linalg.norm(grad, axis=1)

    def newton_step(grad, H, lam):
        step = np.linalg.solve(H + lam[:, None, None] * eye, grad[:, :, None])[:, :, 0]
        norm = np.linalg.norm(step, axis=1)
        return step * (MODE_MAX_STEP / np.maximum(norm, MODE_MAX_STEP))[:, None]

    return _damped_newton(g_all, score_curvature, newton_step, np.zeros((k, q)), v0)


# ---------------------------------------------------------------------------
# q = 1: adaptive Gauss-Hermite quadrature, and Laplace as its one-node case
# ---------------------------------------------------------------------------


def _q1_logprobs(data: ClusteredDataset, theta: Theta, rule, warm=None, grad=False):
    """Per-cluster log masses for q = 1, and with ``grad`` their summed gradient.

    ``rule`` is the adaptive quadrature rule.  The Laplace value
    g(t_hat) - 1/2 log hess is computed as the one-node rule, whose only
    node sits at the mode.  Returns (logprobs, t_hat, gradient or None).
    """
    psi = float(theta.psi[0])
    sigma = float(np.exp(psi))
    s, ratio, dlog_s, dratio = _q1_scale(sigma)
    xb = data.X @ theta.beta
    t, g_mode, hess = _modes_q1(data, xb, sigma, warm)
    log_tau = -0.5 * np.log(hess)
    tau = np.exp(log_tau)

    offs = data.row_offsets
    idx = data.row_cluster
    y = data.y
    sz = s * data.Z[:, 0]
    szt = sz * t[idx]
    base = xb + szt
    x = rule.nodes
    logw = np.log(rule.weights)
    scale = sz * (np.sqrt(2.0) * tau)[idx]
    eta = base[:, None] + scale[:, None] * x[None, :]
    softplus, mu_nodes = _softplus_logistic(eta)
    cond = _segsum(y[:, None] * eta - softplus, offs)
    nodes = t[:, None] + (np.sqrt(2.0) * tau)[:, None] * x[None, :]
    g_nodes = cond - 0.5 * ratio * nodes**2
    log_terms = logw[None, :] + x[None, :] ** 2 + (g_nodes - g_mode[:, None])
    peak = log_terms.max(axis=1)
    terms = np.exp(log_terms - peak[:, None])
    total = terms.sum(axis=1)
    log_int_rel = peak + np.log(total)
    log_s_over_sigma = (dlog_s - 1.0) * psi  # log s = dlog_s psi on both sides of sigma = 1
    logprobs = g_mode + log_tau + log_int_rel + log_s_over_sigma - 0.5 * np.log(np.pi)
    post = terms / total[:, None]
    if not grad:
        return logprobs, t, None

    # At the mode: d eta / d theta at fixed t (columns beta, then psi),
    # the mode's derivative by the implicit-function theorem, and that
    # of log tau = -1/2 log hess, with hess = s^2 Z'WZ + ratio.
    p = data.p
    mu = expit(base)
    w = mu * (1.0 - mu)
    E = np.empty((data.n, p + 1))
    E[:, :p] = data.X
    E[:, p] = dlog_s * szt
    C = -_segsum((sz * w)[:, None] * E, offs)
    C[:, p] += dlog_s * _segsum(sz * (y - mu), offs) - dratio * t
    dt = C / hess[:, None]
    dhess = _segsum((sz * sz * w * (1.0 - 2.0 * mu))[:, None] * (E + sz[:, None] * dt[idx]), offs)
    dhess[:, p] += 2.0 * dlog_s * (hess - ratio) + dratio
    dlog_tau = -0.5 * dhess / hess[:, None]

    # At the nodes t_m = t_hat + sqrt(2) tau x_m, weighted by each node's
    # share ``post`` of the cluster's integral.
    resid = y[:, None] - mu_nodes
    dcond = _segsum(sz[:, None] * resid, offs)
    slope = dcond - ratio * nodes
    gradient = np.empty(p + 1)
    gradient[:p] = data.X.T @ (post[idx] * resid).sum(axis=1)
    dg_psi = nodes * (dlog_s * dcond - 0.5 * dratio * nodes)  # at fixed t
    gradient[p] = np.sum(post * dg_psi) + data.k * (dlog_s - 1.0)
    c = np.sum(post * slope, axis=1)
    e = np.sqrt(2.0) * tau * np.sum(post * slope * x[None, :], axis=1)
    gradient += c @ dt + (1.0 + e) @ dlog_tau
    return logprobs, t, gradient


# ---------------------------------------------------------------------------
# Laplace approximation, q >= 2
# ---------------------------------------------------------------------------


def _laplace_general(data: ClusteredDataset, theta: Theta, warm=None, grad=False):
    """Per-cluster Laplace log masses for q >= 2, and with ``grad`` their summed gradient.

    Returns (logprobs, v_hat, gradient or None).
    """
    L = psi_to_chol(theta.psi, theta.q)
    A = data.Z @ L
    xb = data.X @ theta.beta
    v, g, H = _modes_general(data, xb, A, warm)
    # log det(Z'WZ + Sigma^{-1}) + log det(Sigma) telescopes to
    # log det(A'WA + I), so the -k/2 log det Sigma term is already
    # absorbed here.
    half_logdet = np.log(np.diagonal(np.linalg.cholesky(H), axis1=1, axis2=2)).sum(axis=1)
    logprobs = g - half_logdet
    if not grad:
        return logprobs, v, None

    offs = data.row_offsets
    idx = data.row_cluster
    p = data.p
    v_rows = v[idx]
    mu = expit(xb + np.einsum("rj,rj->r", A, v_rows))
    w = mu * (1.0 - mu)
    resid = data.y - mu
    # dA[k, r] = d a_r / d psi_k; E = d eta / d theta at fixed v.
    dA = data.Z @ chol_jacobian(theta.psi, theta.q)
    E = np.concatenate([data.X, np.einsum("krb,rb->rk", dA, v_rows)], axis=1)
    # d v_hat / d theta = H^{-1} d(score) / d theta (implicit-function theorem).
    C = -_segsum(A[:, :, None] * (w[:, None] * E)[:, None, :], offs)
    C[:, :, p:] += _segsum(dA.transpose(1, 2, 0) * resid[:, None, None], offs)
    H_inv = np.linalg.inv(H)
    deta = E + np.einsum("rb,rbd->rd", A, (H_inv @ C)[idx])
    B = np.einsum("rab,rb->ra", H_inv[idx], A)
    leverage = np.einsum("ra,ra->r", A, B)
    # g at the mode (envelope theorem), less 1/2 tr(H^{-1} dH / d theta).
    gradient = E.T @ resid - 0.5 * (deta.T @ (w * (1.0 - 2.0 * mu) * leverage))
    gradient[p:] -= np.einsum("krb,rb->k", dA, w[:, None] * B)
    return logprobs, v, gradient


class LoglikEvaluator:
    """The approximate log-likelihood of one dataset, with warm-started modes.

    This is the one way to evaluate the approximation: per-cluster log
    masses, their sum, or the sum with its exact gradient.  A fresh
    evaluator solves its first modes from zero.  The dominant cost of an
    objective evaluation is the inner Newton solve for the cluster modes;
    consecutive evaluations during an optimization differ by small
    parameter steps, so the previous modes are excellent starting points.
    The evaluator is not thread safe, but distinct instances may run
    concurrently.

    ``approx`` is "agq" (q = 1 only, with its quadrature ``rule``) or
    "laplace"; ``FitOptions.evaluator`` chooses both from fit options.
    At q = 1 the Laplace value is computed as the one-node rule, which
    the evaluator then holds as its ``rule``.
    """

    def __init__(
        self,
        data: ClusteredDataset,
        approx: str,
        rule: QuadratureRule | None = None,
    ):
        if approx not in ("agq", "laplace"):
            raise ValueError(f"unknown approximation '{approx}'")
        if approx == "agq" and data.q != 1:
            raise ValueError(f"adaptive quadrature supports q = 1 only, got q = {data.q}")
        if approx == "agq" and rule is None:
            raise ValueError("adaptive quadrature needs a quadrature rule")
        if approx == "laplace":
            rule = gauss_hermite_rule(1) if data.q == 1 else None
        self.data = data
        self.approx = approx
        self.rule = rule
        self._warm = None

    def _evaluate(self, theta: Theta, grad: bool):
        if self.data.q == 1:
            out = _q1_logprobs(self.data, theta, self.rule, self._warm, grad)
        else:
            out = _laplace_general(self.data, theta, self._warm, grad)
        logprobs, self._warm, gradient = out
        return logprobs, gradient

    def cluster_logprobs(self, theta: Theta) -> np.ndarray:
        """Per-cluster log probability masses, each in (-inf, 0]; their sum is ``loglik``."""
        return self._evaluate(theta, False)[0]

    def loglik(self, theta: Theta) -> float:
        return float(self.cluster_logprobs(theta).sum())

    def value_and_grad(self, theta: Theta) -> tuple[float, np.ndarray]:
        """The approximate log-likelihood and its exact gradient in theta.

        One mode solve gives both; the value equals ``loglik(theta)``
        from the same warm state.  A non-finite gradient raises
        ``ModeFindingError``.
        """
        logprobs, gradient = self._evaluate(theta, True)
        if not np.isfinite(gradient).all():
            raise ModeFindingError(f"non-finite log-likelihood gradient {gradient}")
        return float(logprobs.sum()), gradient
