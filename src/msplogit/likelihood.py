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
(``_damped_newton``).  Each scale gives it only its own state (exponent,
score, curvature and gradient norm, from one pass over the rows) and
Newton step: a clipped scalar step at q = 1, a batched solve with a
capped norm at q >= 2.  Each cluster stops on its own, once converged
or once stalled at machine precision.

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
  ``psi_to_chol`` and ``psi_entries`` serve the q >= 2 routine.  The
  Laplace value at q = 1 is the one-node case (x = 0, pi = 1): it runs
  through this routine with the one-node rule.

``LoglikEvaluator.hessian`` gives the exact Hessian at q = 1 from the
same mode solve and nodes.  In the u = s t scale psi enters only
through the prior precision e^{-2 psi}.  With kappa = log(s tau), the
nodes r_m = r_hat + sqrt(2) x_m e^kappa and l_m = log w_m + x_m^2 +
g(r_m),

    log p_i = kappa - psi + log sum_m exp(l_m) - 1/2 log pi,
    d2 log p_i / dtheta2 = d2 kappa / dtheta2 + sum_m pi_m d2 l_m / dtheta2
                           + Cov_pi(d l_m / dtheta).

d2 r_hat / dtheta2 comes from differentiating the mode equation twice,
and d2 kappa / dtheta2 from the curvature h = -g'' at the mode, with
the logistic's closed forms -g''' = sum_j w_j (1 - 2 mu_j) z_j^3 and
-g'''' = sum_j w_j (1 - 6 w_j) z_j^4.  The code writes every u-scale
derivative in t units (divided by s), so that no term overflows as
sigma goes to 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ClusteredDataset, Theta, expit, psi_entries, psi_to_chol

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
    """Gauss-Hermite rule with Q nodes, from ``numpy.polynomial.hermite.hermgauss``.

    numpy takes the nodes from the eigenvalues of the symmetric companion
    matrix, refines them by one Newton step, and makes nodes and weights
    exactly symmetric about zero.  Each rule is built once per Q and the
    same object is returned to every caller, so its arrays are read-only.
    """
    # Imported here: at module level it would add to every ``import msplogit``.
    from numpy.polynomial.hermite import hermgauss

    if not (1 <= operator.index(Q) <= MAX_QUADRATURE):
        raise ValueError(f"quadrature size must be in [1, {MAX_QUADRATURE}], got {Q}")
    nodes, weights = hermgauss(Q)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes, weights)


# ---------------------------------------------------------------------------
# Inner solvers in the standardized scale u = L v
# ---------------------------------------------------------------------------


def _segsum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    return np.add.reduceat(values, offsets[:-1], axis=0)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer products over the last axis, batched over the leading ones."""
    return a[..., :, None] * b[..., None, :]


def _softplus_logistic(eta: np.ndarray):
    """log(1 + e^eta) and 1 / (1 + e^-eta) from one exponential.

    Both are taken from z = e^-|eta| <= 1, so neither can overflow.
    """
    z = np.exp(-np.abs(eta))
    return np.maximum(eta, 0.0) + np.log1p(z), np.where(eta >= 0.0, 1.0, z) / (1.0 + z)


def _exponent_at_zero(data: ClusteredDataset, xb: np.ndarray) -> np.ndarray:
    """Each cluster's exponent at v = 0, bit for bit as the scales' ``state`` gives it."""
    return _segsum(data.y * xb - _softplus_logistic(xb)[0], data.row_offsets)


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


def _damped_newton(state, newton_step, v0: np.ndarray, g_zero: np.ndarray):
    """Maximize every cluster's exponent at once by damped Newton.

    ``state(v)`` gives, from one pass over the rows, the exponents, their
    gradients, negative Hessians and per-cluster gradient norms, and
    ``newton_step(grad, curvature, lam)`` the step for Levenberg damping
    ``lam``; the first axis of every array runs over clusters.  A start
    ``v0`` from a parameter point at a very different scale can be worse
    than v = 0, whose exponents are ``g_zero``, so each cluster starts
    from whichever of the two is better.  Each cluster keeps its own
    damping factor and stops on its own: once its gradient norm is below
    ``MODE_GRAD_TOL_V``, or once no damped step increases its exponent
    (it is then stalled at machine precision).  Each candidate costs one
    ``state`` call.  Returns (v_hat, g(v_hat), curvature).
    """
    v = np.array(v0, dtype=float)
    g, grad, curvature, grad_norm = state(v)
    worse = ~(g >= g_zero)
    if worse.any():
        v[worse] = 0.0
        g, grad, curvature, grad_norm = state(v)
    lam = np.zeros(g.shape)
    stalled = np.zeros(g.shape, dtype=bool)
    for _ in range(MODE_MAX_ITER):
        pending = ~stalled & (grad_norm >= MODE_GRAD_TOL_V)
        if not pending.any():
            break
        for _ in range(60):
            step = newton_step(grad, curvature, lam)
            step[~pending] = 0.0
            cand = v + step
            new = state(cand)
            ok = pending & (new[0] >= g - 1e-12 * (1.0 + np.abs(g)))
            if np.array_equal(ok, pending):  # clusters not pending did not move
                v, (g, grad, curvature, grad_norm) = cand, new
            else:
                for kept, moved in zip((v, g, grad, curvature, grad_norm), (cand, *new)):
                    kept[ok] = moved[ok]
            if lam.any():
                lam = np.where(ok, np.where(lam > 1e-12, lam / 10.0, 0.0), lam)
            pending &= ~ok
            if not pending.any():
                break
            lam = np.where(pending, np.maximum(lam * 10.0, 1e-4), lam)
        stalled |= pending
    if grad_norm.max() < MODE_GRAD_ESCAPE:
        return v, g, curvature
    raise ModeFindingError(
        f"cluster modes stopped at gradient norm {grad_norm.max():.3g} (target "
        f"{MODE_GRAD_TOL_V}), with {int(stalled.sum())} of {stalled.size} clusters stalled"
    )


def _modes_q1(data: ClusteredDataset, xb: np.ndarray, sigma: float, v0=None):
    """All cluster modes at once for q = 1, in the t = u / min(sigma, 1) scale.

    Maximizes gt_i(t) = condloglik(xb + s z t) - ratio t^2 / 2 per
    cluster by ``_damped_newton``, from ``v0`` (zero when None), with the
    scalar Newton step clipped to ``MODE_MAX_STEP``.  Returns (t_hat,
    gt(t_hat), curvature) with curvature = s^2 Z'WZ + ratio per cluster.
    """
    offs = data.row_offsets
    idx = data.row_cluster
    y = data.y
    s, ratio = _q1_scale(sigma)[:2]
    sz = s * data.Z[:, 0]

    def state(v_vec):
        eta = xb + sz * v_vec[idx]
        softplus, mu = _softplus_logistic(eta)
        g = _segsum(y * eta - softplus, offs) - 0.5 * ratio * v_vec**2
        grad = _segsum(sz * (y - mu), offs) - ratio * v_vec
        hess = _segsum(sz * sz * mu * (1.0 - mu), offs) + ratio
        return g, grad, hess, np.abs(grad)

    def newton_step(grad, hess, lam):  # np.clip costs twice this on k-vectors
        return np.minimum(np.maximum(grad / (hess + lam), -MODE_MAX_STEP), MODE_MAX_STEP)

    start = np.zeros(data.k) if v0 is None else v0
    return _damped_newton(state, newton_step, start, _exponent_at_zero(data, xb))


def _modes_general(data: ClusteredDataset, xb: np.ndarray, A: np.ndarray, v0=None):
    """All cluster modes at once for any q, in the standardized scale.

    Maximizes gt_i(v) = condloglik(xb + A v) - ||v||^2/2 per cluster,
    with A = Z L row by row, by ``_damped_newton`` on the stacked (k, q)
    iterates from ``v0`` (zero when None), whose step is a batched solve
    with its norm capped at ``MODE_MAX_STEP``.  The curvature A'WA + I is
    at least the identity, so the solve stays well-conditioned for any
    covariance, including nearly singular ones.  Returns (v_hat,
    gt(v_hat), curvature) of shapes (k, q), (k,) and (k, q, q).
    """
    offs = data.row_offsets
    idx = data.row_cluster
    y = data.y
    k, q = data.k, A.shape[1]
    eye = np.eye(q)
    first, second = np.divmod(np.arange(q * q), q)
    AA = A[:, first] * A[:, second]  # row r holds a_r a_r' flattened

    def state(v):
        eta = xb + np.vecdot(A, v.take(idx, axis=0))
        softplus, mu = _softplus_logistic(eta)
        g = _segsum(y * eta - softplus, offs) - 0.5 * np.vecdot(v, v)
        grad = _segsum(A * (y - mu)[:, None], offs) - v
        H = _segsum((mu * (1.0 - mu))[:, None] * AA, offs).reshape(k, q, q) + eye
        return g, grad, H, np.sqrt(np.vecdot(grad, grad))

    def newton_step(grad, H, lam):
        step = np.linalg.solve(H + lam[:, None, None] * eye, grad[:, :, None])[:, :, 0]
        norm = np.sqrt(np.vecdot(step, step))
        return step * (MODE_MAX_STEP / np.maximum(norm, MODE_MAX_STEP))[:, None]

    start = np.zeros((k, q)) if v0 is None else v0
    return _damped_newton(state, newton_step, start, _exponent_at_zero(data, xb))


# ---------------------------------------------------------------------------
# q = 1: adaptive Gauss-Hermite quadrature, and Laplace as its one-node case
# ---------------------------------------------------------------------------


def _q1_logprobs(data: ClusteredDataset, theta: Theta, rule, warm=None, grad=False, hessian=False):
    """Per-cluster log masses for q = 1, and with ``grad`` their summed gradient.

    ``rule`` is the adaptive quadrature rule.  The Laplace value
    g(t_hat) - 1/2 log hess is computed as the one-node rule, whose only
    node sits at the mode, solved for from ``warm``.  Returns (logprobs,
    t_hat, gradient, d t_hat / d theta), the last two None without ``grad``;
    ``hessian`` implies ``grad`` and appends the summed Hessian.
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
        return logprobs, t, None, None

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
    deta = E + sz[:, None] * dt[idx]  # d eta / d theta at the moving mode
    dhess = _segsum((sz * sz * w * (1.0 - 2.0 * mu))[:, None] * deta, offs)
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
    if not hessian:
        return logprobs, t, gradient, dt

    # The Hessian in the u = s t scale, written in t units (module
    # docstring): V and W are the first and second derivatives of u / s,
    # and kappa = log(s tau).  First the mode's W, from the mode equation
    # differentiated twice, and the curvature's second derivative; the
    # node terms slope_m W_m sum under the shares to c W + e (d2 kappa +
    # dkappa dkappa').
    last = np.eye(p + 1)[p]
    v_mode = dt + _outer(dlog_s * t, last)
    dkappa = dlog_tau + dlog_s * last
    deta2 = _outer(deta, deta)
    skew = w * (1.0 - 2.0 * mu)
    prior = v_mode - _outer(t, last)
    w_mode = 2.0 * ratio * (_outer(last, prior) + _outer(prior, last))
    w_mode = (w_mode - _segsum((sz * skew)[:, None, None] * deta2, offs)) / hess[:, None, None]
    d2hess = _segsum((sz * sz * w * (1.0 - 6.0 * w))[:, None, None] * deta2, offs)
    d2hess += _segsum(sz**3 * skew, offs)[:, None, None] * w_mode
    d2hess[:, p, p] += 4.0 * ratio
    dkappa2 = _outer(dkappa, dkappa)
    d2kappa = 2.0 * dkappa2 - 0.5 * d2hess / hess[:, None, None]
    H = np.sum((1.0 + e)[:, None, None] * d2kappa + e[:, None, None] * dkappa2
               + c[:, None, None] * w_mode, axis=0)

    # Then the nodes, with V as (k, d, Q): the node curvatures, each
    # -sum_j w_jm D_jm D_jm' + prior with D_jm = (x_j, 0) + s z_j V_m,
    # and the covariance of the node scores, under the shares ``post``.
    shift = (np.sqrt(2.0) * tau)[:, None] * x[None, :]
    v_nodes = v_mode[:, :, None] + dkappa[:, :, None] * shift[:, None, :]
    score = slope[:, None, :] * v_nodes
    node_x = (data.X[:, :, None] * resid[:, None, :]).reshape(data.n, -1)  # (n, p Q): reduceat is
    score[:, :p] += _segsum(node_x, offs).reshape(-1, p, x.size)  # faster on two axes than three
    score[:, p] += ratio * nodes**2
    mean_score = np.sum(post[:, None, :] * score, axis=2, keepdims=True)
    spread = np.sqrt(post)[:, None, :] * (score - mean_score)
    pw = post[idx] * mu_nodes * (1.0 - mu_nodes)
    curv = _segsum(sz[:, None] ** 2 * pw, offs) + ratio * post
    cross = (data.X * (sz * pw.sum(axis=1))[:, None]).T @ v_mode[idx]
    cross += (data.X * (scale * (pw @ x))[:, None]).T @ dkappa[idx]
    tv = np.tensordot(post * nodes, v_nodes, ([0, 1], [0, 2]))
    H += np.tensordot(spread, spread, ([0, 2], [0, 2]))
    H -= np.tensordot(curv[:, None, :] * v_nodes, v_nodes, ([0, 2], [0, 2]))
    H += 2.0 * ratio * (_outer(last, tv) + _outer(tv, last))
    H[p, p] -= 2.0 * ratio * np.sum(post * nodes**2)
    H[:p] -= cross
    H[:, :p] -= cross.T
    H[:p, :p] -= (data.X * pw.sum(axis=1)[:, None]).T @ data.X
    return logprobs, t, gradient, dt, 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# Laplace approximation, q >= 2
# ---------------------------------------------------------------------------


def _laplace_general(data: ClusteredDataset, theta: Theta, warm=None, grad=False):
    """Per-cluster Laplace log masses for q >= 2, and with ``grad`` their summed gradient.

    The modes are solved for from ``warm``.  Returns (logprobs, v_hat,
    gradient, d v_hat / d theta), the last two None without ``grad``.
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
        return logprobs, v, None, None

    offs = data.row_offsets
    idx = data.row_cluster
    p = data.p
    v_rows = v.take(idx, axis=0)
    mu = expit(xb + np.vecdot(A, v_rows))
    w = mu * (1.0 - mu)
    resid = data.y - mu
    # psi_j moves only L[rows[j], cols[j]], at rate L's diagonal entry or
    # one, so d a_r / d psi_j is dZ[r, j] in column cols[j] and zero
    # elsewhere.  E = d eta / d theta at fixed v.
    rows, cols = psi_entries(theta.q)
    dZ = data.Z[:, rows] * np.where(rows == cols, L[rows, cols], 1.0)
    psi_cols = np.arange(p, p + rows.size)
    E = np.concatenate([data.X, dZ * v_rows[:, cols]], axis=1)
    # d v_hat / d theta = H^{-1} d(score) / d theta (implicit-function theorem).
    C = -_segsum(A[:, :, None] * (w[:, None] * E)[:, None, :], offs)
    C[:, cols, psi_cols] += _segsum(dZ * resid[:, None], offs)
    H_inv = np.linalg.inv(H)
    dv = H_inv @ C
    B = np.matvec(H_inv.take(idx, axis=0), A)
    # g at the mode (envelope theorem), less 1/2 tr(H^{-1} dH / d theta),
    # whose d eta / d theta at the moving mode is E + A dv.
    curv_rate = w * (1.0 - 2.0 * mu) * np.vecdot(A, B)
    gradient = E.T @ (resid - 0.5 * curv_rate)
    gradient -= 0.5 * np.vecmat(_segsum(curv_rate[:, None] * A, offs), dv).sum(axis=0)
    gradient[psi_cols] -= np.vecdot(dZ, (w[:, None] * B)[:, cols], axis=0)
    return logprobs, v, gradient, dv


class LoglikEvaluator:
    """The approximate log-likelihood of one dataset, with predicted warm starts.

    This is the one way to evaluate the approximation: per-cluster log
    masses, their sum, or the sum with its exact gradient.  A fresh
    evaluator solves its first modes from zero.  The dominant cost of an
    objective evaluation is the inner Newton solve for the cluster modes;
    consecutive evaluations during an optimization differ by small
    parameter steps, so the previous modes are excellent starting points.
    A gradient call starts from the last gradient call's modes moved
    along their derivative, v_hat + (d v_hat / d theta)(theta' - theta),
    which is O(|theta' - theta|^2) from its own (predictor-corrector
    continuation: Allgower & Georg, Introduction to Numerical
    Continuation Methods, SIAM 2003, ch. 2).  A call at exactly the last
    theta returns the stored, read-only results without solving.  The
    evaluator is not thread safe, but distinct instances may run
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
        # The last solve: its theta, modes, results, and the modes'
        # derivative in theta when it was a gradient call.
        self._theta = None
        self._modes = None
        self._logprobs = None
        self._gradient = None
        self._tangent = None

    def _start(self, x: np.ndarray):
        """The start of a gradient call's mode solve at theta = ``x``."""
        if self._tangent is None:
            return self._modes
        if self.data.q == 1:
            # The t scale of _q1_scale switches at sigma = 1, where the
            # tangent is one-sided; across that point the prediction goes.
            sides = [_q1_scale(float(np.exp(psi)))[2] for psi in (x[-1], self._theta[-1])]
            if sides[0] != sides[1]:
                return self._modes
        return self._modes + self._tangent @ (x - self._theta)

    def _evaluate(self, theta: Theta, grad: bool):
        x = theta.as_vector()
        if np.array_equal(x, self._theta) and (self._gradient is not None or not grad):
            return self._logprobs, self._gradient
        warm = self._start(x) if grad else self._modes
        if self.data.q == 1:
            out = _q1_logprobs(self.data, theta, self.rule, warm, grad)
        else:
            out = _laplace_general(self.data, theta, warm, grad)
        for result in out:
            if result is not None:
                result.setflags(write=False)
        self._logprobs, self._modes, self._gradient, self._tangent = out
        self._theta = x
        return self._logprobs, self._gradient

    def cluster_logprobs(self, theta: Theta) -> np.ndarray:
        """Per-cluster log probability masses, each in (-inf, 0]; their sum is ``loglik``."""
        return self._evaluate(theta, False)[0]

    def loglik(self, theta: Theta) -> float:
        return float(self.cluster_logprobs(theta).sum())

    def value_and_grad(self, theta: Theta) -> tuple[float, np.ndarray]:
        """The approximate log-likelihood and its exact, read-only gradient in theta.

        One mode solve gives both; the value equals ``loglik(theta)``
        from the same warm state.  A non-finite gradient raises
        ``ModeFindingError``.
        """
        logprobs, gradient = self._evaluate(theta, True)
        if not np.isfinite(gradient).all():
            raise ModeFindingError(f"non-finite log-likelihood gradient {gradient}")
        return float(logprobs.sum()), gradient

    def hessian(self, theta: Theta) -> np.ndarray:
        """The exact Hessian in theta of the approximate log-likelihood, at q = 1.

        One mode solve, started as a gradient call's, gives it with the
        gradient's node stage; the evaluator stores nothing of it.  A
        non-finite Hessian raises ``ModeFindingError``.
        """
        if self.data.q != 1:
            raise ValueError(f"the exact Hessian supports q = 1 only, got q = {self.data.q}")
        start = self._start(theta.as_vector())
        H = _q1_logprobs(self.data, theta, self.rule, start, grad=True, hessian=True)[4]
        if not np.isfinite(H).all():
            raise ModeFindingError(f"non-finite log-likelihood Hessian {H}")
        return H
