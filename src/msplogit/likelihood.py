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
capped norm at q >= 2.  The loop owns the damping, a step fraction
of 4^-r after r rejected candidates in a row, and each cluster stops on
its own, once converged or once stalled at machine precision.

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
* Adaptive quadrature, q = 1, in the u = s t scale with s = min(sigma,
  1), where psi enters g only through the prior precision e^{-2 psi}.
  With tau = hess^{-1/2} in the t scale, kappa = log(s tau), the nodes
  r_m = r_hat + sqrt(2) x_m e^kappa and l_m = log w_m + x_m^2 + g(r_m),

      log p_i = kappa - psi + log sum_m exp(l_m) - 1/2 log pi,
      d log p_i / dtheta = d kappa / dtheta - e_psi + sum_m pi_m d l_m / dtheta,
      d2 log p_i / dtheta2 = d2 kappa / dtheta2 + sum_m pi_m d2 l_m / dtheta2
                             + Cov_pi(d l_m / dtheta),

  where pi_m is node m's share of the cluster's quadrature sum, e_psi
  the unit vector of psi, and d l_m / dtheta = dg/dtheta (r_m) + g'(r_m)
  (d r_hat / dtheta + sqrt(2) x_m e^kappa d kappa / dtheta).  The
  Laplace value at q = 1 is the one-node case (x = 0, pi = 1): it runs
  through this routine with the one-node rule.
  ``LoglikEvaluator.hessian`` gives the second derivative from the same
  mode solve and nodes.  There d2 r_hat / dtheta2 comes from
  differentiating the mode equation twice, and d2 kappa / dtheta2 from
  the curvature h = -g'' at the mode, with the logistic's closed forms
  -g''' = sum_j w_j (1 - 2 mu_j) z_j^3 and -g'''' = sum_j w_j (1 - 6
  w_j) z_j^4.  The modes are solved for in t, whose prior curvature is
  ratio = (s / sigma)^2 (``_q1_scale``), and the code writes every
  u-scale derivative in t units (divided by s), so that no term
  overflows as sigma goes to 0 or to infinity.
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
MODE_MAX_ITER = 200  # state passes per solve, each a candidate for every pending cluster
MODE_MAX_FAILS = 60  # rejected candidates in a row that stall a cluster at machine precision
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


def _q1_scale(psi: float):
    """Integration scale for the scalar random effect at psi = log sigma.

    The substitution u = s t with s = min(sigma, 1) keeps the inner
    problem conditioned at both extremes: for small sigma the prior
    curvature is exactly one, for huge sigma the gradient is evaluated
    at unit scale instead of being amplified by sigma.  Returns (s,
    ratio, log s), with ratio = (s / sigma)^2 the prior curvature in the
    t scale: (e^psi, 1, psi) for psi <= 0 and (1, e^{-2 psi}, 0) above.
    sigma itself is never formed, so neither end overflows.
    """
    if psi <= 0.0:
        return np.exp(psi), 1.0, psi
    return 1.0, np.exp(-2.0 * psi), 0.0


def _damped_newton(state, newton_step, v0: np.ndarray, g_zero: np.ndarray):
    """Maximize every cluster's exponent at once by damped Newton.

    ``state(v)`` gives, from one pass over the rows, the exponents, their
    gradients, negative Hessians and per-cluster gradient norms, and
    ``newton_step(grad, curvature)`` the Newton step; the first axis of
    every array runs over clusters.  A start ``v0`` from a parameter point
    at a very different scale can be worse than v = 0, whose exponents
    are ``g_zero``, so each cluster starts from whichever of the two is
    better.  Each exponent is strictly concave, so its Newton step
    ascends, and damping is a step fraction: in each pass, one ``state``
    call, a pending cluster's candidate is its step times 4^-r after r
    rejected candidates in a row (Boyd & Vandenberghe, Convex
    Optimization, 2004, sec. 9.5).  Each cluster stops on its own, once
    its gradient norm is below ``MODE_GRAD_TOL_V`` or once stalled by
    ``MODE_MAX_FAILS`` rejections.  Returns (v_hat, g(v_hat), curvature).
    """
    v = np.array(v0, dtype=float)
    g, grad, curvature, grad_norm = state(v)
    worse = ~(g >= g_zero)
    if worse.any():
        v[worse] = 0.0
        g, grad, curvature, grad_norm = state(v)
    fails = np.zeros(g.shape, dtype=int)
    for _ in range(MODE_MAX_ITER):
        pending = (fails < MODE_MAX_FAILS) & (grad_norm >= MODE_GRAD_TOL_V)
        if not pending.any():
            break
        step = newton_step(grad, curvature)
        step[~pending] = 0.0  # assigned, not masked: on a flat top a step is 0 / 0
        if fails.any():
            step = (step.T * 0.25**fails).T
        cand = v + step
        new = state(cand)
        ok = pending & (new[0] >= g - 1e-12 * (1.0 + np.abs(g)))
        if np.array_equal(ok, pending):  # clusters not pending did not move
            v, (g, grad, curvature, grad_norm) = cand, new
        else:
            for kept, moved in zip((v, g, grad, curvature, grad_norm), (cand, *new)):
                kept[ok] = moved[ok]
        fails = np.where(ok, 0, fails + pending)
    if grad_norm.max() < MODE_GRAD_ESCAPE:
        return v, g, curvature
    raise ModeFindingError(
        f"cluster modes stopped at gradient norm {grad_norm.max():.3g} (target {MODE_GRAD_TOL_V}), "
        f"with {np.sum(fails >= MODE_MAX_FAILS)} of {fails.size} clusters stalled"
    )


def _modes_q1(data: ClusteredDataset, xb: np.ndarray, psi: float, v0=None):
    """All cluster modes at once for q = 1, in the t = u / min(sigma, 1) scale.

    Maximizes gt_i(t) = condloglik(xb + s z t) - ratio t^2 / 2 per
    cluster by ``_damped_newton``, from ``v0`` (zero when None), with the
    scalar Newton step clipped to ``MODE_MAX_STEP``.  Returns (t_hat,
    gt(t_hat), curvature) with curvature = s^2 Z'WZ + ratio per cluster.
    """
    offs = data.row_offsets
    idx = data.row_cluster
    y = data.y
    s, ratio = _q1_scale(psi)[:2]
    sz = s * data.Z[:, 0]

    def state(v_vec):
        eta = xb + sz * v_vec[idx]
        softplus, mu = _softplus_logistic(eta)
        g = _segsum(y * eta - softplus, offs) - 0.5 * ratio * v_vec**2
        grad = _segsum(sz * (y - mu), offs) - ratio * v_vec
        hess = _segsum(sz * sz * mu * (1.0 - mu), offs) + ratio
        return g, grad, hess, np.abs(grad)

    def newton_step(grad, hess):  # np.clip costs twice this on k-vectors
        return np.minimum(np.maximum(grad / hess, -MODE_MAX_STEP), MODE_MAX_STEP)

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

    def newton_step(grad, H):
        step = np.linalg.solve(H, grad[:, :, None])[:, :, 0]
        norm = np.sqrt(np.vecdot(step, step))
        return step * (MODE_MAX_STEP / np.maximum(norm, MODE_MAX_STEP))[:, None]

    start = np.zeros((k, q)) if v0 is None else v0
    return _damped_newton(state, newton_step, start, _exponent_at_zero(data, xb))


# ---------------------------------------------------------------------------
# q = 1: adaptive Gauss-Hermite quadrature, and Laplace as its one-node case
# ---------------------------------------------------------------------------


def _q1_logprobs(data: ClusteredDataset, theta: Theta, rule, warm=None, hessian=False):
    """Per-cluster log masses for q = 1, with their summed gradient.

    ``rule`` is the adaptive quadrature rule.  The Laplace value
    g(t_hat) - 1/2 log hess is computed as the one-node rule, whose only
    node sits at the mode.  The modes are solved for from ``warm``, given
    in the u scale.  Returns (logprobs, u_hat, gradient, d u_hat / d
    theta); ``hessian`` appends the summed Hessian.
    """
    psi = float(theta.psi[0])
    s, ratio, log_s = _q1_scale(psi)
    xb = data.X @ theta.beta
    # Where s underflows to zero every u is zero and a warm start says nothing.
    t, g_mode, hess = _modes_q1(data, xb, psi, warm / s if warm is not None and s > 0.0 else None)
    log_tau = -0.5 * np.log(hess)
    tau = np.exp(log_tau)

    offs = data.row_offsets
    idx = data.row_cluster
    y = data.y
    sz = s * data.Z[:, 0]
    base = xb + sz * t[idx]
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
    logprobs = g_mode + log_tau + log_int_rel + (log_s - psi) - 0.5 * np.log(np.pi)
    post = terms / total[:, None]

    # At the mode, in the u = s t scale and t units (module docstring):
    # V = (d u_hat / d theta) / s by the implicit-function theorem, d eta
    # / d theta at the moving mode, and d kappa for kappa = log(s tau) =
    # -1/2 log(hess / s^2), with hess = s^2 Z'WZ + ratio.
    p = data.p
    mu = expit(base)
    w = mu * (1.0 - mu)
    v_mode = np.empty((data.k, p + 1))
    v_mode[:, :p] = -_segsum((sz * w)[:, None] * data.X, offs)
    v_mode[:, p] = 2.0 * ratio * t
    v_mode /= hess[:, None]
    deta = sz[:, None] * v_mode[idx]
    deta[:, :p] += data.X
    dkappa = -0.5 * _segsum((sz * sz * w * (1.0 - 2.0 * mu))[:, None] * deta, offs)
    dkappa[:, p] += ratio
    dkappa /= hess[:, None]

    # At the nodes t_m = t_hat + sqrt(2) tau x_m, weighted by each node's
    # share ``post`` of the cluster's integral; psi enters g at fixed u
    # only through the prior, at rate ratio t_m^2.
    resid = y[:, None] - mu_nodes
    slope = _segsum(sz[:, None] * resid, offs) - ratio * nodes
    gradient = np.empty(p + 1)
    gradient[:p] = data.X.T @ (post[idx] * resid).sum(axis=1)
    gradient[p] = ratio * np.sum(post * nodes**2) - data.k
    c = np.sum(post * slope, axis=1)
    e = np.sqrt(2.0) * tau * np.sum(post * slope * x[None, :], axis=1)
    gradient += c @ v_mode + (1.0 + e) @ dkappa
    out = logprobs, s * t, gradient, s * v_mode
    if not hessian:
        return out

    # The Hessian: W is the second derivative of u / s.  First the mode's
    # W, from the mode equation differentiated twice, and the curvature's
    # second derivative; the node terms slope_m W_m sum under the shares
    # to c W + e (d2 kappa + dkappa dkappa').
    last = np.eye(p + 1)[p]
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
    return *out, 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# Laplace approximation, q >= 2
# ---------------------------------------------------------------------------


def _laplace_general(data: ClusteredDataset, theta: Theta, warm=None):
    """Per-cluster Laplace log masses for q >= 2, with their summed gradient.

    The modes are solved for from ``warm``.  Returns (logprobs, v_hat,
    gradient, d v_hat / d theta).
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
    Every solve gives the value, the gradient and the modes' derivative
    in theta, so each call at a new theta starts from the last call's
    modes (u at q = 1, v at q >= 2) moved along that derivative, v_hat +
    (d v_hat / d theta)(theta' - theta), which is O(|theta' - theta|^2)
    from its own (predictor-corrector continuation: Allgower & Georg,
    Introduction to Numerical Continuation Methods, SIAM 2003, ch. 2).
    A call at exactly the last theta returns the stored, read-only
    results without solving.  The
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
        # derivative in theta.
        self._theta = None
        self._modes = None
        self._logprobs = None
        self._gradient = None
        self._tangent = None

    def _start(self, x: np.ndarray):
        """The start of the mode solve at theta = ``x``: the last modes moved along their tangent."""
        if self._modes is None:
            return None
        return self._modes + self._tangent @ (x - self._theta)

    def _evaluate(self, theta: Theta):
        x = theta.as_vector()
        if not np.array_equal(x, self._theta):
            if self.data.q == 1:
                out = _q1_logprobs(self.data, theta, self.rule, self._start(x))
            else:
                out = _laplace_general(self.data, theta, self._start(x))
            for result in out:
                result.setflags(write=False)
            self._logprobs, self._modes, self._gradient, self._tangent = out
            self._theta = x
        return self._logprobs, self._gradient

    def cluster_logprobs(self, theta: Theta) -> np.ndarray:
        """Per-cluster log probability masses, each in (-inf, 0]; their sum is ``loglik``."""
        return self._evaluate(theta)[0]

    def loglik(self, theta: Theta) -> float:
        return float(self.cluster_logprobs(theta).sum())

    def value_and_grad(self, theta: Theta) -> tuple[float, np.ndarray]:
        """The approximate log-likelihood and its exact, read-only gradient in theta.

        One mode solve gives both; the value equals ``loglik(theta)``
        from the same warm state.  A non-finite gradient raises
        ``ModeFindingError``.
        """
        logprobs, gradient = self._evaluate(theta)
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
        H = _q1_logprobs(self.data, theta, self.rule, start, hessian=True)[4]
        if not np.isfinite(H).all():
            raise ModeFindingError(f"non-finite log-likelihood Hessian {H}")
        return H
