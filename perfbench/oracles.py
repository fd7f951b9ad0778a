"""Reference numerics for the benchmark's correctness checks.

Nothing here calls into msplogit.  Each value is computed from its own
formulas, so a check compares the program with an independent
computation, not with itself.

Data are stacked arrays: responses ``y`` (n,), fixed-effects design
``X`` (n, p), random-effects design ``Z`` (n, q) and ``offsets``
(k + 1,), the row where each cluster starts plus n at the end.  The
variance parameters ``psi`` hold the logs of the Cholesky diagonal,
then the strictly lower entries column by column.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

# The q = 1 integral runs over the interval where the log integrand is
# within GRID_DROP nats of its maximum, on a uniform grid of at least
# GRID_MIN_NODES points and at least GRID_PER_SD points per narrowest
# local scale of the integrand.
GRID_DROP = 40.0
GRID_MIN_NODES = 101
GRID_PER_SD = 6.0
GRID_MAX_NODES = 20001


def chol_from_psi(psi: np.ndarray, q: int) -> np.ndarray:
    L = np.diag(np.exp(np.asarray(psi[:q], dtype=float)))
    pos = q
    for j in range(q):
        for i in range(j + 1, q):
            L[i, j] = psi[pos]
            pos += 1
    return L


def _segsum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    return np.add.reduceat(values, offsets[:-1], axis=0)


def _cluster_of_row(offsets: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(offsets.size - 1), np.diff(offsets))


def _q1_log_integrand(y, xb, z, offsets, rows, sigma, u):
    eta = xb + z * u[rows]
    return _segsum(y * eta - np.logaddexp(0.0, eta), offsets) - 0.5 * (u / sigma) ** 2


def q1_cluster_logprobs(y, X, Z, offsets, beta, psi) -> np.ndarray:
    """Exact per-cluster log marginal likelihood for a scalar random effect.

    Each cluster's integral of exp(g(u)), with g the Bernoulli
    log-likelihood minus u^2 / (2 sigma^2), is taken by the trapezoid
    rule over the interval where g is within GRID_DROP nats of its
    maximum, which holds all but a relative e^-40 of the mass.  The
    integrand is analytic and the step is at most a sixth of the
    narrowest local scale of the integrand, so the rule is accurate to rounding.
    """
    y, X, offsets = np.asarray(y, float), np.asarray(X, float), np.asarray(offsets)
    z = np.asarray(Z, float)[:, 0]
    sigma = float(np.exp(psi[0]))
    xb = X @ np.asarray(beta, float)
    rows = _cluster_of_row(offsets)
    k = offsets.size - 1

    # Damped Newton for the mode; g is strictly concave.
    u = np.zeros(k)
    g = _q1_log_integrand(y, xb, z, offsets, rows, sigma, u)
    for _ in range(200):
        mu = expit(xb + z * u[rows])
        grad = _segsum(z * (y - mu), offsets) - u / sigma**2
        curv = _segsum(z * z * mu * (1.0 - mu), offsets) + 1.0 / sigma**2
        if np.abs(grad).max() < 1e-12:
            break
        step = grad / curv
        for _ in range(60):
            cand = u + step
            g_cand = _q1_log_integrand(y, xb, z, offsets, rows, sigma, cand)
            ok = g_cand >= g - 1e-14 * np.abs(g)
            u = np.where(ok, cand, u)
            g = np.where(ok, g_cand, g)
            if ok.all():
                break
            step = np.where(ok, 0.0, step / 2.0)
    # Concavity makes g fall monotonically on each side of the mode; the
    # Bernoulli part is at most 0, so g(u) <= g(mode) - GRID_DROP once
    # |u| >= sigma sqrt(2 (GRID_DROP - g(mode))).  Bisect for the drop.
    far = np.abs(u) + sigma * np.sqrt(2.0 * (GRID_DROP - np.minimum(g, 0.0)))
    ends = []
    for side in (-1.0, 1.0):
        lo, hi = np.zeros(k), far.copy()
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            above = _q1_log_integrand(y, xb, z, offsets, rows, sigma, u + side * mid) > g - GRID_DROP
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        ends.append(u + side * hi)
    # mu (1 - mu) <= 1/4 bounds the curvature, and so the narrowest scale.
    curv_max = _segsum(z * z, offsets) / 4.0 + 1.0 / sigma**2
    width = ends[1] - ends[0]
    nodes = int(np.clip(np.ceil(GRID_PER_SD * (width * np.sqrt(curv_max)).max()),
                        GRID_MIN_NODES, GRID_MAX_NODES))
    t = np.linspace(0.0, 1.0, nodes)
    grid = ends[0][:, None] + width[:, None] * t[None, :]  # (k, nodes)
    eta = xb[:, None] + z[:, None] * grid[rows]
    log_f = _segsum(y[:, None] * eta - np.logaddexp(0.0, eta), offsets) - 0.5 * (grid / sigma) ** 2
    log_f -= g[:, None]
    trap = np.full(nodes, 1.0)
    trap[[0, -1]] = 0.5
    integral = np.log(np.exp(log_f) @ trap) + np.log(width * t[1]) + g
    return integral - 0.5 * np.log(2.0 * np.pi * sigma**2)


def laplace_cluster_logprobs(y, X, Z, offsets, beta, psi) -> np.ndarray:
    """Laplace approximation per cluster, for any q, in the u scale.

    log p_i = g(u_hat) - 1/2 log det(Z'WZ + Sigma^-1) - 1/2 log det Sigma,
    with u_hat found by a batched damped Newton search of its own.
    """
    y, X, Z = (np.asarray(a, float) for a in (y, X, Z))
    offsets = np.asarray(offsets)
    q = Z.shape[1]
    L = chol_from_psi(psi, q)
    sigma = L @ L.T
    prec = np.linalg.inv(sigma)
    xb = X @ np.asarray(beta, float)
    rows = _cluster_of_row(offsets)
    k = offsets.size - 1

    def g_of(u):
        eta = xb + np.einsum("nq,nq->n", Z, u[rows])
        quad = np.einsum("kq,qr,kr->k", u, prec, u)
        return _segsum(y * eta - np.logaddexp(0.0, eta), offsets) - 0.5 * quad

    def grad_hess(u):
        mu = expit(xb + np.einsum("nq,nq->n", Z, u[rows]))
        grad = _segsum(Z * (y - mu)[:, None], offsets) - u @ prec
        w = mu * (1.0 - mu)
        hess = _segsum(w[:, None, None] * Z[:, :, None] * Z[:, None, :], offsets) + prec
        return grad, hess

    u = np.zeros((k, q))
    g = g_of(u)
    for _ in range(200):
        grad, hess = grad_hess(u)
        if np.abs(grad).max() < 1e-12:
            break
        step = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        for _ in range(60):
            cand = u + step
            g_cand = g_of(cand)
            ok = g_cand >= g - 1e-14 * np.abs(g)
            u = np.where(ok[:, None], cand, u)
            g = np.where(ok, g_cand, g)
            if ok.all():
                break
            step = np.where(ok[:, None], 0.0, step / 2.0)
    _, hess = grad_hess(u)
    logdet_h = np.linalg.slogdet(hess)[1]
    logdet_sigma = 2.0 * np.sum(np.log(np.diag(L)))
    return g - 0.5 * logdet_h - 0.5 * logdet_sigma


def penalty(X, beta, psi, n: int) -> float:
    """Scaled Jeffreys plus Huber penalty, c = 2 sqrt(p / n).

    Jeffreys: 1/2 log det(X'WX), W = mu (1 - mu), mu = logistic(X beta).
    Huber: sum over psi of -x^2/2 for |x| <= 1 and -|x| + 1/2 beyond.
    """
    X = np.asarray(X, float)
    p = X.shape[1]
    mu = expit(X @ np.asarray(beta, float))
    info = X.T @ ((mu * (1.0 - mu))[:, None] * X)
    jeffreys = 0.5 * np.linalg.slogdet(info)[1]
    psi = np.asarray(psi, float)
    huber = np.where(np.abs(psi) <= 1.0, -0.5 * psi**2, -np.abs(psi) + 0.5).sum()
    return 2.0 * np.sqrt(p / n) * (jeffreys + huber)


class Oracle:
    """Marginal log-likelihood and penalized objective of one dataset."""

    def __init__(self, y, X, Z, offsets):
        self.y = np.asarray(y, float)
        self.X = np.asarray(X, float)
        self.Z = np.asarray(Z, float)
        self.offsets = np.asarray(offsets)
        self.p = self.X.shape[1]
        self.q = self.Z.shape[1]
        # Scalar effects are integrated; larger ones take the Laplace value,
        # which is what the program computes for q >= 2.
        self._logprobs = q1_cluster_logprobs if self.q == 1 else laplace_cluster_logprobs

    def loglik(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, float)
        return float(self._logprobs(
            self.y, self.X, self.Z, self.offsets, theta[:self.p], theta[self.p:]
        ).sum())

    def penalized(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, float)
        return self.loglik(theta) + penalty(self.X, theta[:self.p], theta[self.p:], self.y.size)

    def penalized_gradient(self, theta: np.ndarray, rel_step: float = 1e-5) -> np.ndarray:
        """Central differences of the penalized objective."""
        theta = np.asarray(theta, float)
        grad = np.empty_like(theta)
        for j in range(theta.size):
            h = rel_step * max(1.0, abs(theta[j]))
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            grad[j] = (self.penalized(up) - self.penalized(down)) / (2.0 * h)
        return grad
