"""The composite soft penalty and its analytic gradient.

Two blocks, both concave and both diverging to -infinity on every path
that leaves the interior of the parameter space:

* fixed effects: the log of the Jeffreys invariant prior of the
  logistic regression with the random effects removed,
  ``1/2 log det(X' W X)`` with ``W = diag(mu (1 - mu))`` and
  ``mu = logistic(X beta)``, from a QR of ``sqrt(W) X``.  Its partial
  derivatives are globally bounded by ``p max_t |x_ts| / 2``.  Where
  ``sqrt(W) X`` loses rank at working precision the block is its limit,
  -inf, with a NaN gradient.
* variance parameters: a sum of negative Huber losses over the
  components of psi, whose gradient entries are clamped to [-1, 1].

Both blocks are scaled by c = 2 sqrt(p/n), which is soft enough to
leave the estimator's first-order asymptotics untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ClusteredDataset, Theta, n_psi

__all__ = [
    "PenaltyValue",
    "huber_D",
    "huber_D_prime",
    "variance_penalty",
    "jeffreys_penalty",
    "scale_factor",
    "composite_penalty",
]


@dataclass(frozen=True)
class PenaltyValue:
    """A penalty evaluation: scalar value and gradient over its block."""

    value: float
    gradient: np.ndarray


def huber_D(x):
    """Negative Huber loss: -x^2/2 inside [-1, 1], -|x| + 1/2 outside.

    Continuous, continuously differentiable and concave, with
    |dD/dx| <= 1 everywhere.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) <= 1.0, -0.5 * x * x, -np.abs(x) + 0.5)
    return out if out.ndim else float(out)


def huber_D_prime(x):
    """Derivative of ``huber_D``; equals -x clipped to [-1, 1]."""
    x = np.asarray(x, dtype=float)
    out = -np.clip(x, -1.0, 1.0)
    return out if out.ndim else float(out)


def variance_penalty(psi: np.ndarray, q: int) -> PenaltyValue:
    """Sum of negative Huber losses over the variance parameters.

    psi already stores the log-diagonals of the Cholesky factor, so the
    penalty is a plain component-wise sum.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (n_psi(q),):
        raise ValueError(f"psi must have length {n_psi(q)} for q={q}, got {psi.shape}")
    return PenaltyValue(float(np.sum(huber_D(psi))), huber_D_prime(psi))


def jeffreys_penalty(X: np.ndarray, beta: np.ndarray) -> PenaltyValue:
    """Log Jeffreys prior of the fixed-effects-only logistic model.

    value = 1/2 log det(X' W X) = sum_j log |R_jj|, with W from eta = X beta
    alone (the random effects play no role) and sqrt(W) X = Q R; X'WX is
    never formed.  The gradient component s is 1/2 sum_t h_t (1 - 2 mu_t) x_ts
    with h_t, the squared norm of row t of Q, the t-th diagonal entry of the
    weighted projection X (X'WX)^{-1} X'W; since the h_t are nonnegative and
    sum to p, every component of the gradient of log det is bounded by
    p max_t |x_ts|.  The weights come from exp(-|eta|), so they are
    symmetric in eta.  Unless every |R_jj| > n eps max_j |R_jj|, sqrt(W) X
    has lost rank at working precision and the value is its limit, -inf,
    with a NaN gradient; data that pass ``model.RANK_RTOL`` get there only
    where the weights of all but a few rows underflow, as at the extreme
    points a line search probes.
    """
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if X.ndim != 2 or beta.shape != (X.shape[1],):
        raise ValueError(f"beta of length {X.shape[1]} expected, got shape {beta.shape}")
    eta = X @ beta
    z = np.exp(-np.abs(eta))
    Q, R = np.linalg.qr((np.sqrt(z) / (1.0 + z))[:, None] * X)
    r = np.abs(np.diag(R))
    if r.size < X.shape[1] or not r.min() > X.shape[0] * np.finfo(float).eps * r.max():
        return PenaltyValue(-np.inf, np.full(X.shape[1], np.nan))
    h = np.einsum("tp,tp->t", Q, Q)
    # 1 - 2 mu = -tanh(eta / 2)
    grad = 0.5 * (X.T @ (h * np.tanh(-0.5 * eta)))
    return PenaltyValue(float(np.sum(np.log(r))), grad)


def scale_factor(p: int, n: int) -> float:
    """Penalty scale 2 sqrt(p/n), used for both blocks."""
    if not (1 <= p <= n):
        raise ValueError(f"need n >= p >= 1, got p={p}, n={n}")
    return 2.0 * np.sqrt(p / n)


def composite_penalty(data: ClusteredDataset, theta: Theta) -> PenaltyValue:
    """Scaled sum of the two penalty blocks, with concatenated gradient.

    The gradient norm is bounded by
    c p^{3/2} max|x_st| / 2 + c sqrt(q(q+1)/2) with c = 2 sqrt(p/n).
    """
    c = scale_factor(data.p, data.n)
    fixed = jeffreys_penalty(data.X, theta.beta)
    var = variance_penalty(theta.psi, data.q)
    return PenaltyValue(
        c * (fixed.value + var.value),
        np.concatenate([c * fixed.gradient, c * var.gradient]),
    )
