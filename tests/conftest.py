from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import expit, logsumexp

import msplogit.likelihood as likelihood
from msplogit.model import ClusteredDataset, Theta


def stack_clusters(blocks):
    """A dataset from per-cluster (y, X, Z) blocks, stacked in order."""
    ys, Xs, Zs = zip(*blocks)
    return ClusteredDataset(
        np.concatenate(ys), np.concatenate(Xs), np.concatenate(Zs), [len(y) for y in ys]
    )


def make_dataset(k=3, n_i=4, p=2, q=1, seed=0, beta=None, psi=None):
    """Random small dataset; responses drawn from the model when beta/psi given,
    otherwise fair coin flips."""
    rng = np.random.default_rng(seed)
    clusters = []
    for _ in range(k):
        X = np.column_stack([np.ones(n_i), rng.normal(size=(n_i, p - 1))]) if p > 1 else np.ones((n_i, 1))
        Z = np.ones((n_i, 1)) if q == 1 else np.column_stack([np.ones(n_i), rng.normal(size=(n_i, q - 1))])
        if beta is None:
            y = rng.integers(0, 2, n_i).astype(float)
        else:
            from msplogit.model import psi_to_chol

            L = psi_to_chol(np.asarray(psi, dtype=float), q)
            u = L @ rng.standard_normal(q)
            eta = X @ np.asarray(beta, dtype=float) + Z @ u
            y = (rng.random(n_i) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        clusters.append((y, X, Z))
    return stack_clusters(clusters)


def separation_dataset():
    """Every cluster perfectly classified by the slope column (q = 1)."""
    clusters = []
    for _ in range(6):
        x = np.array([-1.0, -1.0, 1.0, 1.0])
        X = np.column_stack([np.ones(4), x])
        clusters.append(((x > 0).astype(float), X, np.ones((4, 1))))
    return stack_clusters(clusters)


def degenerate_slope_dataset(seed=4, k=8, n_i=8):
    """Random intercept + slope design whose slope heterogeneity is zero.

    An unpenalized fit drives the second Cholesky diagonal to zero on
    this data (log l22 off to -infinity, exploding standard errors).
    """
    rng = np.random.default_rng(seed)
    clusters = []
    for _ in range(k):
        x = rng.normal(size=n_i)
        X = np.column_stack([np.ones(n_i), x])
        u1 = rng.normal()
        eta = 0.5 + u1 - 0.5 * x
        y = (rng.random(n_i) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        clusters.append((y, X, X.copy()))
    return stack_clusters(clusters)


def trapezoid_loglik(data, theta, eta_shift=0.0):
    """Dense trapezoid integration of the q = 1 marginal log-likelihood.

    Each cluster's grid spans 12 local standard deviations on either
    side of the mode of its exponent, which scipy's scalar minimizer
    finds; no msplogit numerics are used.  ``eta_shift`` is added to
    every linear predictor.
    """
    sigma2 = float(np.exp(2.0 * theta.psi[0]))
    total = 0.0
    for lo, hi in zip(data.row_offsets[:-1], data.row_offsets[1:]):
        xb = eta_shift + data.X[lo:hi] @ theta.beta
        z = data.Z[lo:hi, 0]
        y = data.y[lo:hi]

        def exponent(u):
            eta = xb[:, None] + z[:, None] * u[None, :]
            return (y[:, None] * eta - np.logaddexp(0.0, eta)).sum(axis=0) - 0.5 * u**2 / sigma2

        mode = minimize_scalar(lambda u: -exponent(np.array([u]))[0]).x
        mu = expit(xb + z * mode)
        tau = 1.0 / np.sqrt(np.sum(z * z * mu * (1.0 - mu)) + 1.0 / sigma2)
        grid = np.linspace(mode - 12 * tau, mode + 12 * tau, 20001)
        logw = np.full(grid.size, np.log(grid[1] - grid[0]))
        logw[[0, -1]] += np.log(0.5)
        total += logsumexp(exponent(grid) + logw) - 0.5 * np.log(2 * np.pi * sigma2)
    return total


def jeffreys_oracle(X, beta, digits=50):
    """1/2 log det(X' W X) and its gradient in ``digits``-digit decimal arithmetic.

    The float inputs convert to decimals exactly.  X' W X is formed and
    reduced by Gauss-Jordan elimination with partial pivoting, which
    gives its determinant and (X' W X)^{-1} X' for the hat values; only
    the final rounding to floats loses more than the working precision.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        Xd = [[Decimal(float(v)) for v in row] for row in np.asarray(X)]
        bd = [Decimal(float(v)) for v in np.asarray(beta)]
        n, p = len(Xd), len(bd)
        mu = [1 / (1 + (-sum(x * b for x, b in zip(row, bd))).exp()) for row in Xd]
        w = [m * (1 - m) for m in mu]
        A = [
            [sum(w[t] * Xd[t][i] * Xd[t][j] for t in range(n)) for j in range(p)]
            + [Xd[t][i] for t in range(n)]
            for i in range(p)
        ]
        for c in range(p):
            pivot = max(range(c, p), key=lambda r: abs(A[r][c]))
            A[c], A[pivot] = A[pivot], A[c]
            for r in range(p):
                if r != c:
                    f = A[r][c] / A[c][c]
                    A[r] = [a - f * b for a, b in zip(A[r], A[c])]
        logdet = sum(abs(A[i][i]).ln() for i in range(p))
        h = [w[t] * sum(Xd[t][i] * A[i][p + t] / A[i][i] for i in range(p)) for t in range(n)]
        grad = [sum(h[t] * (1 - 2 * mu[t]) * Xd[t][s] for t in range(n)) / 2 for s in range(p)]
        return float(logdet / 2), np.array([float(g) for g in grad])


@pytest.fixture
def state_passes(monkeypatch):
    """The ``state`` passes of every cluster-mode solve, one entry per solve in call order."""
    passes = []
    solve = likelihood._damped_newton

    def counted(state, *args):
        passes.append(0)

        def counting_state(v):
            passes[-1] += 1
            return state(v)

        return solve(counting_state, *args)

    monkeypatch.setattr(likelihood, "_damped_newton", counted)
    return passes


@pytest.fixture(scope="session")
def culcita_reduced():
    from msplogit.datasets import culcita

    return culcita(drop_atypical=True)


@pytest.fixture(scope="session")
def culcita_full():
    from msplogit.datasets import culcita

    return culcita(drop_atypical=False)


@pytest.fixture(scope="session")
def reference_mspl_point():
    """The reference softly-penalized estimate on the reduced data."""
    return Theta(np.array([8.05, -6.90, -7.87, -9.64]), np.array([1.72]))
