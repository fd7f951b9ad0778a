"""Domain types for clustered binary responses with Gaussian random effects.

A dataset is a list of clusters; within cluster ``i`` the responses are
conditionally independent Bernoulli variables whose log-odds are
``X_i @ beta + Z_i @ u_i`` with ``u_i ~ N(0, Sigma)``.  The covariance
``Sigma`` is parameterized through its lower-triangular Cholesky factor
``L``: the vector ``psi`` stores the logs of the diagonal entries of
``L`` first, then the strictly-lower-triangular entries column by
column.  Any finite ``psi`` therefore maps to a symmetric positive
definite ``Sigma`` with all implied correlations strictly inside
(-1, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "Cluster",
    "ClusteredDataset",
    "Theta",
    "n_psi",
    "psi_dim",
    "psi_to_chol",
    "chol_jacobian",
    "chol_to_psi",
    "psi_to_sigma",
    "sigma_to_psi",
    "validate_covariance",
    "conditional_loglik",
    "expit",
    "psi_names",
]

# Relative tolerance of the rank-revealing check on the stacked fixed-effects
# design: singular values below RANK_RTOL * s_max count as zero.
RANK_RTOL = 1e-8


class DataError(ValueError):
    """A dataset violates the model's structural requirements."""


def _readonly(a, dtype=float, ndim=None):
    out = np.array(a, dtype=dtype)
    if ndim is not None and out.ndim != ndim:
        raise DataError(f"expected a {ndim}-dimensional array, got shape {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Cluster:
    """Responses and design matrices for a single cluster.

    Attributes:
        y: (n_i,) vector with entries exactly 0 or 1.
        X: (n_i, p) fixed-effects design matrix.
        Z: (n_i, q) random-effects design matrix.
    """

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", _readonly(self.y, ndim=1))
        object.__setattr__(self, "X", _readonly(self.X, ndim=2))
        object.__setattr__(self, "Z", _readonly(self.Z, ndim=2))
        n = self.y.shape[0]
        if n == 0:
            raise DataError("empty cluster")
        if self.X.shape[0] != n or self.Z.shape[0] != n:
            raise DataError(
                f"row mismatch in cluster: y has {n} rows, "
                f"X has {self.X.shape[0]}, Z has {self.Z.shape[0]}"
            )
        if not (np.isfinite(self.X).all() and np.isfinite(self.Z).all()):
            raise DataError("non-finite design entries")
        if not np.isin(self.y, (0.0, 1.0)).all():
            raise DataError("responses must be exactly 0 or 1")

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class ClusteredDataset:
    """An ordered collection of clusters sharing the same design widths.

    Construction validates that every cluster has the same ``p`` and
    ``q``, that the stacked fixed-effects design has full column rank
    (rank-revealing SVD with tolerance ``RANK_RTOL * s_max``), and that
    there are at least ``p`` observations in total.  Stacked views of
    the designs are precomputed; ``row_offsets`` marks the cluster
    block boundaries in the stacked arrays.
    """

    clusters: tuple[Cluster, ...]

    def __post_init__(self):
        clusters = tuple(self.clusters)
        if not clusters:
            raise DataError("dataset has no clusters")
        object.__setattr__(self, "clusters", clusters)
        p = clusters[0].X.shape[1]
        q = clusters[0].Z.shape[1]
        for i, c in enumerate(clusters):
            if c.X.shape[1] != p or c.Z.shape[1] != q:
                raise DataError(
                    f"cluster {i} has design widths ({c.X.shape[1]}, {c.Z.shape[1]}), "
                    f"expected ({p}, {q})"
                )
        if p < 1 or q < 1:
            raise DataError("designs need at least one column")
        X = np.concatenate([c.X for c in clusters], axis=0)
        Z = np.concatenate([c.Z for c in clusters], axis=0)
        y = np.concatenate([c.y for c in clusters])
        sizes = np.array([c.n for c in clusters])
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        n = int(offsets[-1])
        if n < p:
            raise DataError(f"need at least p={p} observations, got {n}")
        s = np.linalg.svd(X, compute_uv=False)
        if (s > RANK_RTOL * s[0]).sum() < p:
            raise DataError("stacked fixed-effects design is rank deficient")
        for name, val in (
            ("X", _readonly(X)),
            ("Z", _readonly(Z)),
            ("y", _readonly(y)),
            ("row_offsets", _readonly(offsets, dtype=np.intp)),
            ("row_cluster", _readonly(np.repeat(np.arange(len(clusters)), sizes), dtype=np.intp)),
        ):
            object.__setattr__(self, name, val)

    @property
    def k(self) -> int:
        return len(self.clusters)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.Z.shape[1]

    def with_responses(self, y: np.ndarray) -> "ClusteredDataset":
        """Same designs, new stacked response vector (used by the simulator)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise DataError(f"expected {self.n} responses, got shape {y.shape}")
        offs = self.row_offsets
        return ClusteredDataset(
            tuple(
                Cluster(y[offs[i]:offs[i + 1]], c.X, c.Z)
                for i, c in enumerate(self.clusters)
            )
        )

    def with_fixed_design(self, X: np.ndarray) -> "ClusteredDataset":
        """Same responses and Z, new stacked fixed-effects design."""
        X = np.asarray(X, dtype=float)
        if X.shape != (self.n, self.p):
            raise DataError(f"expected design of shape {(self.n, self.p)}, got {X.shape}")
        offs = self.row_offsets
        return ClusteredDataset(
            tuple(
                Cluster(c.y, X[offs[i]:offs[i + 1]], c.Z)
                for i, c in enumerate(self.clusters)
            )
        )


def n_psi(q: int) -> int:
    """Length of the variance parameter vector for a q-dimensional effect."""
    return q * (q + 1) // 2


def psi_dim(n: int) -> int:
    """Inverse of ``n_psi``: the q whose parameter vector has length n."""
    q = int(round((np.sqrt(8 * n + 1) - 1) / 2))
    if n_psi(q) != n:
        raise ValueError(f"{n} is not a valid variance parameter length")
    return q


@dataclass(frozen=True)
class Theta:
    """Joint parameter: fixed effects and variance parameters.

    ``beta`` lives on the logit scale.  ``psi`` has length q(q+1)/2 and
    is ordered (log l_11, ..., log l_qq, l_21, ..., l_q1, l_32, ...,
    l_q,q-1): log-diagonals of the Cholesky factor first, then the
    off-diagonals column by column.
    """

    beta: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", _readonly(self.beta, ndim=1))
        object.__setattr__(self, "psi", _readonly(self.psi, ndim=1))
        if not (np.isfinite(self.beta).all() and np.isfinite(self.psi).all()):
            raise ValueError("theta must be finite")
        psi_dim(self.psi.shape[0])  # validates the length

    @property
    def p(self) -> int:
        return self.beta.shape[0]

    @property
    def q(self) -> int:
        return psi_dim(self.psi.shape[0])

    @property
    def dim(self) -> int:
        return self.p + self.psi.shape[0]

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.beta, self.psi])

    @staticmethod
    def from_vector(vec: np.ndarray, p: int) -> "Theta":
        vec = np.asarray(vec, dtype=float)
        return Theta(vec[:p], vec[p:])

    def sigma(self) -> np.ndarray:
        return psi_to_sigma(self.psi, self.q)


def _tril_indices(q: int):
    # Column-major strict lower triangle: (2,1), (3,1), ..., (q,1), (3,2), ...
    rows, cols = [], []
    for j in range(q):
        for i in range(j + 1, q):
            rows.append(i)
            cols.append(j)
    return np.array(rows, dtype=int), np.array(cols, dtype=int)


def psi_to_chol(psi: np.ndarray, q: int) -> np.ndarray:
    """Lower-triangular Cholesky factor implied by ``psi``."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (n_psi(q),):
        raise ValueError(f"psi must have length {n_psi(q)} for q={q}, got {psi.shape}")
    if not np.isfinite(psi).all():
        raise ValueError("psi must be finite")
    L = np.zeros((q, q))
    L[np.arange(q), np.arange(q)] = np.exp(psi[:q])
    if q > 1:
        rows, cols = _tril_indices(q)
        L[rows, cols] = psi[q:]
    return L


def chol_jacobian(psi: np.ndarray, q: int) -> np.ndarray:
    """Derivatives of the Cholesky factor, shape (len(psi), q, q).

    Entry k is dL/dpsi_k: exp(psi_k) at (k, k) for a log-diagonal
    parameter, one at its (row, column) for an off-diagonal one.
    """
    L = psi_to_chol(psi, q)
    dL = np.zeros((n_psi(q), q, q))
    dL[np.arange(q), np.arange(q), np.arange(q)] = np.diag(L)
    if q > 1:
        rows, cols = _tril_indices(q)
        dL[np.arange(q, n_psi(q)), rows, cols] = 1.0
    return dL


def chol_to_psi(L: np.ndarray) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    q = L.shape[0]
    psi = np.empty(n_psi(q))
    psi[:q] = np.log(np.diag(L))
    if q > 1:
        rows, cols = _tril_indices(q)
        psi[q:] = L[rows, cols]
    return psi


def psi_to_sigma(psi: np.ndarray, q: int) -> np.ndarray:
    """Covariance matrix ``L @ L.T`` implied by the variance parameters."""
    L = psi_to_chol(psi, q)
    return L @ L.T


def sigma_to_psi(sigma: np.ndarray) -> np.ndarray:
    """Variance parameter vector of a positive definite covariance matrix.

    Raises ``np.linalg.LinAlgError`` when the input is not positive
    definite.  The Cholesky diagonal is taken positive, which makes the
    map a two-sided inverse of ``psi_to_sigma``.
    """
    sigma = np.asarray(sigma, dtype=float)
    L = np.linalg.cholesky(sigma)
    return chol_to_psi(L)


def validate_covariance(sigma: np.ndarray, atol: float = 0.0) -> None:
    """Check the non-degeneracy invariants of a covariance matrix.

    Symmetric, positive definite, finite, and all implied correlations
    strictly inside (-1, 1).  Raises ``ValueError`` otherwise.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not np.isfinite(sigma).all():
        raise ValueError("covariance has non-finite entries")
    if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(sigma).max())):
        raise ValueError("covariance is not symmetric")
    eigmin = float(np.linalg.eigvalsh(sigma).min())
    if eigmin <= atol:
        raise ValueError(f"covariance is not positive definite (min eigenvalue {eigmin})")
    d = np.sqrt(np.diag(sigma))
    corr = sigma / np.outer(d, d)
    off = corr[~np.eye(sigma.shape[0], dtype=bool)]
    if off.size and np.abs(off).max() >= 1.0:
        raise ValueError("covariance implies a correlation of magnitude one")


def conditional_loglik(cluster: Cluster, beta: np.ndarray, u: np.ndarray) -> float:
    """Bernoulli log-likelihood of one cluster given its random effect.

    Evaluates sum_j [y_j eta_j - log(1 + exp(eta_j))] with
    eta = X @ beta + Z @ u, using log1p-exp so that linear predictors
    with magnitude up to ~1e3 do not overflow.
    """
    beta = np.asarray(beta, dtype=float)
    u = np.asarray(u, dtype=float)
    if beta.shape != (cluster.X.shape[1],):
        raise ValueError(f"beta must have length {cluster.X.shape[1]}, got {beta.shape}")
    if u.shape != (cluster.Z.shape[1],):
        raise ValueError(f"u must have length {cluster.Z.shape[1]}, got {u.shape}")
    eta = cluster.X @ beta + cluster.Z @ u
    return float(np.sum(cluster.y * eta - np.logaddexp(0.0, eta)))


def expit(eta):
    """The logistic function 1 / (1 + e^-eta), elementwise.

    Below eta = -709.78 the exponential overflows to inf, silently, and
    the result is exactly 0.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-eta))


def psi_names(q: int) -> list[str]:
    """Display names for the variance parameters, in psi order."""
    names = [f"log_l{i + 1}{i + 1}" for i in range(q)]
    for j in range(q):
        for i in range(j + 1, q):
            names.append(f"l{i + 1}{j + 1}")
    return names
