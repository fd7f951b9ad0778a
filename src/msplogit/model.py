"""Domain types for clustered binary responses with Gaussian random effects.

A dataset stacks the rows of its clusters, cluster by cluster.  Within
cluster ``i``, whose rows are ``X_i`` and ``Z_i``, the responses are
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
from functools import lru_cache

import numpy as np

__all__ = [
    "DataError",
    "ClusteredDataset",
    "Theta",
    "n_psi",
    "psi_dim",
    "psi_entries",
    "psi_to_chol",
    "chol_to_psi",
    "psi_to_sigma",
    "sigma_to_psi",
    "expit",
    "psi_names",
]

# Relative tolerance of the rank-revealing check on the stacked fixed-effects
# design: singular values below RANK_RTOL * s_max count as zero.  The Jeffreys
# penalty checks sqrt(W) X again at each evaluation, cutting diag R at n * eps
# and returning its limit, -inf, below the cut; it stays accurate well inside
# this limit: its error is below 1e-8 on designs with cond(X) near 1e7.
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
class ClusteredDataset:
    """Responses and designs of k clusters, stacked cluster by cluster.

    Attributes:
        y: (n,) responses, each exactly 0 or 1.
        X: (n, p) fixed-effects design.
        Z: (n, q) random-effects design.
        sizes: (k,) row counts; cluster i holds the rows
            ``row_offsets[i]`` to ``row_offsets[i + 1]``.

    Construction validates the shapes, that the sizes are positive
    integers summing to n, that the designs are finite and the
    responses binary, that the fixed-effects design has full column
    rank (rank-revealing SVD with tolerance ``RANK_RTOL * s_max``), and
    that there are at least ``p`` observations.  ``row_offsets``
    (k + 1,) marks the cluster block boundaries and ``row_cluster``
    (n,) is each row's cluster.
    """

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        y = _readonly(self.y, ndim=1)
        X = _readonly(self.X, ndim=2)
        Z = _readonly(self.Z, ndim=2)
        sizes = _readonly(self.sizes, dtype=None, ndim=1)
        if sizes.size == 0:
            raise DataError("dataset has no clusters")
        if not np.issubdtype(sizes.dtype, np.integer):
            raise DataError(f"cluster sizes must be integers, got {sizes}")
        if (sizes < 1).any():
            raise DataError(f"every cluster needs at least one row, got sizes {sizes}")
        n = y.shape[0]
        if sizes.sum() != n:
            raise DataError(f"cluster sizes sum to {sizes.sum()}, but there are {n} responses")
        if X.shape[0] != n or Z.shape[0] != n:
            raise DataError(
                f"row mismatch: y has {n} rows, X has {X.shape[0]}, Z has {Z.shape[0]}"
            )
        p, q = X.shape[1], Z.shape[1]
        if p < 1 or q < 1:
            raise DataError("designs need at least one column")
        if not (np.isfinite(X).all() and np.isfinite(Z).all()):
            raise DataError("non-finite design entries")
        if not np.isin(y, (0.0, 1.0)).all():
            raise DataError("responses must be exactly 0 or 1")
        if n < p:
            raise DataError(f"need at least p={p} observations, got {n}")
        s = np.linalg.svd(X, compute_uv=False)
        if (s > RANK_RTOL * s[0]).sum() < p:
            raise DataError("stacked fixed-effects design is rank deficient")
        for name, val in (
            ("y", y),
            ("X", X),
            ("Z", Z),
            ("sizes", _readonly(sizes, dtype=np.intp)),
            ("row_offsets", _readonly(np.concatenate(([0], np.cumsum(sizes))), dtype=np.intp)),
            ("row_cluster", _readonly(np.repeat(np.arange(sizes.size), sizes), dtype=np.intp)),
        ):
            object.__setattr__(self, name, val)

    @property
    def k(self) -> int:
        return self.sizes.shape[0]

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
        return ClusteredDataset(y, self.X, self.Z, self.sizes)

    def with_fixed_design(self, X: np.ndarray) -> "ClusteredDataset":
        """Same responses and Z, new stacked fixed-effects design."""
        X = np.asarray(X, dtype=float)
        if X.shape != (self.n, self.p):
            raise DataError(f"expected design of shape {(self.n, self.p)}, got {X.shape}")
        return ClusteredDataset(self.y, X, self.Z, self.sizes)


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


@lru_cache(maxsize=None)
def psi_entries(q: int):
    """The (row, column) of L that each entry of ``psi`` sets, in ``psi`` order.

    The diagonal comes first, then the strictly lower triangle column by
    column: (2,1), (3,1), ..., (q,1), (3,2), ...  Built once per q and
    shared, so the two index arrays are read-only.
    """
    rows, cols = list(range(q)), list(range(q))
    for j in range(q):
        for i in range(j + 1, q):
            rows.append(i)
            cols.append(j)
    entries = np.array(rows, dtype=int), np.array(cols, dtype=int)
    for index in entries:
        index.setflags(write=False)
    return entries


def psi_to_chol(psi: np.ndarray, q: int) -> np.ndarray:
    """Lower-triangular Cholesky factor implied by ``psi``."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (n_psi(q),):
        raise ValueError(f"psi must have length {n_psi(q)} for q={q}, got {psi.shape}")
    if not np.isfinite(psi).all():
        raise ValueError("psi must be finite")
    L = np.zeros((q, q))
    L[psi_entries(q)] = np.concatenate([np.exp(psi[:q]), psi[q:]])
    return L


def chol_to_psi(L: np.ndarray) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    q = L.shape[0]
    psi = L[psi_entries(q)]
    psi[:q] = np.log(psi[:q])
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
