"""Benchmark inputs, made from the seed by the benchmark's own code.

Each workload's data are stacked arrays (``Data``) that the oracles use
directly and that reach the program only as a CSV file read by
``msplogit.cli.load_csv``, the way a user's data would.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from oracles import chol_from_psi

# Reference MSPL point of the reduced culcita data; the c8 study's truth.
CULCITA_TRUTH = np.array([8.05, -6.90, -7.87, -9.64, 1.72])
CULCITA_CONFIG = dict(
    response="predation", cluster="block", fixed=["crabs", "shrimp", "both"],
    random=[], intercept=True,
)

# laplace-q2: intercept and slope in both designs; the slope's random
# standard deviation is 0.1, the near-singular regime.
LAPLACE_TRUTH = np.array([0.3, -0.6, 0.0, np.log(0.1), 0.0])
LAPLACE_CONFIG = dict(response="y", cluster="cluster", fixed=["t"], random=["t"], intercept=True)


@dataclass(frozen=True)
class Data:
    """Stacked clustered data: y (n,), X (n, p), Z (n, q), offsets (k + 1,)."""

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    offsets: np.ndarray
    columns: dict  # CSV column name -> (n,) values, excluding the cluster label

    @property
    def k(self) -> int:
        return self.offsets.size - 1


def _rng(seed: int, op: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, op]))


def _draw(rng, X, Z, sizes, theta, q):
    p = X.shape[1]
    L = chol_from_psi(theta[p:], q)
    u = rng.standard_normal((sizes.size, q)) @ L.T
    eta = X @ theta[:p] + np.einsum("nq,nq->n", Z, np.repeat(u, sizes, axis=0))
    return (rng.random(X.shape[0]) < expit(eta)).astype(float)


def laplace_data(seed: int, op: int, k: int = 60, rows: int = 8) -> Data:
    rng = _rng(seed, op)
    n = k * rows
    t = rng.standard_normal(n)
    X = np.column_stack([np.ones(n), t])
    sizes = np.full(k, rows)
    y = _draw(rng, X, X, sizes, LAPLACE_TRUTH, 2)
    return Data(y, X, X.copy(), np.arange(0, n + 1, rows), {"y": y, "t": t})


def write_csv(path: Path, data: Data) -> None:
    """Write with 17 significant digits, so the program reads the same doubles."""
    names = list(data.columns)
    cols = [data.columns[name] for name in names]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle)
        out.writerow(["cluster"] + names)
        for i in range(data.k):
            for row in range(data.offsets[i], data.offsets[i + 1]):
                out.writerow([f"c{i}"] + [format(c[row], ".17g") for c in cols])


def read_culcita(path: Path) -> Data:
    """The bundled predation CSV, grouped by block in order of first appearance."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    order = list(dict.fromkeys(r["block"] for r in rows))
    rows.sort(key=lambda r: order.index(r["block"]))
    y = np.array([float(r["predation"]) for r in rows])
    X = np.array([[1.0] + [float(r[c]) for c in CULCITA_CONFIG["fixed"]] for r in rows])
    sizes = np.array([sum(r["block"] == b for r in rows) for b in order])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return Data(y, X, np.ones((len(rows), 1)), offsets, {})


def study_sample(template: Data, theta: np.ndarray, seed: int, r: int) -> np.ndarray:
    """Responses of study replication r, drawn as ``msplogit.simulate`` documents.

    Stream: Philox seeded by SeedSequence(seed, spawn_key=(r,)).  Per
    cluster in order: u = L z with z standard normal, then one uniform
    per row compared with logistic(X beta + Z u).
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(r,))))
    p, q = template.X.shape[1], template.Z.shape[1]
    L = chol_from_psi(theta[p:], q)
    xb = template.X @ theta[:p]
    y = np.empty(template.y.size)
    for i in range(template.k):
        lo, hi = template.offsets[i], template.offsets[i + 1]
        u = L @ rng.standard_normal(q)
        y[lo:hi] = (rng.random(hi - lo) < expit(xb[lo:hi] + template.Z[lo:hi] @ u)).astype(float)
    return y
