"""Monte-Carlo replication engine for estimator comparisons.

A study fixes a design (the template's response values are ignored), a
true parameter, a replication count and a master seed.  Each
replication draws new responses, fits every configured method on the
same sample, computes Wald standard errors, and records the result.
Fits that failed to converge, raised, or carry a boundary flag
(estimate or standard error atypically large) are discarded from the
summaries, per method: a replication can be retained for one method and
discarded for another.  Each record keeps every reason that applies
(``DISCARD_REASONS``; they are not mutually exclusive), plus
``se_unavailable`` when some standard error could not be computed.  A
missing standard error does not discard a fit on its own; the fit only
drops out of that parameter's coverage count.

Randomness comes from the counter-based Philox generator.  Replication
r uses the stream seeded by ``SeedSequence(seed, spawn_key=(r,))``, so
results do not depend on execution order and replicate across
platforms.
"""

from __future__ import annotations

import itertools
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .inference import attach_se, normal_quantile
from .model import ClusteredDataset, Theta, expit, psi_to_chol
from .optimize import FitError, FitOptions, default_start, fit, parameter_names

__all__ = [
    "SimulationDesign",
    "MethodRecord",
    "MethodSummary",
    "SimulationSummary",
    "simulate_responses",
    "run_replication",
    "run_study",
    "percentile_table",
    "DEFAULT_PERCENTILES",
    "DISCARD_REASONS",
    "REASONS",
]

DEFAULT_PERCENTILES = (5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0)

COVERAGE_LEVEL = 0.95

DISCARD_REASONS = ("unconverged", "exception", "beta_flag", "psi_flag", "se_flag")
REASONS = DISCARD_REASONS + ("se_unavailable",)

THREADS_ENV_VAR = "MSPLOGIT_THREADS"


def env_threads() -> int:
    """Study worker count requested through the environment (default 1)."""
    raw = os.environ.get(THREADS_ENV_VAR, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _require_integer(name: str, value, low: int) -> None:
    try:
        valid = operator.index(value) >= low
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class SimulationDesign:
    """A Monte-Carlo study: design template, truth, size, seed, methods."""

    template: ClusteredDataset
    theta_true: Theta
    replications: int
    seed: int
    methods: tuple[FitOptions, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        _require_integer("replications", self.replications, 1)
        _require_integer("seed", self.seed, 0)
        if not self.methods:
            raise ValueError("need at least one method")
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.labels is None:
            labels = []
            for i, m in enumerate(self.methods):
                label = m.method
                if label in labels:
                    label = f"{label}{i}"
                labels.append(label)
            object.__setattr__(self, "labels", tuple(labels))
        elif len(self.labels) != len(self.methods):
            raise ValueError("one label per method required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"method labels must be distinct, got {self.labels}")
        if self.theta_true.p != self.template.p or self.theta_true.q != self.template.q:
            raise ValueError("theta_true does not match the template dimensions")


def simulate_responses(
    template: ClusteredDataset, theta_true: Theta, rng: np.random.Generator
) -> ClusteredDataset:
    """Draw a new response vector from the model at theta_true.

    Per cluster, in order: u = L z with z standard normal, then one
    uniform per row compared against logistic(X beta + Z u).
    """
    L = psi_to_chol(theta_true.psi, theta_true.q)
    xb = template.X @ theta_true.beta
    offs = template.row_offsets
    y = np.empty(template.n)
    for i in range(template.k):
        rows = slice(offs[i], offs[i + 1])
        u = L @ rng.standard_normal(theta_true.q)
        mu = expit(xb[rows] + template.Z[rows] @ u)
        y[rows] = (rng.random(template.sizes[i]) < mu).astype(float)
    return template.with_responses(y)


def _replication_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(r,))))


@dataclass(frozen=True)
class MethodRecord:
    """One method's fit on one replication.

    ``reasons`` is the subset of ``REASONS`` that applies; a fit that
    raised carries only ``exception`` and NaN estimates.
    """

    estimates: np.ndarray
    ses: np.ndarray  # NaN where unavailable
    reasons: frozenset[str]

    @property
    def retained(self) -> bool:
        return self.reasons.isdisjoint(DISCARD_REASONS)


def _fit_reasons(result) -> frozenset[str]:
    flags = result.estimate_flags
    p = result.theta.p
    present = {
        "unconverged": not result.converged,
        "beta_flag": bool(flags[:p].any()),
        "psi_flag": bool(flags[p:].any()),
        "se_flag": bool(result.se_flags.any()),
        "se_unavailable": not result.se_available.all(),
    }
    return frozenset(reason for reason, hit in present.items() if hit)


def run_replication(design: SimulationDesign, r: int) -> list[MethodRecord]:
    """Simulate replication r and fit every method on the same sample.

    Returns one record per method.  Every method without a ``start`` of
    its own starts from the same ``default_start`` of the sample, found
    once.  A failed fit is recorded with the ``exception`` reason, never
    raised.
    """
    rng = _replication_rng(design.seed, r)
    sample = simulate_responses(design.template, design.theta_true, rng)
    d = design.theta_true.dim
    start = None
    records = []
    for opts in design.methods:
        try:
            if opts.start is None:
                if start is None:
                    start = default_start(sample)
                opts = replace(opts, start=start)
            result = fit(sample, opts)
            result, _ = attach_se(sample, result)
            records.append(MethodRecord(
                result.theta.as_vector(),
                np.where(result.se_available, result.se, np.nan),
                _fit_reasons(result),
            ))
        except FitError:
            records.append(MethodRecord(
                np.full(d, np.nan), np.full(d, np.nan), frozenset({"exception"}),
            ))
    return records


@dataclass(frozen=True)
class MethodSummary:
    """Per-parameter summaries for one method, over its retained fits.

    ``retained_mask`` marks the retained replications by index, so two
    methods can be compared on the samples both retain.  ``discarded``
    counts, for each of ``REASONS``, the discarded replications it
    applies to.
    """

    label: str
    estimates: np.ndarray  # (retained, d)
    ses: np.ndarray  # (retained, d), NaN where unavailable
    bias: np.ndarray
    variance: np.ndarray
    mse: np.ndarray
    pu: np.ndarray
    coverage: np.ndarray
    coverage_n: np.ndarray
    retained_mask: np.ndarray  # (replications,)
    discarded: dict[str, int]

    @property
    def retained(self) -> int:
        return int(self.retained_mask.sum())

    def centered(self, truth: np.ndarray) -> np.ndarray:
        return self.estimates - truth[None, :]


@dataclass(frozen=True)
class SimulationSummary:
    """Study-level results: summaries per method plus the study settings."""

    replications: int
    seed: int
    truth: np.ndarray
    param_names: tuple[str, ...]
    methods: dict[str, MethodSummary]


def _summarize(label, truth, estimates, ses, retained_mask, discarded):
    est = estimates[retained_mask]
    se = ses[retained_mask]
    d = truth.size
    if not retained_mask.any():
        nanvec = np.full(d, np.nan)
        return MethodSummary(
            label, est, se, nanvec, nanvec, nanvec, nanvec, nanvec,
            np.zeros(d, dtype=int), retained_mask, discarded,
        )
    mean = est.mean(axis=0)
    bias = mean - truth
    variance = ((est - mean[None, :]) ** 2).mean(axis=0)
    mse = ((est - truth[None, :]) ** 2).mean(axis=0)
    pu = (est < truth[None, :]).mean(axis=0)
    z = normal_quantile((1.0 + COVERAGE_LEVEL) / 2.0)
    has_se = np.isfinite(se)
    lo = est - z * se
    hi = est + z * se
    covered = (lo <= truth[None, :]) & (truth[None, :] <= hi) & has_se
    coverage_n = has_se.sum(axis=0)
    with np.errstate(invalid="ignore"):
        coverage = np.where(
            coverage_n > 0, covered.sum(axis=0) / np.maximum(coverage_n, 1), np.nan
        )
    return MethodSummary(
        label, est, se, bias, variance, mse, pu, coverage, coverage_n,
        retained_mask, discarded,
    )


def run_study(
    design: SimulationDesign,
    workers: int | None = None,
    param_names: tuple[str, ...] | None = None,
) -> SimulationSummary:
    """Run all replications and summarize per method.

    ``workers`` defaults to the MSPLOGIT_THREADS environment setting
    (or 1), and the pool has at most one worker per replication.
    Replications are independent and may run in any order on a
    process pool; records are reduced by replication index, so the
    summary is identical for any worker count.
    """
    if workers is None:
        workers = env_threads()
    R = design.replications
    workers = min(workers, R)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, R // (8 * workers))
            all_records = list(
                pool.map(run_replication, itertools.repeat(design), range(R), chunksize=chunk)
            )
    else:
        all_records = [run_replication(design, r) for r in range(R)]

    truth = design.theta_true.as_vector()
    d = truth.size
    if param_names is None:
        param_names = tuple(parameter_names(design.template))
    methods = {}
    for m, label in enumerate(design.labels):
        records = [rec[m] for rec in all_records]
        estimates = np.array([rec.estimates for rec in records]).reshape(R, d)
        ses = np.array([rec.ses for rec in records]).reshape(R, d)
        retained_mask = np.array([rec.retained for rec in records], dtype=bool)
        discarded = {
            reason: sum(reason in rec.reasons for rec in records if not rec.retained)
            for reason in REASONS
        }
        methods[label] = _summarize(
            label, truth, estimates, ses, retained_mask, discarded
        )
    return SimulationSummary(
        replications=R,
        seed=design.seed,
        truth=truth,
        param_names=tuple(param_names),
        methods=methods,
    )


def percentile_table(
    centered: np.ndarray, probs: tuple[float, ...] = DEFAULT_PERCENTILES
) -> np.ndarray:
    """Linear-interpolation empirical percentiles of centered estimates.

    Returns one value per requested percentile; an empty input yields
    NaN markers (rendered as unavailable by the result writer).
    """
    centered = np.asarray(centered, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if centered.size == 0:
        return np.full(probs.shape, np.nan)
    return np.percentile(centered, probs, method="linear")
