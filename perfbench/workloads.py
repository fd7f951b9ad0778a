"""The workloads, their rounds of operations, checks and metrics.

Every workload repeats whole rounds of the same operations while the
next round is expected to end by the run's deadline (``_rounds``).  An operation counts as failed when
any of its checks fails.  With tracing on, each operation is run once
untraced and once traced on the same inputs; the untraced pass gives
the checked outputs and the baseline for the tracing overhead.
"""

from __future__ import annotations

import os
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs
import tracer as tracing
from oracles import Oracle

import msplogit
from msplogit import cli, inference, likelihood, optimize, simulate

FIT_OPTIONS = optimize.FitOptions()  # MSPL, AGQ-100 for q = 1, Laplace otherwise
STUDY_METHODS = (
    optimize.FitOptions(method="mspl", approx="agq", quadrature=100),
    optimize.FitOptions(method="ml", approx="agq", quadrature=100),
)
# 30 replications per study keep the chance that ML is discarded in fewer
# than a tenth of them (checks.ML_DISCARD_MIN_SHARE) near 3e-6.
STUDY_REPLICATIONS = 30
# Replications of each study rerun serially in an untraced round.
STUDY_RERUNS = (0, STUDY_REPLICATIONS - 1)
# A traced round reruns every replication serially, untraced, for the pool
# efficiency, and traces the first TRACED_RERUNS of them once more.
TRACED_RERUNS = 10
# MSPL fits with SEs of the study's template per round, half before the
# pool and half after it, so that they sample more stretches of the run.
TEMPLATE_FITS = 8
WARM_REPEATS = 3


@dataclass
class Context:
    root: Path
    seed: int
    deadline: float  # perf_counter() value by which the rounds should end
    trace: bool
    out: Path
    setup: object = None  # the set-up probes run between rounds (run.SetupProbes)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)  # per fit with SEs
    passes: list = field(default_factory=list)  # (untraced s, traced s) per traced operation
    cold_ms: list = field(default_factory=list)
    warm_ms: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    tracer: tracing.Tracer = field(default_factory=tracing.Tracer)

    def record(self, what: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(f"{what}: {f}" for f in failures)


def _rounds(ctx: Context, body) -> int:
    """Run ``body(i)`` for i = 0, 1, ..., each followed by any set-up probe
    that is due, while a mean round plus the probes still to come would end
    by ``ctx.deadline``; at least one round."""
    start = perf_counter()
    n = 0
    while True:
        body(n)
        n += 1
        reserve = 0.0
        if ctx.setup is not None:
            ctx.setup.after_round()
            reserve = ctx.setup.reserve_s()
        now = perf_counter()
        if now + (now - start) / n + reserve > ctx.deadline:
            return n


def _guard(fn, *args) -> list[str]:
    """Run a check; an exception inside it is a failed check, not a crash."""
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 - reported as the operation's failure
        return [f"{type(err).__name__}: {err}"]


def _names(config, q: int) -> list[str]:
    return [f"beta:{n}" for n in config.beta_names()] + [f"psi:{n}" for n in msplogit.model.psi_names(q)]


def _fit_checks(result, data: inputs.Data, sections) -> list[str]:
    oracle = Oracle(data.y, data.X, data.Z, data.offsets)
    est = result.theta.as_vector()
    out = checks.loglik(result.loglik, oracle.loglik(est))
    out += checks.loglik(result.penalized, oracle.penalized(est), "penalized objective")
    out += checks.stationary(oracle.penalized_gradient(est))
    out += checks.interior(result.converged, est, oracle.p, oracle.q)
    out += checks.finite_se(result.se)
    out += checks.fit_document(sections, est, result.se, result.loglik, result.penalized)
    return out


def _eval_probe(outcome: Outcome, data, theta) -> None:
    """Time a fresh evaluator's first call at the estimate, then repeats."""
    approx = FIT_OPTIONS.resolve_approx(data.q)
    rule = likelihood.gauss_hermite_rule(FIT_OPTIONS.quadrature) if approx == "agq" else None
    evaluator = likelihood.LoglikEvaluator(data, approx, rule)
    start = perf_counter()
    evaluator.cluster_logprobs(theta)
    outcome.cold_ms.append(1e3 * (perf_counter() - start))
    warm = []
    for _ in range(WARM_REPEATS):
        start = perf_counter()
        evaluator.cluster_logprobs(theta)
        warm.append(1e3 * (perf_counter() - start))
    outcome.warm_ms.append(statistics.median(warm))


def _fit_pass(path: Path, config):
    """Load, fit with SEs, write and parse the result document."""
    start = perf_counter()
    data = cli.load_csv(str(path), config)
    t_solve = perf_counter()
    result, _ = inference.attach_se(data, optimize.fit(data, FIT_OPTIONS))
    solve_s = perf_counter() - t_solve
    sections = cli.parse_result(cli.format_fit_document(config, _names(config, data.q), result))
    return data, result, sections, solve_s, perf_counter() - start


def run_fit_workload(ctx: Context, path: Path, make, fields: dict) -> Outcome:
    """laplace-q2: one new dataset per operation, written to ``path``."""
    outcome = Outcome()
    targets = tracing.program_targets(msplogit)

    def round_(i: int) -> None:
        data_in = make(ctx.seed, i)
        inputs.write_csv(path, data_in)
        config = cli.RunConfig(command="fit", data=str(path), **fields)
        data, result, sections, solve_s, pass_s = _fit_pass(path, config)
        outcome.solve_s.append(solve_s)
        outcome.extra.setdefault("estimate", np.round(result.theta.as_vector(), 4).tolist())
        failures = _guard(_fit_checks, result, data_in, sections)
        if ctx.trace:
            with outcome.tracer.patched(targets), outcome.tracer.span("bench", "operation"):
                traced = _fit_pass(path, config)
            outcome.passes.append((pass_s, traced[4]))
            if not checks.same_floats(traced[1].theta.as_vector(), result.theta.as_vector()):
                failures.append("traced fit differs from the untraced fit")
            _eval_probe(outcome, data, result.theta)
        outcome.record(f"operation {i}", failures)

    outcome.extra["rounds"] = _rounds(ctx, round_)
    return outcome


def _template_fits(ctx: Context, outcome: Outcome, targets, template_path: Path, config,
                   template_in, round_index: int, fits: range, first=None):
    """Fit the template ``len(fits)`` times; the first fit of a round is
    checked against the oracles, later ones against the first.  Returns
    the first estimate."""
    for j in fits:
        data, result, sections, solve_s, pass_s = _fit_pass(template_path, config)
        outcome.solve_s.append(solve_s)
        if first is None:
            first = result.theta.as_vector()
            outcome.extra.setdefault("estimate", np.round(first, 4).tolist())
            failures = _guard(_fit_checks, result, template_in, sections)
        elif not checks.same_floats(result.theta.as_vector(), first):
            failures = ["a repeated fit of the template differs from the first"]
        else:
            failures = []
        if ctx.trace:
            with outcome.tracer.patched(targets), outcome.tracer.span("bench", "operation"):
                traced = _fit_pass(template_path, config)
            outcome.passes.append((pass_s, traced[4]))
            if j == 0:
                _eval_probe(outcome, data, result.theta)
        outcome.record(f"round {round_index} template fit {j}", failures)
    return first


def _replication_checks(design, template_in: inputs.Data, r, records, inexact: list) -> list[str]:
    """The MSPL record of a serial rerun: interior, and stationary on its sample.

    Stationarity is judged on the exact likelihood, so it is checked only
    where the program's AGQ log-likelihood at the estimate equals the
    oracle's.  On some samples it does not (a large scale over clusters of
    all 0 or all 1); r is then appended to ``inexact``, and the run
    reports the count.  The SEs are not checked: on some samples some are
    missing (``checks.mspl_replications``).
    """
    mspl = records[0]
    out = []
    if not mspl.reasons <= {"beta_flag", "se_unavailable"}:
        out.append(f"replication {r} MSPL reasons {sorted(mspl.reasons)}")
    est = mspl.estimates
    y = inputs.study_sample(template_in, design.theta_true.as_vector(), design.seed, r)
    oracle = Oracle(y, template_in.X, template_in.Z, template_in.offsets)
    out += checks.interior(True, est, oracle.p, oracle.q)
    rule = likelihood.gauss_hermite_rule(design.methods[0].quadrature)
    evaluator = likelihood.LoglikEvaluator(design.template.with_responses(y), "agq", rule)
    if checks.loglik(evaluator.loglik(msplogit.Theta.from_vector(est, oracle.p)), oracle.loglik(est)):
        inexact.append(r)
    else:
        out += checks.stationary(oracle.penalized_gradient(est))
    return out


def run_study_workload(ctx: Context) -> Outcome:
    """study-culcita: the c8 design at 30 replications per study, on a pool."""
    outcome = Outcome()
    targets = tracing.program_targets(msplogit)
    workers = len(os.sched_getaffinity(0))
    template_path = ctx.root / "src" / "msplogit" / "data" / "culcita.csv"
    template_in = inputs.read_culcita(template_path)
    truth = msplogit.Theta(inputs.CULCITA_TRUTH[:4], inputs.CULCITA_TRUTH[4:])
    config = cli.RunConfig(command="simulate", data=str(template_path), **inputs.CULCITA_CONFIG)
    pool_s, serial_s, retained, missing_se, agq_inexact = [], [], {}, [], []

    def round_(i: int) -> None:
        half = TEMPLATE_FITS // 2
        first = _template_fits(ctx, outcome, targets, template_path, config, template_in, i, range(half))
        template = cli.load_csv(str(template_path), config)
        study_seed = int(np.random.SeedSequence([ctx.seed, i]).generate_state(1)[0])
        design = simulate.SimulationDesign(
            template=template, theta_true=truth, replications=STUDY_REPLICATIONS,
            seed=study_seed, methods=STUDY_METHODS, labels=("mspl", "ml"),
        )
        start = perf_counter()
        summary = simulate.run_study(design, workers=workers)
        pool_s.append(perf_counter() - start)
        if i == 0:
            # the pool's workers are the only children so far; set-up probes come later
            outcome.extra["worker_maxrss_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        for label, ms in summary.methods.items():
            retained[label] = retained.get(label, 0) + ms.retained
        missing_se.append(checks.missing_se(summary.methods["mspl"]))
        sections = cli.parse_result(cli.format_simulation_document(config, summary))

        def study_checks():
            out = checks.mspl_replications(summary.methods["mspl"], STUDY_REPLICATIONS)
            out += checks.ml_discard_share(summary.methods["ml"].retained, STUDY_REPLICATIONS)
            for ms in summary.methods.values():
                out += checks.summary_statistics(ms, summary.truth)
            return out + checks.study_document(sections, summary)

        study_failures = _guard(study_checks)
        rerun_failures = {}
        reruns = range(STUDY_REPLICATIONS) if ctx.trace else STUDY_RERUNS
        for r in reruns:
            start = perf_counter()
            records = simulate.run_replication(design, r)
            serial_s.append(perf_counter() - start)
            rerun_failures[r] = _guard(checks.rerun_matches, summary, r, records)
            rerun_failures[r] += _guard(_replication_checks, design, template_in, r, records, agq_inexact)
            if ctx.trace and r < TRACED_RERUNS:
                # right after the untraced pass, so that both see the same stretch of the machine
                with outcome.tracer.patched(targets), outcome.tracer.span("bench", "operation"):
                    start = perf_counter()
                    traced = simulate.run_replication(design, r)
                    outcome.passes.append((serial_s[-1], perf_counter() - start))
                if not all(checks.same_floats(a.estimates, b.estimates) for a, b in zip(records, traced)):
                    rerun_failures[r].append("traced replication differs from the untraced one")
        for r in range(STUDY_REPLICATIONS):
            outcome.record(f"round {i} replication {r}", study_failures + rerun_failures.get(r, []))
        _template_fits(ctx, outcome, targets, template_path, config, template_in, i,
                       range(half, TEMPLATE_FITS), first)

    rounds = _rounds(ctx, round_)
    replications = rounds * STUDY_REPLICATIONS
    outcome.extra.update(
        rounds=rounds, workers=workers, replications=replications, retained=retained,
        mspl_missing_se=sum(missing_se), agq_inexact_reruns=len(agq_inexact),
        pool_s=sum(pool_s), pool_round_s=[round(t, 3) for t in pool_s], serial_s=sum(serial_s),
        replications_per_s=replications / sum(pool_s),
    )
    return outcome


def peak_rss_mb(pool_workers: int = 0, worker_maxrss_kib: int = 0) -> float:
    """Peak resident memory of this process plus ``pool_workers`` times the
    largest pool worker's (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + pool_workers * worker_maxrss_kib) / 1024.0
