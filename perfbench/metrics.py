"""End-to-end and per-layer metrics from a workload's ``Outcome``.

A per-layer metric whose layer a workload does not reach (the study
layer on a single-fit workload, ML fits outside the study) reads 0;
README.md lists where each one applies.
"""

from __future__ import annotations

import statistics

import numpy as np

import tracer as tracing


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _per(count: float, base: int) -> float:
    return count / base if base else 0.0


def end_to_end(outcome, setup_s: float, peak_rss_mb: float) -> dict:
    solve = _median(outcome.solve_s)
    # On a fit workload each operation is one replication at a fixed truth.
    # Its rate is taken from the median, as solve_s is: a mean would follow
    # the few fits that run the Nelder-Mead restart.
    rate = outcome.extra.get("replications_per_s", 1.0 / solve)
    return {
        "setup_s": setup_s,
        "solve_s": solve,
        "replications_per_s": rate,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(outcome) -> dict:
    spans = outcome.tracer.spans
    own = tracing.self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    fits = by_name.get("fit", [])
    n_fits = len(fits)
    n_ops = len(by_name.get("operation", []))
    n_se = len(by_name.get("attach_se", []))

    def under(name: str, parent: str) -> list:
        return [s for s in by_name.get(name, []) if tracing.ancestor(spans, s, parent)]

    def durations_ms(name: str) -> list:
        return [1e3 * s.duration for s in by_name.get(name, [])]

    repeats = 0
    seen: dict[int, list] = {}
    for s in under("gradient", "fit"):
        fit_id = tracing.ancestor(spans, s, "fit").id
        points = seen.setdefault(fit_id, [])
        repeats += any(np.array_equal(s.attrs["x"], x) for x in points)
        points.append(s.attrs["x"])

    layer_self = {}
    for s, t in zip(spans, own):
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + t

    docs = by_name.get("format_document", []) + by_name.get("parse_result", [])
    untraced = sum(a for a, _ in outcome.passes)
    traced = sum(b for _, b in outcome.passes)
    extra = outcome.extra
    serial, pool, workers = extra.get("serial_s", 0.0), extra.get("pool_s", 0.0), extra.get("workers", 0)
    return {
        "likelihood.eval_ms": _median(durations_ms("cluster_logprobs")),
        "likelihood.evals_per_fit": _per(len(under("cluster_logprobs", "fit")), n_fits),
        "likelihood.evals_per_se": _per(len(under("cluster_logprobs", "attach_se")), n_se),
        "likelihood.eval_cold_ms": _median(outcome.cold_ms),
        "likelihood.eval_warm_ms": _median(outcome.warm_ms),
        "likelihood.self_s": _per(layer_self.get("likelihood", 0.0), n_ops),
        "penalties.penalty_ms": _median(durations_ms("composite_penalty")),
        "penalties.calls_per_fit": _per(len(under("composite_penalty", "fit")), n_fits),
        "penalties.self_s": _per(layer_self.get("penalties", 0.0), n_ops),
        "optimize.fit_s.mspl": _mean(s.duration for s in fits if s.attrs["method"] == "mspl"),
        "optimize.fit_s.ml": _mean(s.duration for s in fits if s.attrs["method"] == "ml"),
        "optimize.self_s": _per(layer_self.get("optimize", 0.0), n_fits),
        "optimize.gradient_ms": _median(durations_ms("gradient")),
        "optimize.gradients_per_fit": _per(len(under("gradient", "fit")), n_fits),
        "optimize.iterations": _mean(s.attrs["iterations"] for s in fits),
        "optimize.gradient_repeats": _per(repeats, n_fits),
        "optimize.nelder_mead_runs": _per(
            sum(s.attrs["method"] == "Nelder-Mead" for s in under("minimize", "fit")), n_fits),
        "optimize.polish_hessians": _per(len(under("polish_hessian", "fit")), n_fits),
        "inference.se_s": _mean(s.duration for s in by_name.get("attach_se", [])),
        "inference.self_s": _per(layer_self.get("inference", 0.0), n_ops),
        "simulate.replication_s": _mean(s.duration for s in by_name.get("replication", [])),
        "simulate.draw_ms": _median(durations_ms("draw")),
        "simulate.pool_efficiency": serial / (workers * pool) if pool else 0.0,
        "simulate.serial_sum_s": serial if pool else 0.0,
        "simulate.pool_wall_s": pool,
        "simulate.self_s": _per(layer_self.get("simulate", 0.0), n_ops),
        "cli.load_ms": _median(durations_ms("load_csv")),
        "cli.document_ms": _per(1e3 * sum(s.duration for s in docs), len(by_name.get("format_document", []))),
        "cli.self_s": _per(layer_self.get("cli", 0.0), n_ops),
        "model.dataset_ms": _median(durations_ms("dataset")),
        "model.self_s": _per(layer_self.get("model", 0.0), n_ops),
        "trace.overhead_s": _per(traced - untraced, len(outcome.passes)),
        "trace.overhead_pct": 100.0 * (traced - untraced) / untraced if untraced else 0.0,
    }
