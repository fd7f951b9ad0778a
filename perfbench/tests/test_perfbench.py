"""Tests of the benchmark itself: its oracles, a tiny run of each workload,
and proof that every check fails on a perturbed estimate or output.

Run with ``python3 -m pytest perfbench/tests -q`` from the source root.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import checks
import inputs
import metrics
import workloads
from oracles import Oracle

from msplogit import Theta, cli, inference, optimize, simulate

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CULCITA = ROOT / "src" / "msplogit" / "data" / "culcita.csv"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def culcita_fit():
    config = cli.RunConfig(command="fit", data=str(CULCITA), **inputs.CULCITA_CONFIG)
    data = cli.load_csv(str(CULCITA), config)
    result, _ = inference.attach_se(data, optimize.fit(data, workloads.FIT_OPTIONS))
    doc = cli.format_fit_document(config, workloads._names(config, 1), result)
    return inputs.read_culcita(CULCITA), result, doc


@pytest.fixture(scope="module")
def tiny_study():
    template = cli.load_csv(str(CULCITA), cli.RunConfig(
        command="simulate", data=str(CULCITA), **inputs.CULCITA_CONFIG))
    truth = Theta(inputs.CULCITA_TRUTH[:4], inputs.CULCITA_TRUTH[4:])
    design = simulate.SimulationDesign(template, truth, 4, 11, workloads.STUDY_METHODS, ("mspl", "ml"))
    return design, simulate.run_study(design, workers=1)


# --- oracles -------------------------------------------------------------


@pytest.mark.parametrize("log_sigma", [-3.0, 1.72, 4.0])
def test_q1_oracle_matches_adaptive_quad(log_sigma):
    data = inputs.read_culcita(CULCITA)
    theta = np.append(inputs.CULCITA_TRUTH[:4], log_sigma)
    sigma = np.exp(log_sigma)
    total = 0.0
    for i in range(data.k):
        lo, hi = data.offsets[i], data.offsets[i + 1]
        xb, y = data.X[lo:hi] @ theta[:4], data.y[lo:hi]

        def f(u):
            eta = xb + u
            return np.exp(np.sum(y * eta - np.logaddexp(0.0, eta)) - 0.5 * (u / sigma) ** 2)

        total += np.log(quad(f, -np.inf, np.inf, epsabs=0, epsrel=1e-13, limit=500)[0])
    total -= data.k * 0.5 * np.log(2 * np.pi * sigma**2)
    assert Oracle(data.y, data.X, data.Z, data.offsets).loglik(theta) == pytest.approx(total, rel=1e-12)


def test_laplace_oracle_at_q1_is_one_node_quadrature():
    # One-node adaptive quadrature and Laplace coincide for q = 1, so the
    # q >= 2 oracle, run on q = 1 data, must match a hand-built 1-node rule.
    from oracles import laplace_cluster_logprobs

    data = inputs.read_culcita(CULCITA)
    theta = inputs.CULCITA_TRUTH
    lp = laplace_cluster_logprobs(data.y, data.X, data.Z, data.offsets, theta[:4], theta[4:])
    sigma2 = np.exp(2 * theta[4])
    i = 7
    lo, hi = data.offsets[i], data.offsets[i + 1]
    xb, y = data.X[lo:hi] @ theta[:4], data.y[lo:hi]
    u = 0.0
    for _ in range(100):
        mu = 1 / (1 + np.exp(-(xb + u)))
        u += (np.sum(y - mu) - u / sigma2) / (np.sum(mu * (1 - mu)) + 1 / sigma2)
    mu = 1 / (1 + np.exp(-(xb + u)))
    g = np.sum(y * (xb + u) - np.logaddexp(0, xb + u)) - u * u / (2 * sigma2)
    laplace = g - 0.5 * np.log(np.sum(mu * (1 - mu)) + 1 / sigma2) - 0.5 * np.log(sigma2)
    assert lp[i] == pytest.approx(laplace, rel=1e-12)


# --- tiny runs of each workload ----------------------------------------


def _ctx(tmp_path, trace):
    return workloads.Context(ROOT, 5, 0.0, trace, tmp_path)


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_laplace_workload(tmp_path, trace):
    make = lambda s, i: inputs.laplace_data(s, i, k=15)  # noqa: E731
    outcome = workloads.run_fit_workload(_ctx(tmp_path, trace), tmp_path / "in.csv", make,
                                         inputs.LAPLACE_CONFIG)
    assert (outcome.attempted, outcome.failed) == (1, 0), outcome.failures
    if trace:
        values = metrics.per_layer(outcome)
        assert set(values) == {m["name"] for m in SPEC["per_layer"]}
        assert values["likelihood.evals_per_fit"] > 0 and values["optimize.fit_s.ml"] == 0.0
    else:
        values = metrics.end_to_end(outcome, 1.0, 1.0)
        assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_study_workload(tmp_path, monkeypatch, trace):
    monkeypatch.setattr(workloads, "STUDY_REPLICATIONS", 4)
    monkeypatch.setattr(workloads, "STUDY_RERUNS", (0, 3))
    monkeypatch.setattr(workloads, "TRACED_RERUNS", 2)
    monkeypatch.setattr(workloads, "TEMPLATE_FITS", 2)
    outcome = workloads.run_study_workload(_ctx(tmp_path, trace))
    assert (outcome.attempted, outcome.failed) == (6, 0), outcome.failures
    assert outcome.extra["worker_maxrss_kib"] > 0
    if trace:
        values = metrics.per_layer(outcome)
        assert values["optimize.fit_s.ml"] > 0 and values["simulate.pool_efficiency"] > 0
        assert values["simulate.replication_s"] > 0 and values["cli.load_ms"] > 0
    else:
        values = metrics.end_to_end(outcome, 1.0, 1.0)
        assert all(v > 0 for v in values.values())


# --- every check fails on a perturbed estimate or output --------------


def test_loglik_check(culcita_fit):
    data, result, _ = culcita_fit
    oracle = Oracle(data.y, data.X, data.Z, data.offsets).loglik(result.theta.as_vector())
    assert not checks.loglik(result.loglik, oracle)
    assert checks.loglik(result.loglik * (1 + 1e-6), oracle)


def test_stationary_check(culcita_fit):
    data, result, _ = culcita_fit
    oracle = Oracle(data.y, data.X, data.Z, data.offsets)
    est = result.theta.as_vector()
    assert not checks.stationary(oracle.penalized_gradient(est))
    for j in range(est.size):
        moved = est.copy()
        moved[j] += 1e-3 * max(1.0, abs(est[j]))
        assert checks.stationary(oracle.penalized_gradient(moved)), j


def test_interior_check(culcita_fit):
    _, result, _ = culcita_fit
    est, se = result.theta.as_vector(), result.se
    assert not checks.interior(True, est, 4, 1)
    assert checks.interior(False, est, 4, 1)
    for log_sigma in (-10.5, 10.5, np.nan):
        assert checks.interior(True, np.append(est[:4], log_sigma), 4, 1), log_sigma
    assert not checks.finite_se(se)
    assert checks.finite_se(np.where(np.arange(se.size) == 4, np.nan, se))
    assert checks.finite_se(None)


def test_interior_check_q2():
    # psi = (log sd1, log sd2, off-diagonal): a second scale of e^-11 is singular.
    theta = np.array([0.3, -0.6, 0.0, np.log(0.1), 0.5])
    assert not checks.interior(True, theta, 2, 2)
    assert checks.interior(True, np.append(theta[:3], [-11.0, 0.5]), 2, 2)


def test_fit_document_check(culcita_fit):
    _, result, doc = culcita_fit
    est, se = result.theta.as_vector(), result.se
    args = (est, se, result.loglik, result.penalized)
    assert not checks.fit_document(cli.parse_result(doc), *args)
    moved = est.copy()
    moved[2] = np.nextafter(moved[2], np.inf)
    assert checks.fit_document(cli.parse_result(doc), moved, *args[1:])
    assert checks.fit_document(cli.parse_result(doc), est, se, np.nextafter(result.loglik, 0), result.penalized)


def test_study_checks(tiny_study):
    design, summary = tiny_study
    mspl, ml = summary.methods["mspl"], summary.methods["ml"]
    for ms in (mspl, ml):
        assert not checks.summary_statistics(ms, summary.truth)
    moved = mspl.estimates.copy()
    moved[0, 1] += 1e-6
    assert checks.summary_statistics(replace(mspl, estimates=moved), summary.truth)

    assert not checks.mspl_replications(mspl, 4)
    assert checks.mspl_replications(replace(mspl, discarded={**mspl.discarded, "psi_flag": 1}), 4)
    assert checks.mspl_replications(mspl, 5)
    no_se = mspl.ses.copy()
    no_se[1, 3:] = np.nan
    assert checks.missing_se(mspl) == 0 and checks.missing_se(replace(mspl, ses=no_se)) == 1
    assert checks.ml_discard_share(4, 4)
    assert not checks.ml_discard_share(3, 4)

    records = simulate.run_replication(design, 0)
    assert not checks.rerun_matches(summary, 0, records)
    bumped = replace(records[0], estimates=records[0].estimates + np.eye(5)[0] * 1e-12)
    assert checks.rerun_matches(summary, 0, [bumped, records[1]])

    config = cli.RunConfig(command="simulate", data=str(CULCITA), **inputs.CULCITA_CONFIG)
    doc = cli.format_simulation_document(config, summary)
    assert not checks.study_document(cli.parse_result(doc), summary)
    assert checks.study_document(
        cli.parse_result(doc), replace(summary, methods={**summary.methods, "mspl": replace(mspl, bias=mspl.bias + 1e-15)}))


def test_replication_check_uses_the_documented_draw(tiny_study):
    design, _ = tiny_study
    template = inputs.read_culcita(CULCITA)
    sample = simulate.simulate_responses(
        design.template, design.theta_true, simulate._replication_rng(design.seed, 2))
    assert np.array_equal(sample.y, inputs.study_sample(template, inputs.CULCITA_TRUTH, design.seed, 2))
    records = simulate.run_replication(design, 2)
    inexact = []
    assert not workloads._replication_checks(design, template, 2, records, inexact)
    assert workloads._replication_checks(replace(design, seed=design.seed + 1), template, 2, records, inexact)
    assert inexact == []


def test_missing_se_and_inexact_agq_are_counted_not_failed():
    # Study seed of round 1 at --seed 9.  Replication 9 draws 7 of 10
    # clusters all 0 or all 1.  The retained MSPL fit lacks two SEs, and
    # at its estimate (log sigma 2.88) AGQ-100 is off the exact
    # log-likelihood by 1.4e-3, so the exact objective is not stationary.
    template = cli.load_csv(str(CULCITA), cli.RunConfig(
        command="simulate", data=str(CULCITA), **inputs.CULCITA_CONFIG))
    truth = Theta(inputs.CULCITA_TRUTH[:4], inputs.CULCITA_TRUTH[4:])
    seed = int(np.random.SeedSequence([9, 1]).generate_state(1)[0])
    design = simulate.SimulationDesign(template, truth, 10, seed, workloads.STUDY_METHODS, ("mspl", "ml"))
    records = simulate.run_replication(design, 9)
    assert records[0].retained
    inexact = []
    assert not workloads._replication_checks(design, inputs.read_culcita(CULCITA), 9, records, inexact)
    assert inexact == [9]
