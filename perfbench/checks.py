"""Correctness checks.  Each returns a list of failure messages (empty = pass).

The reference values come from ``oracles`` and from the benchmark's own
recomputation, never from a stored copy of earlier output.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from oracles import chol_from_psi

# The oracles agree with the program to about 1e-12 relative at these
# workloads' estimates (AGQ-100 is off by 2e-10 at sigma = 5.6, k = 10).
LOGLIK_RTOL = 1e-8
# Norm of the oracle's central-difference gradient of the penalized
# objective.  Its rounding noise is about 1e-6; a 1e-3 error in one
# coordinate of the estimate moves it by more than 1e-3 on every workload.
STATIONARY_TOL = 1e-4
COVERAGE_LEVEL = 0.95
# ML is discarded in about half of the culcita replications (232 beta flags
# in 500 at the c8 seed); fewer than this share marks a changed estimator.
ML_DISCARD_MIN_SHARE = 0.1
# An interior Sigma has every eigenvalue within exp(+-2 * this): random-effect
# scales between e^-10 and e^10, the range the program's default psi_max flags.
SIGMA_LOG_SCALE_MAX = 10.0


def close(a: float, b: float, rtol: float = LOGLIK_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def loglik(program: float, oracle: float, what: str = "loglik") -> list[str]:
    if close(program, oracle):
        return []
    return [f"{what} {program!r} differs from the oracle's {oracle!r}"]


def stationary(oracle_gradient: np.ndarray) -> list[str]:
    norm = float(np.linalg.norm(oracle_gradient))
    if norm <= STATIONARY_TOL:
        return []
    return [f"oracle penalized gradient norm {norm:.3g} at the estimate exceeds {STATIONARY_TOL}"]


def interior(converged: bool, theta: np.ndarray, p: int, q: int) -> list[str]:
    """Converged, every estimate finite, Sigma positive definite away from singular.

    Sigma = L L' with an exp() diagonal in L is positive definite for any
    finite psi, so the test is that its eigenvalues lie within
    exp(+-2 SIGMA_LOG_SCALE_MAX): a variance heading for 0 or infinity,
    as in an ML boundary fit, fails it.
    """
    out = []
    if not converged:
        out.append("MSPL fit did not converge")
    if not np.isfinite(theta).all():
        out.append(f"some estimate is not finite: {theta}")
    else:
        L = chol_from_psi(theta[p:], q)
        eig = np.linalg.eigvalsh(L @ L.T)
        if not (eig.min() >= np.exp(-2 * SIGMA_LOG_SCALE_MAX) and eig.max() <= np.exp(2 * SIGMA_LOG_SCALE_MAX)):
            out.append(f"Sigma eigenvalues {eig} are not inside exp(+-{2 * SIGMA_LOG_SCALE_MAX:g})")
    return out


def finite_se(se: np.ndarray | None) -> list[str]:
    if se is None or not np.isfinite(se).all():
        return [f"some SE is not finite: {se}"]
    return []


def _doc_floats(text: str) -> list[float]:
    return [float("nan") if v == "NA" else float(v) for v in text.split(",")]


def same_floats(a, b) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))


def fit_document(sections: dict, theta, se, loglik_value, penalized) -> list[str]:
    params, fitsec = sections["parameters"]["kv"], sections["fit"]["kv"]
    pairs = [
        ("estimates", _doc_floats(params["estimates"]), theta),
        ("se", _doc_floats(params["se"]), se),
        ("loglik", [float(fitsec["loglik"])], [loglik_value]),
        ("penalized", [float(fitsec["penalized"])], [penalized]),
    ]
    return [f"document {k} {got} != {want}" for k, got, want in pairs if not same_floats(got, want)]


def study_document(sections: dict, summary) -> list[str]:
    out = []
    sim = sections["simulation"]["kv"]
    if not same_floats(_doc_floats(sim["truth"]), summary.truth):
        out.append("document truth differs")
    for label, ms in summary.methods.items():
        kv, table = sections[f"summary:{label}"]["kv"], sections[f"summary:{label}"]["table"][1:]
        if int(kv["retained"]) != ms.retained:
            out.append(f"document {label} retained {kv['retained']} != {ms.retained}")
        got = np.array([[float("nan") if v == "NA" else float(v) for v in row[1:6]] for row in table])
        want = np.column_stack([ms.bias, ms.variance, ms.mse, ms.pu, ms.coverage])
        if not same_floats(got, want):
            out.append(f"document {label} summary table differs from the summary")
    return out


def mspl_replications(ms, replications: int) -> list[str]:
    """Every MSPL replication is retained, or discarded for ``beta_flag`` alone.

    ``discarded`` counts reasons only over the records that were not
    retained.  A retained record may lack an SE (``se_unavailable`` does
    not discard); that happens on some samples only, so it is counted by
    ``missing_se`` and reported, not failed.
    """
    out = []
    bad = {r: n for r, n in ms.discarded.items() if r != "beta_flag" and n}
    if bad:
        out.append(f"MSPL replications discarded for {bad}")
    if ms.retained + ms.discarded.get("beta_flag", 0) != replications:
        out.append(f"MSPL retained {ms.retained} + beta_flag {ms.discarded.get('beta_flag', 0)}"
                   f" != {replications} replications")
    return out


def missing_se(ms) -> int:
    """Retained replications of a method with some SE missing."""
    return int((~np.isfinite(ms.ses)).any(axis=1).sum())


def ml_discard_share(retained: int, replications: int) -> list[str]:
    share = 1.0 - retained / replications
    if share >= ML_DISCARD_MIN_SHARE:
        return []
    return [f"ML discarded in only {share:.2f} of {replications} replications"]


def summary_statistics(ms, truth: np.ndarray) -> list[str]:
    """Bias, MSE and coverage recomputed from the retained estimates and SEs."""
    est, se = ms.estimates, ms.ses
    if est.shape[0] != ms.retained:
        return [f"{ms.label}: {est.shape[0]} retained rows, retained = {ms.retained}"]
    if not ms.retained:
        return []
    bias = est.mean(axis=0) - truth
    mse = ((est - truth) ** 2).mean(axis=0)
    z = NormalDist().inv_cdf((1.0 + COVERAGE_LEVEL) / 2.0)
    has = np.isfinite(se)
    covered = (np.abs(est - truth) <= z * np.where(has, se, 0.0)) & has
    coverage = covered.sum(axis=0) / np.maximum(has.sum(axis=0), 1)
    out = []
    for name, mine, theirs in (("bias", bias, ms.bias), ("mse", mse, ms.mse),
                               ("coverage", coverage, ms.coverage)):
        if not np.allclose(mine, theirs, rtol=1e-12, atol=1e-12):
            out.append(f"{ms.label} {name} {theirs} != recomputed {mine}")
    return out


def rerun_matches(summary, r: int, records) -> list[str]:
    """A serial ``run_replication`` equals the pool's output for replication r."""
    out = []
    for label, record in zip(summary.methods, records):
        ms = summary.methods[label]
        if bool(ms.retained_mask[r]) != record.retained:
            out.append(f"replication {r} {label}: retained differs between pool and serial run")
        elif record.retained:
            row = int(ms.retained_mask[:r].sum())
            if not (same_floats(ms.estimates[row], record.estimates)
                    and same_floats(ms.ses[row], record.ses)):
                out.append(f"replication {r} {label}: estimates differ between pool and serial run")
    return out
