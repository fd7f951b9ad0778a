"""Agreement of two source trees on fixed sets of fits.

Usage, from the root of a source tree:

    python3 tools/agreement.py run OUT.jsonl
    python3 tools/agreement.py compare PARENT.jsonl CHANGE.jsonl

``run`` imports msplogit from ``src/`` next to this directory and writes
one JSON line per fit; ``compare`` prints, per set, how far two such
files agree.  Floats are written with ``float.hex``, so that equal means
bit-identical.  Each line also counts the fit's ``state`` passes of the
cluster-mode solver and its ``LoglikEvaluator.value_and_grad`` calls,
standard errors included, and the RuntimeWarnings that escaped it (at
culcita, those of its whole replication).

The sets:

* ``culcita``: the c8 study on the full bundled data at the benchmark's
  truth, seeds 5101-5110 x 30 replications, MSPL and ML at AGQ-100 with
  SEs, through ``simulate.run_replication`` (600 fits).
* ``laplace-q2``: the benchmark's ``laplace_data``, seeds 5201-5210 x
  operations 0-7, MSPL and ML with the default options and SEs (160 fits).
* ``far-start``: for s = 0-149, ``rng = default_rng([77, s])``; p = 2 + s %
  2; X = (1, ``rng.normal(size=(16, p - 1))``); y = ``rng.integers(0, 2,
  16)``, replaced by y = (x1 > 0) when s % 3 == 0; 4 clusters of 4 rows
  with Z = 1; then starts of norm 30, 100, 300 and 1000, each ``norm * v
  / |v|`` with v = ``rng.normal(size=p + 1)`` drawn in that order; each
  fit MSPL at AGQ-20 without SEs (600 fits).
"""

from __future__ import annotations

import json
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

FAR_NORMS = (30, 100, 300, 1000)


class Counters:
    """Counts ``state`` passes and ``value_and_grad`` calls, process-wide."""

    def __init__(self):
        from msplogit import likelihood

        self.passes = self.calls = 0
        solve = likelihood._damped_newton
        value_and_grad = likelihood.LoglikEvaluator.value_and_grad

        def counted_solve(state, *args):
            def counting_state(v):
                self.passes += 1
                return state(v)

            return solve(counting_state, *args)

        def counted_value_and_grad(evaluator, theta):
            self.calls += 1
            return value_and_grad(evaluator, theta)

        likelihood._damped_newton = counted_solve
        likelihood.LoglikEvaluator.value_and_grad = counted_value_and_grad

    def snapshot(self):
        return self.passes, self.calls


def _hex(values) -> list[str]:
    return [float(x).hex() for x in np.atleast_1d(values)]


def _line(set_name, key, method, result, ses, reasons, counts, leaked):
    """One fit's line; ``result`` is None where the fit raised ``FitError``."""
    line = dict(set=set_name, id=key, method=method, reasons=sorted(reasons),
                passes=counts[0], calls=counts[1], warnings=leaked)
    if result is None:
        return dict(line, status="error")
    return dict(
        line, status="converged" if result.converged else "unconverged",
        estimates=_hex(result.theta.as_vector()), penalized=float(result.penalized).hex(),
        evaluations=result.evaluations, ses=None if ses is None else _hex(ses),
    )


def _culcita(counters):
    import inputs
    from msplogit import Theta, datasets, simulate
    from msplogit.optimize import FitOptions

    methods = (FitOptions(method="mspl", approx="agq", quadrature=100),
               FitOptions(method="ml", approx="agq", quadrature=100))
    truth = Theta(inputs.CULCITA_TRUTH[:4], inputs.CULCITA_TRUTH[4:])
    fit = simulate.fit
    for seed in range(5101, 5111):
        design = simulate.SimulationDesign(datasets.culcita(), truth, 30, seed, methods, ("mspl", "ml"))
        for r in range(30):
            starts, results = [], []

            def recorded(data, options):
                starts.append(counters.snapshot())
                results.append(None)
                results[-1] = fit(data, options)
                return results[-1]

            simulate.fit = recorded
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    records = simulate.run_replication(design, r)
            finally:
                simulate.fit = fit
            ends = starts[1:] + [counters.snapshot()]
            for m, label in enumerate(design.labels):
                counts = tuple(b - a for a, b in zip(starts[m], ends[m]))
                yield _line("culcita", f"{seed}/{r}", label, results[m], records[m].ses,
                            records[m].reasons, counts, len(caught))


def _laplace(counters):
    import inputs
    from msplogit import ClusteredDataset, simulate
    from msplogit.inference import attach_se
    from msplogit.optimize import FitError, FitOptions, fit

    for seed in range(5201, 5211):
        for op in range(8):
            d = inputs.laplace_data(seed, op)
            data = ClusteredDataset(d.y, d.X, d.Z, np.diff(d.offsets))
            for method in ("mspl", "ml"):
                start = counters.snapshot()
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        result = attach_se(data, fit(data, FitOptions(method=method)))[0]
                        ses = np.where(result.se_available, result.se, np.nan)
                        reasons = simulate._fit_reasons(result)
                    except FitError:
                        result, ses, reasons = None, None, {"exception"}
                counts = tuple(b - a for a, b in zip(start, counters.snapshot()))
                yield _line("laplace-q2", f"{seed}/{op}", method, result, ses, reasons, counts,
                            len(caught))


def far_start_fits():
    """The far-start set: ((s, norm), data, options) in order."""
    from msplogit import ClusteredDataset, Theta
    from msplogit.optimize import FitOptions

    for s in range(150):
        rng = np.random.default_rng([77, s])
        p = 2 + s % 2
        X = np.column_stack([np.ones(16), rng.normal(size=(16, p - 1))])
        y = rng.integers(0, 2, 16).astype(float)
        if s % 3 == 0:
            y = (X[:, 1] > 0).astype(float)
        data = ClusteredDataset(y, X, np.ones((16, 1)), [4, 4, 4, 4])
        for norm in FAR_NORMS:
            v = rng.normal(size=p + 1)
            start = Theta.from_vector(norm * v / np.linalg.norm(v), p)
            yield (s, norm), data, FitOptions(method="mspl", approx="agq", quadrature=20, start=start)


def _far_start(counters):
    from msplogit.optimize import FitError, fit

    for (s, norm), data, options in far_start_fits():
        start = counters.snapshot()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = fit(data, options)
                reasons = () if result.converged else {"unconverged"}
            except FitError:
                result, reasons = None, {"exception"}
        counts = tuple(b - a for a, b in zip(start, counters.snapshot()))
        yield _line("far-start", f"{s}/{norm}", "mspl", result, None, reasons, counts, len(caught))


def run(out: str) -> None:
    counters = Counters()
    with open(out, "w", encoding="utf-8") as handle:
        for make in (_culcita, _laplace, _far_start):
            for line in make(counters):
                handle.write(json.dumps(line) + "\n")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _floats(hexes):
    return np.array([float.fromhex(x) for x in hexes])


def _entry_rel(a, b):
    """Largest relative difference per entry, over entries finite on both sides."""
    both = np.isfinite(a) & np.isfinite(b)
    diff = np.abs(a - b)[both] / np.abs(a[both])
    return float(diff.max()) if diff.size else 0.0


def _load(path):
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(text) for text in handle]
    return {(x["set"], x["id"], x["method"]): x for x in lines}


def _report(name, pairs):
    """Print the agreement of one set's (key, parent line, change line) triples."""
    from msplogit.simulate import DISCARD_REASONS

    def kept(line):
        return set(DISCARD_REASONS).isdisjoint(line["reasons"])

    statuses, changes = [Counter(), Counter()], []
    totals = np.zeros((2, 2), dtype=int)
    leaks = np.zeros(2, dtype=int)
    retained = np.zeros(2, dtype=int)
    same = Counter()
    est_rel = se_rel = se_kept_rel = pen_rel = 0.0
    fitted = with_se = 0
    for key, a, b in pairs:
        for side, x in enumerate((a, b)):
            statuses[side][x["status"]] += 1
            totals[side] += x["passes"], x["calls"]
            leaks[side] += x["warnings"] > 0
            retained[side] += kept(x)
        same["reasons"] += a["reasons"] == b["reasons"]
        same["retained"] += kept(a) == kept(b)
        if a["status"] != b["status"]:
            changes.append(f"{key[1]} {key[2]}: {a['status']} -> {b['status']}")
        if "estimates" not in a or "estimates" not in b:
            continue
        fitted += 1
        same["estimates"] += a["estimates"] == b["estimates"]
        same["evaluations"] += a["evaluations"] == b["evaluations"]
        if a["status"] == b["status"] == "converged":
            x, y = _floats(a["estimates"]), _floats(b["estimates"])
            est_rel = max(est_rel, np.linalg.norm(x - y) / np.linalg.norm(x))
            pen_rel = max(pen_rel, _entry_rel(_floats([a["penalized"]]), _floats([b["penalized"]])))
        if a["ses"] is not None and b["ses"] is not None:
            with_se += 1
            same["ses"] += a["ses"] == b["ses"]
            rel = _entry_rel(_floats(a["ses"]), _floats(b["ses"]))
            se_rel = max(se_rel, rel)
            if kept(a) and kept(b):
                se_kept_rel = max(se_kept_rel, rel)
    rows = [
        f"fits: {len(pairs)}; status {dict(statuses[0])} -> {dict(statuses[1])}",
        f"estimates bit-identical: {same['estimates']} of {fitted} fitted on both sides",
        f"converged on both sides: estimates within {est_rel:.2g} (norm-relative), "
        f"penalized within {pen_rel:.2g} relative",
        f"evaluations equal: {same['evaluations']} of {fitted}",
        f"reasons equal: {same['reasons']} of {len(pairs)}; retained {retained[0]} -> "
        f"{retained[1]}, equal on {same['retained']} fits",
        f"state passes {totals[0, 0]} -> {totals[1, 0]}; value_and_grad calls "
        f"{totals[0, 1]} -> {totals[1, 1]}",
        f"fits leaking RuntimeWarnings: {leaks[0]} -> {leaks[1]}",
    ]
    if with_se:
        rows.insert(3, f"SEs bit-identical: {same['ses']} of {with_se}; within {se_rel:.2g} "
                       f"relative per entry, {se_kept_rel:.2g} on fits retained on both sides")
    print(f"== {name}")
    for row in rows + [f"status changed: {c}" for c in changes]:
        print("  " + row)


def compare(path_a: str, path_b: str) -> None:
    a, b = _load(path_a), _load(path_b)
    if a.keys() != b.keys():
        raise SystemExit(f"the files hold different fits: {len(a.keys() ^ b.keys())} unmatched")
    for name in dict.fromkeys(key[0] for key in a):
        _report(name, [(key, a[key], b[key]) for key in a if key[0] == name])


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "run":
        run(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        compare(sys.argv[2], sys.argv[3])
    else:
        raise SystemExit(__doc__.split("\n\n")[1])
