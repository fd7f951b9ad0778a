"""Benchmark of msplogit: fit time and study throughput, end to end and per layer.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json.  The program is
imported from ``src/`` next to this directory; without it the benchmark
exits with code 2.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run also writes its spans to
``perfbench/out/trace-NAME-N.json``.  A run starts no round that it
expects to end, with the set-up probes still to come, more than
``--seconds`` after it started; it always makes one.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-ups timed per untraced run, in fresh interpreters spread over the run.
SETUP_PROBES = 9
PROBE_GUESS_S = 1.0  # reserved per probe before the first one is timed
PROBE_TIMEOUT_S = 60
# Kept free at the end of the run for the result and the clean-up.
END_MARGIN_S = 0.5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class SetupProbes:
    """Times import plus loading the input in fresh interpreters.

    The probes run between rounds, as many as the run's elapsed share
    calls for, so that their median spans the whole run and not one stretch
    of it; ``median`` runs any still missing.
    """

    def __init__(self, csv_path: Path, fields: dict, deadline: float):
        self.args = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(csv_path), json.dumps(fields)]
        self.deadline = deadline
        self.times: list[float] = []
        self.spent: list[float] = []

    def probe(self) -> None:
        start = perf_counter()
        done = subprocess.run(self.args, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
        self.times.append(float(done.stdout.strip().splitlines()[-1]))
        self.spent.append(perf_counter() - start)

    def after_round(self) -> None:
        share = (perf_counter() - START) / (self.deadline - START)
        while len(self.times) < min(SETUP_PROBES, 1 + SETUP_PROBES * share):
            self.probe()

    def reserve_s(self) -> float:
        each = statistics.median(self.spent) if self.spent else PROBE_GUESS_S
        return (SETUP_PROBES - len(self.times)) * each

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "msplogit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no msplogit source under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import inputs
    import metrics
    import workloads

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    deadline = START + args.seconds - END_MARGIN_S
    scratch = []
    if args.workload == "study-culcita":
        probe_csv, fields = SRC / "msplogit" / "data" / "culcita.csv", inputs.CULCITA_CONFIG
    else:
        # set-up is timed on the first input
        probe_csv, fields = out / f"setup-{args.workload}-{args.seed}.csv", inputs.LAPLACE_CONFIG
        inputs.write_csv(probe_csv, inputs.laplace_data(args.seed, 0))
        scratch.append(probe_csv)
    setup = None if args.trace else SetupProbes(probe_csv, fields, deadline)
    ctx = workloads.Context(ROOT, args.seed, deadline, bool(args.trace), out, setup)
    if args.workload == "study-culcita":
        outcome = workloads.run_study_workload(ctx)
        peak = workloads.peak_rss_mb(outcome.extra["workers"], outcome.extra.pop("worker_maxrss_kib"))
    else:
        path = out / f"input-{args.workload}-{args.seed}.csv"
        scratch.append(path)
        outcome = workloads.run_fit_workload(ctx, path, inputs.laplace_data, fields)
        peak = workloads.peak_rss_mb()

    if args.trace:
        values, wanted = metrics.per_layer(outcome), spec["per_layer"]
        trace_path = out / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "metrics": values,
            "spans": [s.as_dict() for s in outcome.tracer.spans],
        }), encoding="utf-8")
    else:
        values = metrics.end_to_end(outcome, setup.median(), peak)
        wanted = spec["end_to_end"]
    for path in scratch:
        path.unlink(missing_ok=True)

    print(f"workload {args.workload} seed {args.seed}: {outcome.attempted} operations, "
          f"{outcome.failed} failed, {perf_counter() - START:.1f} s, {outcome.extra}")
    if setup is not None:
        print("  setup_s samples:", " ".join(f"{x:.4f}" for x in setup.times))
    print("  solve_s samples:", " ".join(f"{x:.4f}" for x in outcome.solve_s))
    for failure in outcome.failures[:20]:
        print(f"  FAILED {failure}")
    for m in wanted:
        print(f"  {m['name']:28s} {values[m['name']]:14.6g} {m['unit']}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
