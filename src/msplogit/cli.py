"""Command line interface: data loading, run configuration, result output.

Two subcommands:

* ``fit``: load a CSV, fit one model, write a result document.
* ``simulate``: run a Monte-Carlo study on the design of a CSV, at a
  configured truth (or at the fitted estimates when no truth is given).

Options may come from a JSON config file (``--config``) and/or flags;
flags always override file values, file values override defaults, and
the precedence is total (there is no merging within a single option).

The result document is a diff-friendly key-value text format with
embedded tables (lines starting with ``|``).  All numbers are written
with 17 significant digits so that re-parsing recovers them exactly.

Exit codes: 0 converged and clean, 2 input or configuration error,
3 fit did not converge, 4 fit converged but is boundary flagged.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .datasets import culcita_columns, culcita_path, load_csv
from .inference import attach_se
from .model import DataError, Theta
from .optimize import FitError, FitOptions, FitResult, fit, parameter_names
from .simulate import (
    DEFAULT_PERCENTILES,
    REASONS,
    SimulationDesign,
    SimulationSummary,
    percentile_table,
    run_study,
)

__all__ = [
    "RunConfig",
    "culcita_config",
    "load_csv",
    "run",
    "main",
    "entry",
    "format_fit_document",
    "format_simulation_document",
    "parse_result",
    "EXIT_OK",
    "EXIT_INPUT_ERROR",
    "EXIT_UNCONVERGED",
    "EXIT_BOUNDARY",
]

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_UNCONVERGED = 3
EXIT_BOUNDARY = 4

FORMAT_HEADER = "# msplogit result v1"


@dataclass
class RunConfig:
    """Everything a run needs; see module docstring for precedence rules."""

    command: str
    data: str
    response: str
    cluster: str
    fixed: list[str] = field(default_factory=list)
    random: list[str] = field(default_factory=list)
    intercept: bool = False
    method: str = FitOptions.method
    methods: list[str] | None = None  # simulate only; defaults to [method]
    approx: str = FitOptions.approx
    quadrature: int = FitOptions.quadrature
    seed: int = 0
    replications: int = 500
    theta_true: list[float] | None = None
    out: str | None = None
    beta_max: float = FitOptions.beta_max
    psi_max: float = FitOptions.psi_max
    se_max: float = FitOptions.se_max

    def __post_init__(self):
        for name, hint in get_type_hints(RunConfig).items():
            if not _has_type(getattr(self, name), hint):
                raise DataError(
                    f"{name} must be of type {RunConfig.__annotations__[name]}, "
                    f"got {getattr(self, name)!r}"
                )
        if self.command not in ("fit", "simulate"):
            raise DataError(f"unknown command {self.command!r}")
        if not self.fixed and not self.intercept:
            raise DataError("no fixed-effect columns; give --fixed and/or --intercept")
        if not self.random and not self.intercept:
            raise DataError("no random-effect columns; give --random and/or --intercept")
        if self.replications < 1:
            raise DataError(f"replications must be at least 1, got {self.replications}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if self.theta_true is not None and not np.isfinite(self.theta_true).all():
            raise DataError(f"theta_true must be finite, got {self.theta_true}")
        if self.methods is None:
            self.methods = [self.method]
        elif not self.methods:
            raise DataError("methods must name at least one method")
        elif len(set(self.methods)) != len(self.methods):
            raise DataError(f"methods must not repeat a method, got {self.methods}")
        q = len(self.random) + self.intercept
        try:
            for m in [self.method] + self.methods:
                self.fit_options(m).resolve_approx(q)
        except ValueError as err:
            raise DataError(str(err)) from None

    def fit_options(self, method: str | None = None) -> FitOptions:
        return FitOptions(
            method=method or self.method,
            approx=self.approx,
            quadrature=self.quadrature,
            beta_max=self.beta_max,
            psi_max=self.psi_max,
            se_max=self.se_max,
        )

    def beta_names(self) -> list[str]:
        return (["intercept"] if self.intercept else []) + list(self.fixed)


def _has_type(value, hint) -> bool:
    """Whether a setting's value, as JSON or argparse gives it, has the annotated type."""
    if get_origin(hint) is UnionType:
        return any(_has_type(value, alt) for alt in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, get_args(hint)[0]) for v in value)
    if hint is type(None):
        return value is None
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, hint)


def culcita_config(command: str = "fit", **overrides) -> RunConfig:
    """A run configuration for the bundled predation data."""
    settings = dict(command=command, data=culcita_path(), **culcita_columns())
    settings.update(overrides)
    return RunConfig(**settings)


# ---------------------------------------------------------------------------
# Result document
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            return "NA" if np.isnan(value) else ("inf" if value > 0 else "-inf")
        return format(float(value), ".17g")
    return str(value)


def _fmt_list(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _config_lines(config: RunConfig) -> list[str]:
    lines = ["[run]"]
    for key in ("command", "data", "response", "fixed", "random", "cluster", "intercept",
                "method", "approx", "quadrature", "beta_max", "psi_max", "se_max"):
        value = getattr(config, key)
        lines.append(f"{key} = {_fmt_list(value) if isinstance(value, list) else _fmt(value)}")
    return lines


def format_fit_document(
    config: RunConfig, names: list[str], result: FitResult
) -> str:
    lines = [FORMAT_HEADER]
    lines += _config_lines(config)
    lines.append("[parameters]")
    lines.append(f"names = {','.join(names)}")
    lines.append(f"estimates = {_fmt_list(result.theta.as_vector())}")
    se = result.se if result.se is not None else np.full(result.theta.dim, np.nan)
    lines.append(f"se = {_fmt_list(se)}")
    lines.append(f"boundary_flags = {_fmt_list(result.boundary_flags.astype(int))}")
    lines.append("[fit]")
    lines.append(f"loglik = {_fmt(result.loglik)}")
    lines.append(f"penalized = {_fmt(result.penalized)}")
    lines.append(f"converged = {_fmt(result.converged)}")
    lines.append(f"iterations = {result.iterations}")
    lines.append(f"evaluations = {result.evaluations}")
    lines.append(f"grad_norm = {_fmt(result.grad_norm)}")
    return "\n".join(lines) + "\n"


def format_simulation_document(
    config: RunConfig, summary: SimulationSummary
) -> str:
    lines = [FORMAT_HEADER]
    lines += _config_lines(config)
    lines.append("[simulation]")
    lines.append(f"replications = {summary.replications}")
    lines.append(f"seed = {summary.seed}")
    lines.append(f"methods = {','.join(summary.methods)}")
    lines.append(f"names = {','.join(summary.param_names)}")
    lines.append(f"truth = {_fmt_list(summary.truth)}")
    for label, ms in summary.methods.items():
        lines.append(f"[summary:{label}]")
        lines.append(f"retained = {ms.retained}")
        for reason in REASONS:
            lines.append(f"discarded_{reason} = {ms.discarded[reason]}")
        lines.append("| param bias variance mse pu coverage coverage_n")
        for j, name in enumerate(summary.param_names):
            lines.append(
                "| " + " ".join([
                    name, _fmt(ms.bias[j]), _fmt(ms.variance[j]), _fmt(ms.mse[j]),
                    _fmt(ms.pu[j]), _fmt(ms.coverage[j]), str(int(ms.coverage_n[j])),
                ])
            )
        lines.append(f"[percentiles:{label}]")
        header = " ".join(f"p{g:g}" for g in DEFAULT_PERCENTILES)
        lines.append(f"| param {header}")
        centered = ms.centered(summary.truth)
        for j, name in enumerate(summary.param_names):
            row = percentile_table(centered[:, j])
            lines.append("| " + name + " " + " ".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_result(text: str) -> dict:
    """Parse a result document back into sections of key-values and tables."""
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise DataError("not a msplogit result document")
    sections: dict[str, dict] = {}
    current = None
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {"kv": {}, "table": []}
        elif line.startswith("| "):
            sections[current]["table"].append(line[2:].split())
        else:
            key, _, value = line.partition(" = ")
            sections[current]["kv"][key.strip()] = value
    return sections


# ---------------------------------------------------------------------------
# Run driver
# ---------------------------------------------------------------------------


def _emit(document: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(document)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(document)


def run(config: RunConfig) -> int:
    """Execute a configured run and write its result document."""
    data = load_csv(config.data, config)
    names = parameter_names(data, config.beta_names())
    if len(config.beta_names()) != data.p:
        raise DataError("internal: fixed design width mismatch")

    if config.command == "fit":
        result = fit(data, config.fit_options())
        result, _ = attach_se(data, result)
        _emit(format_fit_document(config, names, result), config.out)
        if not result.converged:
            return EXIT_UNCONVERGED
        if result.flagged:
            return EXIT_BOUNDARY
        return EXIT_OK

    # simulate
    if config.theta_true is not None:
        want = len(names)
        if len(config.theta_true) != want:
            raise DataError(
                f"theta_true needs {want} entries (beta then psi), got {len(config.theta_true)}"
            )
        truth = Theta(np.array(config.theta_true[: data.p]), np.array(config.theta_true[data.p:]))
    else:
        truth = fit(data, config.fit_options()).theta
    design = SimulationDesign(
        template=data,
        theta_true=truth,
        replications=config.replications,
        seed=config.seed,
        methods=tuple(config.fit_options(m) for m in config.methods),
        labels=tuple(config.methods),
    )
    summary = run_study(design, param_names=tuple(names))
    _emit(format_simulation_document(config, summary), config.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"command"}


def _comma_list(value: str) -> list[str]:
    return [v for v in (s.strip() for s in value.split(",")) if v]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msplogit",
        description="Mixed-effects logistic regression by (softly penalized) maximum likelihood",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fit", "simulate"):
        s = sub.add_parser(name)
        s.add_argument("--data", help="CSV file with a header row")
        s.add_argument("--config", help="JSON config file; flags override it")
        s.add_argument("--response", help="0/1 response column")
        s.add_argument("--fixed", type=_comma_list, help="comma-separated fixed-effect columns")
        s.add_argument("--random", type=_comma_list, help="comma-separated random-effect columns")
        s.add_argument("--cluster", help="cluster label column")
        s.add_argument(
            "--intercept", action="store_true", default=None,
            help="prepend a ones column to the fixed and random designs",
        )
        s.add_argument("--method", choices=("ml", "mspl"))
        s.add_argument("--approx", choices=("agq", "laplace", "auto"))
        s.add_argument("--quadrature", type=int, help="adaptive quadrature node count")
        s.add_argument("--seed", type=int)
        s.add_argument("--replications", type=int)
        s.add_argument("--out", help="result file path (default: stdout)")
        s.add_argument("--beta-max", dest="beta_max", type=float)
        s.add_argument("--psi-max", dest="psi_max", type=float)
        s.add_argument("--se-max", dest="se_max", type=float)
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flags (flags win)."""
    settings: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                file_settings = json.load(handle)
        except OSError as err:
            raise DataError(f"cannot open config {args.config}: {err}") from err
        except json.JSONDecodeError as err:
            raise DataError(f"{args.config}: invalid JSON: {err}") from err
        if not isinstance(file_settings, dict):
            raise DataError(f"{args.config}: config must be a JSON object")
        for key in file_settings:
            if key not in _CONFIG_KEYS:
                raise DataError(f"{args.config}: unknown config key {key!r}")
        settings.update(file_settings)
    for key in _CONFIG_KEYS - {"methods", "theta_true"}:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    for key in ("data", "response", "cluster"):
        if key not in settings:
            raise DataError(f"missing required setting {key!r}")
    return RunConfig(command=args.command, **settings)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
        return run(config)
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except FitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNCONVERGED


def entry() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
