"""Spans around msplogit's layer boundaries, recorded from outside the program.

``Tracer.patched`` replaces module and class attributes of msplogit with
wrappers for the duration of a ``with`` block and restores them after,
so the untraced passes run the program exactly as shipped.  Spans stay
in memory (``Tracer.spans``) until the benchmark writes them out.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        attrs = {k: v for k, v in self.attrs.items() if not isinstance(v, np.ndarray)}
        return dict(id=self.id, parent=self.parent, layer=self.layer, name=self.name,
                    start=self.start, end=self.end, attrs=attrs)


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.  ``before``/``after`` map the call's
    arguments / return value to span attributes."""

    owner: object
    attr: str
    layer: str
    name: str
    before: object = None
    after: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, layer: str, name: str, **attrs):
        span = Span(len(self.spans), self._stack[-1].id if self._stack else None, layer, name,
                    attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = target.before(*args, **kwargs) if target.before else {}
            with self.span(target.layer, target.name, **attrs) as span:
                result = fn(*args, **kwargs)
            if target.after:
                span.attrs.update(target.after(result))
            return result

        return wrapper

    @contextmanager
    def patched(self, targets):
        saved = []
        try:
            for t in targets:
                original = getattr(t.owner, t.attr)
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(original, t))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def program_targets(msplogit) -> list[Target]:
    """The public functions at each layer boundary of msplogit.

    Each is wrapped where its caller looks it up: ``optimize.fit`` calls
    ``composite_penalty``, ``numeric_gradient``, ``hessian_fd`` and
    scipy's ``minimize`` through the optimize module's namespace, and
    ``simulate.run_replication`` calls ``fit`` and ``attach_se`` through
    the simulate module's.
    """
    cli, model, likelihood, optimize, inference, simulate = (
        msplogit.cli, msplogit.model, msplogit.likelihood,
        msplogit.optimize, msplogit.inference, msplogit.simulate,
    )

    def fit_before(data, options=None, *_, **kw):
        options = options if options is not None else kw.get("options", optimize.FitOptions())
        return {"method": options.method}

    def fit_after(result):
        return {"iterations": int(result.iterations), "converged": bool(result.converged)}

    def gradient_before(f, x, *_, **__):
        return {"x": np.array(x, dtype=float, copy=True)}

    def minimize_before(fun, x0, *_, method=None, **__):
        return {"method": method}

    targets = [
        Target(cli, "load_csv", "cli", "load_csv"),
        Target(cli, "format_fit_document", "cli", "format_document"),
        Target(cli, "format_simulation_document", "cli", "format_document"),
        Target(cli, "parse_result", "cli", "parse_result"),
        Target(model.ClusteredDataset, "__post_init__", "model", "dataset"),
        Target(likelihood.LoglikEvaluator, "cluster_logprobs", "likelihood", "cluster_logprobs"),
        Target(optimize, "composite_penalty", "penalties", "composite_penalty"),
        Target(optimize, "numeric_gradient", "optimize", "gradient", gradient_before),
        Target(optimize, "hessian_fd", "optimize", "polish_hessian"),
        Target(optimize, "minimize", "optimize", "minimize", minimize_before),
        Target(inference, "attach_se", "inference", "attach_se"),
        Target(simulate, "attach_se", "inference", "attach_se"),
        Target(simulate, "simulate_responses", "simulate", "draw"),
        Target(simulate, "run_replication", "simulate", "replication"),
    ]
    for owner in (optimize, simulate):
        targets.append(Target(owner, "fit", "optimize", "fit", fit_before, fit_after))
    return targets


def self_times(spans: list[Span]) -> np.ndarray:
    """Each span's duration minus the part its direct children cover."""
    own = np.array([s.duration for s in spans])
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def ancestor(spans: list[Span], span: Span, name: str) -> Span | None:
    while span.parent is not None:
        span = spans[span.parent]
        if span.name == name:
            return span
    return None
