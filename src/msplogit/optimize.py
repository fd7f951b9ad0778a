"""Quasi-Newton maximization of the (penalized) approximate log-likelihood.

The objective is the approximate marginal log-likelihood, optionally
plus the scaled composite penalty.  Both gradients are exact: the
likelihood's comes from the same mode solve as its value
(``LoglikEvaluator.value_and_grad``), the penalty's is analytic.
Maximization is BFGS with a strong-Wolfe line search, given the
objective and its gradient in one call per point.  Both are the
package's own (``minimize``): BFGS after Nocedal & Wright (2006),
Numerical Optimization, algorithm 6.1, and the line search as one loop
of their algorithms 3.5 and 3.6, whose zoom takes the safeguarded cubic
through the bracket's ends as its one trial rule.  Near the optimum, where
value changes sink into the noise of the warm-started mode solves, the
line search accepts steps by Hager & Zhang's approximate Wolfe
conditions, so BFGS alone reaches the gradient tolerance.  The same
BFGS finds the default start: the Jeffreys-penalized logistic fit of
the fixed effects alone, with psi = 0.

The gradient tolerance ``GRAD_TOL``, the iteration cap ``MAX_ITER``, the
approximate-Wolfe tolerance ``WOLFE_EPS`` and the finite-difference step
``FD_STEP_SCALE`` are constants of this module, not fit options.  The
step serves ``hessian_fd``, which gives the standard errors their
Hessian at q >= 2 only (q = 1 has an exact one), and
``numeric_gradient``, the tests' reference.

The log-Cholesky encoding of the covariance makes the parameter space
all of R^d, so the optimization is unconstrained.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .likelihood import MAX_QUADRATURE, LoglikEvaluator, ModeFindingError, gauss_hermite_rule
from .model import ClusteredDataset, Theta, expit, n_psi, psi_names
from .penalties import composite_penalty, jeffreys_penalty, scale_factor

__all__ = [
    "FitOptions",
    "FitResult",
    "FitError",
    "GradientError",
    "objective_and_gradient",
    "numeric_gradient",
    "hessian_fd",
    "minimize",
    "default_start",
    "fit",
    "parameter_names",
]

GRAD_TOL = 1e-6
MAX_ITER = 500
EPS = float(np.finfo(float).eps)
FD_STEP_SCALE = EPS ** (1.0 / 3.0)

# Strong-Wolfe line search: sufficient-decrease and curvature constants,
# the relative value change below which a step is judged on its slope
# alone (approximate Wolfe; far above the 1e-13 to 1e-11 value noise of
# warm-started mode solves), and the trials allowed while extending the
# step and while shrinking the bracket, and the least fraction of the
# bracket's width that keeps a zoom trial off either end.
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
WOLFE_EPS = 1e-10
BRACKET_STEPS = 10
ZOOM_STEPS = 10
SAFEGUARD = 0.1


class FitError(RuntimeError):
    """Likelihood evaluation failed irrecoverably during a fit."""


class GradientError(RuntimeError):
    """A probe of ``numeric_gradient`` produced a non-finite value."""


@dataclass(frozen=True)
class FitOptions:
    """Configuration of a single fit.

    method: "ml" for plain maximum likelihood, "mspl" for maximum
        softly-penalized likelihood.
    approx: "agq" (adaptive quadrature, q = 1 only), "laplace", or
        "auto" (quadrature when q = 1, Laplace otherwise).
    quadrature: node count of the adaptive rule, 1 to ``MAX_QUADRATURE``.
    start: optional starting point; without one, or where the objective
        is -inf at it, a fit starts from ``default_start``.
    beta_max, psi_max, se_max: positive thresholds (``inf`` allowed)
        above which an estimate or its standard error is flagged as
        atypically large in absolute value; they are diagnostics, not
        constraints.
    """

    method: str = "mspl"
    approx: str = "auto"
    quadrature: int = 100
    start: Theta | None = None
    beta_max: float = 15.0
    psi_max: float = 10.0
    se_max: float = 50.0

    def __post_init__(self):
        if self.method not in ("ml", "mspl"):
            raise ValueError(f"method must be 'ml' or 'mspl', got {self.method!r}")
        if self.approx not in ("agq", "laplace", "auto"):
            raise ValueError(f"approx must be 'agq', 'laplace' or 'auto', got {self.approx!r}")
        try:
            in_range = 1 <= operator.index(self.quadrature) <= MAX_QUADRATURE
        except TypeError:
            in_range = False
        if not in_range:
            raise ValueError(
                f"quadrature size must be an integer in [1, {MAX_QUADRATURE}], "
                f"got {self.quadrature!r}"
            )
        if self.start is not None and not isinstance(self.start, Theta):
            raise ValueError(f"start must be a Theta or None, got {type(self.start).__name__}")
        for name in ("beta_max", "psi_max", "se_max"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")

    def resolve_approx(self, q: int) -> str:
        """The approximation for q random effects; quadrature needs q = 1."""
        if self.approx == "auto":
            return "agq" if q == 1 else "laplace"
        if self.approx == "agq" and q != 1:
            raise ValueError(f"adaptive quadrature supports q = 1 only, got q = {q}")
        return self.approx

    def evaluator(self, data: ClusteredDataset) -> LoglikEvaluator:
        """The approximate log-likelihood of ``data`` these options select."""
        approx = self.resolve_approx(data.q)
        rule = gauss_hermite_rule(self.quadrature) if approx == "agq" else None
        return LoglikEvaluator(data, approx, rule)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit.

    ``loglik`` is the unpenalized approximate log-likelihood at the
    estimate; ``penalized`` is the maximized objective (identical to
    ``loglik`` for ML).  ``iterations`` counts BFGS iterations and
    ``evaluations`` the fit's calls of ``LoglikEvaluator.value_and_grad``.
    ``se`` and ``se_available`` are set once the inference module
    attaches standard errors.  ``objective_trace`` records the objective
    at each BFGS iterate; an approximate-Wolfe step (``_wolfe_step``) can
    lower it by up to ``WOLFE_EPS`` relative.

    The flags are derived from the estimate, its SEs and the thresholds
    in ``options``, one entry per parameter: ``estimate_flags`` marks
    |beta_j| > beta_max and |psi_j| > psi_max, ``se_flags`` marks
    available SEs above se_max (all false before SEs are attached), and
    ``boundary_flags`` is their union.
    """

    theta: Theta
    loglik: float
    penalized: float
    converged: bool
    iterations: int
    evaluations: int
    grad_norm: float
    options: FitOptions
    se: np.ndarray | None = None
    se_available: np.ndarray | None = None
    objective_trace: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def estimate_flags(self) -> np.ndarray:
        return np.concatenate([
            np.abs(self.theta.beta) > self.options.beta_max,
            np.abs(self.theta.psi) > self.options.psi_max,
        ])

    @property
    def se_flags(self) -> np.ndarray:
        if self.se is None:
            return np.zeros(self.theta.dim, dtype=bool)
        return self.se_available & (self.se > self.options.se_max)

    @property
    def boundary_flags(self) -> np.ndarray:
        return self.estimate_flags | self.se_flags

    @property
    def flagged(self) -> bool:
        return bool(self.boundary_flags.any())


def parameter_names(data: ClusteredDataset, fixed_names=None) -> list[str]:
    """Names of the joint parameter vector, beta block then psi block."""
    if fixed_names is None:
        fixed_names = [f"b{j}" for j in range(data.p)]
    return [f"beta:{name}" for name in fixed_names] + [
        f"psi:{name}" for name in psi_names(data.q)
    ]


def objective_and_gradient(
    data: ClusteredDataset,
    theta: Theta,
    options: FitOptions,
    evaluator: LoglikEvaluator | None = None,
) -> tuple[float, np.ndarray]:
    """The objective ``fit`` maximizes, and its gradient, from one mode solve.

    ML: the approximate log-likelihood; MSPL: that plus the scaled
    composite penalty, which is -inf, with a NaN fixed-effects gradient,
    where ``jeffreys_penalty`` finds sqrt(W) X rank deficient; the line
    search backs away from such a point.  A non-finite likelihood
    gradient raises ``ModeFindingError``.
    """
    if evaluator is None:
        evaluator = options.evaluator(data)
    value, grad = evaluator.value_and_grad(theta)
    if options.method == "mspl":
        penalty = composite_penalty(data, theta)
        value += penalty.value
        grad = grad + penalty.gradient
    return value, grad


def _central_probes(f, x: np.ndarray):
    """Yield (j, f(x + h e_j), f(x - h e_j), h) for each coordinate j.

    The step is ``h = FD_STEP_SCALE * max(1, |x_j|)``.
    """
    for j in range(x.size):
        h = FD_STEP_SCALE * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        yield j, f(xp), f(xm), h


def numeric_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient with per-coordinate relative steps.

    The finite-difference reference that analytic gradients are tested
    against; no fit calls it.  Step in coordinate j is
    ``FD_STEP_SCALE * max(1, |x_j|)``.  A non-finite probe value raises
    ``GradientError`` naming the coordinate.
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for j, fp, fm, h in _central_probes(f, x):
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise GradientError(
                f"non-finite objective while probing coordinate {j} "
                f"(f+ = {fp}, f- = {fm})"
            )
        grad[j] = (fp - fm) / (2.0 * h)
    return grad


def hessian_fd(grad, x: np.ndarray) -> np.ndarray:
    """Hessian as the symmetrized central-difference Jacobian of ``grad``.

    Step in coordinate j is ``FD_STEP_SCALE * max(1, |x_j|)``; 2d calls
    of ``grad``.
    """
    x = np.asarray(x, dtype=float)
    H = np.empty((x.size, x.size))
    for j, gp, gm, h in _central_probes(grad, x):
        H[:, j] = (gp - gm) / (2.0 * h)
    return 0.5 * (H + H.T)


def _cubic_min(a, fa, da, b, fb, db):
    """Minimizer of the cubic with values fa, fb and slopes da, db at a, b; NaN if none."""
    try:
        d1 = da + db - 3.0 * (fa - fb) / (a - b)
        d2 = math.copysign(math.sqrt(d1 * d1 - da * db), b - a)
        return b - (b - a) * (db + d2 - d1) / (db - da + 2.0 * d2)
    except (ArithmeticError, ValueError):
        return math.nan


def _wolfe_step(fun, x, direction, f0, g0, f_prev):
    """A step along ``direction`` meeting the strong Wolfe conditions.

    A trial is accepted when |phi'(a)| <= WOLFE_C2 |phi'(0)| and its
    value is at most f0 + WOLFE_EPS |f0|: the strong Wolfe conditions,
    widened to the approximate ones of Hager & Zhang (2005), SIAM J.
    Optim. 16(1), since every step with sufficient decrease passes that
    value test.  Near the optimum the decrease the Armijo test asks for
    falls below the noise in the objective's value, while the slope
    still tells a good step from a bad one.

    One loop, after Nocedal & Wright's (2006) algorithms 3.5 and 3.6.
    The first step is min(1, 2.02 (f0 - f_prev) / slope), which repeats
    the previous iteration's decrease.  While trials are short
    (sufficient decrease, below the ``best`` trial from the second on,
    and a negative slope) the step grows by 4 times the last increase,
    for at most ``BRACKET_STEPS`` trials.  The first other trial closes
    a bracket between ``best`` and a ``far`` end, which then shrinks at
    most ``ZOOM_STEPS`` times.  Each zoom trial minimizes the cubic
    through the two ends' values and slopes, clamped ``SAFEGUARD`` of
    the width inside the bracket, or is the midpoint where the cubic
    has none.  The clamp keeps a cubic that lost its digits to a huge
    value from collapsing the bracket onto an end.  A non-finite value
    counts as too long.  Gives up once no step in the bracket can change
    the value beyond rounding.  Returns (step, value, gradient), or None.
    """
    slope0 = float(g0 @ direction)
    if not slope0 < 0.0:
        return None
    f_flat = f0 + WOLFE_EPS * abs(f0)
    step = min(1.0, 2.02 * (f0 - f_prev) / slope0) if f0 < f_prev else 1.0
    best, far, trials = (0.0, f0, slope0), None, BRACKET_STEPS
    for i in itertools.count():
        f, g = fun(x + step * direction)
        f, d = float(f), float(g @ direction)
        if abs(d) <= -WOLFE_C2 * slope0 and f <= f_flat:
            return step, f, g
        armijo = f <= f0 + WOLFE_C1 * step * slope0
        short = far is None and armijo and (i == 0 or f < best[1]) and d < 0.0
        if far is None and not short:
            far, trials = best, i + 1 + ZOOM_STEPS
        if i + 1 == trials:
            return None
        trial = (step, f, d)
        if short:
            step, best = step + 4.0 * (step - best[0]), trial
            continue
        if not (armijo and f < best[1]):
            far = trial
        else:
            far, best = (best if d * best[2] < 0.0 else far), trial
        left, right = sorted((best[0], far[0]))
        width = right - left
        if width * -slope0 <= EPS * abs(f0):
            return None
        step = _cubic_min(*best, *far)
        if math.isnan(step):
            step = 0.5 * (left + right)
        step = min(max(step, left + SAFEGUARD * width), right - SAFEGUARD * width)


def minimize(fun, x0, callback=None):
    """Minimize by BFGS, given ``fun(x)`` = (value, gradient).

    Algorithm 6.1 from the identity inverse Hessian, with the step
    lengths of ``_wolfe_step``.  Stops at gradient norm ``GRAD_TOL``,
    after ``MAX_ITER`` iterations, or when the line search finds no
    step, as it does once value changes fall below rounding.
    ``callback(x, value)`` runs after each iteration.  Returns the last
    iterate, its value and gradient, and the iteration count.
    """
    x = np.asarray(x0, dtype=float)
    f, g = fun(x)
    f, H, nit = float(f), np.eye(x.size), 0
    f_prev = f + np.linalg.norm(g) / 2.0  # makes the first trial step min(1, 1.01 / |g|)
    while nit < MAX_ITER and np.linalg.norm(g) > GRAD_TOL:
        direction = -(H @ g)
        found = _wolfe_step(fun, x, direction, f, g, f_prev)
        if found is None:
            break
        alpha, f_new, g_new = found
        s, y = alpha * direction, g_new - g
        x, f_prev, f, g = x + s, f, f_new, g_new
        nit += 1
        if callback is not None:
            callback(x, f)
        sy = float(s @ y)
        if sy > 0.0:
            Hy = H @ y
            H = (H + (sy + y @ Hy) / sy**2 * np.outer(s, s)
                 - (np.outer(Hy, s) + np.outer(s, Hy)) / sy)
    return x, f, g, nit


def default_start(data: ClusteredDataset) -> Theta:
    """The start of a fit without ``FitOptions.start``.

    The penalized fixed-effects-only logistic fit, with psi = 0.  The
    penalty is the fixed-effects block of the MSPL penalty, so beta
    stays finite even under complete separation.  ``minimize`` finds it
    from beta = 0, with the same warnings silenced as in ``fit``; where
    the penalty is -inf the negated objective is +inf, which the line
    search backs away from.  It depends on the data alone, so fits of
    one sample by several methods can share it.
    """
    X, y = data.X, data.y
    c = scale_factor(data.p, data.n)

    def negated(beta):
        penalty = jeffreys_penalty(X, beta)
        eta = X @ beta
        value = np.sum(y * eta - np.logaddexp(0.0, eta)) + c * penalty.value
        return -value, -(X.T @ (y - expit(eta)) + c * penalty.gradient)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        beta0 = minimize(negated, np.zeros(data.p))[0]
    return Theta(beta0, np.zeros(n_psi(data.q)))


def _start_theta(data: ClusteredDataset, options: FitOptions) -> Theta:
    """``options.start`` after a dimension check, or else ``default_start``."""
    if options.start is None:
        return default_start(data)
    start = options.start
    if start.p != data.p or start.q != data.q:
        raise ValueError(
            f"start has dimensions (p={start.p}, q={start.q}), "
            f"data needs (p={data.p}, q={data.q})"
        )
    return start


def fit(data: ClusteredDataset, options: FitOptions = FitOptions()) -> FitResult:
    """Maximize the (penalized) approximate log-likelihood.

    Returns a ``FitResult`` in all non-exceptional cases; failure to
    converge is reported through ``converged``, never as an exception.
    A breakdown of the objective or gradient evaluation raises ``FitError``.
    Where the objective is -inf at ``options.start`` the fit restarts
    from ``default_start``, and ``evaluations`` counts both starts.
    """
    evaluator = options.evaluator(data)
    p = data.p
    evaluations = 0

    def objective_and_grad(v):
        nonlocal evaluations
        evaluations += 1
        return objective_and_gradient(data, Theta.from_vector(v, p), options, evaluator)

    def negated(v):
        value, grad = objective_and_grad(v)
        return -value, -grad

    trace = []

    def run(start):
        return minimize(negated, start.as_vector(), lambda _, f: trace.append(-f))

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            x, value, grad, iterations = run(_start_theta(data, options))
            if value == math.inf and options.start is not None:
                x, value, grad, iterations = run(default_start(data))
            theta_hat = Theta.from_vector(x, p)
            loglik_hat = evaluator.loglik(theta_hat)
    except ModeFindingError as err:
        raise FitError(f"objective evaluation failed: {err}") from err

    grad_norm = float(np.linalg.norm(grad))
    return FitResult(
        theta=theta_hat,
        loglik=float(loglik_hat),
        penalized=-float(value),
        converged=bool(grad_norm <= GRAD_TOL),
        iterations=iterations,
        evaluations=evaluations,
        grad_norm=grad_norm,
        options=options,
        objective_trace=np.array(trace),
    )
