"""Quasi-Newton maximization of the (penalized) approximate log-likelihood.

The objective is the approximate marginal log-likelihood, optionally
plus the scaled composite penalty.  The likelihood part is
differentiated numerically (central differences); the penalty gradient
is analytic.  Maximization is BFGS with a Wolfe line search; if the
line search stagnates before the gradient tolerance is met, a single
Nelder-Mead polish is run and BFGS restarted from its result.

The gradient tolerance ``GRAD_TOL``, the iteration cap ``MAX_ITER`` and
the finite-difference step ``FD_STEP_SCALE`` are constants of this
module, not fit options.

The log-Cholesky encoding of the covariance makes the parameter space
all of R^d, so the optimization is unconstrained.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.special import expit

from .likelihood import MAX_QUADRATURE, LoglikEvaluator, ModeFindingError, gauss_hermite_rule
from .model import ClusteredDataset, Theta, n_psi, psi_names
from .penalties import (
    SingularInformationError,
    composite_penalty,
    jeffreys_penalty,
    scale_factor,
)

__all__ = [
    "FitOptions",
    "FitResult",
    "FitError",
    "GradientError",
    "objective",
    "numeric_gradient",
    "fit",
    "parameter_names",
]

GRAD_TOL = 1e-6
MAX_ITER = 500
FD_STEP_SCALE = float(np.finfo(float).eps) ** (1.0 / 3.0)

START_NEWTON_STEPS = 25
POLISH_STEPS = 8


class FitError(RuntimeError):
    """Likelihood evaluation failed irrecoverably during a fit."""


class GradientError(RuntimeError):
    """A finite-difference probe produced a non-finite value."""


@dataclass(frozen=True)
class FitOptions:
    """Configuration of a single fit.

    method: "ml" for plain maximum likelihood, "mspl" for maximum
        softly-penalized likelihood.
    approx: "agq" (adaptive quadrature, q = 1 only), "laplace", or
        "auto" (quadrature when q = 1, Laplace otherwise).
    quadrature: node count of the adaptive rule, 1 to ``MAX_QUADRATURE``.
    start: optional starting point; the default is the penalized
        fixed-effects-only logistic fit with psi = 0.
    beta_max, psi_max, se_max: thresholds above which an estimate or
        its standard error is flagged as atypically large in absolute
        value; they are diagnostics, not constraints.
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
        if not 1 <= self.quadrature <= MAX_QUADRATURE:
            raise ValueError(
                f"quadrature size must be in [1, {MAX_QUADRATURE}], got {self.quadrature}"
            )

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
    ``loglik`` for ML).  ``se`` and ``se_available`` are set once the
    inference module attaches standard errors.  ``objective_trace``
    records the objective at each accepted iterate.

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


def objective(
    data: ClusteredDataset,
    theta: Theta,
    options: FitOptions,
    evaluator: LoglikEvaluator | None = None,
) -> float:
    """The objective ``fit`` maximizes.

    ML: the approximate log-likelihood; MSPL: that plus the scaled
    composite penalty, or -inf where the penalty's information matrix
    is singular.
    """
    if evaluator is None:
        evaluator = options.evaluator(data)
    value = evaluator.loglik(theta)
    if options.method == "mspl":
        try:
            value += composite_penalty(data, theta).value
        except SingularInformationError:
            # Weights underflowed at an extreme probe point; the penalty
            # limit there is -infinity, which the line search backs away from.
            return -np.inf
    return value


def numeric_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient with per-coordinate relative steps.

    Step in coordinate j is ``FD_STEP_SCALE * max(1, |x_j|)``.  A
    non-finite probe value raises ``GradientError`` naming the
    coordinate.
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for j in range(x.size):
        h = FD_STEP_SCALE * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        fp = f(xp)
        fm = f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise GradientError(
                f"non-finite objective while probing coordinate {j} "
                f"(f+ = {fp}, f- = {fm})"
            )
        grad[j] = (fp - fm) / (2.0 * h)
    return grad


HESS_STEP_SCALE = float(np.finfo(float).eps) ** 0.25


def hessian_fd(f, x: np.ndarray) -> np.ndarray:
    """Central-difference Hessian with per-coordinate relative steps."""
    x = np.asarray(x, dtype=float)
    d = x.size
    h = HESS_STEP_SCALE * np.maximum(1.0, np.abs(x))
    H = np.empty((d, d))
    f0 = f(x)

    def at(*pairs):
        xp = x.copy()
        for j, s in pairs:
            xp[j] += s
        return f(xp)

    for i in range(d):
        H[i, i] = (at((i, h[i])) - 2.0 * f0 + at((i, -h[i]))) / h[i] ** 2
    for i in range(d):
        for j in range(i + 1, d):
            H[i, j] = H[j, i] = (
                at((i, h[i]), (j, h[j]))
                - at((i, h[i]), (j, -h[j]))
                - at((i, -h[i]), (j, h[j]))
                + at((i, -h[i]), (j, -h[j]))
            ) / (4.0 * h[i] * h[j])
    return H


def _penalized_logistic_start(X: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Newton steps on the Jeffreys-penalized fixed-effects logistic fit.

    The adjusted score is X'(y - mu) + c/2 X'(h (1 - 2 mu)) with h the
    weighted hat values; the penalty keeps the iterates finite even
    under complete separation.  Runs a fixed number of damped steps.
    """

    def pll(b):
        eta = X @ b
        ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
        return ll + c * jeffreys_penalty(X, b).value

    beta = np.zeros(X.shape[1])
    value = pll(beta)
    for _ in range(START_NEWTON_STEPS):
        mu = expit(X @ beta)
        w = mu * (1.0 - mu)
        K = X.T @ (w[:, None] * X)
        score = X.T @ (y - mu) + c * jeffreys_penalty(X, beta).gradient
        if np.linalg.norm(score) < 1e-10:
            break
        step = cho_solve(cho_factor(K, lower=True), score)
        t = 1.0
        for _ in range(30):
            cand = pll(beta + t * step)
            if cand >= value - 1e-12 * (1.0 + abs(value)):
                beta = beta + t * step
                value = cand
                break
            t /= 2.0
    return beta


def _start_theta(data: ClusteredDataset, options: FitOptions) -> Theta:
    if options.start is not None:
        start = options.start
        if start.p != data.p or start.q != data.q:
            raise ValueError(
                f"start has dimensions (p={start.p}, q={start.q}), "
                f"data needs (p={data.p}, q={data.q})"
            )
        return start
    c = scale_factor(data.p, data.n)
    beta0 = _penalized_logistic_start(data.X, data.y, c)
    return Theta(beta0, np.zeros(n_psi(data.q)))


class _Memo:
    """Remembers the most recent evaluation so callbacks are free."""

    def __init__(self, fn):
        self.fn = fn
        self._x = None
        self._f = None

    def __call__(self, x):
        if self._x is not None and np.array_equal(x, self._x):
            return self._f
        self._f = self.fn(x)
        self._x = np.array(x, copy=True)
        return self._f


def _newton_polish(objective_vec, gradient_vec, x, grad_norm, tol):
    """Gradient-polishing Newton steps on the finite-difference Hessian.

    Accepts a step only when it reduces the gradient norm; leaves the
    point untouched when the Hessian is unusable (for example on the
    flat ridge of an unpenalized fit with separated data).
    """
    grad = gradient_vec(x)
    steps = 0
    for _ in range(POLISH_STEPS):
        if grad_norm <= tol:
            break
        H = hessian_fd(objective_vec, x)
        try:
            delta = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(delta).all():
            # A probe of the Hessian hit the -inf limit of the penalty.
            break
        improved = False
        t = 1.0
        for _ in range(6):
            x_new = x - t * delta
            try:
                g_new = gradient_vec(x_new)
            except GradientError:
                t /= 4.0
                continue
            gn_new = float(np.linalg.norm(g_new))
            if gn_new < grad_norm:
                x, grad, grad_norm = x_new, g_new, gn_new
                improved = True
                break
            t /= 4.0
        steps += 1
        if not improved:
            break
    return x, grad_norm, steps


def fit(data: ClusteredDataset, options: FitOptions = FitOptions()) -> FitResult:
    """Maximize the (penalized) approximate log-likelihood.

    Returns a ``FitResult`` in all non-exceptional cases; failure to
    converge is reported through ``converged``, never as an exception.
    A breakdown of the objective or gradient evaluation raises ``FitError``.
    """
    evaluator = options.evaluator(data)
    p = data.p
    mspl = options.method == "mspl"

    def loglik_vec(v):
        return evaluator.loglik(Theta.from_vector(v, p))

    def objective_vec(v):
        return objective(data, Theta.from_vector(v, p), options, evaluator)

    # Every gradient of the fit is kept. When SciPy's BFGS falls back from
    # its first line search to its second, it asks again for trial points
    # of the first; a recomputed gradient there differs by the inner
    # solver's warm-start noise, and the line search stalls more often.
    gradients = {}

    def gradient_vec(v):
        key = np.asarray(v, dtype=float).tobytes()
        if key not in gradients:
            grad = numeric_gradient(loglik_vec, v)
            if mspl:
                grad = grad + composite_penalty(data, Theta.from_vector(v, p)).gradient
            gradients[key] = grad
        return gradients[key]

    memo = _Memo(lambda v: -objective_vec(v))
    neg_grad = lambda v: -gradient_vec(v)

    trace = []

    def record(xk):
        trace.append(-memo(xk))

    x0 = _start_theta(data, options).as_vector()
    bfgs_opts = {"gtol": GRAD_TOL, "norm": 2, "maxiter": MAX_ITER}

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = minimize(
                memo, x0, jac=neg_grad, method="BFGS", options=bfgs_opts,
                callback=record,
            )
            iterations = res.nit
            x_best, f_best = res.x, res.fun
            stagnated = (not res.success) and res.status == 2
            if stagnated and iterations < MAX_ITER:
                # One restart: simplex polish, then resume BFGS from there.
                polish = minimize(
                    memo, x_best, method="Nelder-Mead",
                    options={
                        "maxiter": 200 * x_best.size,
                        "xatol": 1e-9,
                        "fatol": 1e-12,
                    },
                )
                if polish.fun <= f_best:
                    x_best, f_best = polish.x, polish.fun
                res = minimize(
                    memo, x_best, jac=neg_grad, method="BFGS",
                    options={**bfgs_opts, "maxiter": MAX_ITER - iterations},
                    callback=record,
                )
                iterations += res.nit
                if res.fun <= f_best:
                    x_best, f_best = res.x, res.fun
        grad_norm = float(np.linalg.norm(gradient_vec(x_best)))
        if grad_norm > GRAD_TOL:
            # Near the optimum the line search stalls once objective
            # gains shrink below float rounding; a Newton step on the
            # finite-difference Hessian still reduces the gradient.
            x_best, grad_norm, polish_steps = _newton_polish(
                objective_vec, gradient_vec, x_best, grad_norm, GRAD_TOL
            )
            iterations += polish_steps
            f_best = -objective_vec(x_best)
        theta_hat = Theta.from_vector(x_best, p)
        loglik_hat = evaluator.loglik(theta_hat)
    except (ModeFindingError, GradientError, SingularInformationError) as err:
        raise FitError(f"objective evaluation failed: {err}") from err

    penalized = float(-f_best)
    converged = bool(grad_norm <= GRAD_TOL)
    return FitResult(
        theta=theta_hat,
        loglik=float(loglik_hat),
        penalized=penalized,
        converged=converged,
        iterations=int(iterations),
        grad_norm=grad_norm,
        options=options,
        objective_trace=np.array(trace),
    )

