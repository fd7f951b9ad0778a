import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

import msplogit.optimize as optimize
from msplogit.likelihood import LoglikEvaluator, gauss_hermite_rule
from msplogit.model import ClusteredDataset, DataError, Theta
from msplogit.optimize import (
    FitError,
    FitOptions,
    FitResult,
    GradientError,
    fit,
    hessian_fd,
    numeric_gradient,
    objective_and_gradient,
    parameter_names,
)
from msplogit.penalties import composite_penalty, jeffreys_penalty, scale_factor
from msplogit.simulate import simulate_responses

from conftest import (
    degenerate_slope_dataset,
    make_dataset,
    separation_dataset,
    stack_clusters,
)


class TestFitOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitOptions(method="map")
        with pytest.raises(ValueError):
            FitOptions(quadrature=0)
        with pytest.raises(ValueError):
            FitOptions(quadrature=201)
        with pytest.raises(ValueError):
            FitOptions(approx="quadrature")
        for bad in (2.5, "20", None):
            with pytest.raises(ValueError, match="integer"):
                FitOptions(quadrature=bad)
        for name in ("beta_max", "psi_max", "se_max"):
            for bad in (np.nan, 0.0, -1.0, -np.inf):
                with pytest.raises(ValueError, match=name):
                    FitOptions(**{name: bad})
        assert FitOptions(quadrature=np.int64(20)).quadrature == 20
        assert FitOptions(beta_max=np.inf, psi_max=np.inf, se_max=np.inf).se_max == np.inf

    def test_start_must_be_a_theta(self):
        # Checked here, or a bare vector fails later, inside fit(), on start.p.
        for bad in (np.zeros(3), [0.0, 0.0, 0.0], 0.0):
            with pytest.raises(ValueError, match="start"):
                FitOptions(start=bad)
        start = Theta(np.zeros(2), np.zeros(1))
        assert FitOptions(start=start).start is start

    def test_approx_resolution(self):
        assert FitOptions().resolve_approx(1) == "agq"
        assert FitOptions().resolve_approx(2) == "laplace"
        assert FitOptions(approx="laplace").resolve_approx(1) == "laplace"
        with pytest.raises(ValueError):
            FitOptions(approx="agq").resolve_approx(2)


class TestNumericGradient:
    def test_exact_on_quadratic(self):
        f = lambda v: -0.5 * float(v @ v)
        grad = numeric_gradient(f, np.array([1.0, 2.0]))
        assert np.allclose(grad, [-1.0, -2.0], atol=1e-8)

    def test_matches_analytic_penalty_gradient(self):
        rng = np.random.default_rng(3)
        data = make_dataset(k=3, n_i=5, p=2, q=2, seed=1)
        for _ in range(20):
            theta = Theta(rng.normal(size=2), rng.normal(size=3))

            def value(v):
                return composite_penalty(data, Theta.from_vector(v, 2)).value

            fd = numeric_gradient(value, theta.as_vector())
            exact = composite_penalty(data, theta).gradient
            denom = max(np.abs(exact).max(), 1e-8)
            assert np.abs(fd - exact).max() / denom < 1e-5

    def test_matches_richardson_extrapolation(self):
        # Richardson-extrapolated central differences are a higher-order
        # oracle for the quadrature log-likelihood gradient.
        data = make_dataset(k=2, n_i=4, p=2, seed=8)
        rule = gauss_hermite_rule(30)
        ev = LoglikEvaluator(data, "agq", rule)
        x = Theta(np.array([0.4, -0.6]), np.array([0.2])).as_vector()

        def f(v):
            return ev.loglik(Theta.from_vector(v, 2))

        grad = numeric_gradient(f, x)
        h0 = 1e-3
        richardson = np.empty_like(x)
        for j in range(x.size):
            def d(h):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                return (f(xp) - f(xm)) / (2 * h)

            richardson[j] = (4 * d(h0 / 2) - d(h0)) / 3
        assert np.abs(grad - richardson).max() < 1e-4

    def test_nonfinite_probe_names_coordinate(self):
        def f(v):
            return -np.inf if v[1] > 0.5 else 0.0

        with pytest.raises(GradientError, match="coordinate 1"):
            numeric_gradient(f, np.array([0.0, 0.5]))

    def test_hessian_fd_quadratic(self):
        A = np.array([[2.0, 0.3], [0.3, 1.0]])
        grad = lambda v: -A @ v
        H = hessian_fd(grad, np.array([0.4, -0.2]))
        assert np.allclose(H, -A, atol=1e-6)
        assert np.array_equal(H, H.T)


def _quadratic(A, c):
    """0.5 (x - c)' A (x - c) and its gradient."""
    return lambda x: (0.5 * (x - c) @ A @ (x - c), A @ (x - c))


def _rosenbrock(x):
    a, b = x
    value = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    return value, np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])


def _recorded(fun):
    """``fun``, and a dict from each point it was called at to its (value, gradient)."""
    calls = {}

    def wrapped(x):
        calls[x.tobytes()] = result = fun(x)
        return result

    return wrapped, calls


class TestMinimize:
    def test_convex_quadratic_reaches_grad_tol(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 5))
        A, c = M @ M.T + 0.5 * np.eye(5), rng.normal(size=5)
        x, value, grad, nit = optimize.minimize(_quadratic(A, c), np.zeros(5))
        assert np.linalg.norm(grad) <= optimize.GRAD_TOL
        assert np.abs(x - c).max() < 1e-5
        assert 0 < nit < 50

    def test_rosenbrock_reaches_grad_tol(self):
        x, value, grad, nit = optimize.minimize(_rosenbrock, np.array([-1.2, 1.0]))
        assert np.linalg.norm(grad) <= optimize.GRAD_TOL
        assert np.abs(x - 1.0).max() < 1e-5
        assert value < 1e-10

    @pytest.mark.parametrize("start", [(-1.2, 1.0), (2.0, -1.5), (0.0, 3.0)])
    def test_accepted_steps_meet_strong_wolfe(self, start):
        fun, calls = _recorded(_rosenbrock)
        x0 = np.array(start)
        iterates = [x0]
        optimize.minimize(fun, x0, lambda x, f: iterates.append(x))
        assert len(iterates) > 10
        for x, x_new in zip(iterates, iterates[1:]):
            (f, g), (f_new, g_new) = calls[x.tobytes()], calls[x_new.tobytes()]
            step = x_new - x
            assert g @ step < 0.0
            assert f_new <= f + optimize.WOLFE_C1 * (g @ step)
            assert abs(g_new @ step) <= optimize.WOLFE_C2 * abs(g @ step)

    def test_value_noise_does_not_stall_the_line_search(self):
        # Condition number 1e4 and value noise of 1e-12 at a value of 30,
        # as the warm-started mode solves give: near the minimum the Armijo
        # decrease of a step is smaller than the noise, and BFGS finishes
        # only by accepting steps on their slope.
        Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(5, 5)))
        A, c = Q @ np.diag(np.logspace(0, 4, 5)) @ Q.T, np.full(5, 3.0)

        def noisy(x):
            r = x - c
            return 30.0 + 0.5 * r @ A @ r + 1e-12 * np.sin(1e7 * x.sum() + 1.0), A @ r

        x, value, grad, nit = optimize.minimize(noisy, np.zeros(5))
        assert np.linalg.norm(grad) <= optimize.GRAD_TOL
        assert np.abs(x - c).max() < 1e-5

    def test_infinite_values_are_backed_off(self):
        # +inf with a NaN gradient beyond radius 0.5, as the penalized
        # objective is where its information matrix is singular; the first
        # trial step lands there.
        quadratic = _quadratic(np.diag([1.0, 4.0]), np.array([0.3, 0.0]))

        def walled(x):
            return (np.inf, np.full(2, np.nan)) if x @ x > 0.25 else quadratic(x)

        fun, calls = _recorded(walled)
        iterates = []
        x, value, grad, nit = optimize.minimize(fun, np.array([-0.3, 0.3]), lambda x, f: iterates.append(x))
        assert any(np.isinf(f) for f, _ in calls.values())
        assert all(np.isfinite(v).all() and v @ v <= 0.25 for v in iterates)
        assert np.linalg.norm(grad) <= optimize.GRAD_TOL
        assert np.abs(x - [0.3, 0.0]).max() < 1e-5

    def test_max_iter_is_honoured(self, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_ITER", 3)
        x, value, grad, nit = optimize.minimize(_rosenbrock, np.array([-1.2, 1.0]))
        assert nit == 3
        assert np.linalg.norm(grad) > optimize.GRAD_TOL

    def test_callback_fires_once_per_iteration(self):
        fun, calls = _recorded(_rosenbrock)
        seen = []
        x, value, grad, nit = optimize.minimize(fun, np.array([-1.2, 1.0]), lambda x, f: seen.append((x, f)))
        assert len(seen) == nit
        assert all(f == calls[v.tobytes()][0] for v, f in seen)
        assert seen[-1][0] is x and seen[-1][1] == value


class TestWolfeStep:
    """The line search from x = 0 along +1, with the first trial step 1."""

    @staticmethod
    def search(f):
        steps = []

        def fun(x):
            steps.append(float(x[0]))
            value, slope = f(float(x[0]))
            return value, np.array([slope])

        value, slope = f(0.0)
        found = optimize._wolfe_step(fun, np.zeros(1), np.ones(1), value, np.array([slope]), value)
        return found, steps

    def test_extension_stops_after_bracket_steps(self):
        # Every trial of a line is short: each extension is 4 times the last.
        found, steps = self.search(lambda x: (-x, -1.0))
        assert found is None
        assert len(steps) == optimize.BRACKET_STEPS == 10
        assert steps == [(4.0**j - 1.0) / 3.0 for j in range(1, 11)]

    def test_zoom_stops_after_zoom_steps(self):
        # A line up to a wall at x = 5: the second trial brackets, and no
        # trial inside meets the curvature condition.
        found, steps = self.search(lambda x: (-x, -1.0) if x < 5.0 else (np.inf, np.nan))
        assert found is None
        assert len(steps) == 2 + optimize.ZOOM_STEPS == 12
        assert steps == [1.0, 5.0] + [5.0 - 2.0 ** -j for j in range(-1, 9)]

    def test_first_trial_need_not_lower_the_value(self):
        # A flat line with slope -1e-20, below the rounding of f0 = 1: the
        # first trial counts as short and is extended; the second, no lower
        # than the first, closes a bracket too narrow to change the value.
        found, steps = self.search(lambda x: (1.0, -1e-20))
        assert found is None
        assert steps == [1.0, 5.0]

    def test_quartic_accepts_the_first_trial(self):
        found, steps = self.search(lambda x: ((x - 0.8) ** 4, 4.0 * (x - 0.8) ** 3))
        step, value, grad = found
        assert steps == [1.0]
        assert step == 1.0
        assert value == pytest.approx(0.2**4, rel=1e-12)
        assert grad == pytest.approx([4.0 * 0.2**3], rel=1e-12)

    @staticmethod
    def zoom_trials(f, steps):
        """(trial, left, right): each zoom trial and the bracket it was chosen in.

        Replays the bracket from the trials' values and slopes: its ends
        are the best trial with sufficient decrease and the far end.
        """
        f0, slope0 = f(0.0)
        best, far, out = (0.0, f0, slope0), None, []
        for i, a in enumerate(steps):
            value, slope = f(a)
            if far is not None:
                out.append((a, *sorted((best[0], far[0]))))
            armijo = value <= f0 + optimize.WOLFE_C1 * a * slope0
            if far is None and armijo and (i == 0 or value < best[1]) and slope < 0.0:
                best = (a, value, slope)
            elif armijo and value < best[1]:
                far = best if far is None or slope * best[2] < 0.0 else far
                best = (a, value, slope)
            else:
                far = (a, value, slope)
        return out

    @staticmethod
    def safeguarded(trial, left, right):
        width = right - left
        return left + optimize.SAFEGUARD * width <= trial <= right - optimize.SAFEGUARD * width

    def test_huge_trial_value_does_not_collapse_the_bracket(self):
        # exp(44 x) - 45 x: the first trial's value is 1.3e19, where the
        # cubic through the bracket's ends has lost every digit.
        line = lambda x: (np.exp(44.0 * x) - 45.0 * x, 44.0 * np.exp(44.0 * x) - 45.0)
        found, steps = self.search(line)
        assert line(1.0)[0] > 1e19
        zoom = self.zoom_trials(line, steps)
        assert len(zoom) == len(steps) - 1
        assert all(self.safeguarded(*z) for z in zoom)
        assert found is not None or len(zoom) == optimize.ZOOM_STEPS
        if found is not None:
            step, value, grad = found
            assert abs(grad[0]) <= optimize.WOLFE_C2 and value <= 1.0

    @given(
        kind=st.sampled_from(["quartic", "exponential"]),
        a=st.floats(0.05, 5.0),
        b=st.floats(-5.0, 5.0),
        c=st.floats(-5.0, 5.0),
        d=st.floats(-5.0, -0.05),
        scale=st.floats(0.1, 45.0),
        root=st.floats(1e-3, 3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_accepted_steps_and_zoom_trials(self, kind, a, b, c, d, scale, root):
        # Quartics a x^4 + b x^3 + c x^2 + d x, and exp(s (x - r)) - s x,
        # whose minimum at r is far below values up to e^45 at x = 1.
        if kind == "quartic":
            line = lambda x: (
                (((a * x + b) * x + c) * x + d) * x,
                ((4.0 * a * x + 3.0 * b) * x + 2.0 * c) * x + d,
            )
        else:
            line = lambda x: (
                float(np.exp(scale * (x - root))) - scale * x,
                scale * float(np.exp(scale * (x - root))) - scale,
            )
        f0, slope0 = line(0.0)
        assume(slope0 < 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            found, steps = self.search(line)
            zoom = self.zoom_trials(line, steps)
        assert all(self.safeguarded(*z) for z in zoom)
        if found is not None:
            step, value, grad = found
            assert abs(grad[0]) <= optimize.WOLFE_C2 * abs(slope0)
            assert value <= f0 + optimize.WOLFE_EPS * abs(f0)

    def test_cubic_min_exact_on_a_cubic(self):
        # x^3 - 3x has its local minimum at x = 1.
        cubic = lambda x: (x**3 - 3.0 * x, 3.0 * x * x - 3.0)
        for a, b in [(0.0, 2.0), (2.0, 0.0), (-0.5, 3.0), (1.5, 0.25)]:
            assert optimize._cubic_min(a, *cubic(a), b, *cubic(b)) == pytest.approx(1.0, abs=1e-14)

    def test_cubic_min_nan_without_a_local_minimizer(self):
        # x^3 + x rises everywhere.
        assert np.isnan(optimize._cubic_min(-1.0, -2.0, 4.0, 1.0, 2.0, 4.0))

    @pytest.mark.parametrize("end", [
        (1.0, np.inf, 1.0), (1.0, -np.inf, -1.0), (1.0, np.inf, np.nan), (1.0, np.nan, 1.0),
    ])
    def test_cubic_min_nan_at_a_non_finite_end(self, end):
        assert np.isnan(optimize._cubic_min(0.0, 0.0, -1.0, *end))

    def test_cubic_min_nan_at_equal_steps(self):
        assert np.isnan(optimize._cubic_min(1.0, 0.0, -1.0, 1.0, 0.5, 1.0))


class TestObjective:
    def test_penalty_additivity(self):
        data = make_dataset(k=3, n_i=4, p=2, seed=2)
        theta = Theta(np.array([0.5, -0.3]), np.array([0.2]))
        ml = objective_and_gradient(data, theta, FitOptions(method="ml", quadrature=40))[0]
        mspl = objective_and_gradient(data, theta, FitOptions(method="mspl", quadrature=40))[0]
        assert mspl - ml == pytest.approx(
            composite_penalty(data, theta).value, rel=1e-12, abs=1e-12
        )

    def test_large_variance_penalized_below_moderate(self):
        data = make_dataset(k=10, n_i=8, p=4, seed=3, beta=[2.0, -1.0, 0.5, -0.5], psi=[0.5])
        opts = FitOptions(method="mspl", quadrature=40)
        beta = np.array([2.0, -1.0, 0.5, -0.5])
        hi = objective_and_gradient(data, Theta(beta, np.array([12.0])), opts)[0]
        mid = objective_and_gradient(data, Theta(beta, np.array([0.0])), opts)[0]
        assert hi < mid

    def test_separation_direction(self):
        # Along the separating direction the unpenalized objective climbs
        # toward a finite supremum while the penalized one turns downhill.
        data = separation_dataset()
        ml = FitOptions(method="ml", quadrature=30)
        mspl = FitOptions(method="mspl", quadrature=30)
        direction = np.array([0.0, 1.0])
        ml_vals, mspl_vals = [], []
        for t in (1.0, 5.0, 10.0, 20.0, 40.0):
            theta = Theta(direction * t, np.array([-1.0]))
            ml_vals.append(objective_and_gradient(data, theta, ml)[0])
            mspl_vals.append(objective_and_gradient(data, theta, mspl)[0])
        # non-decreasing toward a finite supremum (flat to rounding far out)
        assert all(b > a - 1e-12 for a, b in zip(ml_vals, ml_vals[1:]))
        assert ml_vals[2] > ml_vals[0]
        assert ml_vals[-1] < 1e-10  # supremum is total mass one
        assert mspl_vals[-1] < mspl_vals[1]

    def test_minus_infinity_where_the_penalty_loses_rank(self):
        # |eta| > 745 on every row: every Jeffreys weight underflows, so
        # sqrt(W) X has rank 0 while the likelihood stays finite.
        data = make_dataset(k=4, n_i=5, p=2, seed=12, beta=[0.2, 0.4], psi=[-0.2])
        theta = Theta(np.array([800.0, 0.0]), np.array([-0.2]))
        ml = objective_and_gradient(data, theta, FitOptions(method="ml", quadrature=25))
        value, grad = objective_and_gradient(data, theta, FitOptions(method="mspl", quadrature=25))
        assert np.isfinite(ml[0]) and np.isfinite(ml[1]).all()
        assert value == -np.inf
        assert np.isnan(grad[:2]).all()


class TestFit:
    def test_balanced_single_cluster_against_grid_search(self):
        data = make_dataset(k=1, n_i=4, p=1, seed=0)
        data = data.with_responses(np.array([0.0, 1.0, 0.0, 1.0]))
        opts = FitOptions(method="mspl", quadrature=30)
        result = fit(data, opts)
        assert result.converged
        assert abs(result.theta.beta[0]) < 1e-4

        # independent grid-search oracle over (beta0, psi)
        ev = LoglikEvaluator(data, "agq", gauss_hermite_rule(30))
        best = (-np.inf, None, None)
        for b in np.linspace(-2, 2, 201):
            for s in np.linspace(-3, 1, 201):
                theta = Theta(np.array([b]), np.array([s]))
                val = ev.loglik(theta) + composite_penalty(data, theta).value
                if val > best[0]:
                    best = (val, b, s)
        assert abs(result.theta.beta[0] - best[1]) < 0.02
        assert abs(result.theta.psi[0] - best[2]) < 0.03

    def test_deterministic(self):
        data = make_dataset(k=4, n_i=6, p=2, seed=9, beta=[0.5, -1.0], psi=[0.0])
        opts = FitOptions(method="mspl", quadrature=25)
        a = fit(data, opts)
        b = fit(data, opts)
        assert np.array_equal(a.theta.as_vector(), b.theta.as_vector())
        assert a.loglik == b.loglik
        assert a.penalized == b.penalized
        assert a.iterations == b.iterations
        assert a.grad_norm == b.grad_norm
        assert np.array_equal(a.objective_trace, b.objective_trace)

    def test_trace_monotone_nondecreasing(self):
        data = make_dataset(k=5, n_i=6, p=2, seed=4, beta=[0.3, -0.8], psi=[0.2])
        result = fit(data, FitOptions(method="mspl", quadrature=25))
        trace = result.objective_trace
        assert trace.size >= 2
        assert (np.diff(trace) >= 0).all()

    def test_trace_falls_by_at_most_wolfe_eps(self, culcita_full, reference_mspl_point):
        # ML fits of the culcita study design; replication 19 of this seed
        # is a separated sample whose fit ends on its flat ridge, where an
        # approximate-Wolfe step can lower the objective.
        opts = FitOptions(method="ml", approx="agq", quadrature=100)
        for r in range(20):
            seeds = np.random.SeedSequence(5106, spawn_key=(r,))
            sample = simulate_responses(
                culcita_full, reference_mspl_point, np.random.Generator(np.random.Philox(seeds))
            )
            trace = fit(sample, opts).objective_trace
            assert (np.diff(trace) >= -optimize.WOLFE_EPS * np.abs(trace[:-1])).all(), r

    @pytest.mark.parametrize("case", ["culcita", "q2"])
    def test_one_mode_solve_per_evaluation(self, culcita_reduced, state_passes, case):
        # The closing log-likelihood at the estimate, the last point
        # evaluated, reuses that evaluation's modes and masses.
        if case == "q2":
            data, options = degenerate_slope_dataset(), FitOptions(method="mspl")
        else:
            data, options = culcita_reduced, FitOptions(method="mspl", quadrature=100)
        result = fit(data, options)
        assert result.converged
        assert len(state_passes) == result.evaluations

    def test_grad_norm_within_tol_when_converged(self):
        data = make_dataset(k=4, n_i=5, p=2, seed=12, beta=[0.2, 0.4], psi=[-0.2])
        result = fit(data, FitOptions(method="mspl", quadrature=25))
        assert result.converged
        assert result.grad_norm <= optimize.GRAD_TOL

    def test_separation_contrast_between_methods(self):
        data = separation_dataset()
        mspl = fit(data, FitOptions(method="mspl", quadrature=40))
        assert mspl.converged
        assert not mspl.boundary_flags.any()
        assert np.abs(mspl.theta.beta).max() < 10.0
        ml = fit(data, FitOptions(method="ml", quadrature=40))
        assert np.abs(ml.theta.beta).max() > 12.0

    def test_custom_start_respected_and_validated(self):
        data = make_dataset(k=3, n_i=5, p=2, seed=5, beta=[0.1, -0.4], psi=[0.0])
        start = Theta(np.array([0.3, 0.3]), np.array([0.1]))
        result = fit(data, FitOptions(method="mspl", quadrature=25, start=start))
        assert result.converged
        with pytest.raises(ValueError):
            fit(data, FitOptions(start=Theta(np.zeros(3), np.zeros(1))))

    @pytest.mark.parametrize("dataset", ["separation", "culcita_full", "culcita_reduced"])
    def test_default_start_is_penalized_logistic_fit(self, dataset, request):
        data = separation_dataset() if dataset == "separation" else request.getfixturevalue(dataset)
        c = scale_factor(data.p, data.n)

        def negated(beta):
            eta = data.X @ beta
            penalty = jeffreys_penalty(data.X, beta)
            value = np.sum(data.y * eta - np.logaddexp(0.0, eta)) + c * penalty.value
            return -value, -(data.X.T @ (data.y - expit(eta)) + c * penalty.gradient)

        start = optimize._start_theta(data, FitOptions())
        assert np.isfinite(start.beta).all()
        assert np.array_equal(start.psi, np.zeros(1))
        assert np.linalg.norm(negated(start.beta)[1]) <= optimize.GRAD_TOL
        reference = scipy.optimize.minimize(
            negated, np.zeros(data.p), jac=True, method="BFGS", options={"gtol": 1e-10}
        )
        np.testing.assert_allclose(start.beta, reference.x, rtol=0.0, atol=1e-5)

    def test_start_independence_at_optimum(self, culcita_reduced):
        opts = FitOptions(method="mspl", quadrature=100)
        base = fit(culcita_reduced, opts)
        shifted_start = Theta(
            base.theta.beta + np.array([0.8, -0.7, 0.9, -0.6]), base.theta.psi + 0.9
        )
        other = fit(culcita_reduced, FitOptions(method="mspl", quadrature=100, start=shifted_start))
        assert np.abs(base.theta.as_vector() - other.theta.as_vector()).max() < 1e-4

    def test_fit_never_calls_numeric_gradient(self, monkeypatch):
        def no_numeric_gradient(f, x, *args):
            raise AssertionError("fit called numeric_gradient")

        monkeypatch.setattr(optimize, "numeric_gradient", no_numeric_gradient)
        calls = []
        value_and_grad = LoglikEvaluator.value_and_grad

        def counted(self, theta):
            calls.append(theta)
            return value_and_grad(self, theta)

        monkeypatch.setattr(LoglikEvaluator, "value_and_grad", counted)
        data = make_dataset(k=60, n_i=8, p=2, q=2, seed=17, beta=[0.3, -0.6], psi=[0.0, -2.3, 0.0])
        result = fit(data, FitOptions(method="mspl"))
        assert result.converged
        assert result.evaluations == len(calls) >= result.iterations + 1

    @pytest.mark.parametrize("failure", ["likelihood_gradient", "likelihood_gradient_in_line_search"])
    def test_gradient_failures_raise_fit_error(self, monkeypatch, failure):
        # The first call is at the start; later ones are line-search trials.
        evaluate = LoglikEvaluator._evaluate
        calls = []

        def nan_gradient(self, theta, grad):
            value, gradient = evaluate(self, theta, grad)
            calls.append(theta)
            if failure == "likelihood_gradient" or len(calls) > 1:
                gradient = np.full(theta.dim, np.nan)
            return value, gradient

        monkeypatch.setattr(LoglikEvaluator, "_evaluate", nan_gradient)
        data = make_dataset(k=4, n_i=5, p=2, seed=12, beta=[0.2, 0.4], psi=[-0.2])
        with pytest.raises(FitError):
            fit(data, FitOptions(method="mspl", quadrature=25))
        assert len(calls) == (1 if failure == "likelihood_gradient" else 2)

    def test_start_at_minus_infinity_falls_back_to_default_start(self):
        # The objective is -inf at the start (every Jeffreys weight
        # underflows), so the fit restarts from the default start.
        data = make_dataset(k=4, n_i=5, p=2, seed=12, beta=[0.2, 0.4], psi=[-0.2])
        start = Theta(np.array([800.0, 0.0]), np.array([-0.2]))
        opts = FitOptions(method="mspl", quadrature=25)
        assert objective_and_gradient(data, start, opts)[0] == -np.inf
        result = fit(data, FitOptions(method="mspl", quadrature=25, start=start))
        default = fit(data, opts)
        assert result.converged
        assert result.evaluations == default.evaluations + 1
        assert result.iterations == default.iterations
        assert np.array_equal(result.theta.as_vector(), default.theta.as_vector())
        assert (result.penalized, result.loglik) == (default.penalized, default.loglik)
        assert np.array_equal(result.objective_trace, default.objective_trace)

    def test_far_start_converges(self):
        # From a start of norm 100, at psi = 78, the second line search
        # meets a value of -8.9e8 against -3.1e5 at its start.  There the
        # cubic's trial loses its digits; unclamped, it collapses the
        # bracket onto the start and ends the fit after one iteration.
        rng = np.random.default_rng([77, 41])
        X = np.column_stack([np.ones(16), rng.normal(size=(16, 2))])
        y = rng.integers(0, 2, 16).astype(float)
        data = ClusteredDataset(y, X, np.ones((16, 1)), [4, 4, 4, 4])
        rng.normal(size=4)  # the norm-30 direction, drawn first
        v = rng.normal(size=4)
        start = Theta.from_vector(100 * v / np.linalg.norm(v), 3)
        result = fit(data, FitOptions(method="mspl", quadrature=20, start=start))
        default = fit(data, FitOptions(method="mspl", quadrature=20))
        assert result.converged and default.converged
        assert result.penalized == pytest.approx(default.penalized, abs=1e-12)

    def test_parameter_names(self):
        data = make_dataset(k=2, n_i=4, p=2, q=2, seed=0)
        names = parameter_names(data, ["intercept", "slope"])
        assert names == [
            "beta:intercept",
            "beta:slope",
            "psi:log_l11",
            "psi:log_l22",
            "psi:l21",
        ]


DEGENERATE_KINDS = ("separated", "constant_clusters", "singletons", "near_collinear")


@st.composite
def degenerate_q1_design(draw):
    """A small q = 1 dataset of one degenerate kind that passes the rank check."""
    kind = draw(st.sampled_from(DEGENERATE_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 6))
    n_i = 1 if kind == "singletons" else draw(st.integers(2, 5))
    clusters = []
    for i in range(k):
        x = rng.normal(size=n_i)
        if kind == "near_collinear":
            eps = draw(st.sampled_from([1e-7, 1e-6, 1e-4, 1e-2]))
            X = np.column_stack([np.ones(n_i), x, x + eps * rng.normal(size=n_i)])
        else:
            X = np.column_stack([np.ones(n_i), x])
        if kind == "separated":
            y = (x > 0).astype(float)
        elif kind == "constant_clusters":
            y = np.full(n_i, float(i % 2))
        else:
            y = rng.integers(0, 2, n_i).astype(float)
        clusters.append((y, X, np.ones((n_i, 1))))
    try:
        return stack_clusters(clusters)
    except DataError:
        assume(False)


@st.composite
def degenerate_q2_design(draw):
    """A small random intercept and slope dataset that passes the rank check.

    Kinds: all-0/all-1 clusters, a slope column of Z nearly equal to its
    intercept column, or neither.
    """
    kind = draw(st.sampled_from(("constant_clusters", "near_collinear_z", "random")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 6))
    n_i = draw(st.integers(2, 6))
    eps = draw(st.sampled_from([1e-6, 1e-4, 1e-2]))
    clusters = []
    for i in range(k):
        x = rng.normal(size=n_i)
        X = np.column_stack([np.ones(n_i), x])
        if kind == "near_collinear_z":
            Z = np.column_stack([np.ones(n_i), 1.0 + eps * rng.normal(size=n_i)])
        else:
            Z = X.copy()
        if kind == "constant_clusters":
            y = np.full(n_i, float(i % 2))
        else:
            y = rng.integers(0, 2, n_i).astype(float)
        clusters.append((y, X, Z))
    try:
        return stack_clusters(clusters)
    except DataError:
        assume(False)


class TestFitContract:
    @given(data=degenerate_q1_design(), method=st.sampled_from(["ml", "mspl"]))
    @settings(max_examples=25, deadline=None)
    def test_fit_returns_result_or_raises_fit_error(self, data, method):
        try:
            result = fit(data, FitOptions(method=method, quadrature=5))
        except FitError:
            return
        assert isinstance(result, FitResult)
        assert result.estimate_flags.shape == (data.p + 1,)

    @given(data=degenerate_q2_design(), method=st.sampled_from(["ml", "mspl"]))
    @settings(max_examples=15, deadline=None)
    def test_laplace_fit_returns_result_or_raises_fit_error(self, data, method):
        try:
            result = fit(data, FitOptions(method=method))
        except FitError:
            return
        assert isinstance(result, FitResult)
        assert result.estimate_flags.shape == (data.p + 3,)

    def test_near_collinear_design_ends_finite(self):
        # Near-collinear fixed design on 4 rows: the third column is the
        # second plus noise of order 1e-6, so X has condition number
        # about 4e6 and X'X about 1.4e13.  The MSPL fit must end converged,
        # near beta = (0.29, 0.11, 0.11).  The gradient along the collinear
        # direction (0, -1, 1) is scaled down by that 1e-6, so the gradient
        # test is met there though the penalized maximum lies far out along it.
        X = np.array([
            [1.0, 0.12573022, 0.12573086], [1.0, -0.13210486, -0.13210476],
            [1.0, 0.36159505, 0.361596], [1.0, 1.30400005, 1.30399934],
        ])
        data = ClusteredDataset(np.array([0.0, 1.0, 1.0, 1.0]), X, np.ones((4, 1)), [2, 2])
        result = fit(data, FitOptions(method="mspl", quadrature=5))
        assert np.isfinite(result.theta.as_vector()).all()
        assert np.isfinite(result.grad_norm)
        assert result.converged
