import warnings

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.optimize import minimize
from scipy.special import expit, logsumexp, roots_hermite

import msplogit.likelihood as likelihood
from msplogit.likelihood import (
    MODE_GRAD_ESCAPE,
    MODE_GRAD_TOL_V,
    MODE_MAX_STEP,
    LoglikEvaluator,
    ModeFindingError,
    gauss_hermite_rule,
)
from msplogit.inference import attach_se
from msplogit.model import ClusteredDataset, Theta, n_psi, psi_to_chol, psi_to_sigma
from msplogit.optimize import FitOptions, fit

from conftest import make_dataset, trapezoid_loglik


class TestGaussHermiteRule:
    def test_one_node(self):
        rule = gauss_hermite_rule(1)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == pytest.approx(np.sqrt(np.pi), abs=1e-15)

    def test_two_nodes(self):
        rule = gauss_hermite_rule(2)
        assert np.allclose(sorted(rule.nodes), [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)
        assert np.allclose(rule.weights, np.sqrt(np.pi) / 2, atol=1e-14)

    @pytest.mark.parametrize("Q", [3, 10, 31, 100, 200])
    def test_moments(self, Q):
        rule = gauss_hermite_rule(Q)
        assert abs(rule.weights.sum() - np.sqrt(np.pi)) < 1e-12
        if Q >= 2:
            assert abs((rule.weights * rule.nodes**2).sum() - np.sqrt(np.pi) / 2) < 1e-10

    @pytest.mark.parametrize("Q", [2, 7, 64, 199])
    def test_symmetry_and_positivity(self, Q):
        rule = gauss_hermite_rule(Q)
        assert (rule.weights > 0).all()
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])

    @pytest.mark.parametrize("Q", [0, -3, 201])
    def test_range_errors(self, Q):
        for _ in range(2):  # an error is raised again, never cached
            with pytest.raises(ValueError):
                gauss_hermite_rule(Q)

    @pytest.mark.parametrize("Q", [2, 3, 20, 100, 199, 200])
    def test_matches_tridiagonal_eigensolver_construction(self, Q):
        # scipy's rule: Golub-Welsch from a tridiagonal eigensolver, with
        # Newton-refined nodes, up to Q = 150, and an asymptotic expansion above.
        nodes, weights = roots_hermite(Q)
        rule = gauss_hermite_rule(Q)
        np.testing.assert_allclose(rule.nodes, nodes, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(rule.weights, weights, rtol=1e-12, atol=0.0)

    def test_repeated_call_returns_the_same_rule(self):
        assert gauss_hermite_rule(37) is gauss_hermite_rule(37)
        with pytest.raises(TypeError):
            gauss_hermite_rule(37.0)

    @pytest.mark.parametrize("Q", [1, 100])
    def test_shared_rule_is_read_only(self, Q):
        rule = gauss_hermite_rule(Q)
        for array in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_fit_with_se_builds_rule_once(self, culcita_reduced):
        gauss_hermite_rule.cache_clear()
        attach_se(culcita_reduced, fit(culcita_reduced, FitOptions(quadrature=100)))
        assert gauss_hermite_rule.cache_info().misses == 1


class TestSoftplusLogistic:
    def test_matches_reference_without_warnings(self):
        eta = np.concatenate([np.linspace(-800.0, 800.0, 16001), [-745.0, 0.0, 745.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            softplus, logistic = likelihood._softplus_logistic(eta)
        np.testing.assert_array_max_ulp(softplus, np.logaddexp(0.0, eta), maxulp=4)
        reference = expit(eta)
        # scipy's expit returns 0 below eta = -709.78, where e^-eta overflows;
        # there the logistic is the subnormal e^eta, since 1 + e^eta rounds to 1.
        flushed = reference == 0.0
        assert flushed.any()
        np.testing.assert_array_max_ulp(logistic[~flushed], reference[~flushed], maxulp=4)
        np.testing.assert_array_max_ulp(logistic[flushed], np.exp(eta[flushed]), maxulp=4)


def _theta(beta, psi):
    return Theta(np.asarray(beta, dtype=float), np.asarray(psi, dtype=float))


def u_modes(data, theta):
    """Per-cluster modes in the u scale from every solver that serves ``data``.

    At q = 1 the quadrature and Laplace paths return u itself; at q >= 2
    the Laplace path returns v with u = L v.  Each is (k, q).
    """
    if data.q == 1:
        return [likelihood._q1_logprobs(data, theta, gauss_hermite_rule(Q))[1][:, None] for Q in (5, 1)]
    v = likelihood._laplace_general(data, theta)[1]
    return [v @ psi_to_chol(theta.psi, theta.q).T]


def single_cluster(y, X, Z):
    return ClusteredDataset(y, X, Z, [len(y)])


class TestClusterMode:
    def test_balanced_cluster_mode_is_zero(self):
        data = single_cluster([0.0, 1.0], np.ones((2, 1)), np.ones((2, 1)))
        for psi in (-1.0, 0.0, 2.0):
            for u in u_modes(data, _theta([0.0], [psi])):
                assert abs(u[0, 0]) < 1e-10

    def test_single_obs_against_bisection(self):
        # Stationarity for y=1, X=Z=[1], beta=0, sigma^2=1 is
        # (1 - sigmoid(u)) - u = 0; bracketing bisection is the oracle.
        data = single_cluster([1.0], [[1.0]], [[1.0]])
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if (1.0 - expit(mid)) - mid > 0:
                lo = mid
            else:
                hi = mid
        for u in u_modes(data, _theta([0.0], [0.0])):
            assert u[0, 0] == pytest.approx(lo, abs=1e-9)

    def test_tiny_variance_pins_mode_near_zero(self):
        data = make_dataset(k=1, n_i=6, p=2, seed=3)
        # sigma^2 = 1e-6  <=>  psi = log(1e-3)
        for u in u_modes(data, _theta([0.4, -0.2], [np.log(1e-3)])):
            assert abs(u[0, 0]) < 1e-2

    @pytest.mark.parametrize("q", [1, 2])
    def test_mode_contract(self, q):
        # The mode is stationary in u, and the Laplace value is the u-scale
        # g(u) - 1/2 log det(Z'WZ + Sigma^{-1}) - 1/2 log det Sigma there.
        # At q = 1 this is an oracle for the one-node rule that does not
        # go through the quadrature sum.
        rng = np.random.default_rng(8)
        for seed in range(10):
            data = make_dataset(k=1, n_i=5, p=2, q=q, seed=seed)
            theta = _theta(rng.normal(size=2), rng.normal(scale=0.6, size=n_psi(q)))
            sigma = psi_to_sigma(theta.psi, q)
            sigma_inv = np.linalg.inv(sigma)
            for u in u_modes(data, theta):
                u = u[0]
                eta = data.X @ theta.beta + data.Z @ u
                mu = expit(eta)
                grad = data.Z.T @ (data.y - mu) - sigma_inv @ u
                assert np.linalg.norm(grad) < 1e-8
            H = data.Z.T @ ((mu * (1.0 - mu))[:, None] * data.Z) + sigma_inv
            g = np.sum(data.y * eta - np.logaddexp(0.0, eta)) - 0.5 * u @ sigma_inv @ u
            laplace = g - 0.5 * np.linalg.slogdet(H)[1] - 0.5 * np.linalg.slogdet(sigma)[1]
            assert LoglikEvaluator(data, "laplace").loglik(theta) == pytest.approx(laplace, abs=1e-10)


class TestAgqLoglik:
    def test_degenerate_variance_matches_plain_logistic(self):
        data = make_dataset(k=3, n_i=4, p=2, seed=1)
        theta = _theta([0.3, -0.8], [-12.0])
        eta = data.X @ theta.beta
        glm = float(np.sum(data.y * eta - np.logaddexp(0.0, eta)))
        val = LoglikEvaluator(data, "agq", gauss_hermite_rule(100)).loglik(theta)
        assert val == pytest.approx(glm, abs=1e-4)

    def test_one_node_equals_laplace(self):
        rng = np.random.default_rng(2)
        rule = gauss_hermite_rule(1)
        for seed in range(20):
            data = make_dataset(k=3, n_i=4, p=2, seed=seed)
            theta = _theta(rng.normal(size=2), rng.normal(size=1))
            assert LoglikEvaluator(data, "agq", rule).loglik(theta) == pytest.approx(
                LoglikEvaluator(data, "laplace").loglik(theta), abs=1e-12
            )

    def test_matches_trapezoid_oracle(self):
        rng = np.random.default_rng(42)
        rule = gauss_hermite_rule(50)
        data = make_dataset(k=2, n_i=3, p=2, seed=7)
        theta = _theta(rng.normal(size=2), rng.normal(size=1))
        assert LoglikEvaluator(data, "agq", rule).loglik(theta) == pytest.approx(
            trapezoid_loglik(data, theta), abs=1e-8
        )

    def test_rejects_multivariate_effects(self):
        data = make_dataset(k=2, n_i=4, p=2, q=2, seed=0)
        with pytest.raises(ValueError):
            LoglikEvaluator(data, "agq", gauss_hermite_rule(5))

    def test_refinement_differences_shrink(self):
        for seed in (0, 1, 2):
            data = make_dataset(k=3, n_i=4, p=2, seed=seed)
            theta = _theta([0.5, -0.4], [0.3])
            vals = {
                Q: LoglikEvaluator(data, "agq", gauss_hermite_rule(Q)).loglik(theta)
                for Q in (2, 4, 8, 16)
            }
            d1 = abs(vals[2] - vals[4])
            d2 = abs(vals[4] - vals[8])
            d3 = abs(vals[8] - vals[16])
            assert d2 <= d1 + 1e-15
            assert d3 <= d2 + 1e-15

    def test_cluster_masses_are_probabilities(self):
        rng = np.random.default_rng(3)
        rule = gauss_hermite_rule(40)
        for seed in range(10):
            data = make_dataset(k=4, n_i=5, p=2, seed=seed)
            theta = _theta(rng.normal(size=2), rng.normal(size=1))
            logprobs = LoglikEvaluator(data, "agq", rule).cluster_logprobs(theta)
            assert (logprobs <= 1e-10).all()
            assert np.isfinite(logprobs).all()

    def test_intercept_shift_matches_eta_shift(self):
        # Adding delta to the intercept must equal shifting every linear
        # predictor by delta; the check recomputes through the trapezoid
        # oracle with the shift applied to eta directly.
        data = make_dataset(k=2, n_i=3, p=2, seed=9)
        delta = 0.7
        theta = _theta([0.2, -0.5], [0.1])
        shifted = _theta([0.2 + delta, -0.5], [0.1])
        val = LoglikEvaluator(data, "agq", gauss_hermite_rule(50)).loglik(shifted)
        assert val == pytest.approx(trapezoid_loglik(data, theta, eta_shift=delta), abs=1e-8)


def tensor_grid_loglik(data, theta, Q=60):
    """Dense non-adaptive tensor-product integration for q = 2.

    The grid is centered at each cluster mode, which scipy's trust-region
    minimizer finds, and scaled per axis by the prior standard
    deviations, independent of the curvature the Laplace approximation
    uses.  Nodes come from numpy and Sigma from psi directly; no
    msplogit numerics are used.
    """
    nodes, weights = hermgauss(Q)
    L = np.array([[np.exp(theta.psi[0]), 0.0], [theta.psi[2], np.exp(theta.psi[1])]])
    sigma = L @ L.T
    sigma_inv = np.linalg.inv(sigma)
    _, logdet = np.linalg.slogdet(sigma)
    scales = np.sqrt(np.diag(sigma))
    total = 0.0
    for lo, hi in zip(data.row_offsets[:-1], data.row_offsets[1:]):
        y, Z = data.y[lo:hi], data.Z[lo:hi]
        xb = data.X[lo:hi] @ theta.beta

        def neg_exponent(u):
            eta = xb + Z @ u
            value = -np.sum(y * eta - np.logaddexp(0.0, eta)) + 0.5 * u @ sigma_inv @ u
            return value, -Z.T @ (y - expit(eta)) + sigma_inv @ u

        def neg_hessian(u):
            mu = expit(xb + Z @ u)
            return Z.T @ ((mu * (1.0 - mu))[:, None] * Z) + sigma_inv

        mode = minimize(
            neg_exponent, np.zeros(2), jac=True, hess=neg_hessian, method="trust-exact",
            options={"gtol": 1e-10},
        ).x
        ua = mode[0] + scales[0] * nodes
        ub = mode[1] + scales[1] * nodes
        UA, UB = np.meshgrid(ua, ub, indexing="ij")
        eta = xb[None, None, :] + UA[..., None] * Z[None, None, :, 0] + UB[..., None] * Z[None, None, :, 1]
        g = (y * eta - np.logaddexp(0.0, eta)).sum(axis=2) - 0.5 * (
            sigma_inv[0, 0] * UA**2 + 2 * sigma_inv[0, 1] * UA * UB + sigma_inv[1, 1] * UB**2
        )
        logw = (
            np.log(weights)[:, None]
            + np.log(weights)[None, :]
            + nodes[:, None] ** 2
            + nodes[None, :] ** 2
        )
        total += logsumexp(g + logw) + np.log(scales[0] * scales[1]) - 0.5 * logdet - np.log(2 * np.pi)
    return total


class TestLaplaceLoglik:
    def test_q2_degenerate_variance_matches_plain_logistic(self):
        data = make_dataset(k=2, n_i=4, p=2, q=2, seed=11)
        theta = _theta([0.2, 0.5], [-12.0, -12.0, 0.0])
        eta = data.X @ theta.beta
        glm = float(np.sum(data.y * eta - np.logaddexp(0.0, eta)))
        assert LoglikEvaluator(data, "laplace").loglik(theta) == pytest.approx(glm, abs=1e-3)

    def test_q2_matches_tensor_grid(self):
        # Laplace's own error is O(sigma^2), so the qualifying instance
        # has small variance components; the oracle itself is converged
        # to far better than the comparison tolerance.
        data = make_dataset(k=2, n_i=4, p=2, q=2, seed=11)
        theta = _theta([0.2, 0.5], [-4.5, -4.5, 0.02])
        oracle = tensor_grid_loglik(data, theta, Q=60)
        assert tensor_grid_loglik(data, theta, Q=90) == pytest.approx(oracle, abs=1e-9)
        assert LoglikEvaluator(data, "laplace").loglik(theta) == pytest.approx(oracle, abs=1e-6)


def loop_mode_v(y, xb, A, v0=None):
    """Reference inner solver: one cluster at a time, damped Newton.

    Maximizes gt(v) = condloglik(xb + A v) - ||v||^2/2 with A = Z L,
    with the rules of the stacked solver: warm-start rejection against
    v = 0, the step-norm cap, the acceptance test, the step fraction
    4^-r after r rejected candidates in a row, the gradient tolerance,
    the stall after ``MODE_MAX_FAILS`` rejections in a row, at most
    ``MODE_MAX_ITER`` candidates, the stall escape and
    ``ModeFindingError``.
    """
    q = A.shape[1]

    def g_of(v_vec):
        eta = xb + A @ v_vec
        return float(np.sum(y * eta - np.logaddexp(0.0, eta)) - 0.5 * v_vec @ v_vec)

    def grad_and_curvature(v_vec):
        mu = expit(xb + A @ v_vec)
        return A.T @ (y - mu) - v_vec, A.T @ ((mu * (1.0 - mu))[:, None] * A) + np.eye(q)

    v = np.zeros(q) if v0 is None else np.array(v0, dtype=float)
    g = g_of(v)
    if v0 is not None:
        g0 = g_of(np.zeros(q))
        if not g >= g0:
            v = np.zeros(q)
            g = g0
    fails = 0
    for _ in range(likelihood.MODE_MAX_ITER):
        grad, H = grad_and_curvature(v)
        if np.linalg.norm(grad) < MODE_GRAD_TOL_V or fails == likelihood.MODE_MAX_FAILS:
            break
        step = np.linalg.solve(H, grad)
        norm = np.linalg.norm(step)
        if norm > MODE_MAX_STEP:
            step = step * (MODE_MAX_STEP / norm)
        step = step * 0.25**fails
        g_new = g_of(v + step)
        if g_new >= g - 1e-12 * (1.0 + abs(g)):
            v = v + step
            g = g_new
            fails = 0
        else:
            fails += 1
    grad, H = grad_and_curvature(v)
    if np.linalg.norm(grad) < MODE_GRAD_ESCAPE:
        return v, H
    raise ModeFindingError("reference cluster mode did not converge")


def loop_laplace_logprobs(data, theta, warm=None):
    """Reference per-cluster Laplace values from ``loop_mode_v``."""
    L = psi_to_chol(theta.psi, theta.q)
    logprobs, modes = [], []
    for i, (lo, hi) in enumerate(zip(data.row_offsets[:-1], data.row_offsets[1:])):
        y = data.y[lo:hi]
        xb = data.X[lo:hi] @ theta.beta
        A = data.Z[lo:hi] @ L
        v, H = loop_mode_v(y, xb, A, None if warm is None else warm[i])
        eta = xb + A @ v
        g = float(np.sum(y * eta - np.logaddexp(0.0, eta)) - 0.5 * v @ v)
        logprobs.append(g - np.sum(np.log(np.diag(np.linalg.cholesky(H)))))
        modes.append(v)
    return np.array(logprobs), np.array(modes)


# Moderate, near-singular slope (log l22 = -12), huge sigma (e^5) and a
# correlation of about 0.9999 between intercept and slope.
PSI_GRID = [
    [0.2, -0.1, 0.4],
    [0.0, -12.0, 0.0],
    [5.0, 5.0, 0.3],
    [0.5, -2.0, 10.0],
    [-12.0, -12.0, 0.0],
]


class TestStackedLaplaceSolver:
    @pytest.mark.parametrize("psi", PSI_GRID)
    def test_matches_cluster_loop(self, psi):
        rng = np.random.default_rng(5)
        for seed in range(4):
            data = make_dataset(k=12, n_i=6, p=2, q=2, seed=seed)
            theta = _theta(rng.normal(size=2), psi)
            logprobs, modes = likelihood._laplace_general(data, theta)[:2]
            ref, ref_modes = loop_laplace_logprobs(data, theta)
            assert np.abs(logprobs - ref).max() <= 1e-12
            assert modes.shape == (data.k, 2)

    def test_three_dimensional_effects_match_cluster_loop(self):
        data = make_dataset(k=8, n_i=7, p=2, q=3, seed=4)
        theta = _theta([0.3, -0.2], [0.1, -0.5, -3.0, 0.4, -0.2, 0.7])
        logprobs = LoglikEvaluator(data, "laplace").cluster_logprobs(theta)
        assert np.abs(logprobs - loop_laplace_logprobs(data, theta)[0]).max() <= 1e-12

    def test_far_warm_start_gives_cold_values(self):
        data = make_dataset(k=10, n_i=6, p=2, q=2, seed=7)
        far = _theta([4.0, -3.0], [5.0, 5.0, -2.0])
        near = _theta([0.2, 0.1], [-0.3, -6.0, 0.2])
        warmed = LoglikEvaluator(data, "laplace")
        warmed.cluster_logprobs(far)
        warm_values = warmed.cluster_logprobs(near)
        cold_values = LoglikEvaluator(data, "laplace").cluster_logprobs(near)
        far_modes = likelihood._laplace_general(data, far)[1]
        assert np.abs(warm_values - cold_values).max() <= 1e-12
        assert np.abs(warm_values - loop_laplace_logprobs(data, near, far_modes)[0]).max() <= 1e-12

    @pytest.mark.parametrize("q", [1, 2])
    def test_stall_raises(self, monkeypatch, q):
        data = make_dataset(k=4, n_i=6, p=2, q=q, seed=1)
        monkeypatch.setattr(likelihood, "MODE_MAX_ITER", 1)
        psi = [5.0] if q == 1 else [5.0, 5.0, 0.0]
        with pytest.raises(ModeFindingError, match="gradient norm"):
            LoglikEvaluator(data, "laplace").cluster_logprobs(_theta([0.3, -0.4], psi))

    @pytest.mark.parametrize("log_sigma", [-10.0, -3.0, -1.0, 0.0])
    def test_scalar_and_stacked_solvers_agree(self, culcita_full, reference_mspl_point, log_sigma):
        # For sigma <= 1 the q = 1 scale t = u / sigma is the standardized
        # scale of the stacked solver with A = sigma Z, so both solve the
        # same problem by the same iteration.
        rng = np.random.default_rng(15)
        sigma = float(np.exp(log_sigma))
        for _ in range(5):
            xb = culcita_full.X @ (reference_mspl_point.beta + rng.normal(scale=2.0, size=4))
            t, g_t, hess = likelihood._modes_q1(culcita_full, xb, log_sigma)
            v, g_v, H = likelihood._modes_general(culcita_full, xb, sigma * culcita_full.Z)
            assert np.abs(t - v[:, 0]).max() <= 1e-14
            assert np.abs(g_t - g_v).max() <= 1e-14
            assert np.abs(hess - H[:, 0, 0]).max() <= 1e-14

    @pytest.mark.parametrize("q", [1, 2])
    def test_exponent_at_zero_is_the_state_at_zero(self, monkeypatch, q):
        # A cold start is never judged worse than itself, which would cost
        # a second pass at the same point.
        data = make_dataset(k=12, n_i=6, p=2, q=q, seed=4)
        xb = data.X @ np.array([2.0, -3.0])
        solve = likelihood._damped_newton
        checked = []

        def checking(state, newton_step, v0, g_zero):
            checked.append(np.array_equal(state(np.zeros_like(v0))[0], g_zero))
            return solve(state, newton_step, v0, g_zero)

        monkeypatch.setattr(likelihood, "_damped_newton", checking)
        if q == 1:
            likelihood._modes_q1(data, xb, np.log(0.7))
        else:
            likelihood._modes_general(data, xb, data.Z @ psi_to_chol(np.array([0.3, -0.5, 0.4]), 2))
        assert checked == [True]


class TestDampedNewton:
    """The shared mode iteration on separable clusters."""

    @staticmethod
    def solve(stuck_grad):
        """Three clusters: 1 and 2 maximize -(v - c)^2 / 2.  Cluster 0
        reports the gradient ``stuck_grad`` but no candidate step ever
        raises its exponent above the start's, so it stalls."""
        centre = np.array([0.0, 1.5, -2.0])

        def state(v):
            g = -0.5 * (v - centre) ** 2
            g[0] = 0.0 if v[0] == 0.0 else -1.0
            grad = centre - v
            grad[0] = stuck_grad
            return g, grad, np.ones(3), np.abs(grad)

        def newton_step(grad, hess):
            return grad / hess

        zero = np.zeros(3)
        return likelihood._damped_newton(state, newton_step, zero, state(zero)[0])

    @staticmethod
    def passes(centre, scale):
        """``state`` passes to maximize -log cosh(v - centre) per cluster from zero.

        Each cluster hands the loop ``scale`` times its true curvature:
        at 1 its full Newton steps overshoot far from the maximum until
        damped, at 2 they fall half short and the cluster takes many.
        """
        calls = []

        def state(v):
            calls.append(v)
            grad = np.tanh(centre - v)
            return -np.log(np.cosh(centre - v)), grad, scale * (1.0 - grad**2), np.abs(grad)

        zero = np.zeros(centre.size)
        v = likelihood._damped_newton(state, lambda grad, hess: grad / hess, zero, state(zero)[0])[0]
        assert v == pytest.approx(centre, abs=MODE_GRAD_TOL_V)
        return len(calls) - 1

    def test_no_cluster_waits_for_another_s_retries(self):
        # Cluster 0's first Newton step, sinh(6) / 2, is rejected at full,
        # quarter and sixteenth length; cluster 1 takes every step it is
        # given.  The joint solve is as long as the slower cluster's alone.
        centre, scale = np.array([3.0, 1.0]), np.array([1.0, 2.0])
        damped = self.passes(centre[:1], scale[:1])
        slow = self.passes(centre[1:], scale[1:])
        assert damped < slow
        assert self.passes(centre, scale) == slow

    def test_stalled_cluster_leaves_the_others_converging(self):
        v, g, hess = self.solve(0.1 * MODE_GRAD_ESCAPE)
        assert v[0] == 0.0
        assert v[1:] == pytest.approx([1.5, -2.0], abs=MODE_GRAD_TOL_V)
        assert g[1:] == pytest.approx([0.0, 0.0], abs=1e-20)

    def test_stall_above_escape_raises_with_the_norm(self):
        with pytest.raises(ModeFindingError, match=r"gradient norm 0\.001 .* 1 of 3 clusters stalled"):
            self.solve(1e-3)


class TestEvaluator:
    def test_warm_start_does_not_change_values(self):
        data = make_dataset(k=4, n_i=5, p=2, seed=6)
        ev = LoglikEvaluator(data, "agq", gauss_hermite_rule(30))
        t1 = _theta([0.2, -0.1], [0.3])
        t2 = _theta([0.25, -0.12], [0.28])
        ev.loglik(t1)
        warm = ev.loglik(t2)
        cold = LoglikEvaluator(data, "agq", gauss_hermite_rule(30)).loglik(t2)
        assert warm == pytest.approx(cold, abs=1e-10)

    def test_auto_selects_by_dimension(self):
        assert FitOptions().evaluator(make_dataset(q=1)).approx == "agq"
        assert FitOptions().evaluator(make_dataset(q=2, p=2)).approx == "laplace"

    def test_requires_an_approximation_and_a_rule(self):
        data = make_dataset(q=1)
        for approx in ("auto", "quadrature"):
            with pytest.raises(ValueError):
                LoglikEvaluator(data, approx)
        with pytest.raises(ValueError):
            LoglikEvaluator(data, "agq")

    def test_repeat_at_the_last_theta_solves_nothing(self, culcita_reduced, reference_mspl_point,
                                                     state_passes):
        # Every solve stores the value and the gradient, so neither call
        # order solves again at the same theta, at q = 1 or q = 2.
        cases = [
            (make_dataset(k=6, n_i=5, p=2, q=2, seed=2), _theta([0.3, -0.2], [0.1, -1.0, 0.2]),
             "laplace", None),
            (culcita_reduced, reference_mspl_point, "agq", gauss_hermite_rule(20)),
        ]
        for data, theta, approx, rule in cases:
            for logprobs_first in (False, True):
                ev = LoglikEvaluator(data, approx, rule)
                (ev.cluster_logprobs if logprobs_first else ev.value_and_grad)(theta)
                solves = len(state_passes)
                logprobs = ev.cluster_logprobs(theta)
                value, grad = ev.value_and_grad(theta)
                assert ev.value_and_grad(theta) == (value, grad)
                assert len(state_passes) == solves
                assert logprobs.sum() == value
                for array in (logprobs, grad):
                    with pytest.raises(ValueError):
                        array[0] = 0.0

    @pytest.mark.parametrize("case", ["q2", "q1, sigma < 1", "q1, sigma > 1"])
    def test_tangent_prediction_is_second_order(self, culcita_reduced, reference_mspl_point, case):
        # After a gradient call at theta, the next solve at theta + delta
        # starts within |delta|^2 of the new modes; the plain warm start,
        # the previous modes, is only O(|delta|) close.
        if case == "q2":
            data = make_dataset(k=12, n_i=6, p=2, q=2, seed=3, beta=[0.3, -0.6], psi=[0.0, -1.0, 0.3])
            theta, approx, rule = _theta([0.3, -0.6], [0.0, -1.0, 0.3]), "laplace", None
        else:
            data, approx, rule = culcita_reduced, "agq", gauss_hermite_rule(100)
            theta = Theta(reference_mspl_point.beta, np.array([-0.5 if "<" in case else 1.72]))
        x = theta.as_vector()
        direction = np.random.default_rng(1).normal(size=x.size)
        direction /= np.linalg.norm(direction)
        for h in (1e-2, 1e-3):
            ev = LoglikEvaluator(data, approx, rule)
            ev.value_and_grad(theta)
            moved = x + h * direction
            fresh = LoglikEvaluator(data, approx, rule)
            fresh.cluster_logprobs(Theta.from_vector(moved, data.p))
            assert np.abs(ev._start(moved) - fresh._modes).max() <= h**2
            assert np.abs(ev._modes - fresh._modes).max() >= 10 * h**2

    def test_prediction_kept_across_unit_sigma(self, culcita_reduced, reference_mspl_point):
        # The q = 1 modes and their tangent are kept in u, which is smooth
        # in psi where sigma crosses 1 and the t scale switches.
        rule = gauss_hermite_rule(20)
        for h in (1e-2, 1e-3):
            ev = LoglikEvaluator(culcita_reduced, "agq", rule)
            ev.value_and_grad(Theta(reference_mspl_point.beta, np.array([-h / 2])))
            above = ev._theta.copy()
            above[-1] = h / 2
            fresh = LoglikEvaluator(culcita_reduced, "agq", rule)
            fresh.cluster_logprobs(Theta.from_vector(above, culcita_reduced.p))
            assert np.abs(ev._start(above) - fresh._modes).max() <= h**2
            assert np.abs(ev._modes - fresh._modes).max() >= 10 * h**2


def stencil_gradient(make_evaluator, theta, h=1e-3):
    """Five-point central differences of cold log-likelihood evaluations."""
    x = theta.as_vector()
    grad = np.empty_like(x)
    for j in range(x.size):
        values = []
        for step in (-2, -1, 1, 2):
            moved = x.copy()
            moved[j] += step * h
            values.append(make_evaluator().loglik(Theta.from_vector(moved, theta.p)))
        grad[j] = (values[0] - 8 * values[1] + 8 * values[2] - values[3]) / (12 * h)
    return grad


def assert_exact_gradient(data, approx, rule, theta):
    make_evaluator = lambda: LoglikEvaluator(data, approx, rule)  # noqa: E731
    value, grad = make_evaluator().value_and_grad(theta)
    assert value == make_evaluator().loglik(theta)
    assert np.abs(grad - stencil_gradient(make_evaluator, theta)).max() < 1e-7


def extreme_q1_clusters():
    """An all-0, an all-1 and a completely separated cluster, plus a mixed one."""
    x = np.array([-1.5, -0.5, 0.5, 1.5])
    X = np.column_stack([np.ones(4), x])
    Z = np.ones((4, 1))
    y = np.concatenate([np.zeros(4), np.ones(4), (x > 0).astype(float), [0.0, 1.0, 0.0, 1.0]])
    return ClusteredDataset(y, np.tile(X, (4, 1)), np.tile(Z, (4, 1)), [4] * 4)


class TestValueAndGrad:
    """value_and_grad against a five-point stencil (h = 1e-3) of cold values."""

    @pytest.mark.parametrize("log_sigma", [-10.0, -3.0, 0.0, 1.72, 3.7, 5.0])
    @pytest.mark.parametrize("Q", [1, 5, 100, "laplace"])
    def test_q1_over_sigma(self, culcita_reduced, reference_mspl_point, Q, log_sigma):
        theta = Theta(reference_mspl_point.beta, np.array([log_sigma]))
        if Q == "laplace":
            assert_exact_gradient(culcita_reduced, "laplace", None, theta)
        else:
            assert_exact_gradient(culcita_reduced, "agq", gauss_hermite_rule(Q), theta)

    @pytest.mark.parametrize("Q", [1, 100])
    def test_q1_continuous_across_unit_sigma(self, culcita_reduced, reference_mspl_point, Q):
        # _q1_scale takes psi <= 0 to the t scale of sigma <= 1 and
        # psi = 1e-12 to the one above.
        grads = [
            LoglikEvaluator(culcita_reduced, "agq", gauss_hermite_rule(Q))
            .value_and_grad(Theta(reference_mspl_point.beta, np.array([psi])))[1]
            for psi in (-1e-12, 0.0, 1e-12)
        ]
        assert np.abs(grads[0] - grads[1]).max() <= 1e-9
        assert np.abs(grads[2] - grads[1]).max() <= 1e-9

    def test_q1_where_sigma_under_and_overflows(self, culcita_reduced, reference_mspl_point):
        # e^psi underflows to 0 at psi = -800 and e^{2 psi} overflows at
        # psi = 800; neither is ever formed.
        data, rule = culcita_reduced, gauss_hermite_rule(20)
        at = lambda psi: Theta(reference_mspl_point.beta, np.array([psi]))  # noqa: E731
        cold = lambda psi: LoglikEvaluator(data, "agq", rule).value_and_grad(at(psi))  # noqa: E731
        walk = [-800.0, -700.0, -30.0, -1.0, 0.0, 2.0, 5.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for psis in (walk, walk[::-1]):
                ev = LoglikEvaluator(data, "agq", rule)
                for psi in psis:
                    value, grad = ev.value_and_grad(at(psi))
                    cold_value, cold_grad = cold(psi)
                    assert abs(value - cold_value) <= 1e-9 * max(abs(cold_value), 1.0)
                    assert (np.abs(grad - cold_grad) <= 1e-9 * np.maximum(np.abs(cold_grad), 1.0)).all()
        eta = data.X @ reference_mspl_point.beta
        logistic = np.sum(data.y * eta - np.logaddexp(0.0, eta))
        assert LoglikEvaluator(data, "agq", rule).loglik(at(-800.0)) == pytest.approx(logistic, abs=1e-12)
        for psi in (300.0, 800.0):
            value, grad = cold(psi)
            assert np.isfinite(value) and np.isfinite(grad).all()
            assert grad[-1] == -data.k

    @pytest.mark.xfail(strict=True, raises=(AssertionError, ModeFindingError),
                       reason="a warm solve at huge sigma stops on the flat top of all-1 clusters")
    def test_q1_warm_solves_at_huge_sigma(self, culcita_reduced, reference_mspl_point):
        # After psi = 5 the predicted modes of the all-1 clusters sit where
        # mu = 1 exactly and the prior slope is below the mode tolerance, so
        # the solve stops there: at psi = 300 the value is 39% off and the
        # psi-gradient -6 against -10; from there psi = 400 raises.
        data, rule = culcita_reduced, gauss_hermite_rule(20)
        at = lambda psi: Theta(reference_mspl_point.beta, np.array([psi]))  # noqa: E731
        ev = LoglikEvaluator(data, "agq", rule)
        for psi in (5.0, 300.0, 400.0):
            value, grad = ev.value_and_grad(at(psi))
            cold_value, cold_grad = LoglikEvaluator(data, "agq", rule).value_and_grad(at(psi))
            assert value == pytest.approx(cold_value, rel=1e-9)
            assert grad == pytest.approx(cold_grad, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("log_sigma", [-3.0, 1.0, 4.0])
    @pytest.mark.parametrize("approx", ["agq", "laplace"])
    def test_constant_and_separated_clusters(self, approx, log_sigma):
        rule = gauss_hermite_rule(20) if approx == "agq" else None
        theta = _theta([0.4, 3.0], [log_sigma])
        assert_exact_gradient(extreme_q1_clusters(), approx, rule, theta)

    @pytest.mark.parametrize("psi", [
        [0.3, -12.0, 0.2],  # log l22 = -12
        [0.0, np.log(0.0141435), 1.0],  # correlation 0.9999
        [5.0, 5.0, 0.3],  # both standard deviations e^5
    ], ids=["log_l22=-12", "corr=0.9999", "sigma=e^5"])
    def test_q2(self, psi):
        data = make_dataset(k=12, n_i=6, p=2, q=2, seed=3, beta=[0.3, -0.6], psi=[0.0, -1.0, 0.3])
        assert_exact_gradient(data, "laplace", None, _theta([0.3, -0.6], psi))

    @pytest.mark.parametrize("psi", [[-3.0, -3.0, 0.1], [0.0, -1.0, 0.3], [1.0, 1.0, -0.5]])
    def test_q2_constant_and_separated_clusters(self, psi):
        clusters = extreme_q1_clusters()
        data = ClusteredDataset(clusters.y, clusters.X, clusters.X, clusters.sizes)
        assert_exact_gradient(data, "laplace", None, _theta([0.4, 3.0], psi))

    def test_q3(self):
        psi = [0.0, -1.0, -0.5, 0.3, 0.1, -0.2]
        data = make_dataset(k=10, n_i=6, p=2, q=3, seed=4, beta=[0.3, -0.6], psi=psi)
        assert_exact_gradient(data, "laplace", None, _theta([0.3, -0.6], psi))


def stencil_hessian(make_evaluator, theta, h=1e-3):
    """Symmetrized five-point central differences of cold gradients."""
    x = theta.as_vector()
    H = np.empty((x.size, x.size))
    for j in range(x.size):
        grads = []
        for step in (-2, -1, 1, 2):
            moved = x.copy()
            moved[j] += step * h
            grads.append(make_evaluator().value_and_grad(Theta.from_vector(moved, theta.p))[1])
        H[:, j] = (grads[0] - 8 * grads[1] + 8 * grads[2] - grads[3]) / (12 * h)
    return 0.5 * (H + H.T)


class TestHessian:
    """LoglikEvaluator.hessian against a five-point stencil (h = 1e-3) of cold gradients."""

    @pytest.mark.parametrize("log_sigma", [-8.0, -1e-12, 1e-12, 1.72, 8.0])
    @pytest.mark.parametrize("Q", [1, 5, 100, "laplace"])
    @pytest.mark.parametrize("dataset", ["culcita", "extreme"])
    def test_q1_against_stencil(self, culcita_reduced, reference_mspl_point, monkeypatch,
                                dataset, Q, log_sigma):
        if dataset == "culcita":
            data, beta = culcita_reduced, reference_mspl_point.beta
        else:
            data, beta = extreme_q1_clusters(), np.array([0.4, 3.0])
        if log_sigma == 8.0:
            # There the all-1 culcita clusters have curvature 1.9e-6, so the
            # score tolerance leaves their modes about 5e-6 off, and with one
            # or five nodes the cold gradients that the stencil differentiates
            # are 1.3e-5 off the stencil of their own values.  Modes solved
            # tighter let the oracle measure the formula.
            monkeypatch.setattr(likelihood, "MODE_GRAD_TOL_V", 1e-13)
        approx, rule = ("laplace", None) if Q == "laplace" else ("agq", gauss_hermite_rule(Q))
        make_evaluator = lambda: LoglikEvaluator(data, approx, rule)  # noqa: E731
        theta = Theta(beta, np.array([log_sigma]))
        H = make_evaluator().hessian(theta)
        assert np.array_equal(H, H.T)
        assert np.abs(H - stencil_hessian(make_evaluator, theta)).max() <= 1e-6 * np.abs(H).max()

    @pytest.mark.parametrize("Q", [1, 100])
    def test_q1_continuous_across_unit_sigma(self, culcita_reduced, reference_mspl_point, Q):
        # _q1_scale takes psi <= 0 to the t scale of sigma <= 1 and
        # psi = 1e-12 to the one above.
        hessians = [
            LoglikEvaluator(culcita_reduced, "agq", gauss_hermite_rule(Q))
            .hessian(Theta(reference_mspl_point.beta, np.array([psi])))
            for psi in (-1e-12, 0.0, 1e-12)
        ]
        assert np.abs(hessians[0] - hessians[1]).max() <= 1e-9
        assert np.abs(hessians[2] - hessians[1]).max() <= 1e-9

    def test_q1_only(self):
        data = make_dataset(k=6, n_i=5, p=2, q=2, seed=2)
        with pytest.raises(ValueError, match="q = 1 only"):
            LoglikEvaluator(data, "laplace").hessian(_theta([0.3, -0.2], [0.1, -1.0, 0.2]))
