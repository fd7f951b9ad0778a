import warnings

import numpy as np
import pytest

from msplogit.likelihood import LoglikEvaluator, gauss_hermite_rule
from msplogit.model import Theta
from msplogit.optimize import numeric_gradient
from msplogit.penalties import (
    composite_penalty,
    huber_D,
    huber_D_prime,
    jeffreys_penalty,
    scale_factor,
    variance_penalty,
)

from conftest import jeffreys_oracle, make_dataset


class TestHuber:
    def test_values(self):
        assert huber_D(0.0) == 0.0
        assert huber_D(1.0) == -0.5
        assert huber_D(-1.0) == -0.5
        assert huber_D(-3.0) == -2.5

    def test_continuously_differentiable_at_knot(self):
        eps = 1e-8
        for x0 in (1.0, -1.0):
            left = (huber_D(x0) - huber_D(x0 - eps)) / eps
            right = (huber_D(x0 + eps) - huber_D(x0)) / eps
            assert left == pytest.approx(right, abs=1e-6)
            assert abs(huber_D_prime(x0)) == 1.0

    def test_derivative_bounded(self):
        xs = np.linspace(-20, 20, 401)
        assert (np.abs(huber_D_prime(xs)) <= 1.0).all()

    def test_concave(self):
        xs = np.linspace(-5, 5, 101)
        mid = huber_D(0.5 * (xs[:-2] + xs[2:]))
        assert (mid >= 0.5 * (huber_D(xs[:-2]) + huber_D(xs[2:])) - 1e-12).all()


class TestVariancePenalty:
    def test_zero(self):
        pv = variance_penalty(np.zeros(1), 1)
        assert pv.value == 0.0
        assert np.array_equal(pv.gradient, [0.0])

    def test_componentwise_closed_form(self):
        pv = variance_penalty(np.array([0.5, -0.5, 2.0]), 2)
        assert pv.value == pytest.approx(-1.75, abs=1e-15)
        assert np.allclose(pv.gradient, [-0.5, 0.5, -1.0], atol=1e-15)

    def test_linear_divergence_in_tails(self):
        for sign in (1.0, -1.0):
            for t in (1e2, 1e4, 1e6):
                pv = variance_penalty(np.array([sign * t]), 1)
                assert pv.value == pytest.approx(-t + 0.5, rel=1e-12)

    def test_gradient_entries_clamped(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            psi = rng.uniform(-30, 30, size=6)
            pv = variance_penalty(psi, 3)
            assert (np.abs(pv.gradient) <= 1.0).all()

    def test_length_checked(self):
        with pytest.raises(ValueError):
            variance_penalty(np.zeros(2), 2)


class TestJeffreysPenalty:
    def test_ones_column_at_zero(self):
        pv = jeffreys_penalty(np.ones((4, 1)), np.zeros(1))
        assert pv.value == pytest.approx(0.0, abs=1e-14)
        assert pv.gradient[0] == pytest.approx(0.0, abs=1e-14)

    def test_ones_column_closed_form_gradient(self):
        # hat values sum to p = 1, mu = 3/4 everywhere, so the gradient
        # reduces to (1 - 2 mu) / 2 = -1/4 for any sample size.
        for n in (3, 10, 57):
            pv = jeffreys_penalty(np.ones((n, 1)), np.array([np.log(3.0)]))
            assert pv.gradient[0] == pytest.approx(-0.25, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        X = rng.normal(size=(50, 3))
        beta = rng.normal(size=3)
        pv = jeffreys_penalty(X, beta)
        fd = numeric_gradient(lambda b: jeffreys_penalty(X, b).value, beta)
        assert np.abs(pv.gradient - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-6
        # p = 3: each component bounded by (p/2) max_t |x_ts|
        assert (np.abs(pv.gradient) <= 1.5 * np.abs(X).max(axis=0) + 1e-12).all()

    def test_partial_derivative_bound(self):
        # Over random designs, |d log det / d beta_s| <= p max_t |x_ts|
        # with nothing beyond rounding slack.
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(5, 201))
            p = int(rng.integers(1, min(9, n + 1)))
            X = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0)
            beta = rng.normal(scale=rng.uniform(0.2, 2.0), size=p)
            grad_logdet = 2.0 * jeffreys_penalty(X, beta).gradient
            bound = p * np.abs(X).max(axis=0)
            assert (np.abs(grad_logdet) <= bound + 1e-12).all()

    def test_rank_deficiency_is_minus_infinity(self):
        # Two equal columns leave |R_22| ~ 1e-16; at |eta| > 745 on every
        # row each weight underflows to zero, and with it all of R.
        equal = np.column_stack([np.ones(6), np.ones(6)])
        spread = np.column_stack([np.ones(6), np.linspace(-1.0, 1.0, 6)])
        beta = np.array([800.0, 40.0])
        assert np.abs(spread @ beta).min() > 745.0
        for X, b in ((equal, np.zeros(2)), (spread, beta)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pv = jeffreys_penalty(X, b)
            assert pv.value == -np.inf
            assert pv.gradient.shape == (2,) and np.isnan(pv.gradient).all()

    def test_symmetric_in_eta(self):
        # w(eta) = w(-eta) and 1 - 2 mu is odd, so flipping beta keeps
        # the value and negates the gradient, also where mu rounds to 0 or 1.
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, size=9)
        for X in (np.ones((5, 1)), np.column_stack([np.ones(9), x])):
            for scale in (0.5, 5.0, 40.0, 100.0, 350.0):
                beta = np.full(X.shape[1], scale)
                assert np.abs(X @ beta).max() <= 700.0
                pos, neg = jeffreys_penalty(X, beta), jeffreys_penalty(X, -beta)
                assert np.isfinite(pos.value)
                assert neg.value == pytest.approx(pos.value, rel=1e-12)
                assert np.allclose(neg.gradient, -pos.gradient, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-7])
    def test_near_collinear_matches_decimal_oracle(self, eps):
        # Third column = second + eps * noise, so sqrt(W) X has condition
        # number of order 1/eps.  The QR is backward stable and its error
        # grows like machine epsilon / eps; forming X'WX would square that.
        tol = 10 * np.finfo(float).eps / eps
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.normal(size=12)
            X = np.column_stack([np.ones(12), x, x + eps * rng.normal(size=12)])
            beta = rng.normal(size=3)
            value, grad = jeffreys_oracle(X, beta)
            pv = jeffreys_penalty(X, beta)
            assert pv.value == pytest.approx(value, abs=tol)
            assert np.abs(pv.gradient - grad).max() <= tol

    def test_contrast_shift_identity(self):
        # On the transformed design X C^{-1} at C beta the value drops by
        # exactly log |det C|.  Draws are kept decently conditioned so
        # that the float identity can hold at 1e-10.
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 3))
        beta = rng.normal(size=3)
        base = jeffreys_penalty(X, beta).value
        done = 0
        while done < 50:
            C = rng.normal(size=(3, 3))
            if np.linalg.cond(C) > 50:
                continue
            transformed = jeffreys_penalty(X @ np.linalg.inv(C), C @ beta).value
            assert transformed == pytest.approx(
                base - np.log(abs(np.linalg.det(C))), abs=1e-10
            )
            done += 1

    def test_empirical_concavity_on_segments(self):
        # Concavity of the fixed-effects block is an empirical property
        # of the moderate region only; segments between scale-1.5 draws
        # produce genuine counterexamples (gap ~ -0.1 via slogdet).
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 3))
        for _ in range(100):
            a = rng.normal(scale=0.6, size=3)
            b = rng.normal(scale=0.6, size=3)
            mid = jeffreys_penalty(X, 0.5 * (a + b)).value
            ends = 0.5 * (jeffreys_penalty(X, a).value + jeffreys_penalty(X, b).value)
            assert mid >= ends - 1e-10

    def test_variance_block_concave_everywhere(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            a = rng.normal(scale=4.0, size=3)
            b = rng.normal(scale=4.0, size=3)
            mid = variance_penalty(0.5 * (a + b), 2).value
            ends = 0.5 * (variance_penalty(a, 2).value + variance_penalty(b, 2).value)
            assert mid >= ends - 1e-10


class TestScaleFactor:
    def test_values(self):
        assert scale_factor(1, 4) == pytest.approx(1.0, abs=1e-15)
        assert scale_factor(4, 79) == pytest.approx(0.4500, abs=1e-4)
        assert scale_factor(5, 5) == pytest.approx(2.0, abs=1e-15)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            scale_factor(5, 4)
        with pytest.raises(ValueError):
            scale_factor(0, 4)


class TestCompositePenalty:
    def test_zero_at_symmetric_point(self):
        data = make_dataset(k=2, n_i=2, p=1, seed=0)
        pv = composite_penalty(data, Theta(np.zeros(1), np.zeros(1)))
        assert pv.value == pytest.approx(0.0, abs=1e-13)

    def test_gradient_concatenation_and_norm_bound(self):
        rng = np.random.default_rng(17)
        data = make_dataset(k=4, n_i=5, p=3, q=2, seed=2)
        c = scale_factor(data.p, data.n)
        for _ in range(25):
            theta = Theta(rng.normal(size=3), rng.normal(size=3))
            pv = composite_penalty(data, theta)
            assert pv.gradient.shape == (6,)
            bound = (
                c * data.p**1.5 * np.abs(data.X).max() / 2.0
                + c * np.sqrt(data.q * (data.q + 1) / 2.0)
            )
            assert np.linalg.norm(pv.gradient) <= bound + 1e-12

    def test_divergence_along_random_rays(self):
        # The penalty must dominate on every divergent path while the
        # approximate log-likelihood stays bounded above.
        rng = np.random.default_rng(31)
        data = make_dataset(k=3, n_i=4, p=2, seed=5)
        ev = LoglikEvaluator(data, "agq", gauss_hermite_rule(20))
        for _ in range(20):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            values = []
            for t in (0.0, 20.0, 120.0):
                theta = Theta(direction[:2] * t, direction[2:] * t + 0.1)
                values.append(composite_penalty(data, theta).value)
                assert ev.loglik(theta) <= 1e-10
            assert values[1] < values[0]
            assert values[2] < values[1]
            assert values[2] < values[0] - 5.0

    def test_culcita_snapshot(self, culcita_reduced, reference_mspl_point):
        # Regression snapshot from the first verified build.
        pv = composite_penalty(culcita_reduced, reference_mspl_point)
        assert pv.value == pytest.approx(-0.8133760064094132, rel=1e-9)
        assert np.allclose(
            pv.gradient,
            [-0.21307126, -0.11678904, -0.02019708, 0.14878887, -0.45003516],
            atol=1e-7,
        )
