import numpy as np
import pytest
from scipy.special import ndtri

import msplogit.inference as inference
import msplogit.likelihood as likelihood
from msplogit.inference import (
    ContrastMap,
    attach_se,
    normal_quantile,
    transform_dataset,
    transform_fit,
    wald_ci,
    wald_se,
)
from msplogit.likelihood import LoglikEvaluator, ModeFindingError
from msplogit.model import Theta
from msplogit.optimize import FitError, FitOptions, fit, hessian_fd
from msplogit.simulate import simulate_responses

from conftest import degenerate_slope_dataset, make_dataset


class TestContrastMap:
    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            ContrastMap(np.array([[1.0, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1e-4, 1e4])
    def test_invertibility_ignores_scale(self, scale):
        # A change of units is perfectly conditioned whatever its
        # determinant (1e-16 for 1e-4 * I); a scaled singular matrix is not.
        cmap = ContrastMap(scale * np.eye(4))
        assert np.array_equal(cmap.inverse(), np.eye(4) / scale)
        with pytest.raises(ValueError):
            ContrastMap(scale * np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_scaled_contrast_transforms_fit(self):
        # det C = 1e-400 underflows to zero; the penalty shift -c log|det C|
        # stays finite.
        data = make_dataset(k=4, n_i=6, p=2, seed=3, beta=[0.5, -0.8], psi=[0.1])
        result = fit(data, FitOptions(method="mspl", quadrature=30))
        moved = transform_fit(result, ContrastMap(1e-200 * np.eye(2)), data)
        assert np.array_equal(moved.theta.beta, 1e-200 * result.theta.beta)
        c = 2.0 * np.sqrt(data.p / data.n)
        assert moved.penalized == pytest.approx(result.penalized - 2 * c * np.log(1e-200), rel=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ContrastMap(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # The SVD of the rank check does not converge on a NaN entry.
        with pytest.raises(ValueError, match="non-finite"):
            ContrastMap(np.array([[bad, 0.0], [0.0, 1.0]]))


class TestWaldCi:
    def test_standard_normal_quantile(self):
        lo, hi = wald_ci(0.0, 1.0, 0.95)
        assert lo == pytest.approx(-1.959964, abs=1e-6)
        assert hi == pytest.approx(1.959964, abs=1e-6)

    def test_arithmetic(self):
        lo, hi = wald_ci(8.05, 3.21, 0.95)
        assert lo == pytest.approx(1.758, abs=1e-3)
        assert hi == pytest.approx(14.342, abs=1e-3)

    def test_zero_se_degenerate_with_warning(self):
        with pytest.warns(UserWarning):
            assert wald_ci(3.0, 0.0) == (3.0, 3.0)

    def test_level_validated(self):
        with pytest.raises(ValueError):
            wald_ci(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            wald_ci(0.0, 1.0, 0.0)

    def test_unavailable_se_rejected(self):
        with pytest.raises(ValueError):
            wald_ci(0.0, np.nan)

    def test_width_monotone_in_level(self):
        widths = [np.diff(wald_ci(0.0, 1.0, lv))[0] for lv in (0.5, 0.8, 0.9, 0.95, 0.99)]
        assert all(b > a for a, b in zip(widths, widths[1:]))

    def test_quantile_accuracy(self):
        # reference values of the standard normal quantile
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
        assert normal_quantile(0.5) == 0.0
        assert normal_quantile(0.9995) == pytest.approx(3.290526731491926, abs=1e-9)

    @pytest.mark.parametrize("prob", [0.975, 1e-10, 1.0 - 1e-10])
    def test_quantile_matches_ndtri(self, prob):
        assert normal_quantile(prob) == pytest.approx(ndtri(prob), rel=1e-15, abs=0.0)


class TestWaldSe:
    def test_quadratic_closed_form(self):
        # Loglik shaped like -1/2 sum theta_j^2 / v_j has SE_j = sqrt(v_j).
        v = np.array([4.0, 0.25, 1.0])
        H = hessian_fd(lambda x: -x / v, np.zeros(3))
        cov = np.linalg.inv(-H)
        assert np.allclose(np.sqrt(np.diag(cov)), np.sqrt(v), atol=1e-6)

    def test_reduced_data_fit_standard_errors(self, culcita_reduced):
        result = fit(culcita_reduced, FitOptions(method="mspl", quadrature=100))
        wald = wald_se(culcita_reduced, result)
        assert wald.available.all()
        assert np.allclose(wald.se, [3.21, 3.00, 3.26, 3.61, 0.44], atol=0.05)

    def test_negative_inverse_diagonal_marked_unavailable(self, culcita_full, reference_mspl_point):
        # A nearly separated culcita study sample (7 of 10 clusters all 0
        # or all 1): the unpenalized Hessian at the MSPL estimate is
        # indefinite, and the inverse has negative diagonal entries for
        # the intercept and log sigma; those are flagged instead of reported.
        seed = int(np.random.SeedSequence([9, 1]).generate_state(1)[0])
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(9,))))
        data = simulate_responses(culcita_full, reference_mspl_point, rng)
        options = FitOptions(method="mspl", quadrature=100)
        result = fit(data, options)
        assert result.converged
        wald = wald_se(data, result)
        assert np.array_equal(wald.available, [False, True, True, True, False])
        assert np.isnan(wald.se[~wald.available]).all()
        assert np.isfinite(wald.se[wald.available]).all()
        assert (np.diag(wald.cov)[~wald.available] < 0).all()

        # Indefinite by a five-point stencil of cold gradients too.
        x = result.theta.as_vector()

        def gradient(v):
            return options.evaluator(data).value_and_grad(Theta.from_vector(v, data.p))[1]

        H = np.empty((x.size, x.size))
        for j in range(x.size):
            e = np.eye(x.size)[j] * 1e-3 * max(1.0, abs(x[j]))
            H[:, j] = (gradient(x - 2 * e) - 8 * gradient(x - e) + 8 * gradient(x + e)
                       - gradient(x + 2 * e)) / (12 * e[j])
        assert np.linalg.eigvalsh(-0.5 * (H + H.T)).min() < -1e-2

    @pytest.mark.parametrize("method", ["mspl", "ml"])
    def test_q1_makes_one_mode_solve(self, culcita_full, state_passes, method):
        # The exact Hessian comes from the mode solve of one evaluation.
        result = fit(culcita_full, FitOptions(method=method, quadrature=100))
        state_passes.clear()
        wald_se(culcita_full, result)
        assert len(state_passes) == 1

    def test_q1_matches_central_differences(self, culcita_full):
        # The exact Hessian against hessian_fd's, the Hessian used at q >= 2.
        options = FitOptions(method="mspl", quadrature=100)
        result = fit(culcita_full, options)
        evaluator = options.evaluator(culcita_full)

        def gradient(v):
            return evaluator.value_and_grad(Theta.from_vector(v, culcita_full.p))[1]

        H = hessian_fd(gradient, result.theta.as_vector())
        wald = wald_se(culcita_full, result)
        assert np.abs(wald.se - np.sqrt(np.diag(np.linalg.inv(-H)))).max() <= 1e-5 * wald.se.max()

    @pytest.mark.parametrize("case", ["q2"])
    def test_probes_after_the_first_take_two_passes(self, state_passes, case):
        # Each probe of the Hessian starts from the tangent prediction of
        # the probe before it, O(h^2) from its modes: one Newton step
        # then meets the mode tolerance.
        data, options = degenerate_slope_dataset(), FitOptions(method="mspl")
        result = fit(data, options)
        state_passes.clear()
        wald_se(data, result)
        assert len(state_passes) == 2 * result.theta.dim
        assert max(state_passes[1:]) <= 2

    def test_mode_failure_in_hessian_raises_fit_error(self, monkeypatch):
        data = make_dataset(k=4, n_i=6, p=2, seed=3, beta=[0.5, -0.8], psi=[0.1])
        result = fit(data, FitOptions(method="mspl", quadrature=30))

        def failing_hessian(self, theta):
            raise ModeFindingError("cluster modes did not converge")

        monkeypatch.setattr(LoglikEvaluator, "hessian", failing_hessian)
        with pytest.raises(FitError, match="cluster modes did not converge"):
            wald_se(data, result)

    def test_q2_mode_failure_in_hessian_raises_fit_error(self, monkeypatch):
        data = degenerate_slope_dataset()
        result = fit(data, FitOptions(method="mspl"))

        def failing_hessian(grad, x):
            raise ModeFindingError("cluster modes did not converge")

        monkeypatch.setattr(inference, "hessian_fd", failing_hessian)
        with pytest.raises(FitError, match="cluster modes did not converge"):
            wald_se(data, result)

    def test_non_finite_hessian_raises_fit_error(self, monkeypatch):
        data = make_dataset(k=4, n_i=6, p=2, seed=3, beta=[0.5, -0.8], psi=[0.1])
        result = fit(data, FitOptions(method="mspl", quadrature=30))
        q1_logprobs = likelihood._q1_logprobs

        def nan_hessian(*args, **kwargs):
            out = q1_logprobs(*args, **kwargs)
            return out[:4] + (np.full_like(out[4], np.nan),)

        monkeypatch.setattr(likelihood, "_q1_logprobs", nan_hessian)
        with pytest.raises(FitError, match="non-finite log-likelihood Hessian"):
            wald_se(data, result)

    def test_singular_hessian_all_unavailable(self, monkeypatch):
        # A rank-one Hessian: every SE is unavailable, with no covariance,
        # and the condition number is reported.
        data = make_dataset(k=4, n_i=6, p=2, seed=3, beta=[0.5, -0.8], psi=[0.1])
        result = fit(data, FitOptions(method="mspl", quadrature=30))
        a = np.array([1.0, -2.0, 0.5])
        monkeypatch.setattr(LoglikEvaluator, "hessian", lambda self, theta: -np.outer(a, a))
        wald = wald_se(data, result)
        assert not wald.available.any()
        assert np.isnan(wald.se).all()
        assert wald.cov is None
        assert wald.cond > inference.COND_LIMIT


class TestAttachSe:
    def test_se_flag_kept_apart_from_estimate_flags(self):
        # Estimates well inside the thresholds, SEs above a small se_max.
        data = make_dataset(k=8, n_i=6, p=2, seed=6, beta=[0.6, -1.0], psi=[0.0])
        result = fit(data, FitOptions(method="mspl", quadrature=30, se_max=0.5))
        assert not result.se_flags.any()
        assert not result.flagged
        with_se, wald = attach_se(data, result)
        assert wald.available.all() and (wald.se > 0.5).any()
        assert np.array_equal(with_se.se_flags, wald.se > 0.5)
        assert not with_se.estimate_flags.any()
        assert np.array_equal(with_se.boundary_flags, with_se.se_flags)
        assert with_se.flagged

    def test_transformed_fit_flags_follow_new_estimates(self):
        data = make_dataset(k=8, n_i=6, p=2, seed=6, beta=[0.6, -1.0], psi=[0.0])
        result, wald = attach_se(data, fit(data, FitOptions(method="mspl", quadrature=30, beta_max=2.0)))
        moved = transform_fit(result, ContrastMap(np.diag([100.0, 1.0])), data, wald)
        assert np.array_equal(moved.estimate_flags[:2], np.abs(moved.theta.beta) > 2.0)
        assert moved.estimate_flags[0] and moved.se_flags[0]


class TestTransformFit:
    def test_identity_contrast_is_noop(self):
        data = make_dataset(k=4, n_i=6, p=2, seed=3, beta=[0.5, -0.8], psi=[0.1])
        result = fit(data, FitOptions(method="mspl", quadrature=30))
        result, wald = attach_se(data, result)
        cmap = ContrastMap(np.eye(2))
        moved = transform_fit(result, cmap, data, wald)
        assert np.array_equal(moved.theta.as_vector(), result.theta.as_vector())
        assert np.allclose(moved.se, result.se, atol=1e-12)
        assert moved.penalized == pytest.approx(result.penalized, abs=1e-12)

    def test_refit_oracle_on_synthetic_data(self):
        data = make_dataset(k=8, n_i=6, p=2, seed=6, beta=[0.6, -1.0], psi=[0.0])
        opts = FitOptions(method="mspl", quadrature=30)
        base = fit(data, opts)
        base, wald = attach_se(data, base)
        rng = np.random.default_rng(0)
        C = rng.normal(size=(2, 2))
        while np.linalg.cond(C) > 20:
            C = rng.normal(size=(2, 2))
        cmap = ContrastMap(C)
        analytic = transform_fit(base, cmap, data, wald)
        refit = fit(transform_dataset(data, cmap), opts)
        assert np.abs(analytic.theta.beta - refit.theta.beta).max() < 1e-2
        assert np.abs(analytic.theta.psi - refit.theta.psi).max() < 1e-3

    def test_delta_method_matches_refit_se(self):
        data = make_dataset(k=8, n_i=6, p=2, seed=7, beta=[0.4, -0.9], psi=[0.0])
        opts = FitOptions(method="mspl", quadrature=30)
        base = fit(data, opts)
        base, wald = attach_se(data, base)
        C = np.array([[1.0, 1.0], [0.0, -1.0]])
        analytic = transform_fit(base, ContrastMap(C), data, wald)
        refit = fit(transform_dataset(data, ContrastMap(C)), opts)
        refit, _ = attach_se(transform_dataset(data, ContrastMap(C)), refit)
        assert np.abs(analytic.se - refit.se).max() < 1e-2

    def test_dimension_check(self):
        data = make_dataset(k=3, n_i=4, p=2, seed=1)
        result = fit(data, FitOptions(method="mspl", quadrature=20))
        with pytest.raises(ValueError):
            transform_fit(result, ContrastMap(np.eye(3)), data)
