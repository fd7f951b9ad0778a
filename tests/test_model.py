import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from msplogit.model import (
    ClusteredDataset,
    DataError,
    Theta,
    expit,
    psi_to_sigma,
    sigma_to_psi,
)

from conftest import make_dataset


class TestPsiSigma:
    def test_identity_q1(self):
        assert np.allclose(psi_to_sigma(np.zeros(1), 1), [[1.0]])

    def test_identity_q2(self):
        assert np.allclose(psi_to_sigma(np.zeros(3), 2), np.eye(2))

    def test_hand_worked_q2(self):
        # L = [[2, 0], [1, 3]] gives L L' = [[4, 2], [2, 10]]
        sigma = psi_to_sigma(np.array([np.log(2), np.log(3), 1.0]), 2)
        assert np.allclose(sigma, [[4.0, 2.0], [2.0, 10.0]], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psi_to_sigma(np.zeros(2), 2)

    def test_inverse_hand_worked(self):
        psi = sigma_to_psi(np.array([[4.0, 2.0], [2.0, 10.0]]))
        assert np.allclose(psi, [np.log(2), np.log(3), 1.0], atol=1e-12)

    def test_inverse_q1(self):
        assert np.allclose(sigma_to_psi(np.array([[1.0]])), [0.0])

    def test_near_singular_still_finite(self):
        sigma = np.array([[1.0, 0.9999999], [0.9999999, 1.0]])
        psi = sigma_to_psi(sigma)
        assert np.isfinite(psi).all()
        assert np.allclose(psi_to_sigma(psi, 2), sigma, atol=1e-12)

    def test_non_pd_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            sigma_to_psi(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_round_trip_bulk(self):
        rng = np.random.default_rng(123)
        for q in (1, 2):
            m = q * (q + 1) // 2
            for _ in range(500):
                psi = rng.uniform(-3, 3, size=m)
                back = sigma_to_psi(psi_to_sigma(psi, q))
                assert np.abs(back - psi).max() < 1e-10

    def test_round_trip_q3(self):
        # Wider factors condition the Cholesky worse; the trip still
        # holds to well under optimizer resolution.
        rng = np.random.default_rng(321)
        for _ in range(200):
            psi = rng.uniform(-3, 3, size=6)
            back = sigma_to_psi(psi_to_sigma(psi, 3))
            assert np.abs(back - psi).max() < 1e-8

    @given(st.lists(st.floats(-3, 3), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_non_degenerate_for_all_finite_psi(self, vals):
        sigma = psi_to_sigma(np.array(vals), 2)
        assert np.linalg.eigvalsh(sigma).min() > 0
        assert np.isfinite(sigma).all()
        assert np.array_equal(sigma, sigma.T)
        corr = sigma[0, 1] / np.sqrt(sigma[0, 0] * sigma[1, 1])
        assert abs(corr) < 1.0


def one_cluster(y, X, Z):
    return ClusteredDataset(y, X, Z, [len(y)])


class TestExpit:
    def test_matches_scipy_without_warnings(self):
        eta = np.concatenate([np.linspace(-800.0, 800.0, 16001), [-745.0, -709.79, -709.78, 0.0, 745.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu = expit(eta)
        np.testing.assert_array_max_ulp(mu, scipy.special.expit(eta), maxulp=2)
        assert (mu[eta < -709.78] == 0.0).all()
        assert (mu[eta > -709.78] > 0.0).all()

    def test_scalar_input(self):
        assert expit(0.0) == 0.5
        assert expit(-800.0) == 0.0 and expit(800.0) == 1.0


class TestDatasetInvariants:
    def test_rejects_non_binary_response(self):
        with pytest.raises(DataError):
            one_cluster(np.array([0.0, 2.0]), np.ones((2, 1)), np.ones((2, 1)))

    def test_rejects_rank_deficient_design(self):
        X = np.column_stack([np.ones(4), np.ones(4)])
        with pytest.raises(DataError):
            one_cluster(np.ones(4), X, np.ones((4, 1)))

    def test_rejects_too_few_rows(self):
        with pytest.raises(DataError):
            one_cluster(np.array([1.0]), np.ones((1, 2)), np.ones((1, 1)))

    def test_rejects_mismatched_rows(self):
        with pytest.raises(DataError, match="row mismatch"):
            ClusteredDataset(np.ones(4), np.ones((3, 1)), np.ones((4, 1)), [4])

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ([], "no clusters"),
            ([0, 4], "at least one row"),
            ([-1, 5], "at least one row"),
            ([1.5, 2.5], "integers"),
            ([2, 3], "sum to 5"),
            ([1, 1], "sum to 2"),
            ([[2, 2]], "1-dimensional"),
        ],
        ids=["empty", "zero", "negative", "non-integer", "sum-too-large", "sum-too-small", "two-dimensional"],
    )
    def test_rejects_bad_sizes(self, sizes, message):
        x = np.array([-1.0, 1.0, -2.0, 2.0])
        X = np.column_stack([np.ones(4), x])
        with pytest.raises(DataError, match=message):
            ClusteredDataset(np.array([0.0, 1.0, 1.0, 0.0]), X, np.ones((4, 1)), sizes)

    def test_stacked_views(self):
        data = make_dataset(k=3, n_i=4, p=2)
        assert data.X.shape == (12, 2)
        assert data.n == 12 and data.k == 3 and data.p == 2 and data.q == 1
        assert list(data.row_offsets) == [0, 4, 8, 12]
        assert list(data.sizes) == [4, 4, 4]
        assert list(data.row_cluster) == [0] * 4 + [1] * 4 + [2] * 4
        assert not data.sizes.flags.writeable
        assert not data.X.flags.writeable

    def test_with_responses_keeps_the_design(self):
        data = make_dataset(k=3, n_i=4, p=2)
        y = 1.0 - data.y
        sim = data.with_responses(y)
        assert np.array_equal(sim.y, y) and not sim.y.flags.writeable
        assert np.array_equal(sim.X, data.X) and np.array_equal(sim.Z, data.Z)
        assert np.array_equal(sim.sizes, data.sizes)
        with pytest.raises(DataError):
            data.with_responses(y[:-1])
        with pytest.raises(DataError):
            data.with_responses(2.0 * y)

    def test_theta_vector_round_trip(self):
        theta = Theta(np.array([1.0, -2.0]), np.array([0.3]))
        back = Theta.from_vector(theta.as_vector(), 2)
        assert np.array_equal(back.beta, theta.beta)
        assert np.array_equal(back.psi, theta.psi)
        assert theta.dim == 3 and theta.p == 2 and theta.q == 1

    def test_theta_requires_finite(self):
        with pytest.raises(ValueError):
            Theta(np.array([np.inf]), np.zeros(1))

    def test_theta_validates_psi_length(self):
        with pytest.raises(ValueError):
            Theta(np.zeros(1), np.zeros(2))
