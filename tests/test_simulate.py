import numpy as np
import pytest
from scipy.special import expit

import msplogit.inference as inference
import msplogit.optimize as optimize
import msplogit.simulate as simulate
from msplogit.likelihood import LoglikEvaluator, ModeFindingError
from msplogit.model import ClusteredDataset, Theta
from msplogit.optimize import FitOptions
from msplogit.simulate import (
    DISCARD_REASONS,
    REASONS,
    SimulationDesign,
    percentile_table,
    run_replication,
    run_study,
    simulate_responses,
)

from conftest import make_dataset, separation_dataset


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestSimulateResponses:
    def test_degenerate_probabilities(self):
        template = make_dataset(k=5, n_i=10, p=1, seed=0)
        truth = Theta(np.array([-50.0]), np.array([-10.0]))
        sim = simulate_responses(template, truth, _rng(1))
        assert sim.y.sum() == 0.0

    def test_mean_concentration(self):
        rows, k = 1_000_000, 1000
        template = ClusteredDataset(np.zeros(rows), np.ones((rows, 1)), np.ones((rows, 1)), [rows // k] * k)
        sim = simulate_responses(template, Theta(np.zeros(1), np.array([-10.0])), _rng(7))
        assert abs(sim.y.mean() - 0.5) < 0.002

    def test_within_cluster_correlation_against_mc_oracle(self):
        # Direct vectorized Monte-Carlo oracle for corr(y1, y2) within a
        # cluster of size 2 under beta=0, sigma=2.
        oracle_rng = np.random.default_rng(12345)
        n = 10_000_000
        u = 2.0 * oracle_rng.standard_normal(n)
        p = expit(u)
        y1 = oracle_rng.random(n) < p
        y2 = oracle_rng.random(n) < p
        oracle_corr = np.corrcoef(y1, y2)[0, 1]

        k = 200_000
        template = ClusteredDataset(np.zeros(2 * k), np.ones((2 * k, 1)), np.ones((2 * k, 1)), [2] * k)
        sim = simulate_responses(template, Theta(np.zeros(1), np.array([np.log(2.0)])), _rng(9))
        pairs = sim.y.reshape(k, 2)
        sim_corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert abs(sim_corr - oracle_corr) < 0.01
        assert sim_corr > 0

    def test_deterministic_given_state(self):
        template = make_dataset(k=4, n_i=5, p=2, seed=2)
        truth = Theta(np.array([0.2, -0.4]), np.array([0.3]))
        a = simulate_responses(template, truth, _rng(42))
        b = simulate_responses(template, truth, _rng(42))
        assert np.array_equal(a.y, b.y)


class TestPercentileTable:
    def test_constant_sample(self):
        table = percentile_table(np.full(10, 3.25))
        assert np.allclose(table, 3.25)

    def test_median_of_centered_range(self):
        sample = np.arange(1, 101, dtype=float) - 50.5
        table = percentile_table(sample, probs=(50.0,))
        assert table[0] == pytest.approx(0.0, abs=1e-12)

    def test_normal_tail_quantile(self):
        rng = np.random.default_rng(3)
        sample = rng.standard_normal(100_000)
        table = percentile_table(sample, probs=(95.0,))
        assert table[0] == pytest.approx(1.645, abs=0.02)

    def test_empty_marker(self):
        table = percentile_table(np.empty(0))
        assert np.isnan(table).all()
        assert table.shape == (7,)


def small_design(R=3, seed=11, methods=None, labels=None):
    template = make_dataset(k=5, n_i=6, p=2, seed=1)
    truth = Theta(np.array([0.4, -0.8]), np.array([-0.2]))
    if methods is None:
        methods = (FitOptions(method="mspl", quadrature=20),)
    return SimulationDesign(
        template=template, theta_true=truth, replications=R, seed=seed, methods=methods,
        labels=labels,
    )


class TestRunStudy:
    def test_single_replication_degenerate_summary(self):
        design = small_design(R=1)
        summary = run_study(design)
        ms = summary.methods["mspl"]
        assert ms.retained == 1
        assert np.allclose(ms.variance, 0.0)
        assert np.allclose(ms.bias, ms.estimates[0] - summary.truth)
        assert np.allclose(ms.mse, ms.bias**2)

    def test_mse_decomposition(self):
        design = small_design(R=12)
        summary = run_study(design)
        ms = summary.methods["mspl"]
        assert np.abs(ms.mse - (ms.bias**2 + ms.variance)).max() < 1e-10

    def test_bitwise_reproducibility(self):
        design = small_design(R=6)
        a = run_study(design)
        b = run_study(design)
        for label in a.methods:
            assert np.array_equal(a.methods[label].estimates, b.methods[label].estimates)
            assert np.array_equal(a.methods[label].ses, b.methods[label].ses)
            assert np.array_equal(a.methods[label].coverage, b.methods[label].coverage)

    def test_order_independence(self):
        design = small_design(R=6)
        summary = run_study(design)
        order = [3, 0, 5, 1, 4, 2]
        records = [None] * 6
        for r in order:
            records[r] = run_replication(design, r)
        estimates = np.array([rec[0].estimates for rec in records])
        assert np.array_equal(estimates, np.vstack([
            run_replication(design, r)[0].estimates for r in range(6)
        ]))
        assert np.array_equal(summary.methods["mspl"].estimates, estimates[
            np.array([rec[0].retained for rec in records])
        ])

    def test_worker_count_does_not_change_results(self):
        design = small_design(R=6)
        serial = run_study(design, workers=1)
        parallel = run_study(design, workers=2)
        for label in serial.methods:
            assert np.array_equal(
                serial.methods[label].estimates, parallel.methods[label].estimates
            )

    def test_per_method_discard_policy(self):
        # On separated data the unpenalized fit gets discarded while the
        # penalized one is retained, within the same replications.
        template = separation_dataset()
        truth = Theta(np.array([0.0, 4.0]), np.array([-0.5]))
        design = SimulationDesign(
            template=template,
            theta_true=truth,
            replications=6,
            seed=5,
            methods=(
                FitOptions(method="mspl", quadrature=20),
                FitOptions(method="ml", quadrature=20),
            ),
        )
        summary = run_study(design)
        mspl, ml = summary.methods["mspl"], summary.methods["ml"]
        assert mspl.retained == 6
        assert mspl.retained_mask.all()
        assert all(n == 0 for n in mspl.discarded.values()), mspl.discarded
        assert ml.retained < 6
        # Every replication ML did not retain carries at least one
        # discarding reason, and the per-reason counts agree with the
        # records.
        records = [run_replication(design, r)[1] for r in range(6)]
        assert np.array_equal(ml.retained_mask, [rec.retained for rec in records])
        discarded = [rec for rec in records if not rec.retained]
        assert len(discarded) == 6 - ml.retained
        assert all(rec.reasons & set(DISCARD_REASONS) for rec in discarded)
        for reason in REASONS:
            assert ml.discarded[reason] == sum(reason in rec.reasons for rec in discarded)
        assert 6 - ml.retained <= sum(ml.discarded[r] for r in DISCARD_REASONS)
        # The estimate and SE flags are told apart: each reason matches its
        # own threshold, and on this study every ML fit trips both.
        opts = design.methods[1]
        for rec in records:
            p = template.p
            assert ("beta_flag" in rec.reasons) == bool((np.abs(rec.estimates[:p]) > opts.beta_max).any())
            assert ("psi_flag" in rec.reasons) == bool((np.abs(rec.estimates[p:]) > opts.psi_max).any())
            assert ("se_flag" in rec.reasons) == bool((np.nan_to_num(rec.ses) > opts.se_max).any())
        assert ml.discarded["beta_flag"] == 6
        assert ml.discarded["se_flag"] == 6

    def test_shared_start_gives_the_records_of_separate_fits(self):
        methods = (FitOptions(method="mspl", quadrature=20), FitOptions(method="ml", quadrature=20))
        design = small_design(R=3, methods=methods)
        for r in range(3):
            sample = simulate_responses(
                design.template, design.theta_true, simulate._replication_rng(design.seed, r)
            )
            for record, opts in zip(run_replication(design, r), methods):
                result, _ = inference.attach_se(sample, optimize.fit(sample, opts))
                assert np.array_equal(record.estimates, result.theta.as_vector())
                assert np.array_equal(
                    record.ses, np.where(result.se_available, result.se, np.nan), equal_nan=True
                )
                assert record.reasons == simulate._fit_reasons(result)

    def test_failed_start_is_an_exception_record_per_method(self, monkeypatch):
        def failing_start(data):
            raise optimize.FitError("start failed")

        monkeypatch.setattr(simulate, "default_start", failing_start)
        own = Theta(np.array([0.4, -0.8]), np.array([-0.2]))
        methods = (
            FitOptions(method="mspl", quadrature=20),
            FitOptions(method="ml", quadrature=20, start=own),
            FitOptions(method="ml", quadrature=20),
        )
        records = run_replication(small_design(R=1, methods=methods), 0)
        assert [record.reasons == {"exception"} for record in records] == [True, False, True]

    def test_failed_likelihood_gradient_is_an_exception_record(self, monkeypatch):
        evaluate = LoglikEvaluator._evaluate

        def nan_gradient(self, theta, grad):
            return evaluate(self, theta, grad)[0], np.full(theta.dim, np.nan)

        monkeypatch.setattr(LoglikEvaluator, "_evaluate", nan_gradient)
        [record] = run_replication(small_design(R=1), 0)
        assert record.reasons == {"exception"}
        assert np.isnan(record.estimates).all()
        assert np.isnan(record.ses).all()

    def test_failed_se_step_is_an_exception_record(self, monkeypatch):
        def failing_hessian(self, theta):
            raise ModeFindingError("cluster modes did not converge")

        monkeypatch.setattr(LoglikEvaluator, "hessian", failing_hessian)
        [record] = run_replication(small_design(R=1), 0)
        assert record.reasons == {"exception"}
        assert np.isnan(record.estimates).all()

    def test_pool_has_at_most_one_worker_per_replication(self, monkeypatch):
        # Under fork every worker starts at the first submit, so workers
        # beyond the replication count would only be idle interpreters.
        opened = []

        class RecordingPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("MSPLOGIT_THREADS", "64")
        design = small_design(R=3)
        pooled = run_study(design)
        assert opened == [3]
        run_study(design, workers=2)
        assert opened == [3, 2]
        serial = run_study(design, workers=1)
        run_study(small_design(R=1), workers=8)
        assert opened == [3, 2]  # one worker, or one replication: no pool
        assert np.array_equal(pooled.methods["mspl"].estimates, serial.methods["mspl"].estimates)

    def test_duplicate_labels_rejected(self):
        # Summaries are keyed by label, so a repeated label would silently
        # drop a method's results.
        with pytest.raises(ValueError, match="distinct"):
            small_design(
                methods=(FitOptions(method="mspl"), FitOptions(method="ml")),
                labels=("mspl", "mspl"),
            )
        design = small_design(methods=(FitOptions(method="mspl"), FitOptions(method="mspl")))
        assert design.labels == ("mspl", "mspl1")

    def test_replications_must_be_a_positive_integer(self):
        # Checked here, or 2.5 fails later, in range() inside run_study.
        for bad in (0, -1, 2.5, "3", None):
            with pytest.raises(ValueError, match="replications"):
                small_design(R=bad)
        assert small_design(R=np.int64(2)).replications == 2

    def test_seed_must_be_a_non_negative_integer(self):
        # Checked here, or -1 fails later, in SeedSequence at the first draw.
        for bad in (-1, 1.0, "7", None):
            with pytest.raises(ValueError, match="seed"):
                small_design(seed=bad)
        assert small_design(seed=0).seed == 0

    def test_design_validation(self):
        template = make_dataset(k=5, n_i=6, p=2, seed=1)
        with pytest.raises(ValueError):
            SimulationDesign(
                template=template,
                theta_true=Theta(np.zeros(3), np.zeros(1)),
                replications=2,
                seed=0,
                methods=(FitOptions(),),
            )
