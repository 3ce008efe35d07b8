"""Tests for the ML workloads: datasets, models, convergence."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, WorkloadError
from repro.ml import (
    ConvergenceTracker,
    LDAModel,
    LassoModel,
    MLRModel,
    NMFModel,
    make_classification,
    make_documents,
    make_ratings,
    make_regression,
)
from repro.ml.base import TrainState
from repro.ml.datasets import partition_rows
from repro.ml.lasso import soft_threshold
from repro.ml.synthetic_sleep import SleepModel


class TestDatasets:
    def test_classification_shapes(self):
        features, labels, true_w = make_classification(100, 10, 4, seed=1)
        assert features.shape == (100, 10)
        assert labels.shape == (100,)
        assert true_w.shape == (10, 4)
        assert set(np.unique(labels)) <= set(range(4))

    def test_classification_deterministic_per_seed(self):
        a = make_classification(50, 5, 3, seed=9)[0]
        b = make_classification(50, 5, 3, seed=9)[0]
        assert np.allclose(a, b)

    def test_classification_rejects_bad_dims(self):
        with pytest.raises(WorkloadError):
            make_classification(0, 5, 3)

    def test_regression_sparsity(self):
        _, _, true_w = make_regression(100, 200, sparsity=0.9, seed=2)
        assert np.mean(true_w == 0.0) >= 0.8

    def test_regression_rejects_bad_sparsity(self):
        with pytest.raises(WorkloadError):
            make_regression(10, 10, sparsity=1.0)

    def test_ratings_are_non_negative(self):
        coords, values = make_ratings(30, 20, density=0.2, seed=3)
        assert values.min() > 0
        assert coords[:, 0].max() < 30
        assert coords[:, 1].max() < 20

    def test_ratings_density_controls_nnz(self):
        coords, _ = make_ratings(40, 40, density=0.1, seed=1)
        assert len(coords) == 160

    def test_documents_word_ids_in_vocab(self):
        documents = make_documents(10, vocab_size=25, doc_length=15,
                                   seed=4)
        assert len(documents) == 10
        for doc in documents:
            assert len(doc) == 15
            assert doc.max() < 25

    def test_partition_rows_covers_everything(self):
        parts = partition_rows(10, 3)
        joined = np.concatenate(parts)
        assert sorted(joined.tolist()) == list(range(10))

    def test_partition_rows_rejects_zero(self):
        with pytest.raises(WorkloadError):
            partition_rows(10, 0)


@pytest.mark.parametrize("build, match", [
    (lambda: make_ratings(5, 5, density=0.0), "density"),
    (lambda: make_ratings(5, 5, density=1.5), "density"),
    (lambda: make_documents(0, vocab_size=5), "document dims"),
    (lambda: make_documents(3, vocab_size=5, doc_length=0),
     "document dims"),
    (lambda: LDAModel(vocab_size=0), "vocabulary"),
    (lambda: LDAModel(vocab_size=5, n_topics=1), "topics"),
    (lambda: SleepModel(0.0, payload_elements=0), "payload"),
], ids=["density-zero", "density-above-one", "no-docs", "empty-docs",
        "no-vocab", "one-topic", "no-payload"])
def test_out_of_range_workload_rejected(build, match):
    with pytest.raises(WorkloadError, match=match):
        build()


def _loss_curve(model, partition, epochs=25, lr=0.3, seed=0):
    """Train single-worker via the raw compute/update cycle."""
    rng = np.random.default_rng(seed)
    params = model.init_params(rng)
    state = TrainState(learning_rate=lr)
    losses = []
    for epoch in range(epochs):
        state.iteration = epoch
        deltas, loss = model.compute(params, partition, state)
        for key, delta in deltas.items():
            params[key] = params[key] + delta
        losses.append(loss)
    return losses, params


class TestMLR:
    def test_loss_decreases(self):
        features, labels, _ = make_classification(300, 12, 4, seed=5)
        model = MLRModel(12, 4)
        losses, _ = _loss_curve(model, {"X": features, "y": labels},
                                lr=0.5)
        assert losses[-1] < losses[0] * 0.8

    def test_accuracy_beats_chance(self):
        features, labels, _ = make_classification(400, 12, 4, seed=6)
        model = MLRModel(12, 4)
        _, params = _loss_curve(model, {"X": features, "y": labels},
                                epochs=40, lr=0.5)
        assert model.accuracy(params, features, labels) > 0.5

    def test_param_blocks_cover_all_classes(self):
        model = MLRModel(7, 10)
        params = model.init_params(np.random.default_rng(0))
        total_columns = sum(v.shape[1] for v in params.values())
        assert total_columns == 10

    def test_rejects_single_class(self):
        with pytest.raises(WorkloadError):
            MLRModel(5, 1)


class TestLasso:
    def test_soft_threshold_shrinks_toward_zero(self):
        values = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        shrunk = soft_threshold(values, 1.0)
        assert np.allclose(shrunk, [-1.0, 0.0, 0.0, 0.0, 1.0])

    def test_loss_decreases(self):
        # Moderate sparsity so the targets carry real signal.
        features, targets, _ = make_regression(200, 30, sparsity=0.5,
                                               seed=7)
        model = LassoModel(30, l1=0.01)
        losses, _ = _loss_curve(model, {"X": features, "y": targets},
                                epochs=30)
        assert losses[-1] < losses[0] * 0.5

    def test_l1_produces_sparsity(self):
        features, targets, _ = make_regression(300, 50, sparsity=0.9,
                                               seed=8)
        model = LassoModel(50, l1=0.05)
        _, params = _loss_curve(model, {"X": features, "y": targets},
                                epochs=60, lr=0.3)
        assert model.sparsity(params, tolerance=1e-4) > 0.3

    def test_rejects_zero_features(self):
        with pytest.raises(WorkloadError):
            LassoModel(0)


class TestNMF:
    def test_loss_decreases(self):
        coords, values = make_ratings(50, 30, rank=4, density=0.2,
                                      seed=9)
        model = NMFModel(50, 30, rank=4)
        partition = {"coords": coords, "values": values,
                     "W": np.random.default_rng(1).uniform(
                         0.1, 0.5, size=(50, 4))}
        losses, _ = _loss_curve(model, partition, epochs=40, lr=0.5)
        assert losses[-1] < losses[0] * 0.9

    def test_factors_stay_non_negative(self):
        coords, values = make_ratings(30, 20, rank=3, density=0.3,
                                      seed=10)
        model = NMFModel(30, 20, rank=3)
        partition = {"coords": coords, "values": values,
                     "W": np.random.default_rng(2).uniform(
                         0.1, 0.5, size=(30, 3))}
        _, params = _loss_curve(model, partition, epochs=20, lr=0.5)
        for value in params.values():
            assert value.min() >= 0.0
        assert partition["W"].min() >= 0.0

    def test_rejects_bad_dims(self):
        with pytest.raises(WorkloadError):
            NMFModel(0, 5)


class TestLDA:
    def _partition(self, seed=11):
        documents = make_documents(15, vocab_size=30, n_topics=3,
                                   doc_length=20, seed=seed)
        return {"docs": documents}

    def test_requires_seeding(self):
        model = LDAModel(30, n_topics=3)
        params = model.init_params(np.random.default_rng(0))
        with pytest.raises(WorkloadError):
            model.compute(params, self._partition(), TrainState())

    def test_seed_deltas_count_every_token(self):
        model = LDAModel(30, n_topics=3)
        partition = self._partition()
        deltas = model.seed_partition(partition,
                                      np.random.default_rng(1))
        n_tokens = sum(len(doc) for doc in partition["docs"])
        assert deltas["topic_total"].sum() == pytest.approx(n_tokens)
        assert deltas["topic_word"].sum() == pytest.approx(n_tokens)

    def test_gibbs_deltas_conserve_counts(self):
        """Resampling moves tokens between topics but never creates or
        destroys them."""
        model = LDAModel(30, n_topics=3)
        partition = self._partition()
        params = model.init_params(np.random.default_rng(0))
        seed_deltas = model.seed_partition(partition,
                                           np.random.default_rng(1))
        for key in params:
            params[key] = params[key] + seed_deltas[key]
        deltas, _ = model.compute(params, partition, TrainState())
        assert deltas["topic_total"].sum() == pytest.approx(0.0)
        assert deltas["topic_word"].sum() == pytest.approx(0.0)

    def test_objective_improves(self):
        model = LDAModel(30, n_topics=3)
        partition = self._partition()
        params = model.init_params(np.random.default_rng(0))
        seed_deltas = model.seed_partition(partition,
                                           np.random.default_rng(1))
        for key in params:
            params[key] = params[key] + seed_deltas[key]
        losses = []
        state = TrainState()
        for epoch in range(8):
            state.iteration = epoch
            deltas, loss = model.compute(params, partition, state)
            for key in params:
                params[key] = params[key] + deltas[key]
            losses.append(loss)
        assert losses[-1] < losses[0]


class TestConvergenceTracker:
    def test_zero_patience_rejected(self):
        with pytest.raises(ConvergenceError, match="patience"):
            ConvergenceTracker(patience=0)

    def test_threshold_stops(self):
        tracker = ConvergenceTracker(threshold=0.5)
        assert tracker.record(1.0) is False
        assert tracker.record(0.4) is True

    def test_plateau_stops_after_patience(self):
        tracker = ConvergenceTracker(relative_tolerance=0.01, patience=2)
        assert tracker.record(1.0) is False
        assert tracker.record(0.999) is False
        assert tracker.record(0.998) is True

    def test_improvement_resets_patience(self):
        tracker = ConvergenceTracker(relative_tolerance=0.01, patience=2)
        tracker.record(1.0)
        tracker.record(0.999)      # stall 1
        assert tracker.record(0.5) is False  # big improvement resets
        assert tracker.record(0.499) is False

    def test_nan_raises(self):
        tracker = ConvergenceTracker()
        with pytest.raises(ConvergenceError):
            tracker.record(float("nan"))

    def test_inf_raises(self):
        with pytest.raises(ConvergenceError):
            ConvergenceTracker().record(float("inf"))

    def test_max_epochs_caps(self):
        tracker = ConvergenceTracker(relative_tolerance=0.0,
                                     max_epochs=3)
        assert tracker.record(3.0) is False
        assert tracker.record(2.0) is False
        assert tracker.record(1.0) is True

    def test_best_tracks_minimum(self):
        tracker = ConvergenceTracker()
        tracker.record(2.0)
        tracker.record(1.0)
        tracker.record(1.5)
        assert tracker.best == 1.0

    def test_best_requires_history(self):
        with pytest.raises(ConvergenceError):
            ConvergenceTracker().best
