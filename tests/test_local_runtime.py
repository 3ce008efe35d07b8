"""Tests for the threaded local runtime (real PS + real models)."""

import threading
import time

import pytest

from repro.core.local_runtime import LocalHarmonyRuntime, LocalJob, _LossBoard
from repro.core.subtask import SubTaskKind
from repro.core.synchronizer import SubTaskSynchronizer
from repro.errors import SimulationError, WorkloadError
from repro.ml import ConvergenceTracker, LassoModel, LDAModel, MLRModel
from repro.ml.datasets import (
    make_classification,
    make_documents,
    make_regression,
    partition_rows,
)


def mlr_job(job_id="mlr", n_workers=2, epochs=10, seed=1):
    features, labels, _ = make_classification(240, 10, 3, seed=seed)
    parts = partition_rows(len(labels), n_workers)
    partitions = [{"X": features[p], "y": labels[p]} for p in parts]
    return LocalJob(job_id, MLRModel(10, 3), partitions,
                    max_epochs=epochs, learning_rate=0.5)


def lasso_job(job_id="lasso", n_workers=2, epochs=10, seed=2):
    features, targets, _ = make_regression(200, 20, sparsity=0.5,
                                           seed=seed)
    parts = partition_rows(len(targets), n_workers)
    partitions = [{"X": features[p], "y": targets[p]} for p in parts]
    return LocalJob(job_id, LassoModel(20), partitions,
                    max_epochs=epochs, learning_rate=0.3)


class TestLocalJob:
    def test_rejects_empty_partitions(self):
        with pytest.raises(WorkloadError):
            LocalJob("x", MLRModel(4, 2), [], max_epochs=1)

    def test_rejects_zero_epochs(self):
        with pytest.raises(WorkloadError):
            LocalJob("x", MLRModel(4, 2), [{}], max_epochs=0)

    def test_n_workers_matches_partitions(self):
        job = mlr_job(n_workers=3)
        assert job.n_workers == 3


class TestLocalRuntime:
    def test_single_job_trains(self):
        runtime = LocalHarmonyRuntime([mlr_job()], barrier_timeout=30)
        results = runtime.run()
        result = results["mlr"]
        assert result.epochs > 1
        assert result.losses[-1] < result.losses[0]
        assert result.bytes_moved > 0

    def test_colocated_jobs_both_converge(self):
        runtime = LocalHarmonyRuntime([mlr_job(), lasso_job()],
                                      barrier_timeout=30)
        results = runtime.run()
        assert set(results) == {"mlr", "lasso"}
        for result in results.values():
            assert result.losses[-1] < result.losses[0]

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(WorkloadError):
            LocalHarmonyRuntime([mlr_job("same"), mlr_job("same")])

    def test_no_jobs_rejected(self):
        with pytest.raises(WorkloadError):
            LocalHarmonyRuntime([])

    def test_injected_clock_drives_all_timing(self):
        """Regression for wall-clock reads scattered through the
        runtime: every subtask timing read goes through the injected
        clock, so a fake clock ticking in whole seconds must yield
        integer-valued profiled durations (a stray time.perf_counter()
        would contribute sub-millisecond fractions)."""
        import threading

        lock = threading.Lock()
        ticks = [0.0]

        def fake_clock():
            with lock:
                ticks[0] += 1.0
                return ticks[0]

        runtime = LocalHarmonyRuntime([mlr_job(epochs=3)],
                                      barrier_timeout=30,
                                      clock=fake_clock)
        recorded = []
        real_record = runtime.profiler.record_iteration

        def capture(job_id, t_cpu, t_net, m):
            recorded.append((t_cpu, t_net))
            return real_record(job_id, t_cpu, t_net, m)

        runtime.profiler.record_iteration = capture
        results = runtime.run()
        duration = results["mlr"].duration_seconds
        assert duration == int(duration) and duration >= 1.0
        assert recorded
        for t_cpu, t_net in recorded:
            assert t_cpu == int(t_cpu) and t_cpu >= 1.0
            assert t_net == int(t_net) and t_net >= 2.0

    def test_profiler_collects_metrics(self):
        runtime = LocalHarmonyRuntime([mlr_job()], barrier_timeout=30)
        runtime.run()
        assert runtime.profiler.has("mlr")
        metrics = runtime.profiler.get("mlr")
        assert metrics.cpu_work > 0

    def test_uncoordinated_mode_still_correct(self):
        """Without coordination the answer is the same, only timing
        differs (the naive baseline's point)."""
        coordinated = LocalHarmonyRuntime([mlr_job(seed=3)],
                                          barrier_timeout=30).run()
        free_for_all = LocalHarmonyRuntime([mlr_job(seed=3)],
                                           coordinate=False,
                                           barrier_timeout=30).run()
        assert coordinated["mlr"].epochs == free_for_all["mlr"].epochs
        assert coordinated["mlr"].losses[-1] == pytest.approx(
            free_for_all["mlr"].losses[-1], rel=1e-6)

    def test_threshold_stops_early(self):
        job = mlr_job(epochs=50)
        job.threshold = 10.0  # immediately satisfied
        runtime = LocalHarmonyRuntime([job], barrier_timeout=30)
        results = runtime.run()
        assert results["mlr"].epochs == 1

    def test_final_params_returned(self):
        runtime = LocalHarmonyRuntime([mlr_job()], barrier_timeout=30)
        results = runtime.run()
        params = results["mlr"].final_params
        assert params
        total_classes = sum(v.shape[1] for v in params.values())
        assert total_classes == 3


class _HookedModel:
    """An MLR model that calls ``hook(state)`` before each COMP
    subtask."""

    def __init__(self, hook):
        self.inner = MLRModel(10, 3)
        self.hook = hook

    def init_params(self, rng):
        return self.inner.init_params(rng)

    def compute(self, params, partition, state):
        self.hook(state)
        return self.inner.compute(params, partition, state)


def _fail(state):
    raise RuntimeError("compute failed")


class TestLocalRuntimeFailurePaths:
    def test_lda_partitions_are_seeded_before_the_first_epoch(self):
        docs = make_documents(12, vocab_size=30, n_topics=3,
                              doc_length=10, seed=4)
        job = LocalJob("lda", LDAModel(30, n_topics=3),
                       [{"docs": docs[:6]}, {"docs": docs[6:]}],
                       max_epochs=2)
        result = LocalHarmonyRuntime([job], barrier_timeout=30).run()["lda"]
        # Gibbs sweeps move tokens between topics; the seeded counts
        # are the only source of tokens in the global model.
        assert result.final_params["topic_total"].sum() \
            == pytest.approx(12 * 10)

    def test_a_worker_error_is_raised_after_every_thread_joins(self):
        job = mlr_job(n_workers=1)
        job.model = _HookedModel(_fail)
        runtime = LocalHarmonyRuntime([job], barrier_timeout=30)
        with pytest.raises(RuntimeError, match="compute failed"):
            runtime.run()

    def test_a_force_released_barrier_ends_the_job(self):
        job = mlr_job(n_workers=1, epochs=5)
        runtime = LocalHarmonyRuntime([job], barrier_timeout=30)

        def release_on_first_epoch(state):
            # Force-release the job's barriers, as a fault handler would.
            if state.iteration == 0:
                runtime._synchronizer.release_job("mlr")

        job.model = _HookedModel(release_on_first_epoch)
        result = runtime.run()["mlr"]
        assert result.epochs == 1

    @pytest.mark.parametrize("dies_at", [
        1,   # before its first PULL: worker 1 waits at the barrier
        3,   # before its first COMP: worker 1 waits on the loss board
        6,   # after its first PUSH: worker 1 waits on the loss board
    ], ids=["pull", "comp", "report"])
    def test_a_worker_error_stops_its_peers(self, dies_at):
        """Worker 0 raises at its ``dies_at``-th clock read.  Its error
        releases the job's barriers and loss board, so worker 1 stops at
        once and the run raises that error well inside the 10 s barrier
        timeout (without the release it waits the timeout out)."""
        reads = {"mlr-w0": 0}

        def clock():
            name = threading.current_thread().name
            if name in reads:
                reads[name] += 1
                if reads[name] == dies_at:
                    raise RuntimeError("worker 0 lost")
            return time.perf_counter()

        runtime = LocalHarmonyRuntime([mlr_job(n_workers=2)],
                                      barrier_timeout=10, clock=clock)
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="worker 0 lost"):
            runtime.run()
        assert time.perf_counter() - started < 5.0


class TestLossBoard:
    def test_a_missing_report_stalls_until_the_timeout(self):
        board = _LossBoard(2, ConvergenceTracker(max_epochs=5))
        with pytest.raises(SimulationError, match="stalled at epoch 0"):
            board.report(0, 1.0, timeout=0.05)


class TestSynchronizer:
    def test_barrier_releases_when_all_arrive(self):
        import threading
        synchronizer = SubTaskSynchronizer(timeout=5.0)
        synchronizer.register_job("j", 2)
        released = []

        def worker():
            synchronizer.arrive("j", 0, SubTaskKind.PULL)
            released.append(True)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        assert not released  # one of two arrived
        synchronizer.arrive("j", 0, SubTaskKind.PULL)
        thread.join(timeout=5.0)
        assert len(released) == 1

    def test_unregistered_job_raises(self):
        synchronizer = SubTaskSynchronizer()
        with pytest.raises(SimulationError):
            synchronizer.arrive("ghost", 0, SubTaskKind.PULL)

    def test_over_arrival_raises(self):
        synchronizer = SubTaskSynchronizer()
        synchronizer.register_job("j", 1)
        synchronizer.arrive("j", 0, SubTaskKind.PULL)
        with pytest.raises(SimulationError, match="more arrivals"):
            synchronizer.arrive("j", 0, SubTaskKind.PULL)

    def test_timeout_raises(self):
        synchronizer = SubTaskSynchronizer(timeout=0.05)
        synchronizer.register_job("j", 2)
        with pytest.raises(SimulationError, match="barrier timeout"):
            synchronizer.arrive("j", 0, SubTaskKind.COMP)

    def test_unregister_releases_waiters(self):
        import threading
        synchronizer = SubTaskSynchronizer(timeout=5.0)
        synchronizer.register_job("j", 2)
        outcome = []

        def worker():
            try:
                synchronizer.arrive("j", 0, SubTaskKind.PUSH)
                outcome.append("released")
            except SimulationError:
                outcome.append("timeout")

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        import time
        time.sleep(0.1)  # let the worker reach the barrier
        synchronizer.unregister_job("j")
        thread.join(timeout=5.0)
        assert outcome == ["released"]

    def test_pending_reports_open_barriers(self):
        synchronizer = SubTaskSynchronizer(timeout=0.05)
        synchronizer.register_job("j", 2)
        assert synchronizer.pending("j") == 0
        with pytest.raises(SimulationError):
            synchronizer.arrive("j", 0, SubTaskKind.PULL)
        assert synchronizer.pending("j") == 1
        assert synchronizer.pending("ghost") is None

    def test_bad_worker_count_rejected(self):
        with pytest.raises(SimulationError):
            SubTaskSynchronizer().register_job("j", 0)
