"""Threaded execution of *real* PS training jobs with Harmony's subtask
discipline.

This is the demonstration-scale counterpart of the cluster simulator:
actual models (:mod:`repro.ml`) train through the actual PS
(:mod:`repro.ps`) on real threads, while COMP subtasks of co-located
jobs serialize on a CPU token and COMM subtasks share a
primary+secondary network token — §IV-A's execution model, for real.

Scope note: this runtime demonstrates and tests the mechanism at
laptop scale (a few jobs, a few workers); cluster-scale behaviour is
the simulator's job.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.profiler import Profiler
from repro.core.subtask import SubTaskKind
from repro.core.synchronizer import SubTaskSynchronizer
from repro.errors import SimulationError, WorkloadError
from repro.ml.base import PSTrainable, TrainState
from repro.ml.convergence import ConvergenceTracker
from repro.ps.client import PSClient
from repro.ps.partition import RangePartitioner
from repro.ps.server import PSServer
from repro.ps.transport import InProcessTransport


@dataclass
class LocalJob:
    """One runnable training job for the local runtime."""

    job_id: str
    model: PSTrainable
    #: One data-partition dict per worker (model-specific contents).
    partitions: list[dict]
    max_epochs: int = 20
    learning_rate: float = 0.1
    threshold: float | None = None
    seed: int = 0
    #: Resume support: when set (e.g. from a checkpoint written by
    #: :func:`repro.ps.checkpoint.save_checkpoint`), these values seed
    #: the servers instead of ``model.init_params``.
    initial_params: dict | None = None

    def __post_init__(self) -> None:
        if not self.partitions:
            raise WorkloadError(f"job {self.job_id}: no partitions")
        if self.max_epochs < 1:
            raise WorkloadError(f"job {self.job_id}: max_epochs >= 1")

    @property
    def n_workers(self) -> int:
        return len(self.partitions)


@dataclass
class LocalJobResult:
    """Outcome of one job under the local runtime."""

    job_id: str
    losses: list[float]
    epochs: int
    duration_seconds: float
    final_params: dict[str, np.ndarray]
    bytes_moved: int


class _LossBoard:
    """Synchronous per-epoch loss aggregation + convergence decision.

    Every worker reports its local loss, waits for the epoch's mean,
    and receives the *same* stop decision — so all workers leave the
    synchronous PS barrier together (no dangling pushes).  After
    :meth:`release` (a worker failed) every report returns "stop".
    """

    def __init__(self, n_workers: int, tracker: ConvergenceTracker):
        self._condition = threading.Condition()
        self._n_workers = n_workers
        self._tracker = tracker
        self._losses: dict[int, list[float]] = {}
        self._decisions: dict[int, bool] = {}
        self._released = False

    def release(self) -> None:
        """Stop the job: wake blocked reports, which return True."""
        with self._condition:
            self._released = True
            self._condition.notify_all()

    def report(self, epoch: int, loss: float, timeout: float = 60.0) -> bool:
        """Report a worker's loss; returns True when the job must stop."""
        with self._condition:
            bucket = self._losses.setdefault(epoch, [])
            bucket.append(loss)
            if len(bucket) == self._n_workers:
                stop = self._tracker.record(float(np.mean(bucket)))
                self._decisions[epoch] = stop
                self._condition.notify_all()
            done = self._condition.wait_for(
                lambda: epoch in self._decisions or self._released,
                timeout=timeout)
            if not done:
                raise SimulationError(
                    f"loss aggregation stalled at epoch {epoch}")
            return self._released or self._decisions[epoch]


#: Reduced-rate COMM slots beside the primary one (§IV-A, Fig. 7).
SECONDARY_COMM_SLOTS = 1


class LocalHarmonyRuntime:
    """Runs co-located real jobs with coordinated subtasks."""

    def __init__(self, jobs: list[LocalJob], coordinate: bool = True,
                 barrier_timeout: float = 60.0,
                 tracer=None,
                 clock: "Callable[[], float]" = time.perf_counter):
        if not jobs:
            raise WorkloadError("no jobs to run")
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise WorkloadError(f"duplicate job ids: {ids}")
        self.jobs = jobs
        self.coordinate = coordinate
        # §IV-A: one COMP at a time; one primary + N secondary COMMs.
        self._cpu_token = threading.Semaphore(1)
        self._net_token = threading.Semaphore(1 + SECONDARY_COMM_SLOTS)
        # Barrier waits are traced against the tracer's own clock
        # (wall clock here — this runtime runs on real threads).
        self._synchronizer = SubTaskSynchronizer(timeout=barrier_timeout,
                                                 tracer=tracer)
        self.profiler = Profiler()
        self._barrier_timeout = barrier_timeout
        # Subtask timing reads go through an injectable clock (real
        # wall time by default) so tests can pin profiled durations
        # and the only wall-clock read is this default.
        self._clock = clock

    # -- execution -----------------------------------------------------------

    def run(self) -> dict[str, LocalJobResult]:
        results: dict[str, LocalJobResult] = {}
        errors: list[BaseException] = []
        threads: list[threading.Thread] = []
        lock = threading.Lock()

        for job in self.jobs:
            threads.extend(self._launch_job(job, results, errors, lock))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results

    def _launch_job(self, job: LocalJob, results: dict,
                    errors: list, lock: threading.Lock) -> \
            list[threading.Thread]:
        rng = np.random.default_rng(job.seed)
        initial = job.initial_params if job.initial_params is not None \
            else job.model.init_params(rng)
        partitioner = RangePartitioner(initial.keys(),
                                       n_shards=job.n_workers)
        transport = InProcessTransport()
        servers = []
        for shard in range(partitioner.n_shards):
            server = PSServer(shard, n_workers=job.n_workers,
                              barrier_timeout=self._barrier_timeout)
            server.init_params({k: initial[k]
                                for k in partitioner.keys_of_shard(shard)})
            transport.register(server)
            servers.append(server)
        tracker = ConvergenceTracker(threshold=job.threshold,
                                     max_epochs=job.max_epochs)
        board = _LossBoard(job.n_workers, tracker)
        self._synchronizer.register_job(job.job_id, job.n_workers)

        # LDA-style models need their random token assignments folded
        # into the global counts before the first epoch.
        seeder = getattr(job.model, "seed_partition", None)
        if seeder is not None:
            seed_deltas = [seeder(partition, np.random.default_rng(
                job.seed + 1000 + index))
                for index, partition in enumerate(job.partitions)]
            for deltas in seed_deltas:
                for shard, keys in partitioner.group_by_shard(
                        list(deltas)).items():
                    servers[shard].store.update(
                        {k: deltas[k] for k in keys})

        started = self._clock()

        def worker(worker_id: int) -> None:
            try:
                client = PSClient(worker_id, transport, partitioner)
                state = TrainState(learning_rate=job.learning_rate
                                   / job.n_workers)
                partition = job.partitions[worker_id]
                for epoch in range(job.max_epochs):
                    # PULL subtask (network-dominant).
                    pull_started = self._clock()
                    with self._acquire(self._net_token):
                        params = client.pull()
                    pull_seconds = self._clock() - pull_started
                    if not self._synchronizer.arrive(job.job_id, epoch,
                                                     SubTaskKind.PULL):
                        break  # barrier force-released (worker loss)
                    # COMP subtask (CPU-dominant, one at a time).
                    compute_started = self._clock()
                    with self._acquire(self._cpu_token):
                        state.iteration = epoch
                        deltas, loss = job.model.compute(params,
                                                         partition, state)
                    compute_seconds = self._clock() - compute_started
                    # PUSH subtask (network-dominant).
                    push_started = self._clock()
                    with self._acquire(self._net_token):
                        client.push(deltas)
                    push_seconds = self._clock() - push_started
                    self.profiler.record_iteration(
                        job.job_id, t_cpu=compute_seconds,
                        t_net=pull_seconds + push_seconds,
                        m=job.n_workers)
                    stop = board.report(epoch, loss,
                                        timeout=self._barrier_timeout)
                    if stop:
                        break
            except BaseException as error:  # noqa: BLE001 - joined later
                with lock:
                    errors.append(error)
                # End the job: its peers stop at the loss board or the
                # next barrier instead of waiting out the timeout.
                board.release()
                self._synchronizer.release_job(job.job_id)

        def finalize() -> None:
            duration = self._clock() - started
            final = {}
            for server in servers:
                final.update(server.checkpoint())
            with lock:
                results[job.job_id] = LocalJobResult(
                    job_id=job.job_id,
                    losses=list(tracker.history),
                    epochs=tracker.epochs,
                    duration_seconds=duration,
                    final_params=final,
                    bytes_moved=transport.total_bytes)
            self._synchronizer.unregister_job(job.job_id)

        workers = [threading.Thread(
            target=worker, args=(index,), daemon=True,
            name=f"{job.job_id}-w{index}")
            for index in range(job.n_workers)]

        closer = threading.Thread(
            target=lambda: ([t.join() for t in workers], finalize()),
            daemon=True, name=f"{job.job_id}-closer")
        # The closer starts the workers' join loop only once started.
        return workers + [closer]

    def _acquire(self, token: threading.Semaphore):
        """Token acquisition honouring the coordinate switch."""
        if self.coordinate:
            return token
        return _NullContext()


class _NullContext:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False
