"""Closed-form Eq. 1 oracles for the checker and the tests.

Extracted from :mod:`repro.check.differential` so the same Eq. 1
arithmetic backs both roles:

* the *checker* role — :func:`exact_metrics` + ``PerfModel`` predict a
  group's iteration time from the cost model alone, and the differential
  suite compares the prediction against the simulated engine; and
* the *test-oracle* role — the closed-form timelines
  (:func:`step_boundaries`, :func:`predict_iteration_seconds`) are what
  the fast-path tests compare the simulated engines against.  The
  simulator itself never imports this module.

Everything here is pure: no simulator, no clock, no RNG.
"""

from __future__ import annotations

import numpy as np

from repro.config import ExecutionConfig, MemoryConfig, SimConfig
from repro.core.profiler import JobMetrics
from repro.workloads.costmodel import CostModel


def exact_metrics(cost_model: CostModel, spec, m: int) -> JobMetrics:
    """Profiled metrics as the profiler would converge to them."""
    profile = cost_model.profile(spec, m)
    return JobMetrics(job_id=spec.job_id,
                      cpu_work=profile.t_comp * m,
                      t_net=profile.t_pull + profile.t_push,
                      m_observed=m)


def deterministic_config(seed: int) -> SimConfig:
    """Jitter/barrier/spill off, so the engine is Eq. 1's world."""
    return SimConfig(
        seed=seed,
        execution=ExecutionConfig(duration_jitter_cv=0.0,
                                  barrier_overhead=0.0),
        memory=MemoryConfig(spill_enabled=False))


def step_boundaries(t0: float, n_steps: int, dt: float) -> np.ndarray:
    """The first ``n_steps`` step boundaries after ``t0``, closed form.

    Boundary ``k`` is computed as ``t0 + (k + 1) * dt`` — *not* by
    accumulating ``t += dt`` — so the k-th boundary is bitwise
    identical no matter how many boundaries were materialized before
    it.  Accumulation drifts: after 10^6 additions of ``dt = 0.1`` the
    running sum is off by ~1e-8 seconds, enough to reorder ties
    between the batched fast path and the per-event reference.
    """
    if n_steps < 0:
        raise ValueError(f"negative n_steps {n_steps}")
    ks = np.arange(1, n_steps + 1, dtype=np.float64)
    return t0 + ks * dt


def predict_iteration_seconds(metrics: JobMetrics, m: int) -> float:
    """Eq. 1 (§III-B): one job's solo training-iteration time on ``m``
    machines — CPU work perfectly parallelized plus the serialized
    parameter pull + push."""
    if m <= 0:
        raise ValueError(f"need at least one machine, got {m}")
    return metrics.cpu_work / m + metrics.t_net


def predict_job_span(metrics: JobMetrics, m: int,
                     iterations: int) -> float:
    """Closed-form solo makespan of ``iterations`` training iterations
    (the multi-step skip the fast path validates against)."""
    return iterations * predict_iteration_seconds(metrics, m)


# -- multi-job joint boundaries (Eq. 1 over a shared group) ------------

_EPSILON = 1e-9


def job_subtasks(load_seconds: float, t_pull: float, t_comp: float,
                 t_push: float, iterations: int) -> list:
    """One job's subtask tape, as the execution engine replays it.

    Mirrors ``GroupRuntime._job_process`` under
    :func:`deterministic_config` (no jitter, no barrier overhead, no
    spill): an initial disk-side input load, then per training
    iteration a PULL (net), a COMP (cpu), and a PUSH (net).  Zero-work
    entries (e.g. ``t_pull = 0`` under all-reduce) are kept — they
    complete instantly but still mark a boundary.
    """
    if iterations < 0:
        raise ValueError(f"negative iterations {iterations}")
    tape: list = []
    if load_seconds > 0:
        tape.append(("disk", load_seconds))
    for _ in range(iterations):
        tape.append(("net", t_pull))
        tape.append(("cpu", t_comp))
        tape.append(("net", t_push))
    return tape


class _OracleTask:
    __slots__ = ("job", "remaining")

    def __init__(self, job: int, work: float):
        self.job = job
        self.remaining = max(work, 0.0)


def predict_group_boundaries(jobs, policies) -> dict:
    """Joint Eq. 1 fixed point for a co-located multi-job group.

    ``jobs`` is an ordered list of ``(job_id, subtasks)`` pairs
    (:func:`job_subtasks`); order is submission order at t=0.
    ``policies`` maps each resource name appearing in the tapes to its
    :data:`~repro.sim.resources.RatePolicy` (the same factories the
    engine uses: ``serial()``, ``primary_secondary()``,
    ``processor_sharing()``).

    A pure mini-simulator: at every instant each resource's
    per-position rates follow its policy of the current queue length —
    the group's joint fixed point, constant between structural
    changes — and the next boundary is the smallest closed-form
    completion horizon ``remaining / rate`` across every queue.  All
    queues then advance by that span and completions cascade (FIFO per
    resource; resources in a fixed order for exact ties).

    Returns ``{job_id: np.ndarray}`` — each job's subtask completion
    times, in tape order.  Because the engine advances each resource
    on its own event clock while this replay advances all of them at
    every group boundary, float accumulation differs in the last bits:
    compare with a relative tolerance (~1e-9), not bitwise.
    """
    order = sorted(policies)
    queues: dict = {name: [] for name in policies}
    tapes = [list(tape) for _, tape in jobs]
    cursors = [0] * len(jobs)
    done: list[list[float]] = [[] for _ in jobs]

    def push_next(job_index: int) -> None:
        cursor = cursors[job_index]
        if cursor >= len(tapes[job_index]):
            return
        resource, work = tapes[job_index][cursor]
        queues[resource].append(_OracleTask(job_index, work))

    now = 0.0
    for job_index in range(len(jobs)):
        push_next(job_index)
    pending = sum(len(tape) for tape in tapes)
    # The loop ends at the "if not pending" below, which also ends it
    # at once when no tape holds a subtask.
    while True:
        # Cascade every completion at the current instant (zero-work
        # subtasks chain through several resources without advancing
        # the clock).  A spent task only completes from a position its
        # policy serves: a zero-work task queued behind a serial()
        # head still waits for its turn, exactly as in the engine.
        progressed = True
        while progressed:
            progressed = False
            for name in order:
                queue = queues[name]
                if not queue:
                    continue
                rates = list(policies[name](len(queue)))
                finished, waiting = [], []
                for index, task in enumerate(queue):
                    rate = (rates[index] if index < len(rates)
                            else 0.0)
                    if task.remaining <= _EPSILON and rate > _EPSILON:
                        finished.append(task)
                    else:
                        waiting.append(task)
                if not finished:
                    continue
                queues[name] = waiting
                for task in finished:
                    done[task.job].append(now)
                    cursors[task.job] += 1
                    pending -= 1
                    push_next(task.job)
                progressed = True
        if not pending:
            break
        # Joint horizon: the earliest closed-form completion across
        # every resource at the current fixed-point rates.
        horizon = None
        for name in order:
            queue = queues[name]
            if not queue:
                continue
            rates = list(policies[name](len(queue)))
            for index, task in enumerate(queue):
                rate = rates[index] if index < len(rates) else 0.0
                if rate <= _EPSILON:
                    continue
                eta = task.remaining / rate
                if horizon is None or eta < horizon:
                    horizon = eta
        if horizon is None:
            raise RuntimeError(
                "oracle deadlock: queued work but every task is "
                "starved by its policy")
        # Advance every active task by the span, exactly as
        # RateResource._advance does.
        for name in order:
            queue = queues[name]
            if not queue:
                continue
            rates = list(policies[name](len(queue)))
            for index, task in enumerate(queue):
                rate = rates[index] if index < len(rates) else 0.0
                if rate <= _EPSILON:
                    continue
                task.remaining -= min(task.remaining, rate * horizon)
        now += horizon
    return {job_id: np.asarray(done[index], dtype=np.float64)
            for index, (job_id, _) in enumerate(jobs)}


def predict_group_iteration_boundaries(jobs, policies) -> dict:
    """Per-iteration finish times of each job in a shared group.

    Convenience wrapper over :func:`predict_group_boundaries`: slices
    each job's completion tape down to its PUSH completions (every
    third entry after the optional initial load), which are exactly
    the engine's ``CycleRecord.finished_at`` instants.
    """
    completions = predict_group_boundaries(jobs, policies)
    result = {}
    for job_id, tape in jobs:
        times = completions[job_id]
        offset = 1 if tape and tape[0][0] == "disk" else 0
        result[job_id] = times[offset + 2::3]
    return result
