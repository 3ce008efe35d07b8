"""Run-level invariants of the simulated cluster.

The unit tests probe components locally; the hard bugs are
cross-component interleaving bugs (a crash racing a migration, a
regroup racing a reload) whose symptoms only show up in whole-run
accounting.  :class:`InvariantChecker` consumes a finished (or
truncated) :class:`~repro.core.runtime.HarmonyRuntime` — its master
state, the per-group resource audits, and the :mod:`repro.trace`
event stream — and asserts:

* **Work conservation** per resource: every second of submitted work
  is either served, explicitly discarded (cancel/purge), or still
  queued; a serial CPU's busy time equals its served work, and a
  primary+secondary NIC delivers at most ``1 + secondary_rate`` work
  seconds per busy second (Fig. 7).
* **COMP exclusivity**: at most one COMP subtask in service at any
  instant on a coordinated group's CPU (§IV-A).
* **COMM occupancy**: at most a primary plus one secondary network
  subtask concurrently in a coordinated group.
* **Barrier safety**: a job never starts iteration *k+1* before its
  iteration *k* closed — cycle intervals are disjoint and ordered per
  job, across regroup migrations and crash restarts.
* **Monotone trace timestamps**: spans lie inside ``[0, now]``,
  instants are recorded in time order, per-lane spans do not overlap,
  and no span is left open at the end of a run.
* **No lost iterations**: a finished job executed exactly
  ``spec.iterations`` cycles plus the iterations crash recovery rolled
  back (checkpoint restarts re-run work but never skip it).
* **Ledger consistency**: every live group owns exactly the machines
  the cluster says it owns, the free pool matches the owner map, and
  no job is a member of two groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.group_runtime import GroupAudit
from repro.core.job import JobState
from repro.errors import InvariantViolationError

#: Trace categories that occupy a resource lane exclusively per job.
_SERVICE_CATS = frozenset(
    {"comp", "comm", "load", "reload", "checkpoint", "stall", "wait"})


@dataclass(frozen=True)
class Violation:
    """One failed invariant, with enough context to debug it."""

    invariant: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.where}: {self.message}"


class InvariantChecker:
    """Asserts run-level invariants over a completed simulation.

    Safe on runs truncated by ``max_sim_seconds``: safety invariants
    hold at every instant, and the completion-only checks (exact
    iteration counts) are restricted to jobs that actually finished.
    """

    def __init__(self, rel_tol: float = 1e-6, abs_tol: float = 1e-3,
                 time_tol: float = 1e-6):
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self.time_tol = time_tol

    # -- entry points --------------------------------------------------

    def check_runtime(self, runtime) -> list[Violation]:
        """All violations found in a :class:`HarmonyRuntime`'s state."""
        master = runtime.master
        now = runtime.sim.now
        out: list[Violation] = []
        audits = list(master.group_audits)
        audits.extend(group.audit() for group in master.groups.values())
        for audit in audits:
            self.check_audit(audit, out)
        self._check_cluster(runtime.cluster, master, out)
        self._check_cycles(master, now, out)
        tracer = runtime.sim.tracer
        if tracer is not None:
            self.check_trace(tracer, now, out)
        return out

    def assert_clean(self, runtime) -> None:
        """Raise :class:`InvariantViolationError` on any violation."""
        violations = self.check_runtime(runtime)
        if violations:
            raise InvariantViolationError(
                f"{len(violations)} invariant violation(s):\n"
                + "\n".join(str(v) for v in violations),
                violations=tuple(violations))

    # -- work conservation ---------------------------------------------

    def _close(self, a: float, b: float) -> bool:
        return abs(a - b) <= self.abs_tol + self.rel_tol * max(
            abs(a), abs(b))

    def check_audit(self, audit: GroupAudit,
                    out: list[Violation]) -> None:
        """Work-conservation and capacity invariants of one group."""
        for res in (audit.cpu, audit.net, audit.disk):
            where = f"group {audit.group_id} ({res.name})"
            balance = (res.work_submitted - res.work_served
                       - res.work_discarded - res.queued_work)
            if not self._close(balance, 0.0):
                out.append(Violation(
                    "work-conservation", where,
                    f"submitted {res.work_submitted:.6f} != served "
                    f"{res.work_served:.6f} + discarded "
                    f"{res.work_discarded:.6f} + queued "
                    f"{res.queued_work:.6f} (off by {balance:+.6f}s)"))
            if res.work_served > res.work_submitted + self.abs_tol \
                    + self.rel_tol * res.work_submitted:
                out.append(Violation(
                    "work-conservation", where,
                    f"served {res.work_served:.6f}s exceeds submitted "
                    f"{res.work_submitted:.6f}s (phantom service)"))
            span = res.at - audit.started_at
            if res.busy_seconds > span + self.abs_tol \
                    + self.rel_tol * span:
                out.append(Violation(
                    "capacity", where,
                    f"busy {res.busy_seconds:.6f}s exceeds the group's "
                    f"lifetime {span:.6f}s"))
            if audit.stopped_at is not None and res.queue_length:
                out.append(Violation(
                    "teardown", where,
                    f"{res.queue_length} task(s) still queued after the "
                    f"group {'crashed' if audit.crashed else 'stopped'}"))

        # Busy time vs served work, per policy: the serial CPU and the
        # processor-sharing disk deliver exactly one work second per
        # busy second (total rate <= capacity); the coordinated NIC
        # over-delivers up to the secondary's share.
        for res, cap in ((audit.cpu, 1.0), (audit.disk, 1.0),
                         (audit.net, audit.net_rate_cap)):
            where = f"group {audit.group_id} ({res.name})"
            if cap <= 1.0 + 1e-9:
                if not self._close(res.busy_seconds, res.work_served):
                    out.append(Violation(
                        "busy-vs-served", where,
                        f"busy {res.busy_seconds:.6f}s != served "
                        f"{res.work_served:.6f}s at unit capacity"))
            else:
                if res.work_served < res.busy_seconds - self.abs_tol \
                        - self.rel_tol * res.busy_seconds:
                    out.append(Violation(
                        "busy-vs-served", where,
                        f"served {res.work_served:.6f}s below busy "
                        f"{res.busy_seconds:.6f}s"))
                limit = cap * res.busy_seconds
                if res.work_served > limit + self.abs_tol \
                        + self.rel_tol * limit:
                    out.append(Violation(
                        "busy-vs-served", where,
                        f"served {res.work_served:.6f}s exceeds "
                        f"{cap:.2f}x busy {res.busy_seconds:.6f}s "
                        f"(occupancy limit)"))

    # -- iteration accounting ------------------------------------------

    def _check_cycles(self, master, now: float,
                      out: list[Violation]) -> None:
        cycles_by_job: dict[str, list] = {}
        all_cycles = list(master.finished_cycles)
        for group in master.groups.values():
            all_cycles.extend(group.cycles)
        tol = self.time_tol
        for cycle in all_cycles:
            cycles_by_job.setdefault(cycle.job_id, []).append(cycle)
            if cycle.duration < -tol:
                out.append(Violation(
                    "span-bounds", f"job {cycle.job_id}",
                    f"cycle with negative duration {cycle.duration}"))
            if cycle.finished_at > now + tol or \
                    cycle.finished_at - cycle.duration < -tol:
                out.append(Violation(
                    "span-bounds", f"job {cycle.job_id}",
                    f"cycle [{cycle.finished_at - cycle.duration}, "
                    f"{cycle.finished_at}] outside the run [0, {now}]"))

        rolled_back = master.rolled_back_iterations
        for job_id, cycles in cycles_by_job.items():
            cycles.sort(key=lambda c: c.finished_at)
            for prev, cur in zip(cycles, cycles[1:], strict=False):
                if cur.finished_at - cur.duration < \
                        prev.finished_at - tol:
                    out.append(Violation(
                        "barrier-safety", f"job {job_id}",
                        f"iteration starting at "
                        f"{cur.finished_at - cur.duration:.6f} overlaps "
                        f"the previous one ending at "
                        f"{prev.finished_at:.6f}"))
            # Every cycle is a member job's, and a master never drops
            # a job it registered.
            job = master.jobs[job_id]
            budget = job.spec.iterations + rolled_back.get(job_id, 0)
            if len(cycles) > budget:
                out.append(Violation(
                    "no-lost-iterations", f"job {job_id}",
                    f"{len(cycles)} cycles recorded, but only {budget} "
                    f"iterations were ever scheduled"))
            if job.state is JobState.FINISHED and len(cycles) != budget:
                out.append(Violation(
                    "no-lost-iterations", f"job {job_id}",
                    f"finished with {len(cycles)} cycles; expected "
                    f"{job.spec.iterations} + "
                    f"{rolled_back.get(job_id, 0)} rolled back "
                    f"= {budget}"))

    # -- cluster / membership ledgers ----------------------------------

    def _check_cluster(self, cluster, master,
                       out: list[Violation]) -> None:
        free = sum(1 for m in cluster.machine_ids
                   if cluster.owner_of(m) is None
                   and not cluster.is_failed(m))
        if cluster.n_free != free:
            out.append(Violation(
                "ledger", "cluster",
                f"free pool reports {cluster.n_free} machines but "
                f"{free} are unowned and healthy"))

        seen_jobs: dict[str, str] = {}
        for group_id, group in master.groups.items():
            owned = set(cluster.owned_by(group_id))
            if owned != set(group.machine_ids):
                out.append(Violation(
                    "ledger", f"group {group_id}",
                    f"group runs on machines "
                    f"{sorted(group.machine_ids)} but the cluster says "
                    f"it owns {sorted(owned)}"))
            for job in group.jobs():
                if job.group_id != group_id:
                    out.append(Violation(
                        "membership", f"job {job.job_id}",
                        f"member of group {group_id} but believes it is "
                        f"in {job.group_id!r}"))
                if job.job_id in seen_jobs:
                    out.append(Violation(
                        "membership", f"job {job.job_id}",
                        f"member of both {seen_jobs[job.job_id]} and "
                        f"{group_id}"))
                seen_jobs[job.job_id] = group_id

    # -- trace-stream invariants ---------------------------------------

    def check_trace(self, tracer, now: float,
                    out: list[Violation]) -> None:
        """Timestamp sanity + occupancy invariants of the event stream.

        Usable standalone (e.g. on a single-group run's tracer) —
        everything here is derived from the trace alone.
        """
        tol = self.time_tol
        if tracer.open_spans:
            out.append(Violation(
                "open-spans", "tracer",
                f"{tracer.open_spans} span(s) left open"))

        last_instant = float("-inf")
        for instant in tracer.instants:
            if instant.time < last_instant - tol:
                out.append(Violation(
                    "instant-order", f"instant {instant.name!r}",
                    f"recorded at {instant.time} after one at "
                    f"{last_instant}"))
            last_instant = max(last_instant, instant.time)
            if instant.time < -tol or instant.time > now + tol:
                out.append(Violation(
                    "span-bounds", f"instant {instant.name!r}",
                    f"time {instant.time} outside the run [0, {now}]"))

        by_track: dict[tuple[int, int], list] = {}
        for span in tracer.spans:
            if span.start < -tol or span.end > now + tol:
                out.append(Violation(
                    "span-bounds", f"span {span.name!r}",
                    f"[{span.start}, {span.end}] outside the run "
                    f"[0, {now}]"))
            if span.cat in _SERVICE_CATS:
                key = (span.track.pid, span.track.tid)
                by_track.setdefault(key, []).append(span)

        for (pid, tid), spans in by_track.items():
            spans.sort(key=lambda s: (s.start, s.end))
            for prev, cur in zip(spans, spans[1:], strict=False):
                if cur.start < prev.end - tol:
                    process = tracer.process_names.get(pid, str(pid))
                    thread = tracer.thread_names.get((pid, tid),
                                                     str(tid))
                    out.append(Violation(
                        "lane-overlap", f"{process} / {thread}",
                        f"{cur.name!r} [{cur.start:.6f}, {cur.end:.6f}] "
                        f"overlaps {prev.name!r} "
                        f"[{prev.start:.6f}, {prev.end:.6f}]"))
                    break  # one report per lane is enough

        self._check_occupancy(tracer, tol, out)

    def _group_modes(self, tracer) -> dict[int, str]:
        """pid -> execution mode, joined through group-start instants."""
        mode_of_group: dict[str, str] = {}
        for instant in tracer.instants:
            if instant.name == "group-start" and instant.args:
                mode_of_group[str(instant.args.get("group"))] = \
                    str(instant.args.get("mode"))
        modes: dict[int, str] = {}
        for pid, name in tracer.process_names.items():
            group_id = name.rsplit(" · ", 1)[-1]
            if group_id in mode_of_group:
                modes[pid] = mode_of_group[group_id]
        return modes

    def _check_occupancy(self, tracer, tol: float,
                         out: list[Violation]) -> None:
        """COMP exclusivity / COMM primary+secondary limits (§IV-A).

        Only coordinated groups make these promises: the naive baseline
        deliberately lets subtasks contend without limit.
        """
        modes = self._group_modes(tracer)
        comp: dict[int, list] = {}
        comm: dict[int, list] = {}
        for span in tracer.spans:
            if modes.get(span.track.pid) in (None, "naive"):
                continue
            if span.cat == "comp":
                comp.setdefault(span.track.pid, []).append(span)
            elif span.cat == "comm":
                comm.setdefault(span.track.pid, []).append(span)

        for invariant, per_pid, limit in (("comp-exclusive", comp, 1),
                                          ("comm-occupancy", comm, 2)):
            for pid, spans in per_pid.items():
                overlap = self._max_concurrency(spans, tol)
                if overlap > limit:
                    process = tracer.process_names.get(pid, str(pid))
                    out.append(Violation(
                        invariant, process,
                        f"{overlap} concurrent {spans[0].cat.upper()} "
                        f"subtasks in service (limit {limit})"))

    @staticmethod
    def _max_concurrency(spans, tol: float) -> int:
        """Peak overlap count of a span set (zero-length spans and
        back-to-back handoffs within ``tol`` do not count)."""
        events: list[tuple[float, int]] = []
        for span in spans:
            if span.end - span.start <= tol:
                continue
            events.append((span.start + tol, 1))
            events.append((span.end, -1))
        events.sort()
        active = peak = 0
        for _, delta in events:
            active += delta
            peak = max(peak, active)
        return peak
