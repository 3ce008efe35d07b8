"""Differential tests pinning the batched simulator fast path
(:mod:`repro.sim.fastpath`) bitwise-equal to the per-event reference
engine, plus regressions for the event-loop correctness sweep that
rode along: deterministic event-tie ordering, closed-form step
boundaries (no accumulated-float drift), and zero-duration segments
when a fault fires exactly on a step boundary.

Bitwise means bitwise: every comparison below is ``==`` or
``np.array_equal`` — no tolerances.  The fast path runs the *same*
generator code under a warped clock, so any difference at all is a
bug, not noise.
"""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import IsolatedRuntime, NaiveRuntime
from repro.check import InvariantChecker, ScenarioGenerator, run_checked
from repro.check.oracle import deterministic_config, step_boundaries
from repro.config import DEFAULT_SIM_CONFIG, ExecutionConfig, SimConfig
from repro.core.group_runtime import ExecutionMode, GroupRuntime
from repro.core.job import Job, JobState
from repro.core.runtime import HarmonyRuntime
from repro.errors import SimulationError
from repro.experiments.common import _CollectingHooks
from repro.sim import RandomStreams, Simulator
from repro.workloads.costmodel import CostModel
from repro.workloads.generator import WorkloadGenerator
from tests.fastpath_views import cycles_view, ledger_view
from tests.fault_plans import crash_plan

POOL = WorkloadGenerator(2021).base_workload(hyper_params_per_pair=1)


def run_group(spec, mode, engine, config, m=4):
    """One single-job group run to completion on the given engine."""
    sim = Simulator()
    cfg = config.with_engine(engine)
    cost_model = CostModel(cfg.machine)
    hooks = _CollectingHooks()
    group = GroupRuntime(sim, "g", tuple(range(m)), mode, cost_model,
                         cfg, RandomStreams(cfg.seed), hooks)
    job = Job(spec)
    job.state = JobState.RUNNING
    group.add_job(job)
    sim.run()
    group.cpu.close_segments()
    group.net.close_segments()
    group.disk.close_segments()
    return sim, group, hooks


def run_multi_group(specs, mode, engine, config, m=6,
                    hooks_factory=_CollectingHooks):
    """A multi-job group run to completion on the given engine."""
    sim = Simulator()
    cfg = config.with_engine(engine)
    hooks = hooks_factory()
    group = GroupRuntime(sim, "g", tuple(range(m)), mode,
                         CostModel(cfg.machine), cfg,
                         RandomStreams(cfg.seed), hooks)
    for spec in specs:
        job = Job(spec)
        job.state = JobState.RUNNING
        group.add_job(job)
    sim.run()
    for resource in (group.cpu, group.net, group.disk):
        resource.close_segments()
    return sim, group, hooks


def multi_specs(n_jobs, iterations=5, stagger_iterations=True):
    """``n_jobs`` heterogeneous specs cycling through the base pool."""
    return [replace(POOL[i % len(POOL)], job_id=f"j{i}",
                    iterations=iterations + (i if stagger_iterations
                                             else 0),
                    submit_time=0.0)
            for i in range(n_jobs)]


def segments_of(resource):
    return [(s.start, s.end, s.level) for s in resource.segments]


def assert_bitwise_equal(fast, ref):
    """Every observable of the two runs must match exactly."""
    sim_f, group_f, hooks_f = fast
    sim_r, group_r, hooks_r = ref
    assert sim_f.now == sim_r.now
    assert hooks_f.finished == hooks_r.finished
    # Exceptions compare by identity; match failures by id + message.
    assert ([(j, repr(e)) for j, e in hooks_f.failed]
            == [(j, repr(e)) for j, e in hooks_r.failed])
    assert np.array_equal(cycles_view(group_f.cycles),
                          cycles_view(group_r.cycles))
    for res_f, res_r in ((group_f.cpu, group_r.cpu),
                         (group_f.net, group_r.net),
                         (group_f.disk, group_r.disk)):
        assert np.array_equal(ledger_view(res_f), ledger_view(res_r))
        assert segments_of(res_f) == segments_of(res_r)


class TestGroupDifferential:
    """Fast engine vs reference engine on single-job groups."""

    @pytest.mark.parametrize("mode", [ExecutionMode.HARMONY,
                                      ExecutionMode.ISOLATED])
    def test_workload_sweep_bitwise_equal(self, mode):
        """Every base-workload app, with and without jitter."""
        for config in (DEFAULT_SIM_CONFIG, deterministic_config(7)):
            for spec in POOL:
                spec = replace(spec, iterations=25, submit_time=0.0)
                fast = run_group(spec, mode, "fast", config)
                ref = run_group(spec, mode, "reference", config)
                assert_bitwise_equal(fast, ref)

    @settings(max_examples=25, deadline=None)
    @given(spec_index=st.integers(0, len(POOL) - 1),
           iterations=st.integers(1, 30),
           m=st.integers(2, 8),
           jitter_cv=st.sampled_from([0.0, 0.02, 0.05]),
           seed=st.integers(0, 2**16))
    def test_random_workloads_bitwise_equal(self, spec_index,
                                            iterations, m, jitter_cv,
                                            seed):
        """Hypothesis sweep over shapes, jitter, and rng seeds."""
        spec = replace(POOL[spec_index], iterations=iterations,
                       submit_time=0.0)
        config = SimConfig(
            seed=seed,
            execution=ExecutionConfig(duration_jitter_cv=jitter_cv))
        fast = run_group(spec, ExecutionMode.HARMONY, "fast", config, m)
        ref = run_group(spec, ExecutionMode.HARMONY, "reference",
                        config, m)
        assert_bitwise_equal(fast, ref)

    def test_conservation_invariants_hold_on_both_engines(self):
        """The repro.check group invariants pass under either engine."""
        checker = InvariantChecker()
        spec = replace(POOL[0], iterations=10, submit_time=0.0)
        for engine in ("fast", "reference"):
            _, group, _ = run_group(spec, ExecutionMode.HARMONY,
                                    engine, DEFAULT_SIM_CONFIG)
            violations = []
            checker.check_audit(group.audit(), violations)
            assert violations == [], engine

    def test_fast_engine_actually_batches(self):
        """Guard against the fast path silently never engaging."""
        spec = replace(POOL[0], iterations=10, submit_time=0.0)
        sim, group, _ = run_group(spec, ExecutionMode.HARMONY, "fast",
                                  DEFAULT_SIM_CONFIG)
        stats = sim.fastpath_stats
        assert stats.solo_batches == 1  # the whole job, in one batch
        assert stats.solo_batched_seconds > 0.0
        assert len(group.cycles) == 10

    def test_reference_engine_never_batches(self):
        spec = replace(POOL[0], iterations=5, submit_time=0.0)
        _, group, _ = run_group(spec, ExecutionMode.HARMONY,
                                "reference", DEFAULT_SIM_CONFIG)
        assert group._engine is None

    def test_multi_job_groups_skip_solo_lane(self):
        """Contending jobs interleave; the solo batch must refuse to
        open — the coordinated drive lane carries them instead."""
        sim, group, _ = run_multi_group(multi_specs(2),
                                        ExecutionMode.HARMONY, "fast",
                                        DEFAULT_SIM_CONFIG, m=4)
        assert sim.fastpath_stats.solo_batches == 0
        assert sim.fastpath_stats.wakes_served > 0
        assert len(group.cycles) == 5 + 6  # multi_specs staggers 5, 6


def _bare_group(engine):
    """An empty four-machine group on ``engine``."""
    sim = Simulator()
    cfg = DEFAULT_SIM_CONFIG.with_engine(engine)
    group = GroupRuntime(sim, "g", tuple(range(4)),
                         ExecutionMode.ISOLATED, CostModel(cfg.machine),
                         cfg, RandomStreams(cfg.seed), _CollectingHooks())
    return sim, group


class TestSoloLaneGuards:
    """The solo lane opens only for a group with nothing else on its
    resources, and the drive lane breaks exact wake ties by sequence
    number, as the reference heap does."""

    @pytest.mark.parametrize("first", ["cpu", "net"])
    def test_tied_parked_wakes_complete_in_submission_order(self, first):
        orders = {}
        for engine in ("fast", "reference"):
            sim, group = _bare_group(engine)
            order = orders.setdefault(engine, [])
            second = "net" if first == "cpu" else "cpu"
            for name in (first, second):
                getattr(group, name).submit(2.0).add_callback(
                    lambda event, name=name: order.append(
                        (name, event.value.finished_at)))
            sim.run()
        assert orders["fast"] == orders["reference"] \
            == [(first, 2.0), ("net" if first == "cpu" else "cpu", 2.0)]

    def test_foreign_work_keeps_the_solo_lane_closed(self):
        runs = {}
        for engine in ("fast", "reference"):
            sim, group = _bare_group(engine)
            foreign = group.cpu.submit(3.0)
            job = Job(replace(POOL[0], iterations=3, submit_time=0.0))
            job.state = JobState.RUNNING
            group.add_job(job)
            sim.run()
            runs[engine] = (sim.now, foreign.value.finished_at,
                            cycles_view(group.cycles).tolist())
            if engine == "fast":
                assert sim.fastpath_stats.solo_batches == 0
                assert sim.fastpath_stats.wakes_served > 0
        assert runs["fast"] == runs["reference"]

    def test_a_second_solo_batch_does_not_open(self):
        sim, group = _bare_group("fast")
        job = Job(replace(POOL[0], iterations=3, submit_time=0.0))
        job.state = JobState.RUNNING
        group.add_job(job)  # runs its whole solo batch, then parks
        engine = group._engine
        assert engine.open(group)
        assert not engine.open(group)
        engine.close()
        assert not engine.active


class TestMultiJobDifferential:
    """Fast engine vs reference engine on multi-job groups: the
    coordinated drive lane serves parked wakes at true times, so every
    co-location mode must come out bitwise identical."""

    @pytest.mark.parametrize("mode", [ExecutionMode.HARMONY,
                                      ExecutionMode.NAIVE])
    @pytest.mark.parametrize("n_jobs", [2, 3, 5])
    def test_group_sweep_bitwise_equal(self, mode, n_jobs):
        """Heterogeneous apps, with and without jitter."""
        specs = multi_specs(n_jobs)
        for config in (DEFAULT_SIM_CONFIG, deterministic_config(7)):
            fast = run_multi_group(specs, mode, "fast", config)
            ref = run_multi_group(specs, mode, "reference", config)
            assert_bitwise_equal(fast, ref)

    @settings(max_examples=20, deadline=None)
    @given(n_jobs=st.integers(2, 4),
           iterations=st.integers(1, 10),
           m=st.integers(2, 8),
           jitter_cv=st.sampled_from([0.0, 0.02, 0.05]),
           seed=st.integers(0, 2**16))
    def test_random_multi_job_groups_bitwise_equal(self, n_jobs,
                                                   iterations, m,
                                                   jitter_cv, seed):
        """Hypothesis sweep over group sizes, shapes, jitter, seeds."""
        specs = multi_specs(n_jobs, iterations=iterations,
                            stagger_iterations=False)
        config = SimConfig(
            seed=seed,
            execution=ExecutionConfig(duration_jitter_cv=jitter_cv))
        fast = run_multi_group(specs, ExecutionMode.HARMONY, "fast",
                               config, m)
        ref = run_multi_group(specs, ExecutionMode.HARMONY,
                              "reference", config, m)
        assert_bitwise_equal(fast, ref)

    def test_conservation_invariants_hold_on_both_engines(self):
        """The repro.check group invariants pass for a 3-job group
        under either engine."""
        checker = InvariantChecker()
        specs = multi_specs(3)
        for engine in ("fast", "reference"):
            _, group, _ = run_multi_group(specs, ExecutionMode.HARMONY,
                                          engine, DEFAULT_SIM_CONFIG)
            violations = []
            checker.check_audit(group.audit(), violations)
            assert violations == [], engine

    def test_drive_lane_engages_for_multi_job_groups(self):
        """Guard against the coordinated lane silently never engaging:
        the whole point of the engine is that multi-job groups batch."""
        sim, group, _ = run_multi_group(multi_specs(3),
                                        ExecutionMode.HARMONY, "fast",
                                        DEFAULT_SIM_CONFIG)
        stats = sim.fastpath_stats
        assert stats.engaged
        assert stats.groups_attached == 1
        assert stats.drive_windows >= 1
        assert stats.wakes_served > 0
        # Multi-job groups never open the fused solo lane.
        assert stats.solo_batches == 0
        assert group._engine is not None

    def test_reference_engine_stats_stay_zero(self):
        sim, group, _ = run_multi_group(multi_specs(3),
                                        ExecutionMode.HARMONY,
                                        "reference",
                                        DEFAULT_SIM_CONFIG)
        stats = sim.fastpath_stats
        assert not stats.engaged
        assert stats.groups_attached == 0
        assert stats.drive_windows == 0
        assert stats.wakes_served == 0
        assert group._engine is None

    def test_iteration_callback_takes_drive_lane(self):
        """Hooks with a per-iteration callback must observe true
        simulated times: a single-job group takes the drive lane, not
        the solo lane — and the run still matches bitwise."""
        class CountingHooks(_CollectingHooks):
            def __init__(self):
                super().__init__()
                self.iterations = []

            def on_iteration(self, job, group):
                self.iterations.append((job.job_id, group.sim.now))

        specs = multi_specs(1)
        fast = run_multi_group(specs, ExecutionMode.HARMONY, "fast",
                               DEFAULT_SIM_CONFIG,
                               hooks_factory=CountingHooks)
        ref = run_multi_group(specs, ExecutionMode.HARMONY,
                              "reference", DEFAULT_SIM_CONFIG,
                              hooks_factory=CountingHooks)
        stats = fast[0].fastpath_stats
        assert stats.solo_batches == 0
        assert stats.wakes_served > 0
        assert fast[2].iterations == ref[2].iterations
        assert len(fast[2].iterations) == 5
        assert_bitwise_equal(fast, ref)


class TestMasterDifferential:
    """Fig. 10-style full ``HarmonyRuntime`` runs — profiler
    transitions, pauses, regroups, migrations, faults — must be
    bitwise identical, with the drive lane engaged."""

    # Each crash lands on a machine a group owns when it is detected.
    @pytest.mark.parametrize("crashes", [(), ((150.0, 8), (900.0, 0))],
                             ids=["no-faults", "faults"])
    def test_fig10_run_bitwise_equal(self, crashes):
        pool = WorkloadGenerator(11).base_workload(
            hyper_params_per_pair=1)
        specs = [replace(pool[i % len(pool)], job_id=f"j{i}",
                         iterations=6, submit_time=float(40 * i))
                 for i in range(8)]
        results = {}
        for engine in ("fast", "reference"):
            cfg = deterministic_config(11).with_engine(engine)
            runtime = HarmonyRuntime(
                20, specs, config=cfg,
                fault_plan=crash_plan(crashes) if crashes else None)
            result = runtime.run()
            results[engine] = (result, runtime.sim.fastpath_stats)
        fast, fast_stats = results["fast"]
        ref, ref_stats = results["reference"]
        if crashes:
            records = fast.fault_log.records
            assert len(records) == len(crashes)
            assert all(record.job_ids for record in records)
            assert ([r.job_ids for r in records]
                    == [r.job_ids for r in ref.fault_log.records])
        assert fast.makespan == ref.makespan
        for job_id, outcome in fast.outcomes.items():
            other = ref.outcomes[job_id]
            assert outcome.state == other.state
            assert outcome.jct == other.jct
            assert outcome.finish_time == other.finish_time
        assert np.array_equal(cycles_view(fast._all_cycles),
                              cycles_view(ref._all_cycles))
        assert fast.gc_seconds == ref.gc_seconds
        assert fast.stall_seconds == ref.stall_seconds
        assert (fast.migration_overhead_seconds
                == ref.migration_overhead_seconds)
        # The drive lane must actually carry the run — not silently
        # fall back.
        assert fast_stats.engaged
        assert fast_stats.drive_windows >= 1
        assert fast_stats.wakes_served > 0
        assert fast_stats.groups_attached >= 1
        assert not ref_stats.engaged


class TestTruncation:
    """An ``until`` horizon stops the drive lane at exactly the
    reference state, and the run resumes on the same lane."""

    def _fresh(self, engine):
        sim = Simulator()
        cfg = DEFAULT_SIM_CONFIG.with_engine(engine)
        hooks = _CollectingHooks()
        group = GroupRuntime(sim, "g", tuple(range(6)),
                             ExecutionMode.HARMONY,
                             CostModel(cfg.machine), cfg,
                             RandomStreams(cfg.seed), hooks)
        for spec in multi_specs(3):
            job = Job(spec)
            job.state = JobState.RUNNING
            group.add_job(job)
        return sim, group, hooks

    def _finish(self, sim, group, hooks):
        for resource in (group.cpu, group.net, group.disk):
            resource.close_segments()
        return sim, group, hooks

    def _reference_run(self):
        sim, group, hooks = self._fresh("reference")
        sim.run()
        return self._finish(sim, group, hooks)

    def test_run_resumed_after_horizon_stays_equal(self):
        """A run stopped at an ``until`` horizon, with wakes still
        parked under the drive lane, resumes on the same lane and ends
        bitwise equal to one uninterrupted reference run."""
        ref = self._reference_run()
        t_mid = ref[0].now / 3.0
        sim, group, hooks = self._fresh("fast")
        sim.run(until=t_mid)
        assert sim.now == t_mid
        # Mid-run the group still has parked work under the engine.
        assert any(r._pending_wake_at is not None
                   for r in (group.cpu, group.net, group.disk))
        sim.run()
        assert sim.fastpath_stats.engines_deactivated == 0
        assert_bitwise_equal(self._finish(sim, group, hooks), ref)

    def test_until_truncated_drive_stops_on_horizon(self):
        """A drive window never serves a parked wake past ``until`` —
        the truncated fast run stops at exactly the reference state."""
        ref_sim, ref_group, _ = self._fresh("reference")
        ref_sim.run(until=120.0)
        sim, group, _ = self._fresh("fast")
        sim.run(until=120.0)
        assert sim.now == ref_sim.now == 120.0
        assert np.array_equal(cycles_view(group.cycles),
                              cycles_view(ref_group.cycles))
        for fast_res, ref_res in ((group.cpu, ref_group.cpu),
                                  (group.net, ref_group.net),
                                  (group.disk, ref_group.disk)):
            assert np.array_equal(ledger_view(fast_res),
                                  ledger_view(ref_res))

    def test_crash_with_parked_wakes_cleans_up(self):
        """A group crash mid-run (between events) purges the parked
        wakes and retracts the driver entry — no stale wake may fire
        into the dead group."""
        sim, group, hooks = self._fresh("fast")
        sim.run(until=60.0)
        victims = group.crash()
        assert victims
        for resource in (group.cpu, group.net, group.disk):
            assert resource._pending_wake_at is None
        assert group._engine._driver_handle is None
        sim.run()  # drains without touching the dead group
        assert hooks.finished == []


class TestBaselineDifferential:
    """Whole baseline runs — many groups, queueing, backfill — must
    come out identical under either engine."""

    @pytest.mark.parametrize("make", [
        lambda cfg: IsolatedRuntime(20, _workload(), config=cfg),
        lambda cfg: NaiveRuntime(20, _workload(), config=cfg,
                                 group_size=3, shuffle_seed=1),
    ], ids=["isolated", "naive"])
    def test_run_bitwise_equal(self, make):
        results = {}
        for engine in ("fast", "reference"):
            cfg = DEFAULT_SIM_CONFIG.with_engine(engine)
            runtime = make(cfg)
            results[engine] = (runtime.run(), runtime.sim.now)
        (fast, now_f), (ref, now_r) = results["fast"], results["reference"]
        assert now_f == now_r
        assert fast.makespan == ref.makespan
        for job_id, outcome in fast.outcomes.items():
            other = ref.outcomes[job_id]
            assert outcome.state == other.state
            assert outcome.finish_time == other.finish_time
        assert np.array_equal(cycles_view(fast._all_cycles),
                              cycles_view(ref._all_cycles))


def _workload():
    return [replace(s, iterations=6) for s in POOL[:6]]


def _staggered_workload():
    return [replace(POOL[i % len(POOL)], job_id=f"j{i}", iterations=6,
                    submit_time=float(40 * i))
            for i in range(8)]


#: Every master kind, built on a given config.
RUNTIMES = {
    "harmony": lambda cfg: HarmonyRuntime(20, _staggered_workload(),
                                          config=cfg),
    "sharded": lambda cfg: HarmonyRuntime(20, _staggered_workload(),
                                          config=cfg.with_sharding(4)),
    "isolated": lambda cfg: IsolatedRuntime(20, _workload(), config=cfg),
    "naive": lambda cfg: NaiveRuntime(20, _workload(), config=cfg,
                                      group_size=3, shuffle_seed=1),
}


class TestTruncatedRunDifferential:
    """A ``max_sim_seconds`` cut-off keeps the fast engine: the drive
    lane stops at the ``run(until=)`` horizon and the solo lane refuses
    to open under it, so the truncated state is bitwise the reference
    engine's — mid-job included."""

    @pytest.mark.parametrize("cutoff", [60.0, 700.0, 2500.0, 9000.0])
    @pytest.mark.parametrize("kind", sorted(RUNTIMES))
    def test_truncated_run_bitwise_equal(self, kind, cutoff):
        runs = {}
        for engine in ("fast", "reference"):
            runtime = RUNTIMES[kind](SimConfig(seed=5).with_engine(engine))
            runs[engine] = (runtime, runtime.run(max_sim_seconds=cutoff))
        (fast_rt, fast), (ref_rt, ref) = runs["fast"], runs["reference"]
        assert fast_rt.sim.now == ref_rt.sim.now == cutoff
        assert ({j: (o.state, o.finish_time, o.migrations)
                 for j, o in fast.outcomes.items()}
                == {j: (o.state, o.finish_time, o.migrations)
                    for j, o in ref.outcomes.items()})
        assert np.array_equal(cycles_view(fast._all_cycles),
                              cycles_view(ref._all_cycles))
        live_f, live_r = fast_rt.master.groups, ref_rt.master.groups
        assert list(live_f) == list(live_r)
        for group_id, group in live_f.items():
            other = live_r[group_id]
            for res_f, res_r in ((group.cpu, other.cpu),
                                 (group.net, other.net),
                                 (group.disk, other.disk)):
                assert np.array_equal(ledger_view(res_f),
                                      ledger_view(res_r))
        assert fast.fastpath.engaged
        assert fast.fastpath.engines_deactivated == 0


class TestEngineConfig:
    def test_engine_validated(self):
        with pytest.raises(ValueError):
            SimConfig(engine="vectorized")

    def test_with_engine_round_trip(self):
        cfg = DEFAULT_SIM_CONFIG.with_engine("reference")
        assert cfg.engine == "reference"
        # The package default honours the CI matrix's env knob; with no
        # knob set it is "fast".
        assert DEFAULT_SIM_CONFIG.engine == os.environ.get(
            "HARMONY_SIM_ENGINE", "fast")

    def test_env_knob_sets_default(self, monkeypatch):
        monkeypatch.setenv("HARMONY_SIM_ENGINE", "reference")
        assert SimConfig().engine == "reference"
        monkeypatch.delenv("HARMONY_SIM_ENGINE")
        assert SimConfig().engine == "fast"
        # Explicit engine= and with_engine() ignore the knob, so the
        # differential tests pin both engines regardless of the matrix
        # leg they run on.
        monkeypatch.setenv("HARMONY_SIM_ENGINE", "reference")
        assert SimConfig(engine="fast").engine == "fast"
        assert SimConfig().with_engine("fast").engine == "fast"

    def test_env_knob_rejects_unknown_engine(self, monkeypatch):
        monkeypatch.setenv("HARMONY_SIM_ENGINE", "vectorized")
        with pytest.raises(ValueError):
            SimConfig()

    def test_crash_inside_batch_is_rejected(self):
        """A fault delivered to a group mid-batch would corrupt the
        warped clock; the runtime must refuse loudly, not silently."""
        spec = replace(POOL[0], iterations=5, submit_time=0.0)
        sim = Simulator()
        cfg = DEFAULT_SIM_CONFIG.with_engine("fast")
        group = GroupRuntime(sim, "g", tuple(range(4)),
                             ExecutionMode.HARMONY, CostModel(cfg.machine),
                             cfg, RandomStreams(cfg.seed),
                             _CollectingHooks())
        job = Job(spec)
        job.state = JobState.RUNNING
        group.add_job(job)
        group._engine.active = True  # simulate an open batch
        with pytest.raises(SimulationError):
            group.crash()


class _DrivingOwner:
    """A coordinated owner mid-drive: parks need no driver sync."""

    def park_changed(self, resource):
        pass


class TestStalledResource:
    """Past 2**24 simulated seconds (~1.7e7) the clock's float spacing
    can swallow a task's last nanoseconds: its completion lands within
    the resource's epsilon of the clock while more than epsilon of work
    remains, so no wake ever serves it.  Every lane must raise instead
    of spinning on the same instant forever."""

    CLOCK = 3.4e7
    LEFT = 3e-9

    def _resource(self, sim):
        from repro.sim.resources import RateResource, serial
        return RateResource(sim, serial(), name="cpu")

    def test_reference_engine_raises(self, sim):
        resource = self._resource(sim)
        sim.call_at(self.CLOCK,
                    lambda: resource.submit(self.LEFT))
        with pytest.raises(SimulationError, match="'cpu' stalled at"):
            sim.run()

    def test_solo_lane_raises(self, sim):
        resource = self._resource(sim)
        resource.set_wake_owner(_DrivingOwner())
        sim.warp(self.CLOCK)
        with pytest.raises(SimulationError, match="'cpu' stalled at"):
            resource.serve_solo(self.LEFT)

    def test_drive_lane_raises(self, sim):
        resource = self._resource(sim)
        resource.set_wake_owner(_DrivingOwner())
        resource.submit(1.0)
        # The parked task reaches the large clock with LEFT work left.
        resource._tasks[0].work_remaining = self.LEFT
        sim.warp(self.CLOCK)
        resource._last_update = self.CLOCK
        with pytest.raises(SimulationError, match="'cpu' stalled at"):
            # The parked wake step, as the drive lane runs it.
            resource._advance()
            resource._repark()


class TestBatchStats:
    def test_cycles_view_empty(self):
        assert cycles_view([]).shape == (0, 6)


class TestEventTieOrdering:
    """Satellite regression: same-timestamp events fire in the order
    they were scheduled — the heap orders entries by ``(when, seq,
    insertion)``, never by ``id()``, whose ordering varies run to
    run."""

    def test_same_time_timeouts_fire_in_scheduling_order(self, sim):
        fired = []
        for index in range(8):
            event = sim.timeout(5.0, name=f"t{index}")
            event.add_callback(
                lambda e, index=index: fired.append(index))
        sim.run()
        assert fired == list(range(8))
        assert sim.now == 5.0

    def test_same_time_at_events_fire_in_scheduling_order(self, sim):
        fired = []
        for index in range(8):
            sim.at(42.0, name=f"a{index}").add_callback(
                lambda e, index=index: fired.append(index))
        sim.run()
        assert fired == list(range(8))


class TestClosedFormBoundaries:
    """Satellite regression: the k-th step boundary is ``t0 + k * dt``
    in closed form — accumulating ``t += dt`` drifts off the exact
    boundary after enough steps."""

    N_STEPS = 10**6

    def test_million_step_boundaries_exact(self):
        t0, dt = 3.0, 0.1
        bounds = step_boundaries(t0, self.N_STEPS, dt)
        assert bounds.shape == (self.N_STEPS,)
        # Spot-check bitwise equality with the scalar closed form.
        for k in (1, 2, 999, 10**5, self.N_STEPS):
            assert bounds[k - 1] == t0 + k * dt
        # The accumulated alternative has drifted by now.
        t = t0
        for _ in range(1000):
            t += dt
        assert t != t0 + 1000 * dt

    def test_million_step_periodic_process_stays_on_boundary(self):
        """A pacer-style loop over ``sim.at`` lands on the closed-form
        boundary bitwise, a million events deep."""
        sim = Simulator()
        t0, dt = 0.0, 0.1
        n = self.N_STEPS
        observed = {}

        def pacer():
            tick = 0
            while tick < n:
                tick += 1
                yield sim.at(t0 + tick * dt)
                if tick in (1, 10**3, 10**5, n):
                    observed[tick] = sim.now

        sim.spawn(pacer(), name="pacer")
        sim.run()
        for tick, now in observed.items():
            assert now == t0 + tick * dt
        assert sim.now == t0 + n * dt

    def test_health_monitor_ticks_on_exact_boundaries(self):
        from repro.cluster.cluster import Cluster
        from repro.faults.monitor import HealthMonitor

        class _Master:
            def inject_machine_failure(self, machine_id, fault_record=None):
                pass

        sim = Simulator()
        cluster = Cluster(4, DEFAULT_SIM_CONFIG.machine)
        monitor = HealthMonitor(sim, cluster, _Master(), interval=0.3)
        monitor.start()
        sim.run(until=30.0)
        monitor.stop()
        # The 100th sweep is at exactly 100 * 0.3, not the accumulated
        # sum of a hundred 0.3s, which differs in the last ulp.
        assert sim.now == 30.0


class TestZeroDurationSegments:
    """Satellite regression: a fault firing exactly on a step boundary
    must not leave a zero-duration segment (it double-counted in the
    conservation ledger)."""

    def _resource(self, sim):
        from repro.sim.resources import RateResource, serial
        return RateResource(sim, serial(), name="cpu",
                            record_segments=True)

    def test_append_zero_duration_segment_is_dropped(self, sim):
        resource = self._resource(sim)
        resource._append_segment(5.0, 5.0, 1.0)
        assert resource.segments == []
        resource._append_segment(5.0, 4.0, 1.0)  # negative: clock bug
        assert resource.segments == []

    def test_purge_on_exact_completion_boundary(self, sim):
        """Serve 10s of work, then purge at exactly t=10 with a fresh
        task queued: no zero-duration segment, ledger balanced."""
        resource = self._resource(sim)
        resource.submit(10.0)
        sim.run()
        assert sim.now == 10.0
        resource.submit(3.0)
        resource.purge()  # the fault, exactly on the boundary
        resource.close_segments()
        assert all(s.end > s.start for s in resource.segments)
        busy = sum((s.end - s.start) * s.level
                   for s in resource.segments)
        assert busy == resource.busy_seconds
        assert resource.work_submitted == pytest.approx(
            resource.work_served + resource.work_discarded)

    def test_close_segments_on_boundary_is_idempotent(self, sim):
        resource = self._resource(sim)
        resource.submit(4.0)
        sim.run()
        resource.close_segments()
        before = segments_of(resource)
        resource.close_segments()
        resource.close_segments()
        assert segments_of(resource) == before
        assert all(s.end > s.start for s in resource.segments)

    def test_scenario_with_faults_stays_invariant_clean(self):
        """End-to-end: a generated scenario with a fault plan passes
        the full repro.check invariant suite (fault times can land
        exactly on step boundaries via the generated plans)."""
        scenario = None
        for seed in range(50):
            candidate = ScenarioGenerator(seed).generate()
            if candidate.fault_plan is not None:
                scenario = candidate
                break
        assert scenario is not None
        run = run_checked(scenario)
        assert run.violations == []
