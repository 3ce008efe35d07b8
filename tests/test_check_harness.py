"""Tests for the run-level correctness harness (repro.check)."""

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import (
    InvariantChecker,
    OracleCase,
    PerfModelCase,
    ScenarioGenerator,
    Violation,
    exact_metrics,
    run_checked,
    run_differential,
)
from repro.check.cli import DEFAULT_SEEDS, _rotating_seed
from repro.check.cli import main as check_main
from repro.check.differential import (
    DifferentialReport,
    ORACLE_CASE_GAP,
    ORACLE_MEAN_GAP,
    PERFMODEL_CASE_TOL,
    PERFMODEL_MEAN_TOL,
)
from repro.check import scenarios
from repro.check.scenarios import CheckedRun
from repro.config import SimConfig
from repro.core.group_runtime import GroupAudit
from repro.core.runtime import HarmonyRuntime
from repro.errors import InvariantViolationError, SimulationError
from repro.sim.resources import ResourceAudit
from repro.trace import Tracer
from repro.workloads.costmodel import CostModel
from repro.workloads.generator import WorkloadGenerator


def _manual_clock(start: float = 0.0):
    state = {"now": start}

    def clock() -> float:
        return state["now"]

    def advance(dt: float) -> None:
        state["now"] += dt

    return clock, advance


def _resource(name="cpu", at=100.0, busy=50.0, submitted=50.0,
              served=50.0, discarded=0.0, queued=0.0, queue_length=0):
    return ResourceAudit(name=name, at=at, busy_seconds=busy,
                         work_submitted=submitted, work_served=served,
                         work_discarded=discarded, queued_work=queued,
                         queue_length=queue_length)


def _group_audit(cpu=None, net=None, disk=None, stopped_at=100.0,
                 crashed=False, net_rate_cap=1.4):
    return GroupAudit(
        group_id="g1", mode="harmony", n_machines=4, started_at=0.0,
        stopped_at=stopped_at, crashed=crashed,
        cpu=cpu if cpu is not None else _resource("cpu"),
        net=net if net is not None else _resource("net"),
        disk=disk if disk is not None else _resource("disk"),
        cpu_serial=True, net_rate_cap=net_rate_cap)


def _invariants(violations):
    return {violation.invariant for violation in violations}


def _only_violation(runtime):
    violations = InvariantChecker().check_runtime(runtime)
    assert len(violations) == 1, violations
    return violations[0]


# ------------------------------------------------- audit invariants


class TestAuditInvariants:
    def check(self, audit):
        out = []
        InvariantChecker().check_audit(audit, out)
        return out

    def test_balanced_audit_is_clean(self):
        assert self.check(_group_audit()) == []

    def test_lost_work_breaks_conservation(self):
        bad = _resource(submitted=50.0, served=40.0, busy=40.0)
        violations = self.check(_group_audit(cpu=bad))
        assert "work-conservation" in _invariants(violations)

    def test_phantom_service_detected(self):
        # Served more than was ever submitted: the balance is negative
        # *and* the explicit served-vs-submitted guard fires.
        bad = _resource(submitted=50.0, served=60.0, busy=60.0)
        violations = self.check(_group_audit(cpu=bad))
        assert "work-conservation" in _invariants(violations)

    def test_busy_beyond_group_lifetime_detected(self):
        bad = _resource(at=100.0, busy=120.0, submitted=120.0,
                        served=120.0)
        violations = self.check(_group_audit(cpu=bad))
        assert "capacity" in _invariants(violations)

    def test_queued_tasks_after_stop_detected(self):
        bad = _resource(submitted=60.0, served=50.0, queued=10.0,
                        queue_length=2)
        violations = self.check(_group_audit(cpu=bad))
        assert "teardown" in _invariants(violations)

    def test_serial_cpu_busy_must_equal_served(self):
        # Conservation holds (all submitted work was served) but busy
        # time disagrees with served work — a unit-capacity resource
        # cannot do that.
        bad = _resource(busy=45.0, submitted=50.0, served=50.0)
        violations = self.check(_group_audit(cpu=bad))
        assert "busy-vs-served" in _invariants(violations)

    def test_nic_may_overdeliver_up_to_secondary_share(self):
        nic = _resource("net", busy=50.0, submitted=65.0, served=65.0)
        assert self.check(_group_audit(net=nic)) == []

    def test_nic_beyond_occupancy_cap_detected(self):
        nic = _resource("net", busy=50.0, submitted=80.0, served=80.0)
        violations = self.check(_group_audit(net=nic,
                                             net_rate_cap=1.4))
        assert "busy-vs-served" in _invariants(violations)

    def test_nic_serving_below_its_busy_time_detected(self):
        # Even the primary slot alone serves one work second per busy
        # second, so a NIC busy 50 s cannot have served only 40 s.
        nic = _resource("net", busy=50.0, submitted=40.0, served=40.0)
        violations = self.check(_group_audit(net=nic))
        assert [(v.invariant, v.where, v.message) for v in violations] == [
            ("busy-vs-served", "group g1 (net)",
             "served 40.000000s below busy 50.000000s")]

    def test_violations_render_with_context(self):
        bad = _resource(submitted=50.0, served=40.0, busy=40.0)
        violation = self.check(_group_audit(cpu=bad))[0]
        assert isinstance(violation, Violation)
        text = str(violation)
        assert "[work-conservation]" in text
        assert "g1" in text


# ------------------------------------------------- trace invariants


class TestTraceInvariants:
    def check(self, tracer, now):
        out = []
        InvariantChecker().check_trace(tracer, now, out)
        return out

    def test_sequential_lane_is_clean(self):
        clock, advance = _manual_clock()
        tracer = Tracer(clock)
        track = tracer.track("machines 0-3 · g1", "m0 cpu")
        tracer.complete(track, "COMP", 0.0, 2.0, cat="comp")
        tracer.complete(track, "COMP", 2.0, 4.0, cat="comp")
        advance(4.0)
        assert self.check(tracer, 4.0) == []

    def test_open_span_detected(self):
        tracer = Tracer(lambda: 0.0)
        tracer.begin(tracer.track("p", "t"), "work", cat="comp")
        violations = self.check(tracer, 1.0)
        assert "open-spans" in _invariants(violations)

    def test_instants_out_of_order_detected(self):
        clock, advance = _manual_clock(5.0)
        tracer = Tracer(clock)
        tracer.instant("late")
        advance(-2.0)
        tracer.instant("early")
        violations = self.check(tracer, 10.0)
        assert "instant-order" in _invariants(violations)

    def test_span_outside_run_bounds_detected(self):
        tracer = Tracer(lambda: 0.0)
        track = tracer.track("p", "t")
        tracer.complete(track, "COMP", 1.0, 9.0, cat="comp")
        violations = self.check(tracer, 4.0)  # run only lasted to t=4
        assert "span-bounds" in _invariants(violations)

    @pytest.mark.parametrize("at", [-1.0, 5.0])
    def test_instant_outside_run_bounds_detected(self, at):
        tracer = Tracer(lambda: at)
        tracer.instant("tick")
        violations = self.check(tracer, 4.0)  # the run spans [0, 4]
        assert violations == [Violation(
            "span-bounds", "instant 'tick'",
            f"time {at} outside the run [0, 4.0]")]

    def test_overlapping_spans_in_one_lane_detected(self):
        tracer = Tracer(lambda: 10.0)
        track = tracer.track("machines 0-3 · g1", "m0 cpu")
        tracer.complete(track, "COMP", 0.0, 5.0, cat="comp")
        tracer.complete(track, "COMP", 3.0, 8.0, cat="comp")
        violations = self.check(tracer, 10.0)
        assert "lane-overlap" in _invariants(violations)

    def _group_tracer(self, mode):
        """A tracer whose group-start instant joins pid -> mode."""
        tracer = Tracer(lambda: 10.0)
        tracer.instant("group-start", cat="lifecycle",
                       args={"group": "g1", "machines": "0-3",
                             "mode": mode})
        return tracer

    def test_concurrent_comp_on_coordinated_group_detected(self):
        tracer = self._group_tracer("harmony")
        # Distinct lanes (no lane-overlap), same group process: two
        # COMP subtasks in service at once violates §IV-A exclusivity.
        a = tracer.track("machines 0-3 · g1", "m0 cpu")
        b = tracer.track("machines 0-3 · g1", "m1 cpu")
        tracer.complete(a, "COMP", 0.0, 5.0, cat="comp")
        tracer.complete(b, "COMP", 1.0, 6.0, cat="comp")
        violations = self.check(tracer, 10.0)
        assert "comp-exclusive" in _invariants(violations)
        assert "lane-overlap" not in _invariants(violations)

    def test_naive_group_is_exempt_from_occupancy_limits(self):
        tracer = self._group_tracer("naive")
        a = tracer.track("machines 0-3 · g1", "m0 cpu")
        b = tracer.track("machines 0-3 · g1", "m1 cpu")
        tracer.complete(a, "COMP", 0.0, 5.0, cat="comp")
        tracer.complete(b, "COMP", 1.0, 6.0, cat="comp")
        assert self.check(tracer, 10.0) == []

    def test_primary_plus_secondary_comm_is_allowed(self):
        tracer = self._group_tracer("harmony")
        a = tracer.track("machines 0-3 · g1", "m0 net")
        b = tracer.track("machines 0-3 · g1", "m1 net")
        tracer.complete(a, "PUSH", 0.0, 5.0, cat="comm")
        tracer.complete(b, "PULL", 1.0, 6.0, cat="comm")
        assert self.check(tracer, 10.0) == []

    def test_third_concurrent_comm_subtask_detected(self):
        tracer = self._group_tracer("harmony")
        for index in range(3):
            track = tracer.track("machines 0-3 · g1",
                                 f"m{index} net")
            tracer.complete(track, "PUSH", float(index),
                            float(index) + 3.0, cat="comm")
        violations = self.check(tracer, 10.0)
        assert "comm-occupancy" in _invariants(violations)

    def test_a_zero_length_span_does_not_hide_an_overlap(self):
        # An overlap of 1.25 tolerances on two lanes, with a zero-length
        # COMP on a third lane right where it starts: the zero-length
        # span is not in service, so it must not cancel the overlap.
        tol = InvariantChecker().time_tol
        tracer = self._group_tracer("harmony")
        lanes = [tracer.track("machines 0-3 · g1", f"m{i} cpu")
                 for i in range(3)]
        tracer.complete(lanes[0], "COMP", 0.0, 5.0 + 0.75 * tol,
                        cat="comp")
        tracer.complete(lanes[1], "COMP", 5.0 - 0.5 * tol, 9.0,
                        cat="comp")
        tracer.complete(lanes[2], "COMP", 5.0, 5.0, cat="comp")
        violations = self.check(tracer, 10.0)
        assert _invariants(violations) == {"comp-exclusive"}

    def test_back_to_back_handoffs_do_not_count_as_overlap(self):
        tracer = self._group_tracer("harmony")
        a = tracer.track("machines 0-3 · g1", "m0 cpu")
        b = tracer.track("machines 0-3 · g1", "m1 cpu")
        tracer.complete(a, "COMP", 0.0, 5.0, cat="comp")
        tracer.complete(b, "COMP", 5.0, 9.0, cat="comp")
        assert self.check(tracer, 10.0) == []


# ------------------------------------------------- whole-run checks


class TestCheckedRuns:
    @pytest.fixture(scope="class")
    def runtime(self):
        specs = [replace(spec, iterations=3) for spec in
                 WorkloadGenerator(3).base_workload(
                     hyper_params_per_pair=1)[:5]]
        runtime = HarmonyRuntime(24, specs,
                                 config=SimConfig().with_tracing())
        runtime.run()
        return runtime

    def test_clean_run_has_no_violations(self, runtime):
        assert InvariantChecker().check_runtime(runtime) == []

    def test_assert_clean_passes_on_clean_run(self, runtime):
        InvariantChecker().assert_clean(runtime)

    def test_duplicated_cycle_is_caught(self, runtime):
        # A cycle recorded twice means an iteration executed twice
        # without a crash rollback justifying it.
        cycles = runtime.master.finished_cycles
        cycles.append(cycles[0])
        try:
            violations = InvariantChecker().check_runtime(runtime)
        finally:
            cycles.pop()
        assert "no-lost-iterations" in _invariants(violations)

    def test_assert_clean_raises_and_carries_violations(self, runtime):
        cycles = runtime.master.finished_cycles
        cycles.append(cycles[0])
        try:
            with pytest.raises(InvariantViolationError) as excinfo:
                InvariantChecker().assert_clean(runtime)
        finally:
            cycles.pop()
        assert excinfo.value.violations
        assert all(isinstance(v, Violation)
                   for v in excinfo.value.violations)

    def test_negative_duration_cycle_is_caught(self, runtime,
                                               monkeypatch):
        cycle = runtime.master.finished_cycles[0]
        monkeypatch.setattr(cycle, "duration", -1.0)
        found = _only_violation(runtime)
        assert (found.invariant, found.where) == \
            ("span-bounds", f"job {cycle.job_id}")
        assert found.message == "cycle with negative duration -1.0"

    @pytest.mark.parametrize("edge", ["start", "end"])
    def test_cycle_outside_the_run_is_caught(self, runtime, monkeypatch,
                                             edge):
        # Stretch one job's first cycle back to t=-1, or its last one to
        # a second past the end of the run; the other edge stays put.
        cycles = sorted(runtime.master.finished_cycles,
                        key=lambda c: c.finished_at)
        job_id = cycles[0].job_id
        mine = [c for c in cycles if c.job_id == job_id]
        if edge == "start":
            cycle = mine[0]
            monkeypatch.setattr(cycle, "duration", cycle.finished_at + 1.0)
        else:
            cycle = mine[-1]
            start = cycle.finished_at - cycle.duration
            end = runtime.sim.now + 1.0
            monkeypatch.setattr(cycle, "finished_at", end)
            monkeypatch.setattr(cycle, "duration", end - start)
        found = _only_violation(runtime)
        assert (found.invariant, found.where) == \
            ("span-bounds", f"job {job_id}")
        assert "outside the run [0, " in found.message

    def test_unpurged_crash_queue_is_caught(self, monkeypatch):
        """Regression oracle: killed processes leave in-flight subtasks
        queued; without the purge the checker flags them at teardown."""
        from repro.sim.resources import RateResource
        monkeypatch.setattr(RateResource, "purge",
                            lambda self: 0.0)
        jobs = WorkloadGenerator(3).base_workload(
            hyper_params_per_pair=1)
        runtime = HarmonyRuntime(24, jobs)
        master = runtime.master
        for spec in runtime.workload:
            master.sim.call_at(spec.submit_time,
                               lambda s=spec: master.submit(s))
        master.sim.run(until=1800.0)
        victim = next(m.machine_id for m in runtime.cluster.machines
                      if runtime.cluster.owner_of(m.machine_id))
        master.inject_machine_failure(victim)
        violations = InvariantChecker().check_runtime(runtime)
        assert "teardown" in _invariants(violations)


class TestLedgerInvariants:
    """Each cluster/membership ledger check, tripped by corrupting one
    piece of a small run stopped with three live groups."""

    @pytest.fixture(scope="class")
    def runtime(self):
        runtime = HarmonyRuntime(24, WorkloadGenerator(3).base_workload(
            hyper_params_per_pair=1)[:5])
        runtime.run(max_sim_seconds=600.0)
        assert len(runtime.master.groups) == 3
        assert InvariantChecker().check_runtime(runtime) == []
        return runtime

    def test_free_pool_count_must_match_the_owner_map(self, runtime,
                                                      monkeypatch):
        cluster = runtime.cluster
        monkeypatch.setattr(cluster, "_free", cluster._free[:-1])
        found = _only_violation(runtime)
        assert (found.invariant, found.where) == ("ledger", "cluster")
        assert "free pool reports 11 machines but 12" in found.message

    def test_group_must_own_the_machines_it_runs_on(self, runtime,
                                                    monkeypatch):
        machine = runtime.master.groups["g0"].machine_ids[0]
        monkeypatch.setitem(runtime.cluster._owner_of, machine, "ghost")
        found = _only_violation(runtime)
        assert (found.invariant, found.where) == ("ledger", "group g0")
        assert "the cluster says it owns" in found.message

    def test_member_must_agree_on_its_group(self, runtime, monkeypatch):
        job = runtime.master.groups["g0"].jobs()[0]
        monkeypatch.setattr(job, "group_id", "g1")
        found = _only_violation(runtime)
        assert (found.invariant, found.where) == \
            ("membership", f"job {job.job_id}")
        assert "member of group g0 but believes it is in 'g1'" \
            in found.message

    def test_job_must_not_be_a_member_of_two_groups(self, runtime,
                                                    monkeypatch):
        job = runtime.master.groups["g0"].jobs()[0]
        twin = copy.copy(job)
        twin.group_id = "g1"
        monkeypatch.setitem(runtime.master.groups["g1"]._jobs, job.job_id,
                            twin)
        found = _only_violation(runtime)
        assert (found.invariant, found.where) == \
            ("membership", f"job {job.job_id}")
        assert "member of both g0 and g1" in found.message


# ------------------------------------------------ scenario generator


class TestScenarioGenerator:
    def test_same_seed_reproduces_the_scenario(self):
        first = ScenarioGenerator(11).generate()
        second = ScenarioGenerator(11).generate()
        assert first.describe() == second.describe()
        assert first.specs == second.specs
        assert first.n_machines == second.n_machines
        assert (first.fault_plan is None) == (second.fault_plan is None)
        if first.fault_plan is not None:
            assert first.fault_plan.events == second.fault_plan.events

    def test_replay_command_names_the_seed(self):
        scenario = ScenarioGenerator(123).generate()
        assert scenario.replay_command.endswith("--seed 123")
        assert "python -m repro check" in scenario.replay_command

    def test_seeds_explore_the_knob_space(self):
        scenarios = [ScenarioGenerator(seed).generate()
                     for seed in range(30)]
        orders = {s.config.scheduler.admission_order for s in scenarios}
        assert len(orders) >= 2
        assert any(s.fault_plan is not None for s in scenarios)
        assert any(s.fault_plan is None for s in scenarios)
        assert any(s.config.memory.fixed_alpha is not None
                   for s in scenarios)
        assert any(s.config.memory.fixed_alpha is None
                   for s in scenarios)
        assert any(s.specs[-1].submit_time > 0 for s in scenarios)
        assert {s.config.shard.n_cells for s in scenarios} == {1, 2, 4}

    def test_cell_count_draw_leaves_other_fields_alone(self):
        """The cell count comes from its own stream: advancing that
        stream first changes nothing else a seed draws."""
        for seed in range(10):
            scenario = ScenarioGenerator(seed).generate()
            shifted = ScenarioGenerator(seed)
            shifted._streams.stream("shard").random(7)
            other = shifted.generate()
            assert other.specs == scenario.specs
            assert other.n_machines == scenario.n_machines
            assert replace(other.config, shard=scenario.config.shard) \
                == scenario.config
            assert (other.fault_plan is None) == \
                (scenario.fault_plan is None)
            assert f"cells={scenario.config.shard.n_cells}," \
                in scenario.describe()

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_every_seed_yields_a_well_formed_scenario(self, seed):
        scenario = ScenarioGenerator(seed).generate()
        assert 20 <= scenario.n_machines <= 32
        assert 3 <= len(scenario.specs) <= 8
        submit_times = [spec.submit_time for spec in scenario.specs]
        assert submit_times == sorted(submit_times)
        for spec in scenario.specs:
            assert 3 <= spec.iterations <= 8
        assert scenario.config.trace.enabled
        assert scenario.config.seed == seed


class TestFuzzedScenarios:
    @given(seed=st.integers(min_value=0, max_value=99_999))
    @settings(max_examples=25, deadline=None)
    def test_generated_scenarios_hold_all_invariants(self, seed):
        """The tentpole end-to-end property: any seeded scenario —
        faults, regroups, staggered arrivals, fixed alpha — runs the
        full simulator without violating a single run-level
        invariant."""
        checked = run_checked(ScenarioGenerator(seed).generate())
        assert checked.ok, checked.report()
        assert checked.finished_jobs > 0

    def test_sharded_scenario_with_a_job_too_large_for_any_cell(self):
        """Seed 18978 draws 4 cells on 22 machines and an MLR job whose
        memory floor (9 machines) exceeds every cell; it must still
        finish."""
        scenario = ScenarioGenerator(18978).generate()
        assert scenario.config.shard.n_cells == 4
        checked = run_checked(scenario)
        assert checked.ok, checked.report()
        assert checked.finished_jobs == len(scenario.specs)

    def test_scenarios_run_on_the_fast_engine(self, monkeypatch):
        """The ``max_sim_seconds`` ceiling keeps the fast engine, so
        the fuzzer exercises the default engine, not a fallback."""
        results = []
        run = HarmonyRuntime.run

        def recording_run(self, *args, **kwargs):
            results.append(run(self, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(HarmonyRuntime, "run", recording_run)
        scenario = ScenarioGenerator(2021).generate()
        scenario = replace(scenario,
                           config=scenario.config.with_engine("fast"))
        assert run_checked(scenario).ok
        (result,) = results
        assert result.fastpath.engaged
        assert result.fastpath.engines_deactivated == 0

    def test_a_run_error_fails_the_scenario(self, monkeypatch):
        def failing_run(self, max_sim_seconds=None):
            raise SimulationError("boom")

        monkeypatch.setattr(HarmonyRuntime, "run", failing_run)
        checked = run_checked(ScenarioGenerator(3).generate())
        assert checked.error == "SimulationError: boom"
        assert "  error: SimulationError: boom" in checked.report()

    def test_arrivals_past_the_horizon_fail_the_scenario(self,
                                                         monkeypatch):
        # Seed 9's jobs arrive at 0, 312 and 624 s.
        monkeypatch.setattr(scenarios, "MAX_SCENARIO_SECONDS", 100.0)
        checked = run_checked(ScenarioGenerator(9).generate())
        assert checked.error == "only 1 of 3 jobs were submitted"

    def test_jobs_unfinished_at_the_horizon_fail_the_scenario(
            self, monkeypatch):
        # Seed 3 submits all eight jobs at t=0.
        monkeypatch.setattr(scenarios, "MAX_SCENARIO_SECONDS", 100.0)
        checked = run_checked(ScenarioGenerator(3).generate())
        assert checked.error.startswith(
            "stuck: 8 job(s) unfinished after 100 simulated seconds: ")

    def test_failing_run_reports_the_replay_command(self):
        scenario = ScenarioGenerator(99).generate()
        checked = CheckedRun(
            scenario=scenario,
            violations=[Violation("teardown", "group g7",
                                  "2 task(s) still queued")])
        assert not checked.ok
        report = checked.report()
        assert "FAIL" in report
        assert scenario.replay_command in report


# ------------------------------------------------- differential suite


class TestDifferential:
    @pytest.fixture(scope="class")
    def report(self):
        return run_differential(n_cases=20, seed=2021)

    def test_simulator_matches_eq1_within_tolerance(self, report):
        assert len(report.perfmodel) >= 20
        assert report.perfmodel_max_error <= PERFMODEL_CASE_TOL, \
            report.summary()
        assert report.perfmodel_mean_error <= PERFMODEL_MEAN_TOL, \
            report.summary()

    def test_harmony_within_bounded_gap_of_oracle(self, report):
        assert len(report.oracle) >= 20
        assert report.oracle_max_gap <= ORACLE_CASE_GAP, \
            report.summary()
        assert report.oracle_mean_gap <= ORACLE_MEAN_GAP, \
            report.summary()

    def test_report_verdict_and_summary(self, report):
        assert report.ok
        assert report.failures() == []
        summary = report.summary()
        assert "Eq.1" in summary and "oracle" in summary

    def test_exact_metrics_mirror_the_cost_model(self):
        cost_model = CostModel()
        spec = WorkloadGenerator(3).base_workload(
            hyper_params_per_pair=1)[0]
        metrics = exact_metrics(cost_model, spec, m=8)
        profile = cost_model.profile(spec, 8)
        assert metrics.cpu_work == pytest.approx(profile.t_comp * 8)
        assert metrics.t_net == pytest.approx(
            profile.t_pull + profile.t_push)
        assert metrics.m_observed == 8

    def test_no_gap_against_a_worthless_oracle_plan(self):
        case = OracleCase(n_jobs=4, n_machines=8, harmony_score=0.5,
                          oracle_score=0.0)
        assert case.gap == 0.0

    def test_oracle_gap_is_one_sided(self):
        # Harmony beating the oracle's prefix-restricted search is not
        # an error: the gap clamps at zero.
        better = OracleCase(n_jobs=4, n_machines=8,
                            harmony_score=1.2, oracle_score=1.0)
        assert better.gap == 0.0
        worse = OracleCase(n_jobs=4, n_machines=8,
                           harmony_score=0.8, oracle_score=1.0)
        assert worse.gap == pytest.approx(0.2)

    # Each limit's report line, one case just over it, and a report
    # exactly at it.  Every gap and error below is exact in binary
    # floating point (1/5, 1/20, 3/10 and 2/25 round to the limits'
    # own literals), and the zero-error cases keep the other three
    # numbers within their limits.
    PERFECT_MODEL = tuple(PerfModelCase(job_ids=("j",), m=4, predicted=1.0,
                                        measured=1.0) for _ in range(9))
    PERFECT_ORACLE = tuple(OracleCase(n_jobs=4, n_machines=8,
                                      harmony_score=1.0, oracle_score=1.0)
                           for _ in range(9))
    JUST_OVER = 1e-9

    @staticmethod
    def model_report(predicted, measured, perfect=()):
        case = PerfModelCase(job_ids=("j",), m=4, predicted=predicted,
                             measured=measured)
        return DifferentialReport(perfmodel=(case,) + perfect, oracle=())

    @staticmethod
    def oracle_report(harmony, oracle, perfect=()):
        case = OracleCase(n_jobs=4, n_machines=8, harmony_score=harmony,
                          oracle_score=oracle)
        return DifferentialReport(perfmodel=(), oracle=(case,) + perfect)

    LIMITS = [
        ("perfmodel_max_error", PERFMODEL_CASE_TOL,
         "simulator vs Eq.1: worst case off by 20.0% (limit 20%)"),
        ("perfmodel_mean_error", PERFMODEL_MEAN_TOL,
         "simulator vs Eq.1: mean error 5.0% (limit 5%)"),
        ("oracle_max_gap", ORACLE_CASE_GAP,
         "Harmony vs oracle: worst gap 30.0% (limit 30%)"),
        ("oracle_mean_gap", ORACLE_MEAN_GAP,
         "Harmony vs oracle: mean gap 8.0% (limit 8%)"),
    ]
    LIMIT_IDS = ["eq1-case", "eq1-mean", "oracle-case", "oracle-mean"]

    @pytest.mark.parametrize("report_over, limit", zip([
        model_report(5.0, 6.0 + JUST_OVER, PERFECT_MODEL),
        model_report(20.0, 21.0 + JUST_OVER),
        oracle_report(7.0 - JUST_OVER, 10.0, PERFECT_ORACLE),
        oracle_report(23.0 - JUST_OVER, 25.0),
    ], LIMITS), ids=LIMIT_IDS)
    def test_a_report_just_over_a_limit_fails_with_its_line(
            self, report_over, limit):
        value, bound, line = limit
        assert getattr(report_over, value) > bound
        assert report_over.failures() == [line]
        assert not report_over.ok

    @pytest.mark.parametrize("at_limit, limit", zip([
        model_report(5.0, 6.0, PERFECT_MODEL),
        model_report(20.0, 21.0),
        oracle_report(7.0, 10.0, PERFECT_ORACLE),
        oracle_report(23.0, 25.0),
    ], LIMITS), ids=LIMIT_IDS)
    def test_a_report_exactly_at_a_limit_passes(self, at_limit, limit):
        value, bound, _ = limit
        assert getattr(at_limit, value) == bound
        assert at_limit.failures() == []
        assert at_limit.ok

    def test_perfmodel_case_error_is_relative(self):
        case = PerfModelCase(job_ids=("j",), m=4, predicted=10.0,
                             measured=11.0)
        assert case.rel_error == pytest.approx(0.1)
        degenerate = PerfModelCase(job_ids=("j",), m=4, predicted=0.0,
                                   measured=1.0)
        assert degenerate.rel_error == 0.0


# --------------------------------------------------------- CLI entry


class TestCheckCli:
    def test_rotating_seed_is_deterministic_and_fresh(self):
        assert _rotating_seed(417) == _rotating_seed(417)
        seen = {_rotating_seed(token) for token in range(50)}
        assert len(seen) == 50  # distinct runs explore distinct seeds
        assert seen.isdisjoint(DEFAULT_SEEDS)

    @pytest.mark.parametrize("cases", ["0", "-1"])
    def test_a_differential_without_cases_is_a_usage_error(self, capsys,
                                                           cases):
        with pytest.raises(SystemExit) as excinfo:
            check_main(["--seed", "1", "--differential",
                        f"--cases={cases}"])
        assert excinfo.value.code == 2
        assert f"--cases must be >= 1, got {cases}" \
            in capsys.readouterr().err

    def test_passing_seed_exits_zero(self, capsys):
        assert check_main(["--seed", "2021"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "seed 2021" in out

    def test_failure_exits_nonzero_with_replay_command(self, capsys,
                                                       monkeypatch):
        import repro.check.cli as cli

        def failing_run(scenario, checker):
            return CheckedRun(
                scenario=scenario,
                violations=[Violation("barrier-safety", "job j",
                                      "iterations overlap")])

        monkeypatch.setattr(cli, "run_checked", failing_run)
        assert check_main(["--seed", "5"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "replay: PYTHONPATH=src python -m repro check --seed 5" \
            in captured.out

    def test_rotating_seed_runs_after_the_listed_ones(self, monkeypatch):
        import repro.check.cli as cli

        seeds = []

        def passing_run(scenario, checker):
            seeds.append(scenario.seed)
            return CheckedRun(scenario=scenario, violations=[],
                              finished_jobs=len(scenario.specs))

        monkeypatch.setattr(cli, "run_checked", passing_run)
        assert check_main(["--seed", "3", "--rotating", "7"]) == 0
        assert seeds == [3, _rotating_seed(7)]

    def test_a_failed_differential_exits_nonzero(self, capsys,
                                                 monkeypatch):
        import repro.check.cli as cli

        class _Report:
            def summary(self):
                return "differential: stubbed"

            def failures(self):
                return ["oracle gap 0.9 > 0.3"]

        monkeypatch.setattr(cli, "run_differential",
                            lambda n_cases, seed: _Report())
        monkeypatch.setattr(cli, "run_checked", lambda scenario, checker:
                            CheckedRun(scenario=scenario, violations=[]))
        assert check_main(["--seed", "3", "--differential"]) == 1
        captured = capsys.readouterr()
        assert "FAIL oracle gap 0.9 > 0.3" in captured.out
        assert "1 failure(s)" in captured.err

    def test_differential_flag_runs_the_suites(self, capsys,
                                               monkeypatch):
        import repro.check.cli as cli

        class _Report:
            def summary(self):
                return "differential: stubbed"

            def failures(self):
                return []

        calls = {}

        def fake_differential(n_cases, seed):
            calls["n_cases"], calls["seed"] = n_cases, seed
            return _Report()

        def passing_run(scenario, checker):
            return CheckedRun(scenario=scenario, violations=[],
                              finished_jobs=len(scenario.specs))

        monkeypatch.setattr(cli, "run_differential", fake_differential)
        monkeypatch.setattr(cli, "run_checked", passing_run)
        assert check_main(["--seed", "3", "--differential",
                           "--cases", "7"]) == 0
        assert calls == {"n_cases": 7, "seed": 3}
        assert "differential: stubbed" in capsys.readouterr().out
