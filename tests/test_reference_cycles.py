"""A finished run is freed by reference counting.

Ownership in a simulated run points one way: the runtime owns its
simulator, master and groups, a master its scheduler and profiler, a
group its resources and fast-path engine.  A back-reference that owned
its owner (an engine naming its group, a scheduler holding a bound
method of the master, a tracer clock closing over the simulator, a
killed process's exception holding the frame that caught it) would make
each finished run's object graph cyclic, and the sweep would keep
every dead run until the cyclic collector got to it.

Each case below runs with the collector off, drops everything it built,
and then asks the collector what it can still find: it must find
nothing.  On failure the message names the types in each cycle.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import replace

import pytest

from repro.config import ShardConfig, SimConfig
from repro.core.group_runtime import ExecutionMode
from repro.core.runtime import HarmonyRuntime
from repro.core.scheduler import HarmonyScheduler
from repro.experiments import common, scalability
from repro.faults.plan import FaultKind, FaultPlan
from repro.policies import registry
from repro.shard.scheduler import ShardedScheduler
from repro.workloads.generator import WorkloadGenerator

SEED = 2021
JOBS, MACHINES = common.scaled_workload(0.1, SEED)


def cycles_in(objects: list) -> list[list[object]]:
    """The strongly connected components of ``objects`` that are
    cycles (more than one object, or one that refers to itself)."""
    index = {id(obj): position for position, obj in enumerate(objects)}
    edges = [[index[id(ref)] for ref in gc.get_referents(obj)
              if id(ref) in index] for obj in objects]
    order, low, on_stack, stack, found = {}, {}, set(), [], []
    for root in range(len(objects)):
        if root in order:
            continue
        work = [(root, 0)]
        while work:
            node, child = work.pop()
            if child == 0:
                order[node] = low[node] = len(order)
                stack.append(node)
                on_stack.add(node)
            if child < len(edges[node]):
                work.append((node, child + 1))
                target = edges[node][child]
                if target not in order:
                    work.append((target, 0))
                elif target in on_stack:
                    low[node] = min(low[node], order[target])
                continue
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == order[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in edges[node]:
                    found.append([objects[member] for member in component])
    return found


def collector_finds(case) -> tuple[int, list[Counter]]:
    """Run ``case()`` with the collector off; the number of objects the
    collector then finds, and the type counts of each cycle among them."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        case()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        cycles = [Counter(type(obj).__name__ for obj in component)
                  for component in cycles_in(gc.garbage)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return found, cycles


def assert_freed(case) -> None:
    found, cycles = collector_finds(case)
    described = "\n".join(
        f"  cycle of {sum(types.values())}: "
        + ", ".join(f"{name} x{count}" for name, count
                    in sorted(types.items()))
        for types in cycles[:5])
    assert found == 0, (f"the collector found {found} objects in "
                        f"{len(cycles)} cycles:\n{described}")


def run_harmony(config: SimConfig = SimConfig(seed=SEED), **kwargs):
    def case():
        HarmonyRuntime(MACHINES, JOBS, config=config, **kwargs).run()
    return case


class TestRuntimes:
    @pytest.mark.parametrize("name", [name for name, _
                                      in registry.available()])
    def test_every_policy(self, name):
        assert_freed(lambda: registry.build_runtime(
            name, MACHINES, JOBS, SimConfig(seed=SEED)).run())

    def test_reference_engine(self):
        assert_freed(run_harmony(SimConfig(seed=SEED)
                                 .with_engine("reference")))

    def test_tracing(self):
        assert_freed(run_harmony(SimConfig(seed=SEED).with_tracing()))

    def test_sharding(self):
        assert_freed(run_harmony(SimConfig(seed=SEED).with_sharding(2)))

    def test_faults(self):
        plan = FaultPlan.generate(
            seed=SEED, n_machines=MACHINES, horizon_seconds=40000.0,
            crash_rate_per_hour=0.5, slowdown_rate_per_hour=0.5,
            drop_rate_per_hour=0.5, crash_downtime_seconds=600.0)
        kinds = {event.kind for event in plan}
        assert kinds == set(FaultKind)
        killed = []

        def case():
            runtime = HarmonyRuntime(MACHINES, JOBS,
                                     config=SimConfig(seed=SEED),
                                     fault_plan=plan)
            runtime.run()
            killed.extend(job_id for record in runtime.fault_log.records
                          for job_id in record.job_ids
                          if record.kind == FaultKind.MACHINE_CRASH.value)
        assert_freed(case)
        assert killed, "no crash hit a running group"


class TestSingleGroup:
    @pytest.mark.parametrize("mode, n_jobs, config", [
        (ExecutionMode.HARMONY, 5, SimConfig(seed=SEED)),
        (ExecutionMode.HARMONY, 5, SimConfig(seed=SEED).with_tracing()),
        (ExecutionMode.ISOLATED, 1, SimConfig(seed=SEED))],
        ids=["harmony", "harmony-traced", "isolated"])
    def test_run_single_group(self, mode, n_jobs, config):
        pool = WorkloadGenerator(SEED).base_workload(hyper_params_per_pair=1)
        specs = [replace(pool[index], job_id=f"j{index}", iterations=20,
                         submit_time=0.0) for index in range(n_jobs)]
        assert_freed(lambda: common.run_single_group(
            specs, 20, mode=mode, config=config))


class TestSchedulers:
    METRICS = scalability._metrics_for(200, SEED)

    def test_harmony_scheduler(self):
        assert_freed(lambda: HarmonyScheduler().schedule(self.METRICS, 240))

    def test_sharded_scheduler(self):
        assert_freed(lambda: ShardedScheduler(
            shard=ShardConfig(n_cells=2)).schedule(self.METRICS, 240))


class TestCycleReport:
    def test_a_cycle_is_found_and_named(self):
        class Node:
            pass

        def case():
            first, second = Node(), Node()
            first.other, second.other = second, first

        found, cycles = collector_finds(case)
        assert found > 0
        assert any(types["Node"] == 2 for types in cycles)
        with pytest.raises(AssertionError, match=r"Node x2"):
            assert_freed(case)
