"""Where one pass of a benchmark workload spends its host time, by layer.

    python3 benchmarks/layer_profile.py --workload group5 [--src SRC]

Loads the benchmark's workloads (``benchmarks/perf/workloads.py``, read
only) from this checkout and the program from ``--src`` (default: this
checkout's ``src``), makes one untimed warm-up call, and runs one pass
of the workload, at the benchmark's seed, under cProfile.
:data:`LAYERS` is an explicit ``(module, qualname) -> layer`` table; an
entry covers the function it names and everything defined inside it, so
a class entry covers its methods and a more specific entry wins.  Every
profiled function of the ``repro`` package gets its self time and call
count from the entry that covers it.  Code outside the package
(builtins, the standard library, NumPy, dataclass-generated methods) has
no entry: its self time is charged to the ``repro`` functions that
called it, edge by edge, and its calls are not counted.

The table reads self time per layer, its share of the profiled pass,
and calls per layer.  cProfile inflates cheap calls more than
expensive ones, so compare shares and rows between trees, not against
an untraced pass.

Exits 1 when more than 2% of the self time is unmapped (no entry covers
it and no ``repro`` caller takes the charge; the top unmapped functions
are printed), or when a table entry does not resolve in the measured
tree.  An entry added with a new function does not resolve in a parent
tree, so profiling the parent exits 1 on that entry after printing the
table.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import os
import pstats
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Most self time that may stay unmapped, as a share of the pass.
MAX_UNMAPPED = 0.02

#: The benchmark's workload seed.
SEED = 2021

KERNEL = "kernel dispatch"
SOLO = "solo lane"
DRIVE = "drive lane"
PER_EVENT = "per-event lane"
SERVICE = "resource service (shared)"
EVENTS = "events and process"
GENERATORS = "group-runtime generators"
MEMORY = "memory"
MASTER = "master hooks"
NG_SEARCH = "alg1: n_G* search"
ASSIGN = "alg1: assignJobs"
SWAPS = "alg1: swap fine-tuning"
ALLOCATE = "alg1: allocation"
PLAN_CACHE = "alg1: plan cache"
PLANNING = "alg1: scoring and plans"
SHARD = "shard placer and rebalancer"
METRICS = "metrics"
RUNTIME = "runtime driver"

#: Layers in report order.
LAYER_ORDER = (KERNEL, SOLO, DRIVE, PER_EVENT, SERVICE, EVENTS, GENERATORS,
               MEMORY, MASTER, NG_SEARCH, ASSIGN, SWAPS, ALLOCATE,
               PLAN_CACHE, PLANNING, SHARD, METRICS, RUNTIME)

#: ``(module, qualname) -> layer``.
LAYERS: dict[tuple[str, str], str] = {
    # The event loop and its queue.
    ("repro.sim.simulator", "Simulator"): KERNEL,
    ("repro.sim.simulator", "ScheduledCall"): KERNEL,
    ("repro.sim.simulator", "FastpathStats"): KERNEL,
    # Solo lane: a whole single-job run in closed form.
    ("repro.sim.resources", "RateResource.serve_solo"): SOLO,
    ("repro.sim.resources", "RateResource.drain"): SOLO,
    ("repro.sim.fastpath", "GroupBatchEngine.open"): SOLO,
    ("repro.sim.fastpath", "GroupBatchEngine.close"): SOLO,
    ("repro.sim.fastpath", "GroupBatchEngine.await_background"): SOLO,
    # Drive lane: parked wakes served in drive windows.
    ("repro.sim.fastpath", "GroupBatchEngine"): DRIVE,
    ("repro.sim.resources", "RateResource._repark"): DRIVE,
    ("repro.sim.resources", "RateResource.set_wake_owner"): DRIVE,
    # Per-event lane: submits and queued wakes.
    ("repro.sim.resources", "RateResource.submit"): PER_EVENT,
    ("repro.sim.resources", "RateResource.cancel"): PER_EVENT,
    ("repro.sim.resources", "RateResource._on_wake"): PER_EVENT,
    ("repro.sim.resources", "RateResource._reschedule"): PER_EVENT,
    ("repro.sim.resources", "RateResource._next_horizon"): PER_EVENT,
    ("repro.sim.resources", "RateResource.current_rates"): PER_EVENT,
    # Service arithmetic every lane shares: advancing the ledger,
    # completing tasks, rate policies.
    ("repro.sim.resources", "RateResource"): SERVICE,
    ("repro.sim.resources", "ServiceRecord"): SERVICE,
    ("repro.sim.resources", "BusySegment"): SERVICE,
    ("repro.sim.resources", "ResourceAudit"): SERVICE,
    ("repro.sim.resources", "level_samples"): SERVICE,
    ("repro.sim.resources", "serial"): SERVICE,
    ("repro.sim.resources", "primary_secondary"): SERVICE,
    ("repro.sim.resources", "processor_sharing"): SERVICE,
    # Completion hand-off to the waiting generators.  A queued task is
    # its own completion event: its __init__ is the Event.__init__ of
    # the subtask.
    ("repro.sim.events", "Event"): EVENTS,
    ("repro.sim.resources", "_Task"): EVENTS,
    ("repro.sim.process", "Process"): EVENTS,
    # The PULL -> COMP -> PUSH generators and what they read per step.
    ("repro.core.group_runtime", "GroupRuntime"): GENERATORS,
    ("repro.core.group_runtime", "CycleRecord"): GENERATORS,
    ("repro.core.group_runtime", "ExecutionMode"): GENERATORS,
    ("repro.core.job", "Job"): GENERATORS,
    ("repro.sim.rand", "RandomStreams"): GENERATORS,
    ("repro.workloads.costmodel", "CostModel"): GENERATORS,
    ("repro.workloads.costmodel", "IterationProfile"): GENERATORS,
    ("repro.cluster.network", "NetworkModel"): GENERATORS,
    ("repro.cluster.disk", "DiskModel"): GENERATORS,
    ("repro.experiments.common", "run_single_group"): GENERATORS,
    ("repro.experiments.common", "_CollectingHooks"): GENERATORS,
    ("repro.workloads.apps", "JobSpec"): GENERATORS,
    # Resident bytes, GC inflation, alpha adjustment.
    ("repro.cluster.memory", "MemoryLedger"): MEMORY,
    ("repro.core.memory_manager", "GroupMemoryManager"): MEMORY,
    ("repro.core.memory_manager", "FootprintTable"): MEMORY,
    ("repro.config", "GCModel"): MEMORY,
    ("repro.config", "MachineSpec"): MEMORY,
    ("repro.workloads.costmodel", "CostModel.input_resident_bytes"): MEMORY,
    ("repro.workloads.costmodel", "CostModel.model_resident_bytes"): MEMORY,
    ("repro.workloads.costmodel", "CostModel.workspace_bytes"): MEMORY,
    ("repro.workloads.costmodel", "CostModel.resident_bytes"): MEMORY,
    ("repro.workloads.costmodel", "CostModel.reload_bytes_per_iteration"):
        MEMORY,
    # The master and what it calls per hook, Algorithm 1 aside.
    ("repro.core.master", "MasterBase"): MASTER,
    ("repro.core.master", "HarmonyMaster"): MASTER,
    ("repro.core.master", "GateCounts"): MASTER,
    ("repro.core.profiler", "Profiler"): MASTER,
    ("repro.core.regroup", "splice_plan"): MASTER,
    ("repro.core.regroup", "_relative_difference"): MASTER,
    ("repro.core.regroup", "is_similar_job"): MASTER,
    ("repro.core.regroup", "find_similar_job"): MASTER,
    ("repro.core.regroup", "find_similar_bundle"): MASTER,
    ("repro.core.regroup", "prefer_fewer_jobs"): MASTER,
    ("repro.core.regroup", "settled"): MASTER,
    ("repro.cluster.cluster", "Cluster"): MASTER,
    # Algorithm 1, sub-step by sub-step.
    ("repro.core.scheduler", "HarmonyScheduler._pick_group_count"):
        NG_SEARCH,
    ("repro.core.scheduler", "argmin_convex"): NG_SEARCH,
    ("repro.core.grouping", "assign_jobs"): ASSIGN,
    ("repro.core.grouping", "grouping_order"): ASSIGN,
    ("repro.core.grouping", "_fill_groups"): ASSIGN,
    ("repro.core.grouping", "_fill_one_job_groups"): ASSIGN,
    ("repro.core.grouping", "_fine_tune_swaps"): SWAPS,
    ("repro.core.grouping", "_best_swap"): SWAPS,
    ("repro.core.allocation", "allocate_machines"): ALLOCATE,
    ("repro.core.allocation", "_allocate_by_heap"): ALLOCATE,
    ("repro.core.scheduler", "PlanCache"): PLAN_CACHE,
    ("repro.core.scheduler", "HarmonyScheduler"): PLANNING,
    ("repro.core.scheduler", "PoolSnapshot"): PLANNING,
    ("repro.core.scheduler", "ScheduleStats"): PLANNING,
    ("repro.core.scheduler", "GroupPlan"): PLANNING,
    ("repro.core.scheduler", "SchedulePlan"): PLANNING,
    ("repro.core.scheduler", "_prefix_sizes"): PLANNING,
    ("repro.core.scheduler", "_prefix_fingerprints"): PLANNING,
    ("repro.core.profiler", "JobMetrics"): PLANNING,
    ("repro.core.perfmodel", "PerfModel"): PLANNING,
    ("repro.core.perfmodel", "GroupEstimate"): PLANNING,
    ("repro.core.perfmodel", "UtilizationVector"): PLANNING,
    # Cells, routing, moves.
    ("repro.shard.scheduler", "ShardedScheduler"): SHARD,
    ("repro.shard.rebalance", "plan_moves"): SHARD,
    ("repro.shard.rebalance", "ShardMove"): SHARD,
    ("repro.shard.placer", "GlobalPlacer"): SHARD,
    ("repro.shard.placer", "job_weight"): SHARD,
    ("repro.shard.placer", "_take"): SHARD,
    ("repro.shard.cells", "Cell"): SHARD,
    # Utilization recording and results.
    ("repro.metrics.utilization", "ClusterUsageRecorder"): METRICS,
    ("repro.metrics.utilization", "busy_fraction"): METRICS,
    ("repro.metrics.utilization", "GroupUsage"): METRICS,
    # Building a runtime and running its loop.
    ("repro.core.runtime", "RuntimeBase"): RUNTIME,
    ("repro.core.runtime", "HarmonyRuntime"): RUNTIME,
    ("repro.core.runtime", "RunResult"): RUNTIME,
    ("repro.core.runtime", "JobOutcome"): RUNTIME,
}


# -- resolving the table ---------------------------------------------------


def unresolved_entries() -> list[str]:
    """Table entries the measured tree does not define."""
    missing = []
    for module_name, qualname in LAYERS:
        try:
            owner: object = importlib.import_module(module_name)
            for part in qualname.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{qualname}")
    return missing


_COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


def _code_index() -> dict[tuple[str, int, str], tuple[str, str]]:
    """``(file, first line, name)`` of every function of every loaded
    ``repro`` module -> ``(module, qualname)``.

    Recompiles each module's source and walks the nested code objects,
    building qualnames by Python's own rule, so the keys match what
    cProfile reports for the imported code.
    """
    index = {}
    for module_name, module in list(sys.modules.items()):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        filename = getattr(module, "__file__", None)
        if not filename or not filename.endswith(".py"):
            continue
        code = compile(Path(filename).read_text(), filename, "exec")
        stack = [(code, "", False)]
        while stack:
            code, prefix, in_function = stack.pop()
            for const in code.co_consts:
                if not hasattr(const, "co_code"):
                    continue
                qualname = getattr(const, "co_qualname", None) or (
                    f"{prefix}.<locals>.{const.co_name}" if in_function
                    else f"{prefix}.{const.co_name}" if prefix
                    else const.co_name)
                # What a class body (it binds __qualname__ and takes no
                # arguments) or a comprehension defines nests without
                # "<locals>".
                is_class = (const.co_argcount == 0
                            and not const.co_flags & 0x04  # CO_VARARGS
                            and "__qualname__" in const.co_names)
                index[(filename, const.co_firstlineno, const.co_name)] = (
                    module_name, qualname)
                stack.append((const, qualname, not is_class
                              and const.co_name not in _COMPREHENSIONS))
    return index


def layer_of(module_name: str, qualname: str) -> str | None:
    """The layer of the most specific entry covering the function."""
    parts = qualname.split(".")
    for end in range(len(parts), 0, -1):
        if parts[end - 1] == "<locals>":
            continue
        layer = LAYERS.get((module_name, ".".join(parts[:end])))
        if layer is not None:
            return layer
    return None


# -- attributing a profile -------------------------------------------------


def attribute(stats: dict) -> tuple[dict, dict, float, dict]:
    """Self seconds and calls per layer, total self seconds, and the
    self seconds left unmapped per function label."""
    index = _code_index()
    home = {key: index.get(key) for key in stats}
    self_s: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    unmapped: defaultdict[str, float] = defaultdict(float)

    def charge(key, seconds: float, depth: int) -> None:
        where = home.get(key)
        layer = None if where is None else layer_of(*where)
        if layer is not None:
            self_s[layer] += seconds
            return
        callers = stats[key][4] if key in stats else {}
        if where is not None or not callers or depth > 8:
            unmapped[pstats.func_std_string(key)] += seconds
            return
        # Split by the caller edges' cumulative time.
        total = sum(edge[3] for edge in callers.values())
        for caller, edge in callers.items():
            share = edge[3] / total if total else 1.0 / len(callers)
            charge(caller, seconds * share, depth + 1)

    grand = 0.0
    for key, (_cc, n_calls, own_s, _cum_s, callers) in stats.items():
        grand += own_s
        where = home[key]
        if where is not None:
            layer = layer_of(*where)
            if layer is not None:
                calls[layer] += n_calls
            charge(key, own_s, 0)
        elif callers:
            # Outside the package: each caller edge carries its own self
            # time.
            for caller, edge in callers.items():
                charge(caller, edge[2], 1)
        else:
            unmapped[pstats.func_std_string(key)] += own_s
    return dict(self_s), dict(calls), grand, dict(unmapped)


# -- loading a workload ----------------------------------------------------


def load_workload(argv: list[str] | None, description: str):
    """Parse ``--workload`` and ``--src``, load the benchmark's workloads
    from this checkout and the program from ``--src``; ``(workload,
    src)``, or ``None`` after printing why not."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    if not (args.src / "repro").is_dir():
        print(f"error: no repro package under {args.src}", file=sys.stderr)
        return None
    # Like the benchmark, run the default engine whatever the
    # environment asks for.
    os.environ.pop("HARMONY_SIM_ENGINE", None)
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(HERE / "perf"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return None
    return workloads.WORKLOADS[args.workload], args.src


def warm_up(workload, inputs) -> list[tuple]:
    """The benchmark's untimed warm-up calls; their outcome digests."""
    digests = []
    limit = workload.warmup_calls
    for index, call in enumerate(workload.calls(inputs)):
        if limit is not None and index >= limit:
            break
        digests.append(workload.inspect(call()).digest)
    return digests


# -- profiling a pass ------------------------------------------------------


def profile_pass(workload, seed: int) -> pstats.Stats:
    """Warm up as the benchmark does, then profile one pass: its calls
    and the stream bookkeeping between them, not its preparation."""
    inputs = workload.setup(seed)
    warm_up(workload, inputs)
    profiler = cProfile.Profile()
    calls = iter(workload.calls(inputs))
    call = next(calls, None)
    profiler.enable()
    while call is not None:
        call()
        call = next(calls, None)
    profiler.disable()
    return pstats.Stats(profiler)


def render(self_s: dict, calls: dict, grand: float) -> str:
    rows = [(layer, self_s.get(layer, 0.0), calls.get(layer, 0))
            for layer in LAYER_ORDER
            if self_s.get(layer, 0.0) or calls.get(layer, 0)]
    mapped = sum(row[1] for row in rows)
    rows.append(("unmapped", grand - mapped, 0))
    lines = [f"{'layer':30s} {'self s':>9s} {'share':>7s} {'calls':>12s}"]
    lines += [f"{layer:30s} {seconds:9.3f} {seconds / grand:7.3f} "
              f"{n:12,d}" for layer, seconds, n in rows]
    lines.append(f"profiled self time {grand:.3f} s")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    loaded = load_workload(argv, __doc__.split("\n")[0])
    if loaded is None:
        return 2
    workload, _src = loaded
    stats = profile_pass(workload, SEED)
    self_s, calls, grand, unmapped = attribute(stats.stats)
    print(f"{workload.name}: seed {SEED}, one profiled pass")
    print(render(self_s, calls, grand))
    status = 0
    lost = sum(unmapped.values())
    if grand and lost / grand > MAX_UNMAPPED:
        print(f"unmapped self time {lost / grand:.1%} exceeds "
              f"{MAX_UNMAPPED:.0%}; largest:", file=sys.stderr)
        for label, seconds in sorted(unmapped.items(),
                                     key=lambda item: -item[1])[:10]:
            print(f"  {seconds:8.3f} s  {label}", file=sys.stderr)
        status = 1
    missing = unresolved_entries()
    if missing:
        print("table entries that do not resolve: " + ", ".join(missing),
              file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
