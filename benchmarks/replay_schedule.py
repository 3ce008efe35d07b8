"""Replay Algorithm 1's ``schedule()`` calls from a fig10 run, to time
the scheduler alone, parent tree against change tree.

    python3 benchmarks/replay_schedule.py capture --src SRC --out CAPTURE
    python3 benchmarks/replay_schedule.py run --capture CAPTURE \\
        --parent-src A --change-src B [--pairs 10] [--steps]

``capture`` runs fig10 (80 jobs on 100 machines, seed 2021 by default;
``--instances N`` adds the benchmark's further instance seeds) with the
tree under ``--src`` and records, in call order, every ``schedule()``
call's job pool, machine budget, the memory floor of every group it
asked about, and the plan it returned, plus every plan-cache
invalidation between calls.

``run`` starts one persistent worker per tree.  Each worker replays the
whole capture on a fresh ``HarmonyScheduler`` (default
``SchedulerConfig``, floors served from the capture), timing only the
``schedule()`` calls.  A pair is one timed replay per tree, in
alternating order.  It prints each tree's median, the median of the
per-pair change/parent ratios and the pairs the change won.  With
``--steps`` three more replays per tree wrap the Algorithm 1 sub-steps
each tree has and print the median inclusive time of each per planned
prefix (wrapper overhead included).  It exits 1 if any replayed plan differs
from the captured plan or between the trees.

A replay removes the simulator and the master from the measurement, so
a few-percent change in scheduler cost that an end-to-end pass cannot
resolve on a busy host shows up in ten pairs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Sub-steps timed by ``--steps``, as (label, module, attribute path);
#: each tree times the ones it has.
STEPS = (
    ("n_G* search", "repro.core.scheduler",
     "HarmonyScheduler._pick_group_count"),
    ("assign_jobs", "repro.core.scheduler", "assign_jobs"),
    ("  grouping order", "repro.core.grouping", "grouping_order"),
    # Trees whose scheduler sorted each prefix before assign_jobs.
    ("  grouping order", "repro.core.scheduler", "grouping_order"),
    ("  greedy fill", "repro.core.grouping", "_fill_groups"),
    ("  swap fine-tuning", "repro.core.grouping", "_fine_tune_swaps"),
    ("allocate_machines", "repro.core.scheduler", "allocate_machines"),
    ("prefix scoring", "repro.core.scheduler", "HarmonyScheduler.plan_score"),
    ("prefix scoring", "repro.core.scheduler", "PoolSnapshot.score"),
    ("build_plan", "repro.core.scheduler", "HarmonyScheduler.build_plan"),
)

#: Wrapped replays per tree behind the ``--steps`` table.
STEP_REPLAYS = 3


def _digest(plan) -> list | None:
    if plan is None:
        return None
    return [[[list(group.job_ids), group.n_machines]
             for group in plan.groups], plan.score.hex()]


# -- capture --------------------------------------------------------------


def capture(args) -> int:
    sys.path.insert(0, str(args.src.resolve()))
    from repro.config import SimConfig
    from repro.core.runtime import HarmonyRuntime
    from repro.core.scheduler import HarmonyScheduler, PlanCache
    from repro.experiments import common

    events: list = []
    streams: dict[int, int] = {}

    def stream_of(cache) -> int:
        return streams.setdefault(id(cache), len(streams))

    original_schedule = HarmonyScheduler.schedule
    original_invalidate = PlanCache.invalidate_job

    def schedule(self, jobs, total_machines):
        floors: dict[tuple, int] = {}
        memory_floor = self.memory_floor
        if memory_floor is not None:
            def recording_floor(job_ids):
                floor = floors[tuple(job_ids)] = memory_floor(job_ids)
                return floor
            self.memory_floor = recording_floor
        try:
            plan = original_schedule(self, jobs, total_machines)
        finally:
            self.memory_floor = memory_floor
        events.append({
            "kind": "schedule", "stream": stream_of(self.plan_cache),
            "jobs": [[job.job_id, job.cpu_work, job.t_net,
                      job.m_observed, job.samples] for job in jobs],
            "machines": total_machines,
            "floors": None if memory_floor is None else
            [[list(key), value] for key, value in floors.items()],
            "plan": _digest(plan)})
        return plan

    def invalidate_job(self, job_id):
        events.append({"kind": "invalidate", "stream": stream_of(self),
                       "job": job_id})
        return original_invalidate(self, job_id)

    HarmonyScheduler.schedule = schedule
    PlanCache.invalidate_job = invalidate_job
    try:
        for index in range(args.instances):
            seed = args.seed + 10_000 * index
            jobs, machines = common.scaled_workload(args.scale, seed)
            HarmonyRuntime(machines, jobs, config=SimConfig(seed=seed)).run()
    finally:
        HarmonyScheduler.schedule = original_schedule
        PlanCache.invalidate_job = original_invalidate
    args.out.write_text(json.dumps({"events": events}))
    calls = sum(event["kind"] == "schedule" for event in events)
    print(f"captured {calls} schedule() calls and "
          f"{len(events) - calls} invalidations to {args.out}")
    return 0


# -- worker (runs inside one tree) ----------------------------------------


class _Replay:
    """A capture turned into calls on one tree's scheduler."""

    def __init__(self, path: Path):
        from repro.core.profiler import JobMetrics

        interned: dict[tuple, object] = {}
        self.events = []
        for event in json.loads(path.read_text())["events"]:
            if event["kind"] == "schedule":
                # One object per distinct metrics value, as the profiler
                # hands out: the plan cache compares them on every hit.
                event["jobs"] = [
                    interned.setdefault(tuple(fields), JobMetrics(*fields))
                    for fields in event["jobs"]]
                if event["floors"] is not None:
                    event["floors"] = {tuple(key): value
                                       for key, value in event["floors"]}
            self.events.append(event)

    def replay(self) -> dict:
        from repro.core.scheduler import HarmonyScheduler

        schedulers: dict[int, HarmonyScheduler] = {}
        floors: dict = {}

        def floor_of(job_ids):
            return floors[tuple(job_ids)]

        elapsed = 0.0
        calls = misses = mismatches = 0
        digests = []
        for event in self.events:
            stream = event["stream"]
            scheduler = schedulers.get(stream)
            if scheduler is None:
                scheduler = schedulers[stream] = HarmonyScheduler()
            if event["kind"] == "invalidate":
                scheduler.plan_cache.invalidate_job(event["job"])
                continue
            floors = event["floors"]
            scheduler.memory_floor = None if floors is None else floor_of
            started = time.perf_counter()
            plan = scheduler.schedule(event["jobs"], event["machines"])
            elapsed += time.perf_counter() - started
            calls += 1
            misses += scheduler.last_stats.cache_misses
            digest = _digest(plan)
            mismatches += digest != event["plan"]
            digests.append(digest)
        return {"seconds": elapsed, "calls": calls, "planned": misses,
                "mismatches": mismatches,
                "digest": hashlib.sha256(
                    json.dumps(digests).encode()).hexdigest()}

    def replay_steps(self) -> dict:
        """One replay with every sub-step this tree has wrapped."""
        totals: dict[str, float] = {}
        restore = []
        for label, module_name, path in STEPS:
            owner = importlib.import_module(module_name)
            *parents, name = path.split(".")
            try:
                for parent in parents:
                    owner = getattr(owner, parent)
                original = getattr(owner, name)
            except AttributeError:
                continue
            totals.setdefault(label, 0.0)
            setattr(owner, name, _timed(original, label, totals))
            restore.append((owner, name, original))
        try:
            result = self.replay()
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)
        result["steps"] = totals
        return result


def _timed(function, label: str, totals: dict):
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            totals[label] += time.perf_counter() - started
    return wrapper


def worker(args) -> int:
    replay = _Replay(args.capture)
    # The capture is the bulk of the heap and lives as long as the
    # worker: keep the cyclic collector from re-walking it mid-replay.
    gc.collect()
    gc.freeze()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "quit":
            break
        gc.collect()
        result = replay.replay_steps() if command == "steps" \
            else replay.replay()
        print(json.dumps(result), flush=True)
    return 0


# -- run: two trees, alternating pairs --------------------------------------


class _Worker:
    def __init__(self, src: Path, capture_path: Path):
        env = dict(os.environ, PYTHONPATH=str(src.resolve()))
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "worker",
             "--capture", str(capture_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env)
        self._read()

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("replay worker exited")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.write("quit\n")
            self.process.stdin.close()
            self.process.wait()


def run(args) -> int:
    sides = {"parent": _Worker(args.parent_src, args.capture),
             "change": _Worker(args.change_src, args.capture)}
    try:
        return _measure(sides, args)
    finally:
        for side in sides.values():
            side.close()


def _measure(sides: dict, args) -> int:
    problems = []
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for name, side in sides.items():
        side.ask("replay")  # warm-up, untimed
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 \
            else ("change", "parent")
        for name in order:
            results[name].append(sides[name].ask("replay"))
    for name, runs in results.items():
        if any(result["mismatches"] for result in runs):
            problems.append(f"{name}: {runs[0]['mismatches']} of "
                            f"{runs[0]['calls']} plans differ from the "
                            "capture")
    if results["parent"][0]["digest"] != results["change"][0]["digest"]:
        problems.append("the two trees planned differently")

    first = results["parent"][0]
    print(f"{first['calls']} schedule() calls, {first['planned']} planned "
          f"prefixes per replay; {args.pairs} pairs")
    medians = {}
    for name, runs in results.items():
        seconds = [result["seconds"] for result in runs]
        medians[name] = statistics.median(seconds)
        print(f"{name:>6}: median {medians[name] * 1e3:8.1f} ms per replay, "
              f"{medians[name] / first['calls'] * 1e6:7.1f} us per call, "
              f"{medians[name] / first['planned'] * 1e6:6.1f} us per "
              "planned prefix")
    ratios = [change["seconds"] / parent["seconds"] for parent, change
              in zip(results["parent"], results["change"], strict=True)]
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(f"change/parent: median ratio x{statistics.median(ratios):.3f}, "
          f"change faster in {wins}/{len(ratios)} pairs")

    if args.steps:
        _print_steps(sides, first["planned"])
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _print_steps(sides: dict, planned: int) -> None:
    """Median over :data:`STEP_REPLAYS` wrapped replays per tree, in
    alternating order, of each sub-step's time per planned prefix."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for index in range(STEP_REPLAYS):
        order = ("parent", "change") if index % 2 == 0 \
            else ("change", "parent")
        for name in order:
            runs[name].append(sides[name].ask("steps"))

    def cell(name: str, label: str | None) -> str:
        values = [result["seconds"] if label is None
                  else result["steps"].get(label) for result in runs[name]]
        if values[0] is None:
            return "-"
        return f"{statistics.median(values) / planned * 1e6:.1f}"

    print(f"\n{'sub-step (us per planned prefix)':<34}"
          f"{'parent':>9}{'change':>9}")
    for label in dict.fromkeys(label for label, _, _ in STEPS):
        print(f"{label:<34}{cell('parent', label):>9}"
              f"{cell('change', label):>9}")
    print(f"{'schedule() total':<34}{cell('parent', None):>9}"
          f"{cell('change', None):>9}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    capture_parser = commands.add_parser("capture",
                                         help="record fig10's calls")
    capture_parser.add_argument("--src", type=Path, required=True)
    capture_parser.add_argument("--out", type=Path, required=True)
    capture_parser.add_argument("--seed", type=int, default=2021)
    capture_parser.add_argument("--instances", type=int, default=1)
    capture_parser.add_argument("--scale", type=float, default=1.0)
    run_parser = commands.add_parser("run", help="time both trees")
    run_parser.add_argument("--capture", type=Path, required=True)
    run_parser.add_argument("--parent-src", type=Path, required=True)
    run_parser.add_argument("--change-src", type=Path, required=True)
    run_parser.add_argument("--pairs", type=int, default=10)
    run_parser.add_argument("--steps", action="store_true")
    worker_parser = commands.add_parser("worker")
    worker_parser.add_argument("--capture", type=Path, required=True)
    args = parser.parse_args(argv)
    return {"capture": capture, "run": run, "worker": worker}[
        args.command](args)


if __name__ == "__main__":
    sys.exit(main())
