"""Host-clock benchmark of the Harmony reproduction: five closed-loop
workloads, end-to-end metrics, and a traced run for per-layer metrics.

Run from the repository root::

    python3 benchmarks/perf/run.py                   # all five workloads
    python3 benchmarks/perf/run.py --workload churn --seed 2021 --seconds 10
    python3 benchmarks/perf/run.py --workload fig10 --trace 1

With ``--workload`` the workload runs in this process: set-up, an
untimed warm-up, then timed passes until ``--seconds`` have elapsed (at
least one), each output checked.  Without it, each workload runs
in its own fresh subprocess, one after another.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics).  The exit code is 0 only when every check
passed.  README.md defines the workloads and metrics.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed

#: setup_s counts from here: the program's imports, input generation and
#: construction, before the warm-up call.
_STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOAD_NAMES = ("fig10", "group5", "solo", "churn", "sharded")
#: Set-ups per run, for the median ``setup_s``: this process plus fresh
#: processes that only set up.
SETUPS = 5
CHILD_TIMEOUT_S = 600


@dataclass
class PassResult:
    """One timed pass: its wall time, per-call latencies and outcomes."""

    busy_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: Speed-kernel seconds around each call (see ``speed.py``).
    kernel_s: list[float] = field(default_factory=list)
    units: int = 0
    attempted: int = 0
    failed: int = 0
    digests: list[tuple] = field(default_factory=list)
    values: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def run_pass(workload, inputs, limit: int | None = None,
             recorder=None) -> PassResult:
    """Make one pass of calls (or its first ``limit`` calls), timing each
    call and the pass as a whole; with a span ``recorder``, trace it.

    The pass's time covers the calls and the stream bookkeeping between
    them.  It leaves out the output checks, the speed samples, the pass's
    preparation (the workload's code before its first call) and the
    collection of garbage left by earlier passes.
    """
    import spans

    gc.collect()
    result = PassResult()
    probe = speed.SpeedProbe()
    calls = iter(workload.calls(inputs))
    undo = []
    try:
        call = next(calls, None)
        if recorder is not None:
            undo = spans.install(recorder)
        while call is not None and (limit is None
                                    or len(result.latencies_s) < limit):
            probe.before_call()
            called = time.perf_counter()
            raw = call()
            finished = time.perf_counter()
            probe.after_call()
            result.latencies_s.append(finished - called)
            outcome = workload.inspect(raw)
            result.units += outcome.units
            result.attempted += outcome.attempted
            result.failed += outcome.failed
            result.digests.append(outcome.digest)
            result.values.append(outcome.values)
            result.problems.extend(outcome.problems)
            resumed = time.perf_counter()
            call = next(calls, None)
            result.busy_s += finished - called + time.perf_counter() - resumed
    except Exception:  # a failing call is counted and reported
        result.failed += 1
        result.attempted += 1
        result.problems.append(traceback.format_exc())
    finally:
        spans.uninstall(undo)
    probe.sample()
    result.kernel_s = probe.kernel_s
    return result


def measure(workload, inputs, seconds: float, trace: bool) -> dict:
    """Warm up, then alternate untraced and (with ``trace``) traced
    passes until ``seconds`` have elapsed, checking the time after each
    pair, and cross-check the outcomes."""
    import spans

    warm = run_pass(workload, inputs, limit=workload.warmup_calls)
    problems = [f"warm-up: {problem}" for problem in warm.problems]
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    recorder = spans.SpanRecorder() if trace else None
    events = []
    started = time.perf_counter()
    while True:
        untraced.append(run_pass(workload, inputs))
        if recorder is not None:
            recorder.events = [] if not traced else None
            traced.append(run_pass(workload, inputs, recorder=recorder))
            events = events or recorder.events
        if time.perf_counter() - started >= seconds:
            break
    reference = untraced[0].digests
    if warm.digests != reference[:len(warm.digests)]:
        problems.append("warm-up outcomes differ from untraced pass 0")
    problems.extend(workload.cross_check(inputs, reference))
    for label, passes in (("untraced", untraced), ("traced", traced)):
        for index, result in enumerate(passes):
            problems.extend(result.problems)
            if result.digests != reference:
                problems.append(f"{label} pass {index} outcomes differ from "
                                "untraced pass 0")
    return {"untraced": untraced, "traced": traced, "recorder": recorder,
            "events": events, "problems": problems}


def reference_latencies(passes: list[PassResult]) -> list[float]:
    """Each call's time at the reference speed, its median across passes,
    in pass order."""
    n_calls = min(len(result.latencies_s) for result in passes)
    return [statistics.median(
        speed.at_reference_speed(result.latencies_s[index],
                                 result.kernel_s[index])
        for result in passes) for index in range(n_calls)]


def _p90_ms(samples: list[float]) -> float:
    if len(samples) == 1:
        return 1000.0 * samples[0]
    return 1000.0 * statistics.quantiles(samples, n=10, method="inclusive")[-1]


def end_to_end(untraced: list[PassResult], setup_s: float) -> dict:
    """End-to-end metrics of the untraced passes (zeros if a pass made no
    call at all, which only a failed run does)."""
    latencies = reference_latencies(untraced) or [0.0]
    call_s = sum(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (untraced[0].units / call_s if call_s else 0.0,
                             "1/s"),
        "call_p90_ms": (_p90_ms(latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(run: dict, generate_s: float) -> dict:
    import spans

    traced = run["traced"]
    traced_wall = sum(result.busy_s for result in traced)
    layers = spans.layer_metrics(run["recorder"], len(traced), traced_wall)
    layers["trace.overhead_frac"] = (
        sum(reference_latencies(traced))
        / sum(reference_latencies(run["untraced"])) - 1.0)
    layers["workloads.generate_s"] = generate_s
    units = {"workloads.generate_s": "s"}
    for name in layers:
        if name not in units:
            units[name] = ("fraction" if name.endswith("_frac")
                           else "ratio" if name.endswith(("_ratio",
                                                          "_per_call",
                                                          "_per_window"))
                           else "count")
    return {name: (value, units[name]) for name, value in layers.items()}


def _setup_children(args) -> list[float]:
    """Set-up times of fresh processes that only set up."""
    samples = []
    for _ in range(SETUPS - 1):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--src", str(args.src), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True, env=_child_env())
        samples.append(json.loads(completed.stdout.splitlines()[-1])
                       ["setup_s"])
    return samples


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("HARMONY_SIM_ENGINE", None)
    return env


def run_workload(args) -> int:
    """Run one workload in this process and print its result line."""
    if not (args.src / "repro").is_dir():
        print(f"error: no repro package under {args.src}", file=sys.stderr)
        return 2
    os.environ.pop("HARMONY_SIM_ENGINE", None)
    sys.path.insert(0, str(args.src))
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    generate_started = time.perf_counter()
    inputs = workload.setup(args.seed)
    generated = time.perf_counter()
    setup_s = speed.at_reference_speed(generated - _STARTED,
                                       speed.current_kernel_seconds())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = measure(workload, inputs, args.seconds, bool(args.trace))
    setup_samples = [setup_s] + _setup_children(args)
    untraced = run["untraced"]
    all_passes = untraced + run["traced"]
    attempted = sum(result.attempted for result in all_passes)
    failed = sum(result.failed for result in all_passes)
    correct = not run["problems"] and failed == 0
    if args.trace:
        metrics = per_layer(run, generated - generate_started)
    else:
        metrics = end_to_end(untraced, statistics.median(setup_samples))

    first = untraced[0].values
    outcomes = {key: statistics.fmean(values[key] for values in first
                                      if key in values)
                for key in sorted({key for values in first for key in values})}
    calls = sum(len(result.latencies_s) for result in untraced)
    print(f"{args.workload}: seed {args.seed}, {len(untraced)} untraced "
          f"pass(es), {calls} calls, unit = {workload.unit}"
          + (f", {len(run['traced'])} traced pass(es)" if args.trace else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in outcomes.items():
        print(f"  outcome {name} = {value:.10g}")
    for problem in run["problems"]:
        print(f"  CHECK FAILED: {problem.rstrip()}")
    print(f"  checks: {'ok' if correct else 'FAILED'}, "
          f"{failed} of {attempted} failed")

    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
    args.out.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    record = dict(line, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, passes=len(untraced), calls=calls,
                  unit=workload.unit, setup_samples_s=setup_samples,
                  outcomes=outcomes, problems=run["problems"])
    (args.out / f"{args.workload}{suffix}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    if run["events"]:
        import spans

        spans.write_chrome_trace(run["events"],
                                 args.out / f"{args.workload}-spans.json")
    print(json.dumps(line))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own fresh subprocess, one by one."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--src", str(args.src), "--out", str(args.out)]
        completed = subprocess.run(command, capture_output=True, text=True,
                                   timeout=CHILD_TIMEOUT_S, env=_child_env())
        sys.stdout.write("".join(completed.stdout.splitlines(True)[:-1]))
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0,
                             "metrics": {}}
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "workloads": results}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())
                        ["run_seconds"],
                        help="measure passes until this many seconds passed "
                             "(0: one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--out", type=Path, default=HERE / "runs",
                        help="directory for result JSON and Chrome traces")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to measure (compare.py points it "
                             "at the parent's tree)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.src = args.src.resolve()
    args.out = args.out.resolve()
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
