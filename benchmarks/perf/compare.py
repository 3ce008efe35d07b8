"""Compare two source trees on the benchmark, pair by pair.

    python3 benchmarks/perf/compare.py run --parent-src PARENT/src \\
        --change-src src --out DIR [--pairs 10] [--seed 2021] [--seconds 10]
    python3 benchmarks/perf/compare.py report DIR

``run`` measures both trees with this checkout's benchmark code, so both
sides run identical benchmark code and settings.  Pair ``i`` runs each
workload on both sides back to back, the parent first on even pairs and
the change first on odd ones; results land in ``DIR/<side>/<i>/``.

``report`` prints one row per workload and end-to-end metric: each
side's median and quartiles, the change/parent ratio with its base, the
pairs the change won, and a verdict:

* ``gain``: there are at least ten pairs, the change wins at least nine
  tenths of them (ties count for neither) and the medians differ by more
  than the parent's interquartile range;
* ``unresolved``: either side's spread (IQR / median) is wider than the
  metric's bound, unless every change run beats every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound in ``BENCHMARK.json``;
* ``ok``: none of the above.

It exits 1 when any metric is regressed or unresolved, a check failed,
or the simulated or planned outcomes differ between runs, within a side
or between the parent and the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SIDES = ("parent", "change")
#: Fewer pairs than this never show a gain: five wins in five pairs
#: happen between identical trees one time in 32.
MIN_PAIRS_FOR_GAIN = 10


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def compare_metric(parent: list[float], change: list[float], better: str,
                   bound: float) -> dict:
    """Verdict, wins and quartiles for one metric on one workload; the
    runs pair up by index."""
    lower = better == "lower"

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    p_first, p_median, p_third = spread(parent)
    c_first, c_median, c_third = spread(change)
    wins = sum(beats(c, p) for p, c in zip(parent, change, strict=True))
    widest = max((p_third - p_first) / abs(p_median),
                 (c_third - c_first) / abs(c_median))
    worse_by = (c_median - p_median) / abs(p_median) * (1 if lower else -1)
    if (len(parent) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(parent)
            and beats(c_median, p_median)
            and abs(c_median - p_median) > p_third - p_first):
        verdict = "gain"
    elif widest > bound and not all(beats(c, p)
                                    for c in change for p in parent):
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {"verdict": verdict, "wins": wins,
            "parent": (p_first, p_median, p_third),
            "change": (c_first, c_median, c_third)}


def _side_results(directory: Path, workload: str) -> dict[int, dict]:
    runs = {}
    for path in directory.glob(f"*/{workload}.json"):
        runs[int(path.parent.name)] = json.loads(path.read_text())
    return runs


def outcome_problems(parent: dict[int, dict], change: dict[int, dict],
                     pairs: list[int]) -> list[str]:
    """Failed checks, and simulated or planned outcomes that are not the
    same in every run of both sides."""
    problems = []
    outcomes = {}
    for side, runs in (("parent", parent), ("change", change)):
        if not all(runs[i]["correct"] for i in pairs):
            problems.append(f"a {side} run failed its checks")
        outcomes[side] = {json.dumps(runs[i]["outcomes"], sort_keys=True)
                          for i in pairs}
        if len(outcomes[side]) > 1:
            problems.append(f"{side} outcomes differ between runs")
    if outcomes["parent"] != outcomes["change"]:
        problems.append("the change's outcomes differ from the parent's")
    return problems


def report(directory: Path) -> int:
    benchmark = load_benchmark()
    failing = 0
    print(f"{'workload':8} {'metric':18} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32}  ratio (base)  wins  verdict")
    for workload in benchmark["workloads"]:
        name = workload["name"]
        parent = _side_results(directory / "parent", name)
        change = _side_results(directory / "change", name)
        pairs = sorted(set(parent) & set(change))
        if not pairs:
            continue
        for problem in outcome_problems(parent, change, pairs):
            print(f"{name}: {problem}")
            failing += 1
        for metric in benchmark["end_to_end"]:
            key, unit = metric["name"], metric["unit"]
            result = compare_metric(
                [parent[i]["metrics"][key]["value"] for i in pairs],
                [change[i]["metrics"][key]["value"] for i in pairs],
                metric["better"], metric["bound"])
            failing += result["verdict"] in ("regressed", "unresolved")
            p_median, c_median = result["parent"][1], result["change"][1]
            print(f"{name:8} {key:18} {_cell(result['parent'], unit):>32} "
                  f"{_cell(result['change'], unit):>32}  "
                  f"{c_median / p_median:.3f} (base: parent median "
                  f"{p_median:.4g} {unit})  {result['wins']}/{len(pairs)}  "
                  f"{result['verdict']}")
    return 1 if failing else 0


def _cell(quartiles: tuple[float, float, float], unit: str) -> str:
    first, median, third = quartiles
    return f"{median:.4g} [{first:.4g}, {third:.4g}] {unit}"


def run(args) -> int:
    names = args.workload or [w["name"] for w in load_benchmark()["workloads"]]
    sources = {"parent": args.parent_src, "change": args.change_src}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else tuple(reversed(SIDES))
        for name in names:
            for side in order:
                command = [sys.executable, str(HERE / "run.py"),
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--src", str(sources[side]),
                           "--out", str(args.out / side / str(pair))]
                completed = subprocess.run(command, capture_output=True,
                                           text=True, check=False)
                status = "ok" if completed.returncode == 0 else \
                    f"exit {completed.returncode}"
                print(f"pair {pair} {name} {side}: {status}", flush=True)
    return report(args.out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="measure both trees")
    run_parser.add_argument("--parent-src", type=Path, required=True)
    run_parser.add_argument("--change-src", type=Path, required=True)
    run_parser.add_argument("--out", type=Path, required=True)
    run_parser.add_argument("--pairs", type=int, default=10)
    run_parser.add_argument("--seed", type=int, default=2021)
    run_parser.add_argument("--seconds", type=float,
                            default=load_benchmark()["run_seconds"])
    run_parser.add_argument("--workload", action="append")
    report_parser = commands.add_parser("report", help="analyse saved runs")
    report_parser.add_argument("directory", type=Path)
    args = parser.parse_args(argv)
    if args.command == "report":
        return report(args.directory)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
