"""CI regression guard: benchmark timings vs a committed baseline.

Reads a pytest-benchmark JSON and fails — exit code 1 — when any
timing named in the baseline file exceeds its committed budget by more
than the file's ``max_ratio``, naming each breaching benchmark with its
measured-vs-limit numbers.  Timings are addressed as
``<benchmark-name>.mean`` (the harness's measured mean seconds) or
``<benchmark-name>.extra_info.<key>`` (a value the benchmark recorded
via ``benchmark.extra_info``).

The baselines are intentionally generous (CI-runner-scale numbers):
the guard exists to catch real regressions — a fast path decaying back
toward recompute-everything cost — not to police machine noise.  It
only enforces upper bounds, so a speedup floor is committed as its
reciprocal (``baseline_scale.json``'s ``inverse_speedup``).

Usage::

    python benchmarks/check_baseline.py benchmarks/baseline_sim.json bench.json
    python benchmarks/check_baseline.py benchmarks/baseline_sched.json bench.json
    python benchmarks/check_baseline.py benchmarks/baseline_scale.json scale.json
"""

from __future__ import annotations

import json
import pathlib
import sys


def resolve(benchmarks: list[dict], spec: str) -> float:
    """Look one ``<name>.mean`` / ``<name>.extra_info.<key>`` timing up."""
    name, _, field = spec.partition(".")
    for bench in benchmarks:
        if bench["name"] != name:
            continue
        if field == "mean":
            return float(bench["stats"]["mean"])
        if field.startswith("extra_info."):
            return float(bench["extra_info"][
                field[len("extra_info."):]])
        raise SystemExit(f"unsupported timing field in {spec!r}")
    raise SystemExit(f"benchmark {name!r} missing from the results — "
                     f"was it removed from bench-smoke?")


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        raise SystemExit(f"usage: {argv[0]} BASELINE.json RESULTS.json")
    baseline_path, results_path = argv[1], argv[2]
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    benchmarks = json.loads(
        pathlib.Path(results_path).read_text())["benchmarks"]

    max_ratio = float(baseline["max_ratio"])
    failures: list[str] = []
    for spec, budget in baseline["timings"].items():
        measured = resolve(benchmarks, spec)
        limit = float(budget) * max_ratio
        verdict = "FAIL" if measured > limit else "ok"
        print(f"{verdict:4s} {spec}: {measured:.3f}s "
              f"(baseline {budget}s, limit {limit:.3f}s)")
        if measured > limit:
            failures.append(
                f"{spec} measured {measured:.3f}s > limit "
                f"{limit:.3f}s ({budget}s baseline x {max_ratio})")
    if failures:
        # Name every breaching benchmark with its numbers so the CI
        # log's last lines say exactly what regressed and by how much.
        print(f"{baseline_path}: timing regression ({len(failures)} "
              f"benchmark(s) over budget):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
