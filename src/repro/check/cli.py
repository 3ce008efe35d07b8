"""``python -m repro check`` — the seeded correctness fuzzer.

Runs generated scenarios through the full simulator with every
run-level invariant enforced, and optionally the differential suites.
Exits non-zero on any violation, printing the single-line replay
command for each failing seed.

Usage::

    python -m repro check --seed 2021
    python -m repro check --seed 1 --seed 2 --seed 3
    python -m repro check --rotating 417        # CI run-number seed
    python -m repro check --seed 7 --differential
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.check.differential import run_differential
from repro.check.invariants import InvariantChecker
from repro.check.scenarios import ScenarioGenerator, run_checked

#: Seeds CI always runs (stable regression net; see check-fuzz job).
DEFAULT_SEEDS = (2021, 7, 42)


def _rotating_seed(token: int) -> int:
    """Map a CI run number onto a fresh scenario seed, away from the
    fixed list so rotation actually explores new ground."""
    return 100_000 + (token * 2654435761) % 899_999


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="Run seeded scenarios with run-level invariants "
                    "enforced.")
    parser.add_argument("--seed", type=int, action="append",
                        help="scenario seed (repeatable); defaults to "
                             f"{list(DEFAULT_SEEDS)}")
    parser.add_argument("--rotating", type=int, default=None,
                        metavar="N",
                        help="also run one rotating seed derived from "
                             "N (e.g. the CI run number)")
    parser.add_argument("--differential", action="store_true",
                        help="also run the simulator-vs-Eq.1 and "
                             "Harmony-vs-oracle differential suites")
    parser.add_argument("--cases", type=int, default=20,
                        help="instances per differential suite "
                             "(default 20)")
    args = parser.parse_args(argv)
    if args.cases < 1:
        # Zero cases would be a differential check that cannot fail.
        parser.error(f"--cases must be >= 1, got {args.cases}")

    seeds = list(args.seed) if args.seed else list(DEFAULT_SEEDS)
    if args.rotating is not None:
        seeds.append(_rotating_seed(args.rotating))

    checker = InvariantChecker()
    failures = 0
    for seed in seeds:
        scenario = ScenarioGenerator(seed).generate()
        # harmony: allow[DET001] real elapsed-time report for the CLI line
        started = time.perf_counter()
        checked = run_checked(scenario, checker)
        # harmony: allow[DET001] real elapsed-time report for the CLI line
        elapsed = time.perf_counter() - started
        print(f"{checked.report()}  [{elapsed:.1f}s]")
        if not checked.ok:
            failures += 1

    if args.differential:
        report = run_differential(n_cases=args.cases,
                                  seed=seeds[0])
        print(report.summary())
        for problem in report.failures():
            print(f"FAIL {problem}")
            failures += 1

    if failures:
        print(f"\n{failures} failure(s); replay any seed with "
              f"PYTHONPATH=src python -m repro check --seed N",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - python -m repro.check.cli
    raise SystemExit(main())
