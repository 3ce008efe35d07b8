"""``python -m repro scale`` — the sharded scalability sweep.

Runs :func:`repro.experiments.scalability.run_sharded` over a grid of
cell counts and cluster sizes, prints the table, and (optionally)
checks a speedup floor so the sweep can double as a smoke gate::

    python -m repro scale --cells 1,8,32 --sizes 8000x10000,32000x40000
    python -m repro scale --min-speedup 3.0   # exit 1 below the floor
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import scalability


def _parse_sizes(text: str) -> tuple[tuple[int, int], ...]:
    """``"8000x10000,32000x40000"`` -> ((8000, 10000), ...)."""
    sizes = []
    for part in text.split(","):
        jobs, sep, machines = part.strip().partition("x")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"size {part!r} is not of the form <jobs>x<machines>")
        sizes.append((int(jobs), int(machines)))
    return tuple(sizes)


def _parse_cells(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro scale",
        description="Cells x cluster-size sweep of the sharded "
                    "scheduler (repro.shard) in the online-churn "
                    "setting (one job arrival + one profile republish "
                    "per step).")
    parser.add_argument("--cells", type=_parse_cells, default=(1, 8),
                        help="comma-separated cell counts "
                             "(include 1 for the unsharded baseline; "
                             "default 1,8)")
    parser.add_argument("--sizes", type=_parse_sizes,
                        default=((1000, 2000), (8000, 10_000)),
                        help="comma-separated <jobs>x<machines> pairs "
                             "(default 1000x2000,8000x10000)")
    parser.add_argument("--churn", type=int, default=16,
                        help="online churn steps after the cold call, "
                             "each one arrival + one profile republish "
                             "(default 16)")
    parser.add_argument("--seed", type=int, default=2021,
                        help="workload seed")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit 1 unless the largest size's "
                             "unsharded/sharded total-seconds ratio "
                             "reaches this floor")
    args = parser.parse_args(argv)
    # Counts that would make the sweep vacuous or crash it mid-run.
    if args.churn < 0:
        parser.error(f"--churn must be >= 0, got {args.churn}")
    if min(args.cells) < 1:
        parser.error(f"--cells must all be >= 1, got {args.cells}")
    if any(jobs < 0 or machines < 1 for jobs, machines in args.sizes):
        parser.error("--sizes needs >= 0 jobs and >= 1 machine per size, "
                     f"got {args.sizes}")

    result = scalability.run_sharded(
        sizes=args.sizes, cells=args.cells, churn_steps=args.churn,
        seed=args.seed)
    print(scalability.report_sharded(result))
    speedup = result.speedup_at_largest
    if speedup > 0.0:
        print(f"[speedup at largest size: {speedup:.1f}x "
              "(unsharded total / best sharded total)]")
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below the "
              f"--min-speedup {args.min_speedup:.2f}x floor",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - manual driver
    raise SystemExit(main())
