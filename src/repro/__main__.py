"""Command-line entry point: run any paper experiment by name.

Usage::

    python -m repro --list
    python -m repro fig10_main
    python -m repro fig10_main --scale 0.25 --seed 7
    python -m repro all --scale 0.25
    python -m repro check --seed 7      # correctness harness (repro.check)
    python -m repro lint                # harmonylint (repro.analysis)
    python -m repro scale --cells 1,8   # sharded sweep (repro.shard)
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
import time

#: Driver name -> module path; kept explicit so --list output is curated.
#: A driver's module is imported only when it runs (or is listed).
DRIVERS = {name: f"repro.experiments.{name}" for name in (
    "fig02_single_job",
    "fig03_dop_sweep",
    "fig04_naive_colocation",
    "fig09_workload_cdf",
    "fig10_main",
    "fig11_util_timeline",
    "fig12_group_distributions",
    "fig13_model_accuracy",
    "fig14_oracle",
    "ablation",
    "sensitivity_ratio",
    "sensitivity_arrival",
    "scalability",
    "reloading",
    "local_validation",
    "granularity_validation",
    "extensions",
    "design_ablations",
    "trace_demo",
)}


def _run_driver(name: str, scale: float | None, seed: int | None) -> None:
    module = importlib.import_module(DRIVERS[name])
    kwargs = {}
    signature = inspect.signature(module.run)
    if scale is not None and "scale" in signature.parameters:
        kwargs["scale"] = scale
    if seed is not None and "seed" in signature.parameters:
        kwargs["seed"] = seed
    # harmony: allow[DET001] real elapsed-time report for the CLI footer
    started = time.perf_counter()
    result = module.run(**kwargs)
    # harmony: allow[DET001] real elapsed-time report for the CLI footer
    elapsed = time.perf_counter() - started
    print(module.report(result))
    print(f"[{name} completed in {elapsed:.1f}s]")


#: Subcommands with their own option sets, dispatched before argparse.
SUBCOMMANDS = {
    "check": ("repro.check.cli",
              "seeded invariant checker / differential harness "
              "(repro.check)"),
    "lint": ("repro.analysis.cli",
             "harmonylint determinism & simulation-safety static "
             "analyzer (repro.analysis)"),
    "tournament": ("repro.experiments.tournament",
                   "round-robin scheduler tournament over the policy "
                   "registry (repro.policies)"),
    "scale": ("repro.shard.cli",
              "sharded cells x cluster-size scalability sweep "
              "(repro.shard)"),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in SUBCOMMANDS:
        module_name, _ = SUBCOMMANDS[argv[0]]
        submain = importlib.import_module(module_name).main
        return submain(argv[1:])
    epilog = "subcommands:\n" + "\n".join(
        f"  {name:8s} {summary}"
        for name, (_, summary) in SUBCOMMANDS.items()) + (
        "\n  <experiment>  any experiment name below; "
        "see --list for the full set")
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the Harmony reproduction's experiments.\n\n"
                    "A named experiment that does not take --scale or "
                    "--seed rejects it;\n'all' passes each flag only "
                    "to the experiments that take it.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("driver", nargs="?",
                        help="experiment name, or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload/cluster scale in (0, 1] "
                             "(1.0 = the paper's 80 jobs/100 machines)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload/simulation seed")
    args = parser.parse_args(argv)

    if args.list or args.driver is None:
        print("available experiments:")
        for name, path in DRIVERS.items():
            module = importlib.import_module(path)
            summary = (module.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:26s} {summary}")
        for name, (_, summary) in SUBCOMMANDS.items():
            print(f"  {name:26s} {summary}")
        return 0

    if args.driver == "all":
        for name in DRIVERS:
            print(f"\n=== {name} ===")
            _run_driver(name, args.scale, args.seed)
        return 0

    if args.driver not in DRIVERS:
        print(f"unknown experiment {args.driver!r}; "
              "use --list to see the options", file=sys.stderr)
        return 2
    accepted = inspect.signature(
        importlib.import_module(DRIVERS[args.driver]).run).parameters
    rejected = [f"--{flag}" for flag, value in (("scale", args.scale),
                                                ("seed", args.seed))
                if value is not None and flag not in accepted]
    if rejected:
        print(f"experiment {args.driver!r} takes no "
              f"{' or '.join(rejected)}", file=sys.stderr)
        return 2
    _run_driver(args.driver, args.scale, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
