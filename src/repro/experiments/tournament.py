"""Policy tournament: every registered scheduler, head to head.

A seeded round-robin over the policy registry
(:mod:`repro.policies.registry`) across arrival patterns x cluster
sizes x simulation engines.  Every cell runs to completion under the
:mod:`repro.check` invariant harness; mean JCT, makespan and
utilization feed per-scenario-normalized leaderboards, and the two
engines' outcomes are compared exactly (the fast path must win time,
never change behaviour).

Runnable standalone or through the CLI::

    PYTHONPATH=src python -m repro tournament --seed 0
    PYTHONPATH=src python -m repro tournament --list-policies
    PYTHONPATH=src python -m repro tournament --seed 0 \\
        --expect benchmarks/baseline_tournament.json

The committed ``benchmarks/baseline_tournament.json`` pins the default
tournament's leaderboard ordering and every cell's numbers (all fields
but the wall clock); CI replays it on every push.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass

from repro.check.invariants import InvariantChecker
from repro.config import SimConfig
from repro.errors import SimulationError
from repro.experiments.common import scaled_workload
from repro.policies.registry import available, build_runtime
from repro.workloads.arrivals import (
    batch_arrivals,
    poisson_arrivals,
    with_arrival_times,
)

#: Mean inter-arrival time of the ``poisson`` pattern — 4 minutes, the
#: middle of the paper's 0-8 minute §V-D sweep.
POISSON_MEAN_SECONDS = 240.0


@dataclass(frozen=True)
class TournamentParams:
    """Everything needed to replay a tournament exactly."""

    seed: int = 0
    scale: float = 0.2
    policies: tuple[str, ...] = ()  # empty = every registered policy
    arrivals: tuple[str, ...] = ("batch", "poisson")
    #: Cluster sizes as multipliers of the scaled base cluster (>= 1 so
    #: the largest no-spill job stays placeable everywhere).
    cluster_scales: tuple[float, ...] = (1.0, 1.4)
    engines: tuple[str, ...] = ("fast", "reference")
    poisson_mean_seconds: float = POISSON_MEAN_SECONDS
    check_invariants: bool = True

    def resolved_policies(self) -> tuple[str, ...]:
        if self.policies:
            return self.policies
        return tuple(name for name, _ in available())


@dataclass(frozen=True)
class CellResult:
    """One (policy, arrival, cluster, engine) run."""

    policy: str
    arrival: str
    n_machines: int
    engine: str
    mean_jct: float
    makespan: float
    cpu_utilization: float
    net_utilization: float
    n_finished: int
    n_failed: int
    wall_seconds: float
    violations: tuple[str, ...] = ()

    @property
    def scenario(self) -> tuple[str, int, str]:
        return (self.arrival, self.n_machines, self.engine)


@dataclass(frozen=True)
class LeaderboardRow:
    """One policy's aggregate standing across all scenarios."""

    rank: int
    policy: str
    #: Mean over scenarios of (cell JCT / best JCT in that scenario);
    #: 1.0 = won every scenario.
    jct_score: float
    makespan_score: float
    mean_cpu_utilization: float
    n_failed: int


@dataclass(frozen=True)
class TournamentResult:
    params: TournamentParams
    cells: tuple[CellResult, ...]
    leaderboard: tuple[LeaderboardRow, ...]
    #: (policy, arrival, n_machines) combos whose fast/reference
    #: outcomes were not exactly equal (must stay empty).
    engine_disagreements: tuple[tuple[str, str, int], ...] = ()

    @property
    def n_violations(self) -> int:
        return sum(len(cell.violations) for cell in self.cells)

    def ordering(self) -> tuple[str, ...]:
        return tuple(row.policy for row in self.leaderboard)


def _run_cell(policy: str, arrival: str, workload, n_machines: int,
              engine: str, params: TournamentParams) -> CellResult:
    config = SimConfig(seed=params.seed).with_engine(engine)
    runtime = build_runtime(policy, n_machines, workload, config=config)
    # harmony: allow[DET001] wall_seconds measures real runtime, never simulation state
    t0 = time.perf_counter()
    result = runtime.run()
    # harmony: allow[DET001] wall_seconds measures real runtime, never simulation state
    wall = time.perf_counter() - t0
    violations: tuple[str, ...] = ()
    if params.check_invariants:
        violations = tuple(
            str(v) for v in InvariantChecker().check_runtime(runtime))
    return CellResult(
        policy=policy, arrival=arrival, n_machines=n_machines,
        engine=engine, mean_jct=result.mean_jct,
        makespan=result.makespan,
        cpu_utilization=result.average_utilization("cpu"),
        net_utilization=result.average_utilization("net"),
        n_finished=len(result.finished), n_failed=len(result.failed),
        wall_seconds=wall, violations=violations)


def _leaderboard(cells: tuple[CellResult, ...],
                 policies: tuple[str, ...]) -> tuple[LeaderboardRow, ...]:
    """Per-scenario-normalized standings, best (rank 1) first."""
    scenarios: dict[tuple, list[CellResult]] = {}
    for cell in cells:
        scenarios.setdefault(cell.scenario, []).append(cell)
    jct_norms: dict[str, list[float]] = {p: [] for p in policies}
    mk_norms: dict[str, list[float]] = {p: [] for p in policies}
    cpus: dict[str, list[float]] = {p: [] for p in policies}
    fails: dict[str, int] = {p: 0 for p in policies}
    for members in scenarios.values():
        best_jct = min(c.mean_jct for c in members)
        best_mk = min(c.makespan for c in members)
        for cell in members:
            jct_norms[cell.policy].append(
                cell.mean_jct / best_jct if best_jct > 0 else 1.0)
            mk_norms[cell.policy].append(
                cell.makespan / best_mk if best_mk > 0 else 1.0)
            cpus[cell.policy].append(cell.cpu_utilization)
            fails[cell.policy] += cell.n_failed
    rows = []
    for policy in policies:
        if not jct_norms[policy]:
            continue
        rows.append((
            sum(jct_norms[policy]) / len(jct_norms[policy]),
            policy,
            sum(mk_norms[policy]) / len(mk_norms[policy]),
            sum(cpus[policy]) / len(cpus[policy]),
            fails[policy]))
    # Rank by normalized JCT; ties resolve alphabetically so the
    # ordering is independent of registration and hash order.
    rows.sort(key=lambda r: (r[0], r[1]))
    return tuple(
        LeaderboardRow(rank=i + 1, policy=policy, jct_score=jct,
                       makespan_score=mk, mean_cpu_utilization=cpu,
                       n_failed=failed)
        for i, (jct, policy, mk, cpu, failed) in enumerate(rows))


def _engine_disagreements(cells: tuple[CellResult, ...]) -> \
        tuple[tuple[str, str, int], ...]:
    by_combo: dict[tuple[str, str, int], dict[str, CellResult]] = {}
    for cell in cells:
        combo = (cell.policy, cell.arrival, cell.n_machines)
        by_combo.setdefault(combo, {})[cell.engine] = cell
    bad = []
    for combo, engines in by_combo.items():
        fast, ref = engines.get("fast"), engines.get("reference")
        if fast is None or ref is None:
            continue
        # harmony: allow[DET006] exact cross-engine equality is the property under test
        if fast.mean_jct != ref.mean_jct \
                or fast.makespan != ref.makespan:  # harmony: allow[DET006] exact cross-engine equality is the property under test
            bad.append(combo)
    return tuple(sorted(bad))


def run(params: TournamentParams = TournamentParams()) -> \
        TournamentResult:
    """Run the full round-robin and build the leaderboards."""
    base_jobs, base_machines = scaled_workload(scale=params.scale,
                                               seed=2021 + params.seed)
    policies = params.resolved_policies()
    workloads = {}
    for arrival in params.arrivals:
        if arrival == "batch":
            times = batch_arrivals(len(base_jobs))
        elif arrival == "poisson":
            times = poisson_arrivals(len(base_jobs),
                                     params.poisson_mean_seconds,
                                     seed=params.seed)
        else:
            raise SimulationError(f"unknown arrival pattern {arrival!r}")
        workloads[arrival] = with_arrival_times(base_jobs, times)
    clusters = tuple(max(20, round(base_machines * s))
                     for s in params.cluster_scales)
    cells = []
    for policy in policies:
        for arrival in params.arrivals:
            for n_machines in clusters:
                for engine in params.engines:
                    cells.append(_run_cell(
                        policy, arrival, workloads[arrival],
                        n_machines, engine, params))
    cells = tuple(cells)
    return TournamentResult(
        params=params, cells=cells,
        leaderboard=_leaderboard(cells, policies),
        engine_disagreements=_engine_disagreements(cells))


# -- reporting / persistence --------------------------------------------------

def report(result: TournamentResult) -> str:
    p = result.params
    lines = [
        f"policy tournament: seed={p.seed} scale={p.scale} "
        f"arrivals={','.join(p.arrivals)} "
        f"clusters={','.join(str(s) for s in p.cluster_scales)} "
        f"engines={','.join(p.engines)} "
        f"({len(result.cells)} runs)",
        f"{'rank':>4} {'policy':15s} {'jct score':>10} "
        f"{'makespan':>10} {'cpu util':>9} {'failed':>7}",
    ]
    for row in result.leaderboard:
        lines.append(
            f"{row.rank:>4} {row.policy:15s} {row.jct_score:>10.4f} "
            f"{row.makespan_score:>10.4f} "
            f"{row.mean_cpu_utilization:>9.1%} {row.n_failed:>7}")
    lines.append(
        f"invariant violations: {result.n_violations}; engine "
        f"disagreements: {len(result.engine_disagreements)}")
    return "\n".join(lines)


def one_line(result: TournamentResult) -> str:
    """The leaderboard as one log line (for CI job summaries)."""
    order = " > ".join(result.ordering())
    return (f"tournament[seed={result.params.seed}]: {order} "
            f"(violations={result.n_violations}, "
            f"engine_disagreements={len(result.engine_disagreements)})")


def to_json(result: TournamentResult) -> dict:
    return {
        "params": asdict(result.params),
        "ordering": list(result.ordering()),
        "leaderboard": [asdict(row) for row in result.leaderboard],
        "cells": [asdict(cell) for cell in result.cells],
        "engine_disagreements": [list(c) for c in
                                 result.engine_disagreements],
        "n_violations": result.n_violations,
    }


def _params_from_expect(payload: dict) -> TournamentParams:
    raw = dict(payload["params"])
    for key in ("policies", "arrivals", "engines"):
        raw[key] = tuple(raw[key])
    raw["cluster_scales"] = tuple(raw["cluster_scales"])
    return TournamentParams(**raw)


def _cell_key(cell: dict) -> tuple[str, str, int, str]:
    return (cell["policy"], cell["arrival"], cell["n_machines"],
            cell["engine"])


def _cell_problems(result: TournamentResult,
                   expected_cells: list[dict]) -> list[str]:
    """Every field (bar the wall clock) where the result's cells differ
    from ``expected_cells``, given in :func:`to_json` form."""
    # A JSON round trip makes tuples lists, as in a committed file.
    got = {_cell_key(cell): cell
           for cell in json.loads(json.dumps(to_json(result)["cells"]))}
    problems = []
    for cell in expected_cells:
        name = "/".join(map(str, _cell_key(cell)))
        actual = got.get(_cell_key(cell))
        if actual is None:
            problems.append(f"cell {name} missing from this run")
            continue
        problems.extend(
            f"cell {name}: {field} expected {value!r}, "
            f"got {actual.get(field)!r}"
            for field, value in cell.items()
            if field != "wall_seconds" and actual.get(field) != value)
    return problems


def _check_expect(result: TournamentResult, path: str) -> list[str]:
    """Compare a result's ordering and every cell against a committed
    expect file."""
    with open(path) as handle:
        payload = json.load(handle)
    problems = []
    expected = tuple(payload["ordering"])
    if result.ordering() != expected:
        problems.append(
            f"leaderboard ordering changed: expected "
            f"{' > '.join(expected)}, got "
            f"{' > '.join(result.ordering())}")
    return problems + _cell_problems(result, payload["cells"])


def _sanity_problems(result: TournamentResult) -> list[str]:
    """The invariants any healthy tournament must satisfy."""
    problems = [f"invariant violation in {cell.policy}/{cell.arrival}/"
                f"{cell.n_machines}/{cell.engine}: {v}"
                for cell in result.cells for v in cell.violations]
    for combo in result.engine_disagreements:
        problems.append(
            f"fast/reference outcomes differ for {combo}")
    scores = {row.policy: row.jct_score for row in result.leaderboard}
    if "harmony" in scores and "naive" in scores \
            and scores["harmony"] > scores["naive"]:
        problems.append(
            f"harmony mean-JCT score {scores['harmony']:.4f} worse "
            f"than naive {scores['naive']:.4f}")
    return problems


# -- CLI ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro tournament",
        description="Round-robin scheduler tournament over the policy "
                    "registry.")
    parser.add_argument("--seed", type=int, default=None,
                        help="tournament seed (default: 0, or the "
                             "--expect file's seed)")
    parser.add_argument("--output", default=None,
                        help="write the full result as JSON here")
    parser.add_argument("--expect", default=None,
                        help="JSON expect file; replay its parameters "
                             "and exit 1 unless this run reproduces its "
                             "leaderboard ordering and every cell")
    parser.add_argument("--assert-sanity", action="store_true",
                        help="exit 1 on invariant violations, engine "
                             "disagreement, or harmony losing to naive")
    parser.add_argument("--list-policies", action="store_true")
    args = parser.parse_args(argv)

    if args.list_policies:
        for name, summary in available():
            print(f"  {name:15s} {summary}")
        return 0

    params = TournamentParams(seed=args.seed or 0)
    if args.expect is not None:
        # A replay runs the expect file's parameters, so it compares
        # like with like; a different explicit seed cannot apply.
        with open(args.expect) as handle:
            params = _params_from_expect(json.load(handle))
        if args.seed is not None and args.seed != params.seed:
            parser.error(f"--seed {args.seed} differs from seed "
                         f"{params.seed} of {args.expect}")
    result = run(params)
    print(report(result))
    print(one_line(result))

    if args.output is not None:
        with open(args.output, "w") as handle:
            json.dump(to_json(result), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    problems = []
    if args.expect is not None:
        problems.extend(_check_expect(result, args.expect))
    if args.assert_sanity:
        problems.extend(_sanity_problems(result))
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
