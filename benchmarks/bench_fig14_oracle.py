"""Fig. 14 — Harmony vs exhaustive-search oracle (scaled pool)."""

from repro.baselines.oracle import OracleScheduler
from repro.core.scheduler import HarmonyScheduler
from repro.experiments import fig14_oracle


def count_sized_candidates(monkeypatch) -> dict[str, list[int]]:
    """Record, per ``schedule()`` call of each scheduler, how many
    candidate groupings it sized with allocateMachines: Algorithm 1
    one per prefix it plans (a plan-cache hit sizes none), the oracle
    one per partition it enumerates."""
    counts: dict[str, list[int]] = {"harmony": [], "oracle": []}
    for name, scheduler, sized in (
            ("harmony", HarmonyScheduler,
             lambda scheduler: scheduler.last_stats.cache_misses),
            ("oracle", OracleScheduler,
             lambda scheduler: scheduler.last_search_size)):
        def counted(self, jobs, total_machines, real=scheduler.schedule,
                    record=counts[name].append, sized=sized):
            plan = real(self, jobs, total_machines)
            record(sized(self))
            return plan
        monkeypatch.setattr(scheduler, "schedule", counted)
    return counts


def test_fig14_oracle_comparison(once, monkeypatch):
    sized = count_sized_candidates(monkeypatch)
    result = once(fig14_oracle.run, n_jobs=8, n_machines=24)
    print()
    print(fig14_oracle.report(result))

    # Every job finishes under both schedulers.
    assert len(result.harmony.finished) == 8
    assert len(result.oracle.finished) == 8
    # The greedy scheduler tracks the ground truth (paper: within ~2%;
    # we allow a wider band at this tiny pool size, where single
    # decisions weigh heavily).
    assert result.jct_gap < 0.25
    assert result.makespan_gap < 0.30
    # And it does much less work per decision than the exhaustive
    # search: a count, not a wall-clock time, because at this pool size
    # a decision takes tens of microseconds either way (the ratio grows
    # without bound with pool size — see bench_scalability for the
    # Bell-number blow-up).  Seed 2021: 1.55 vs 6.44 candidates sized
    # per decision.
    per_decision = {name: sum(counts) / len(counts)
                    for name, counts in sized.items()}
    print(f"candidate groupings sized per decision: {per_decision}")
    assert per_decision["harmony"] * 2 < per_decision["oracle"]
