"""§VI extensions + reproduction design-choice ablations."""

from repro.experiments import design_ablations, extensions


def test_section6_extensions(once):
    result = once(extensions.run, scale=0.5)
    print()
    print(extensions.report(result))

    # Fault tolerance is bench_faults.py's exhibit.
    # All-reduce completes the same workload (the scheduler "does not
    # care how exactly communication is done"), paying the replica
    # memory and ring-synchronization costs.
    assert len(result.allreduce.finished) == \
        len(result.baseline.finished)
    # Interference never breaks the run; at 10% spike probability the
    # makespan effect can go either way by a few percent (decision
    # noise), so only catastrophic slowdowns/speedups are failures.
    # The strict "more noise is slower" ordering is asserted by the
    # unit tests at a 30% spike probability.
    assert len(result.with_interference.finished) == \
        len(result.baseline.finished)
    assert 0.85 < result.interference_slowdown < 2.5


def test_design_choice_ablations(once):
    result = once(design_ablations.run, scale=0.5)
    print()
    print(design_ablations.report(result))

    default = result.row("default")
    # Every variant completes; the default is competitive on makespan
    # with the best variant within a generous band.
    best_makespan = min(row.makespan_minutes for row in result.rows)
    assert default.makespan_minutes <= best_makespan * 1.45
    # Disabling the secondary COMM slot can only reduce network overlap;
    # it must not make the schedule *better* by a wide margin.
    no_secondary = result.row("no secondary COMM")
    assert no_secondary.makespan_minutes >= best_makespan * 0.9
