"""Tests for the CLI entry point, configuration, and error types."""

import dataclasses
import importlib
import math
import os
import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro.__main__ as repro_main
from repro import errors
from repro.__main__ import DRIVERS, main
from repro.config import (
    ADMISSION_ORDERS,
    DEFAULT_SIM_CONFIG,
    GB,
    ExecutionConfig,
    MB,
    MachineSpec,
    MemoryConfig,
    SchedulerConfig,
    ShardConfig,
    SimConfig,
)
from repro.core.regroup import FEWER_JOBS_PREFERENCE
from repro.trace.tracer import TraceConfig

KNOB_AUDIT = Path(__file__).resolve().parents[1] / "benchmarks" \
    / "knob_audit.py"


class TestCli:
    def test_list_exits_cleanly(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert len(DRIVERS) == 22
        for name in DRIVERS:
            assert f"  {name} " in out

    def test_python_dash_m_runs_main(self, monkeypatch, capsys):
        """``python -m repro`` is the package's one entry point."""
        monkeypatch.setattr(sys, "argv", ["repro", "--list"])
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_path(repro_main.__file__, run_name="__main__")
        assert excinfo.value.code == 0
        assert "available experiments" in capsys.readouterr().out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_driver_fails(self, capsys):
        assert main(["not-a-driver"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_every_driver_has_run_and_report(self):
        for name, path in DRIVERS.items():
            module = importlib.import_module(path)
            assert callable(module.run), name
            assert callable(module.report), name

    def test_small_driver_runs_through_cli(self, capsys):
        assert main(["fig03_dop_sweep"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "completed in" in out

    def test_scale_flag_is_forwarded(self, capsys):
        assert main(["fig10_main", "--scale", "0.15", "--seed", "5"]) == 0
        assert "Harmony" in capsys.readouterr().out

    @pytest.mark.parametrize("driver, flags, named", [
        ("fig03_dop_sweep", ["--seed", "5"], "--seed"),
        ("local_validation", ["--scale", "0.5"], "--scale"),
        ("fig02_single_job", ["--scale", "0.5", "--seed", "1"],
         "--scale or --seed"),
        ("fig09_workload_cdf", ["--scale", "0.5"], "--scale"),
        ("scalability", ["--scale", "0.5", "--seed", "1"], "--scale"),
    ])
    def test_flag_the_driver_does_not_take_is_rejected(
            self, monkeypatch, capsys, driver, flags, named):
        """A flag a named driver's ``run`` does not take exits 2 before
        the driver runs, instead of being silently dropped."""
        def refuse(*args):
            raise AssertionError("the driver must not run")

        monkeypatch.setattr("repro.__main__._run_driver", refuse)
        assert main([driver, *flags]) == 2
        assert (f"experiment {driver!r} takes no {named}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["fig10_main", "--scale", "0"],
        ["fig10_main", "--scale", "1.5"],
        ["fig10_main", "--scale", "nan"],
        ["all", "--scale", "0"],
    ])
    def test_scale_outside_unit_interval_is_a_usage_error(
            self, monkeypatch, capsys, argv):
        """``--scale`` is checked by the parser, before any driver is
        imported or run."""
        def refuse(*args):
            raise AssertionError("no driver may be imported or run")

        monkeypatch.setattr("repro.__main__._run_driver", refuse)
        monkeypatch.setattr("repro.__main__.importlib.import_module",
                            refuse)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"{argv[-1]} is not in (0, 1]" in capsys.readouterr().err

    def test_all_passes_each_flag_only_where_it_is_taken(
            self, monkeypatch, capsys):
        passed = {}

        def seed_only(seed=0):
            passed["seed_only"] = {"seed": seed}

        def no_flags():
            passed["no_flags"] = {}

        for run in (seed_only, no_flags):
            module = types.ModuleType(f"driver_{run.__name__}")
            module.run = run
            module.report = repr
            monkeypatch.setitem(sys.modules, module.__name__, module)
        monkeypatch.setattr("repro.__main__.DRIVERS", {
            "seed_only": "driver_seed_only", "no_flags": "driver_no_flags"})
        assert main(["all", "--scale", "0.5", "--seed", "3"]) == 0
        assert passed == {"seed_only": {"seed": 3}, "no_flags": {}}


class TestSubcommandDispatch:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "check" in out
        assert "lint" in out
        assert "invariant checker" in out
        assert "static" in out and "analyzer" in out

    def test_list_includes_subcommands(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "check" in out
        assert "lint" in out

    def test_lint_dispatches_to_analysis_cli(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "harmonylint rules" in out

    def test_lint_forwards_arguments(self, capsys):
        assert main(["lint", "--select", "BOGUS123"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_check_dispatches_to_check_cli(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--help"])
        assert excinfo.value.code == 0
        assert "repro check" in capsys.readouterr().out


class TestMachineSpec:
    def test_m4_2xlarge_defaults(self):
        spec = MachineSpec()
        assert spec.memory_gb == 32.0
        assert spec.network_bps == pytest.approx(1.1e9 / 8)

    def test_usable_memory(self):
        spec = MachineSpec(memory_gb=10.0, usable_memory_fraction=0.5)
        assert spec.usable_memory_gb == 5.0
        assert spec.usable_memory_bytes == 5.0 * GB

    def test_units(self):
        assert GB == 1024.0 ** 3
        assert MB == 1024.0 ** 2

    @pytest.mark.parametrize("field, value", [
        ("memory_gb", 0.0),
        ("memory_gb", -32.0),
        ("memory_gb", math.nan),
        ("memory_gb", math.inf),
        ("usable_memory_fraction", 0.0),
        ("usable_memory_fraction", 1.5),
        ("usable_memory_fraction", math.nan),
        ("network_bps", 0.0),
        ("network_bps", math.nan),
        ("network_bps", math.inf),
        ("disk_read_bps", -5.0),
        ("disk_read_bps", math.nan),
        ("disk_read_bps", math.inf),
        ("disk_write_bps", 0.0),
        ("disk_write_bps", math.nan),
        ("disk_write_bps", math.inf),
    ])
    def test_bad_value_fails_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            MachineSpec(**{field: value})

    def test_a_fully_usable_machine_is_valid(self):
        assert MachineSpec(usable_memory_fraction=1.0).usable_memory_gb \
            == 32.0


class TestTraceConfig:
    @pytest.mark.parametrize("value", [-1, math.nan])
    def test_bad_event_cap_fails_at_construction(self, value):
        with pytest.raises(ValueError, match="max_events"):
            TraceConfig(enabled=True, max_events=value)

    def test_a_zero_event_cap_is_valid(self):
        assert TraceConfig(enabled=True, max_events=0).max_events == 0


class TestSimConfig:
    def test_with_seed_changes_only_seed(self):
        derived = DEFAULT_SIM_CONFIG.with_seed(99)
        assert derived.seed == 99
        assert derived.machine == DEFAULT_SIM_CONFIG.machine
        assert derived.scheduler == DEFAULT_SIM_CONFIG.scheduler

    def test_configs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_SIM_CONFIG.seed = 1

    def test_paper_constants(self):
        scheduler = DEFAULT_SIM_CONFIG.scheduler
        assert scheduler.regroup_benefit_threshold == 0.05
        assert scheduler.similarity_threshold == 0.05
        assert FEWER_JOBS_PREFERENCE == 0.05

    def test_settable_surface_is_pinned(self):
        """Every leaf value reachable from ``SimConfig()``.  A new knob
        must be added here, with the measured reason it earns a place."""
        def leaves(config, prefix=""):
            for item in dataclasses.fields(config):
                value = getattr(config, item.name)
                if dataclasses.is_dataclass(value):
                    yield from leaves(value, f"{prefix}{item.name}.")
                else:
                    yield f"{prefix}{item.name}"

        assert list(leaves(SimConfig())) == [
            "seed",
            "machine.memory_gb",
            "machine.usable_memory_fraction",
            "machine.network_bps",
            "machine.disk_read_bps",
            "machine.disk_write_bps",
            "scheduler.regroup_benefit_threshold",
            "scheduler.similarity_threshold",
            "scheduler.max_jobs_per_group",
            "scheduler.max_swap_passes",
            "scheduler.admission_order",
            "scheduler.reschedule_check_seconds",
            "memory.spill_enabled",
            "memory.fixed_alpha",
            "execution.secondary_comm_rate",
            "execution.duration_jitter_cv",
            "execution.barrier_overhead",
            "execution.comm_interference_probability",
            "shard.n_cells",
            "shard.rebalance_every",
            "shard.rebalance_threshold",
            "trace.enabled",
            "trace.max_events",
            "engine",
        ]

    def test_keyword_surface_is_pinned(self):
        """Defaulted parameters of public callables in ``src/repro``, as
        ``benchmarks/knob_audit.py`` counts them.  A new knob moves this
        count: update it and ROADMAP's knob count on purpose."""
        count = subprocess.run([sys.executable, str(KNOB_AUDIT), "--count"],
                               capture_output=True, text=True, check=True)
        assert int(count.stdout) == 248

    @pytest.fixture(scope="class")
    def audit_report(self):
        return subprocess.run([sys.executable, str(KNOB_AUDIT)],
                              capture_output=True, text=True,
                              check=True).stdout

    @staticmethod
    def listed(report, heading):
        section = report.split(f"\n{heading} (", 1)[1].split("\n\n", 1)[0]
        return [line.strip() for line in section.splitlines()[1:]]

    def test_only_the_tracer_parameter_has_no_setter(self, audit_report):
        """Every other defaulted parameter is set by some caller; the
        tracer is README's way to trace the local runtime's barriers."""
        assert self.listed(audit_report,
                           "defaulted parameters with no setter") == [
            "repro.core.local_runtime.LocalHarmonyRuntime.__init__(tracer=)",
        ]

    def test_only_the_documented_exclusions_are_test_only(self,
                                                          audit_report):
        """The accessors and oracle helpers ``knob_audit.py``'s docstring
        names; any other public name needs a caller outside tests."""
        assert self.listed(audit_report,
                           "public names only tests reference") == [
            "repro.check.invariants.InvariantChecker.assert_clean",
            "repro.check.oracle.step_boundaries",
            "repro.check.oracle.predict_job_span",
            "repro.check.oracle.job_subtasks",
            "repro.check.oracle.predict_group_iteration_boundaries",
            "repro.faults.plan.FaultPlan.build",
            "repro.shard.placer.GlobalPlacer.cell_of",
            "repro.sim.events.Event.add_callback",
            "repro.sim.simulator.FastpathStats.engaged",
        ]

    def test_every_config_field_has_a_reader(self, audit_report):
        """Every leaf of ``SimConfig()`` is read somewhere in ``src``
        beyond its own construction-time check; a dead field fails
        here until it is deleted."""
        assert self.listed(audit_report,
                           "config fields nothing in src reads") == []


class TestSchedulerConfig:
    @pytest.mark.parametrize("field, value", [
        ("admission_order", "bogus"),
        ("regroup_benefit_threshold", -0.01),
        ("similarity_threshold", -1.0),
        ("max_jobs_per_group", 0),
        ("max_swap_passes", -1),
        ("reschedule_check_seconds", 0.0),
    ])
    def test_bad_value_fails_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            SchedulerConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("max_swap_passes", 0),            # the no-swap ablation
        ("reschedule_check_seconds", 1e12),  # the no-periodic ablation
        ("regroup_benefit_threshold", 0.0),
    ])
    def test_edge_values_stay_valid(self, field, value):
        assert getattr(SchedulerConfig(**{field: value}), field) == value

    def test_every_known_admission_order_is_valid(self):
        for order in ADMISSION_ORDERS:
            assert SchedulerConfig(admission_order=order).admission_order \
                == order


class TestShardConfig:
    @pytest.mark.parametrize("field, value", [
        ("n_cells", 0),
        ("n_cells", -2),
        ("rebalance_every", -1),
        ("rebalance_threshold", -0.01),
        ("rebalance_threshold", float("nan")),
    ])
    def test_bad_value_fails_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ShardConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_cells", 1),                # sharding inert
        ("rebalance_every", 0),        # periodic rebalancing off
        ("rebalance_threshold", 0.0),
    ])
    def test_edge_values_stay_valid(self, field, value):
        assert getattr(ShardConfig(**{field: value}), field) == value

    def test_with_sharding_validates(self):
        with pytest.raises(ValueError, match="n_cells"):
            DEFAULT_SIM_CONFIG.with_sharding(0)


class TestMemoryConfig:
    @pytest.mark.parametrize("field, value", [
        ("fixed_alpha", -0.1),
        ("fixed_alpha", 1.5),
        ("fixed_alpha", float("nan")),
    ])
    def test_bad_value_fails_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            MemoryConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("fixed_alpha", None),         # per-job hill climbing
        ("fixed_alpha", 0.0),
        ("fixed_alpha", 1.0),
    ])
    def test_edge_values_stay_valid(self, field, value):
        assert getattr(MemoryConfig(**{field: value}), field) == value


class TestExecutionConfig:
    @pytest.mark.parametrize("field, value", [
        ("secondary_comm_rate", -0.1),
        ("secondary_comm_rate", 1.5),
        ("secondary_comm_rate", float("nan")),
        ("duration_jitter_cv", -0.01),
        ("duration_jitter_cv", float("nan")),
        ("barrier_overhead", -0.01),
        ("barrier_overhead", float("nan")),
        ("comm_interference_probability", -0.1),
        ("comm_interference_probability", 2.0),
        ("comm_interference_probability", float("nan")),
    ])
    def test_bad_value_fails_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExecutionConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("secondary_comm_rate", 0.0),  # no secondary COMM slot
        ("secondary_comm_rate", 1.0),
        ("duration_jitter_cv", 0.0),   # noise-free subtasks
        ("barrier_overhead", 0.0),
        ("comm_interference_probability", 0.0),
        ("comm_interference_probability", 1.0),
    ])
    def test_edge_values_stay_valid(self, field, value):
        assert getattr(ExecutionConfig(**{field: value}), field) == value


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name

    def test_oom_error_carries_context(self):
        error = errors.OutOfMemoryError("boom", job_ids=("a", "b"),
                                        resident_gb=30.0,
                                        capacity_gb=25.6)
        assert error.job_ids == ("a", "b")
        assert error.resident_gb > error.capacity_gb

    def test_resource_error_is_simulation_error(self):
        assert issubclass(errors.ResourceError, errors.SimulationError)


class TestPublicApi:
    def test_top_level_exports_resolve(self):
        import repro
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version_string(self):
        import repro
        assert repro.__version__.count(".") == 2


class TestImportGraph:
    SRC = Path(__file__).resolve().parents[1] / "src"
    #: Modules the simulator, the checker and the driver helpers run on.
    CORE = ("repro.core.runtime", "repro.check.invariants",
            "repro.check.oracle", "repro.experiments.common")

    def _fresh_interpreter(self, script, *args):
        """``script``'s stdout in a fresh interpreter on this tree."""
        return subprocess.run(
            [sys.executable, "-c", script, *args], capture_output=True,
            text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(self.SRC))).stdout

    def test_package_entry_points_import_on_demand(self):
        """A package ``__init__`` imports nothing its importer did not
        ask for (DESIGN.md, "Package entry points import on demand");
        its public names still resolve on first access."""
        script = (
            "import sys\n"
            f"for name in {self.CORE!r}:\n"
            "    __import__(name)\n"
            "print(' '.join(sorted(m for m in sys.modules"
            " if m.startswith('repro'))))\n"
            "from repro.check import InvariantChecker\n"
            "from repro import HarmonyRuntime\n"
            "print(InvariantChecker.__module__, HarmonyRuntime.__module__)\n")
        loaded, resolved = self._fresh_interpreter(script).splitlines()
        loaded = loaded.split()
        assert set(self.CORE) <= set(loaded)
        for package in ("repro.ml", "repro.ps", "repro.analysis",
                        "repro.core.local_runtime"):
            assert not [m for m in loaded
                        if m == package or m.startswith(package + ".")], \
                package
        assert "repro.check.differential" not in loaded
        assert "repro.check.scenarios" not in loaded
        assert [m for m in loaded if m.startswith("repro.experiments.")] \
            == ["repro.experiments.common"]
        assert resolved.split() == ["repro.check.invariants",
                                    "repro.core.runtime"]

    def test_every_package_imports_first(self):
        """With no package ``__init__`` fixing the import order, each
        package must import cleanly as the first ``repro`` module."""
        packages = sorted(
            ".".join(path.parent.relative_to(self.SRC).parts)
            for path in (self.SRC / "repro").rglob("__init__.py"))
        script = (
            "import importlib, sys\n"
            "for name in sys.argv[1:]:\n"
            "    for loaded in [m for m in sys.modules"
            " if m.split('.')[0] == 'repro']:\n"
            "        del sys.modules[loaded]\n"
            "    try:\n"
            "        importlib.import_module(name)\n"
            "    except ImportError as error:\n"
            "        print(f'{name}: {error}')\n")
        assert "repro.policies" in packages
        assert self._fresh_interpreter(script, *packages) == ""

    def test_unknown_public_name_is_an_attribute_error(self):
        import repro
        import repro.check
        for package in (repro, repro.check):
            with pytest.raises(AttributeError, match="no_such_name"):
                package.no_such_name  # noqa: B018
