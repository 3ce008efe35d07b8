"""What ``benchmarks/knob_audit.py`` counts as a use, on a fixture tree
instead of this checkout."""

import importlib.util
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "benchmarks" / "knob_audit.py"

FIXTURE = {
    "src/repro/__init__.py": '''\
        _EXPORTS = {"LazyExport": "repro.rules"}
        ''',
    "src/repro/rules.py": '''\
        REGISTRY = {}


        def register(target):
            REGISTRY[target.__name__] = target
            return target


        def named(name):
            def wrap(target):
                REGISTRY[name] = target
                return target
            return wrap


        @register
        class RegisteredRule:
            pass


        @named("rule")
        class NamedRule:
            pass


        class PlainRule:
            pass


        class LazyExport:
            pass
        ''',
    "src/repro/policies.py": '''\
        from repro.rules import register


        @register("called")
        def called_factory(n_machines, scale=1.0):
            return n_machines * scale
        ''',
    "tests/test_rules.py": '''\
        from repro.policies import called_factory
        from repro.rules import LazyExport, NamedRule, PlainRule, RegisteredRule
        ''',
}


def _tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("knob_audit", TOOL)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_register_decorator_counts_as_a_use(tmp_path, monkeypatch):
    for rel, text in FIXTURE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    for top in ("benchmarks", "examples"):
        (tmp_path / top).mkdir()
    model, unset, test_only = _tool(monkeypatch).audit(tmp_path)
    assert model.count() == 1
    assert [(c.qualname, p) for c, p in unset] == [
        ("repro.policies.called_factory", "scale")]
    # Bare and called ``@register`` are uses; another decorator is not,
    # and a package's lazy re-export table is not either.
    assert test_only == [("repro.rules.NamedRule", "tests"),
                         ("repro.rules.PlainRule", "tests"),
                         ("repro.rules.LazyExport", "tests")]


CONFIG_FIXTURE = {
    "src/repro/config.py": '''\
        from dataclasses import dataclass, field


        @dataclass(frozen=True)
        class Machine:
            memory_gb: float = 32.0
            cores: int = 8

            def __post_init__(self):
                if not self.cores > 0:
                    raise ValueError("cores")


        @dataclass(frozen=True)
        class SimConfig:
            seed: int = 1
            machine: Machine = field(default_factory=Machine)
            legacy: "float | None" = None
        ''',
    "src/repro/run.py": '''\
        def run(config):
            return config.seed, config.machine.memory_gb
        ''',
}


def test_config_fields_read_only_by_their_checks_are_unread(tmp_path,
                                                           monkeypatch):
    for rel, text in CONFIG_FIXTURE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    tool = _tool(monkeypatch)
    assert tool._unread_config_fields(tool._sources(tmp_path)) == [
        "machine.cores", "legacy"]
