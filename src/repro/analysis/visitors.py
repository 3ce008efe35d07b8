"""Visitor framework for harmonylint rules.

Rules are small classes registered with :func:`register`; the engine
instantiates each once per run and hands it :class:`FileContext`
objects (per-file rules) or the whole list at once (project rules, for
cross-file properties like fingerprint coverage).

The framework's main service is *qualified-name resolution*: rules ask
"is this call ``time.perf_counter``?" and get the right answer whether
the module wrote ``import time``, ``import time as _time``, or
``from time import perf_counter as pc``.
"""

from __future__ import annotations

import ast
import builtins
import re
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.analysis.findings import Finding, Rule

#: ``# harmony: allow[DET001]`` or ``allow[DET001,SIM002] free-text why``.
_ALLOW_RE = re.compile(
    r"#\s*harmony:\s*allow\[([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\]")


def parse_suppressions(source_lines: list[str]) -> dict[int, set[str]]:
    """Map of 1-based line number -> rule ids allowed on that line."""
    allowed: dict[int, set[str]] = {}
    for number, line in enumerate(source_lines, start=1):
        match = _ALLOW_RE.search(line)
        if match:
            ids = {part.strip() for part in match.group(1).split(",")}
            allowed.setdefault(number, set()).update(ids)
    return allowed


@dataclass
class FileContext:
    """One parsed source file plus everything rules need around it."""

    path: str            # as reported in findings (repo-relative)
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    imports: "ImportMap | None" = None

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        lines = source.splitlines()
        return cls(path=path, source=source, tree=tree, lines=lines,
                   suppressions=parse_suppressions(lines),
                   imports=ImportMap.of(
                       tree, module=module_name(path),
                       is_package=path.endswith("__init__.py")))

    @property
    def module(self) -> str:
        """Dotted module name this file defines (see :func:`module_name`)."""
        return self.imports.module or module_name(self.path)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: Rule, node: ast.AST,
                message: str) -> Finding:
        line = getattr(node, "lineno", 0)
        return Finding(rule_id=rule.rule_id, path=self.path, line=line,
                       message=message, snippet=self.snippet(line))

    def in_dir(self, *parts: str) -> bool:
        """True when any path component equals one of ``parts``."""
        components = re.split(r"[\\/]", self.path)
        return any(part in components for part in parts)


def module_name(path: str) -> str:
    """Dotted module name for a repo-relative source path.

    ``src/repro/shard/scheduler.py`` -> ``repro.shard.scheduler``;
    a package ``__init__.py`` names the package itself.
    """
    parts = [part for part in re.split(r"[\\/]", path) if part]
    if parts and parts[0] in {"src", "lib"}:
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class ImportMap:
    """Alias -> dotted-module resolution for one module."""

    def __init__(self, module: str | None = None,
                 is_package: bool = False) -> None:
        #: local name -> fully qualified dotted name it stands for.
        self.aliases: dict[str, str] = {}
        #: Dotted name of the module the map was built for (enables
        #: relative-import resolution); None when unknown.
        self.module = module
        self.is_package = is_package
        #: Modules star-imported (``from x import *``): a fallback
        #: namespace for otherwise-unresolvable bare names.
        self.star_modules: list[str] = []

    @classmethod
    def of(cls, tree: ast.Module, module: str | None = None,
           is_package: bool = False) -> "ImportMap":
        imports = cls(module, is_package)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    imports.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = imports._from_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        imports.star_modules.append(base)
                        continue
                    local = alias.asname or alias.name
                    imports.aliases[local] = f"{base}.{alias.name}"
        return imports

    def _from_base(self, node: ast.ImportFrom) -> str | None:
        """The absolute module a ``from ... import`` pulls names from.

        Relative imports resolve against :attr:`module` (``from .cells
        import Cell`` inside ``repro.shard.scheduler`` resolves to
        ``repro.shard.cells``); with no module known they stay
        unresolvable and the names are simply not mapped.
        """
        if not node.level:
            return node.module
        if self.module is None:
            return None
        # Level 1 is the containing package: the module itself for an
        # __init__.py, its parent otherwise; each further level climbs.
        package = self.module.split(".")
        drop = node.level - 1 if self.is_package else node.level
        if drop > len(package):
            return None
        if drop:
            package = package[:-drop]
        if node.module:
            package = package + node.module.split(".")
        return ".".join(package) or None

    def qualify(self, node: ast.expr) -> str | None:
        """Dotted name of ``node`` with import aliases resolved.

        ``pc()`` where ``from time import perf_counter as pc`` resolves
        to ``time.perf_counter``; ``np.random.rand`` resolves to
        ``numpy.random.rand``.  A bare name that matches no alias and
        no builtin falls back to the single star-imported module when
        there is exactly one.  Returns None for non-name expressions.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = current.id
        if root in self.aliases:
            resolved = self.aliases[root]
        elif len(self.star_modules) == 1 and \
                not hasattr(builtins, root):
            resolved = f"{self.star_modules[0]}.{root}"
        else:
            resolved = root
        parts.append(resolved)
        return ".".join(reversed(parts))


class BaseRule:
    """A harmonylint rule: subclass, set :attr:`rule`, implement
    :meth:`check` (per-file) or :meth:`check_project` (cross-file)."""

    rule: Rule
    #: Project rules see every file at once (cross-file properties).
    project_level = False

    def check(  # pragma: no cover - base-class stub
            self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_project(self,  # pragma: no cover - base-class stub
                      contexts: list[FileContext]) -> Iterable[Finding]:
        return ()


#: rule_id -> rule class; populated by :func:`register` at import time.
REGISTRY: dict[str, type[BaseRule]] = {}


def register(rule_class: type[BaseRule]) -> type[BaseRule]:
    rule_id = rule_class.rule.rule_id
    if rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id}")
    REGISTRY[rule_id] = rule_class
    return rule_class


def functions_of(tree: ast.Module) -> list[ast.AST]:
    """Every function/method definition in the module, outermost first."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def is_generator(function: ast.AST) -> bool:
    """True when ``function`` contains a yield of its own (i.e. it is a
    simulated process / coroutine, not a plain function)."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return False
