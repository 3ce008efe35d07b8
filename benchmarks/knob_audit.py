"""Count the keyword surface of ``src/repro`` and list what nothing uses.

    python3 benchmarks/knob_audit.py [--root DIR] [--count]

Reads the source tree statically (nothing is imported) and prints:

1. the knob count: defaulted positional and keyword-only parameters of
   public module-level functions and of the public methods and
   ``__init__`` of public classes in ``src/repro``;
2. every such defaulted parameter that no call site in ``src/``,
   ``benchmarks/``, ``examples/`` or ``tests/`` sets;
3. every public module-level function or class, and every public method
   or property of a public class, that only ``tests/`` references;
4. every leaf of ``SimConfig``'s dataclass tree (a field whose type is
   not another dataclass of ``src/repro``) that nothing in ``src/``
   reads: no attribute load of its name outside its declaring class's
   ``__post_init__`` (a construction-time check is not a use).

``--count`` prints the count alone.  ``--root`` audits another checkout
(default: this one).

A parameter counts as set by a call that passes it by keyword or by
position, or by ``*args``/``**kwargs`` whose contents are not literal.
Call sites are matched to definitions by name:

- ``f(...)`` through an import or a definition of the same module;
  ``module.f(...)`` through the module's import alias;
- ``Class(...)``, ``cls(...)``, ``type(self)(...)`` and
  ``super().__init__(...)`` to the class's (or its nearest base's)
  ``__init__``;
- ``obj.name(...)`` on any other receiver to every callable named
  ``name``;
- ``partial(f, ...)``, the smoke benchmarks' ``once(f, ...)`` and
  ``run_once(benchmark, f, ...)`` as a call of ``f``;
- a call through a local variable (a factory) to every callable that is
  also used as a value somewhere, such as ``scheduler_factory=Oracle``;
- ``**kwargs`` built from string-keyed subscripts or a dict literal (the
  CLI's ``kwargs["scale"] = scale``) by those keys.

The matching errs towards "set", so a reported parameter has no setter
under any of these forms.  A name is referenced by any identifier,
attribute or dotted string with that name, so a name shared with other
code hides (e.g. a method called ``reassign`` on two classes); names
that nothing references at all, tests included, are marked
``(unused)``.  A ``@register`` decorator (bare or called) is a use of
the class or function it hands to a registry.  Re-exports in a package
``__init__`` (imports, ``__all__`` and the name table its
``__getattr__`` imports from), and the profiling table of
``benchmarks/layer_profile.py``, do not count.

Pinned in ``tests/test_cli_and_config.py``: the count, and all three
lists; the config-field list is empty.
The one parameter without a setter is ``LocalHarmonyRuntime(tracer=)``,
README's way to trace the local runtime's barrier waits.  The nine
public names only tests reference are kept on purpose:

- accessors tests use to observe other code:
  ``InvariantChecker.assert_clean`` (the raising form of
  ``check_runtime``), ``FaultPlan.build`` (a plan from hand-written
  fault events), ``GlobalPlacer.cell_of`` (the cell a job was routed to),
  ``FastpathStats.engaged`` (whether a batched lane ran) and
  ``Event.add_callback`` (a callback on one simulator event);
- ``repro.check.oracle`` helpers the tests use as independent oracles:
  ``step_boundaries``, ``predict_job_span``, ``job_subtasks`` and
  ``predict_group_iteration_boundaries``.

Any other name on the last three lists fails tier 1: give it a caller,
or delete it with its tests.
"""

from __future__ import annotations

import argparse
import ast
import builtins
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Directories whose call sites and references count, beside ``src``.
USER_DIRS = ("benchmarks", "examples", "tests")

#: Files whose string constants are not references.
STRING_EXEMPT = ("benchmarks/layer_profile.py",)

#: Helpers that call their first (or second) argument with the rest.
FORWARDERS = {"partial": 0, "once": 0, "run_once": 1}

BUILTINS = frozenset(dir(builtins))

_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _public(name: str) -> bool:
    return not name.startswith("_")


@dataclass
class Definition:
    """One counted function or method and what its callers set."""

    qualname: str        # module.func or module.Class.method
    name: str            # the name a call site uses
    owner: str | None    # class name for methods
    #: Defaulted parameter -> its position after self/cls (None when
    #: keyword-only).
    defaults: dict[str, int | None]
    set_params: set[str] = field(default_factory=set)


@dataclass
class Source:
    path: Path
    rel: str
    module: str | None
    tree: ast.Module


def _sources(root: Path) -> list[Source]:
    sources = []
    for top in ("src",) + USER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            module = None
            if top == "src":
                parts = list(
                    path.relative_to(root / "src").with_suffix("").parts)
                if parts[-1] == "__init__":
                    parts.pop()
                module = ".".join(parts)
            sources.append(Source(path, rel, module,
                                  ast.parse(path.read_text(), rel)))
    return sources


def _is_method_kind(fn: ast.FunctionDef, kind: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == kind
               for d in fn.decorator_list)


def _definition(qualname: str, name: str, owner: str | None,
                fn: ast.FunctionDef) -> Definition:
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if owner is not None and not _is_method_kind(fn, "staticmethod"):
        positional = positional[1:]
    defaults: dict[str, int | None] = {}
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        defaults[positional[index]] = index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults, strict=True):
        if default is not None:
            defaults[arg.arg] = None
    return Definition(qualname, name, owner, defaults)


class Model:
    """Every counted definition of ``src/repro`` and its class graph."""

    def __init__(self, sources: list[Source]):
        self.callables: list[Definition] = []
        self.bases: dict[str, list[str]] = {}
        self.inits: dict[str, Definition] = {}
        for source in sources:
            if source.module is None or not source.module.startswith("repro"):
                continue
            for node in source.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _public(node.name):
                        self.callables.append(_definition(
                            f"{source.module}.{node.name}", node.name,
                            None, node))
                elif isinstance(node, ast.ClassDef):
                    self.bases[node.name] = [
                        b.id if isinstance(b, ast.Name) else
                        b.attr if isinstance(b, ast.Attribute) else ""
                        for b in node.bases]
                    if not _public(node.name):
                        continue
                    for item in node.body:
                        if (isinstance(item, (ast.FunctionDef,
                                              ast.AsyncFunctionDef))
                                and (_public(item.name)
                                     or item.name == "__init__")):
                            found = _definition(
                                f"{source.module}.{node.name}.{item.name}",
                                item.name, node.name, item)
                            self.callables.append(found)
                            if item.name == "__init__":
                                self.inits[node.name] = found
        self.by_name: dict[str, list[Definition]] = defaultdict(list)
        for found in self.callables:
            self.by_name[found.name].append(found)

    def count(self) -> int:
        return sum(len(c.defaults) for c in self.callables)

    def init_of(self, class_name: str) -> list[Definition]:
        """The ``__init__`` a call of ``class_name`` runs, if counted."""
        seen: set[str] = set()
        pending = [class_name]
        while pending:
            name = pending.pop(0)
            if name in seen:
                continue
            seen.add(name)
            if name in self.inits:
                return [self.inits[name]]
            pending += self.bases.get(name, [])
        return []


def _dict_keys(function: ast.AST | None, name: str) -> set[str] | None:
    """Literal keys stored into the dict ``name`` inside ``function``."""
    if function is None:
        return None
    keys: set[str] = set()
    for node in ast.walk(function):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == name):
            if not (isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str)):
                return None
            keys.add(node.slice.value)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == name
                      for t in node.targets)):
            value = node.value
            if isinstance(value, ast.Dict):
                if not all(isinstance(k, ast.Constant) for k in value.keys):
                    return None
                keys |= {k.value for k in value.keys}
            elif (isinstance(value, ast.Call)
                  and isinstance(value.func, ast.Name)
                  and value.func.id == "dict" and not value.args):
                if any(k.arg is None for k in value.keywords):
                    return None
                keys |= {k.arg for k in value.keywords}
            else:
                return None
    return keys


class _Scanner(ast.NodeVisitor):
    """Collects the call sites and value uses of one source file."""

    def __init__(self, model: Model, source: Source, module_names: set[str]):
        self.model = model
        self.source = source
        self.modules: dict[str, str] = {}   # alias -> module
        self.names: dict[str, tuple[str, str]] = {}  # alias -> (module, name)
        self.local: set[str] = set()
        self.classes: list[str] = []
        self.functions: list[ast.AST] = []
        self.calls: list[tuple[list[Definition] | None, list[ast.expr],
                               list[ast.keyword], ast.AST | None]] = []
        self.values: list[Definition] = []
        for node in source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.local.add(node.name)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
                    else:
                        self.modules[alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    full = f"{node.module}.{alias.name}"
                    bound = alias.asname or alias.name
                    if full in module_names:
                        self.modules[bound] = full
                    else:
                        self.names[bound] = (node.module, alias.name)

    def _named(self, name: str, module: str | None) -> list[Definition]:
        """What calling ``name`` from ``module`` (or a package) runs."""
        if module is None:
            return []
        return [c for c in self.model.by_name.get(name, ())
                if c.owner is None
                and c.qualname.startswith(module + ".")] + \
            self.model.init_of(name)

    def _resolve(self, func: ast.expr) -> list[Definition] | None:
        """The callables a call of ``func`` may run; None for a factory."""
        if isinstance(func, ast.Name):
            name = func.id
            if name in BUILTINS:
                return []
            if name == "cls" and self.classes:
                return self.model.init_of(self.classes[-1])
            if name in self.names:
                module, imported = self.names[name]
                return self._named(imported, module)
            if name in self.local:
                return self._named(name, self.source.module)
            return None
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if (isinstance(receiver, ast.Call)
                    and isinstance(receiver.func, ast.Name)
                    and receiver.func.id == "super" and self.classes):
                return [init for base in
                        self.model.bases.get(self.classes[-1], [])
                        for init in self.model.init_of(base)]
            if isinstance(receiver, ast.Name) and receiver.id in self.modules:
                return self._named(func.attr, self.modules[receiver.id])
            return list(self.model.by_name.get(func.attr, ())) + \
                self.model.init_of(func.attr)
        if (isinstance(func, ast.Call) and isinstance(func.func, ast.Name)
                and func.func.id == "type" and self.classes):
            return self.model.init_of(self.classes[-1])
        return None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.functions.append(node)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func, args = node.func, list(node.args)
        name = (func.id if isinstance(func, ast.Name) else
                func.attr if isinstance(func, ast.Attribute) else None)
        scope = self.functions[-1] if self.functions else None
        forwarded = None
        if name in FORWARDERS and len(args) > FORWARDERS[name]:
            forwarded = args[FORWARDERS[name]]
            self.calls.append((self._resolve(forwarded),
                               args[FORWARDERS[name] + 1:], node.keywords,
                               scope))
        self.calls.append((self._resolve(func), args, node.keywords, scope))
        for arg in node.args:
            if arg is not forwarded:
                self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)
        if isinstance(func, ast.Attribute):
            self.visit(func.value)
        elif not isinstance(func, ast.Name):
            self.visit(func)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id not in BUILTINS:
            self.values.extend(self._resolve(node) or ())

    def visit_Attribute(self, node: ast.Attribute) -> None:
        receiver = node.value
        if isinstance(receiver, ast.Name) and receiver.id in self.modules:
            self.values.extend(self._resolve(node) or ())
        else:
            self.values.extend(c for c in self.model.by_name.get(node.attr, ())
                               if c.owner is not None)
            self.visit(receiver)


def _apply(targets: list[Definition] | None, args: list[ast.expr],
           keywords: list[ast.keyword], function: ast.AST | None,
           factories: list[Definition]) -> None:
    if targets is None:
        # A call through a variable: only what it spells out counts.
        # ``f(*args, **kwargs)`` forwards its own caller's arguments,
        # and that caller is matched where it calls (e.g. ``once``).
        args = [a for a in args if not isinstance(a, ast.Starred)]
        keywords = [k for k in keywords if k.arg is not None]
    starred = next((i for i, a in enumerate(args)
                    if isinstance(a, ast.Starred)), None)
    n_positional = len(args) if starred is None else starred
    named = {k.arg for k in keywords if k.arg is not None}
    everything = False
    for keyword in keywords:
        if keyword.arg is None:
            keys = (_dict_keys(function, keyword.value.id)
                    if isinstance(keyword.value, ast.Name) else None)
            if keys is None:
                everything = True
            else:
                named |= keys
    for target in factories if targets is None else targets:
        for param, position in target.defaults.items():
            if (everything or param in named
                    or (position is not None
                        and (position < n_positional
                             or starred is not None))):
                target.set_params.add(param)


def audit(root: Path) -> tuple[Model, list[tuple[Definition, str]],
                               list[tuple[str, str]]]:
    sources = _sources(root)
    model = Model(sources)
    module_names = {s.module for s in sources if s.module}
    scanners = []
    for source in sources:
        scanner = _Scanner(model, source, module_names)
        scanner.visit(source.tree)
        scanners.append(scanner)
    factories = list({id(c): c for s in scanners for c in s.values}.values())
    for scanner in scanners:
        for targets, args, keywords, function in scanner.calls:
            _apply(targets, args, keywords, function, factories)
    unset = [(c, p) for c in model.callables for p in c.defaults
             if p not in c.set_params]
    return model, unset, _test_only(sources)


def _public_names(sources: list[Source]):
    """(name, qualname) of every public name the audit covers."""
    for source in sources:
        for node in source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and _public(node.name):
                yield node.name, f"{source.module}.{node.name}"
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if (isinstance(item, (ast.FunctionDef,
                                              ast.AsyncFunctionDef))
                                and _public(item.name)):
                            yield (item.name,
                                   f"{source.module}.{node.name}.{item.name}")


def _is_register(decorator: ast.expr) -> bool:
    """``@register`` or ``@register(...)``."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "register"


def _references(source: Source) -> set[str]:
    """Identifiers and dotted-string components this file uses."""
    names: set[str] = set()
    is_package = source.path.name == "__init__.py"
    strings = source.rel not in STRING_EXEMPT and not is_package

    def walk(node: ast.AST) -> None:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and any(_is_register(d) for d in node.decorator_list)):
            names.add(node.name)
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not is_package:
            names.update(a.name for a in node.names)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
        for child in ast.iter_child_nodes(node):
            walk(child)

    walk(source.tree)
    return names


def _test_only(sources: list[Source]) -> list[tuple[str, str]]:
    """Public names of ``src/repro`` no file outside ``tests/`` uses."""
    names = list(_public_names(
        [s for s in sources if s.module and s.module.startswith("repro")]))
    outside: set[str] = set()
    in_tests: set[str] = set()
    for source in sources:
        (in_tests if source.rel.startswith("tests/") else outside).update(
            _references(source))
    return [(qualname, "tests" if name in in_tests else "nothing")
            for name, qualname in names if name not in outside]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if (isinstance(decorator, ast.Name) and decorator.id == "dataclass"
                or isinstance(decorator, ast.Attribute)
                and decorator.attr == "dataclass"):
            return True
    return False


def _unread_config_fields(sources: list[Source]) -> list[str]:
    """Leaves of ``SimConfig``'s dataclass tree nothing in src reads."""
    src = [s for s in sources if s.module and s.module.startswith("repro")]
    classes = {node.name: node for source in src for node in source.tree.body
               if isinstance(node, ast.ClassDef) and _is_dataclass(node)}
    leaves: list[tuple[str, str]] = []  # (path, field name)

    def walk(class_name: str, prefix: str) -> None:
        for item in classes[class_name].body:
            if not (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                continue
            name = item.target.id
            annotation = item.annotation
            kind = (annotation.id if isinstance(annotation, ast.Name) else
                    annotation.value if isinstance(annotation, ast.Constant)
                    else None)
            if kind in classes:
                walk(kind, f"{prefix}{name}.")
            else:
                leaves.append((f"{prefix}{name}", name))

    walk("SimConfig", "")
    read: set[str] = set()

    def scan(node: ast.AST) -> None:
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            scan(child)

    for source in src:
        scan(source.tree)
    return [path for path, name in leaves if name not in read]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--count", action="store_true",
                        help="print the knob count only")
    args = parser.parse_args(argv)
    model, unset, test_only = audit(args.root)
    if args.count:
        print(model.count())
        return 0
    unread = _unread_config_fields(_sources(args.root))
    print(f"knob count: {model.count()}")
    print(f"\ndefaulted parameters with no setter ({len(unset)}):")
    for target, param in unset:
        print(f"  {target.qualname}({param}=)")
    print(f"\npublic names only tests reference ({len(test_only)}):")
    for qualname, users in test_only:
        print(f"  {qualname}" + ("" if users == "tests" else "  (unused)"))
    print(f"\nconfig fields nothing in src reads ({len(unread)}):")
    for path in unread:
        print(f"  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
