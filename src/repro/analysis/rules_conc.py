"""CONC rules: concurrency discipline for the threaded runtime.

The PS stack (:mod:`repro.ps`) and the local runtime
(:mod:`repro.core.local_runtime`) run real threads under a repo whose
guarantees are bitwise; a forgotten lock is a nondeterminism bug, not
a style issue.  These rules query the
interprocedural :mod:`repro.analysis.callgraph` model:

- CONC001 — a field mutated under ``with self._lock:`` in one method
  and touched outside it in another has no consistent discipline.
- CONC002 — state reachable from a ``ThreadPoolExecutor.submit``/
  ``map`` or ``threading.Thread`` callable is mutated without
  synchronization.
- CONC003 — the global lock-acquisition graph has a cycle (two call
  paths acquire the same locks in opposite orders: potential deadlock).
- CONC004 — a ``threading`` primitive is constructed in sim-clock code,
  where blocking on it would stall the warped clock (the dynamic
  counterpart of the SIM family's wall-clock rules).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.callgraph import (
    THREADING_FACTORIES,
    THREADSAFE_CLASSES,
    ClassModel,
    FunctionModel,
    LockToken,
    ProjectModel,
    project_model,
)
from repro.analysis.findings import Finding, Rule
from repro.analysis.visitors import BaseRule, FileContext, register

#: Receivers of ``.submit``/``.map`` treated as thread-pool fan-outs.
_EXECUTOR_CLASSES = {
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
}

#: Constructors whose first argument / ``target=`` runs on a new thread.
_THREAD_ENTRIES = {"threading.Thread", "threading.Timer"}


def token_label(token: LockToken) -> str:
    """Human name for a lock token (``PSServer._condition`` style)."""
    kind, scope, name = token
    if kind == "C":
        return f"{scope.rsplit('.', 1)[-1]}.{name}"
    if kind == "M":
        return f"{scope}.{name}" if scope else name
    return f"{scope}:{name}"


@register
class MixedLockDiscipline(BaseRule):
    """CONC001: field accessed both under and outside its class lock."""

    rule = Rule("CONC001",
                "field accessed with inconsistent lock discipline "
                "(mutated under the class lock in one method, touched "
                "without it in another)")
    project_level = True

    def check_project(self,
                      contexts: list[FileContext]) -> Iterable[Finding]:
        project = project_model(contexts)
        for class_model in project.classes.values():
            yield from self._check_class(class_model)

    def _check_class(self,
                     class_model: ClassModel) -> Iterable[Finding]:
        tokens = class_model.class_lock_tokens()
        if not tokens:
            return
        guarded_fields: set[str] = set()
        unguarded = []
        for model, access, held in class_model.effective_accesses():
            if access.in_init or access.in_nested:
                continue
            if access.target[0] != "self":
                continue
            field_name = access.target[1]
            if field_name in class_model.lock_fields:
                continue
            if held & tokens:
                if access.write:
                    guarded_fields.add(field_name)
            else:
                unguarded.append((field_name, access, model))
        for field_name, access, model in unguarded:
            if field_name not in guarded_fields:
                continue
            verb = "mutated" if access.write else "read"
            lock = token_label(sorted(tokens)[0])
            yield class_model.ctx.finding(
                self.rule, access.node,
                f"{class_model.name}.{field_name} is {verb} in "
                f"{model.name}() without {lock}, but mutated under it "
                f"elsewhere")


@register
class UnsynchronizedThreadShared(BaseRule):
    """CONC002: thread-entry callable mutates unsynchronized state."""

    rule = Rule("CONC002",
                "callable handed to a thread pool / Thread mutates "
                "shared state without synchronization (data race)")
    project_level = True

    def check_project(self,
                      contexts: list[FileContext]) -> Iterable[Finding]:
        project = project_model(contexts)
        for class_model in project.classes.values():
            for model in class_model.methods.values():
                yield from self._check_entries(project, class_model,
                                               model)

    def _check_entries(self, project: ProjectModel,
                       class_model: ClassModel,
                       model: FunctionModel) -> Iterable[Finding]:
        for call in model.calls:
            callable_expr = self._entry_callable(model, call)
            if callable_expr is None:
                continue
            issues = self._callable_issues(project, class_model, model,
                                           callable_expr)
            if issues:
                described = "; ".join(sorted(set(issues))[:3])
                yield class_model.ctx.finding(
                    self.rule, call.node,
                    f"thread callable in {class_model.name}."
                    f"{model.name}() touches unsynchronized shared "
                    f"state: {described}")

    def _entry_callable(self, model: FunctionModel,
                        call) -> ast.expr | None:
        """The expression that will run on another thread, if any."""
        node = call.node
        if call.kind == "var" and call.target[-1] in {"submit", "map"}:
            if not self._is_executor(model, call.target[:-1]):
                return None
            return node.args[0] if node.args else None
        if call.kind == "name" and call.target[0] in _THREAD_ENTRIES:
            for keyword in node.keywords:
                if keyword.arg in {"target", "function"}:
                    return keyword.value
            if call.target[0] == "threading.Timer" and \
                    len(node.args) >= 2:
                return node.args[1]
        return None

    def _is_executor(self, model: FunctionModel,
                     receiver: tuple) -> bool:
        if len(receiver) != 1:
            return False
        name = receiver[0]
        inferred = model.local_types.get(name)
        if inferred in _EXECUTOR_CLASSES:
            return True
        lowered = name.lower()
        return inferred is None and \
            ("pool" in lowered or "executor" in lowered)

    # -- what does the callable touch? ------------------------------------

    def _callable_issues(self, project: ProjectModel,
                         class_model: ClassModel, model: FunctionModel,
                         expr: ast.expr) -> list[str]:
        if isinstance(expr, ast.Name):
            nested = model.nested_models.get(expr.id)
            if nested is not None:
                return self._entry_issues(project, class_model, nested)
            return []
        if isinstance(expr, ast.Lambda):
            issues: list[str] = []
            for child in ast.walk(expr):
                if isinstance(child, ast.Name) and \
                        child.id in model.nested_models:
                    issues.extend(self._entry_issues(
                        project, class_model,
                        model.nested_models[child.id]))
            return issues
        if isinstance(expr, ast.Attribute):
            return self._method_ref_issues(project, class_model, model,
                                           expr)
        return []

    def _method_ref_issues(self, project: ProjectModel,
                           class_model: ClassModel,
                           model: FunctionModel,
                           expr: ast.Attribute) -> list[str]:
        """``self.m`` / ``obj.field.m`` handed over as the callable."""
        parts: list[str] = []
        current: ast.expr = expr
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return []
        parts.append(current.id)
        chain = list(reversed(parts))
        method = chain[-1]
        if chain[0] == "self":
            target = class_model
            walk = chain[1:-1]
        else:
            target = project.resolve_class(
                model.local_types.get(chain[0]),
                class_model.ctx.module)
            walk = chain[1:-1]
        for field_name in walk:
            if target is None:
                return []
            target = project.resolve_class(
                target.field_types.get(field_name),
                target.ctx.module)
        if target is None or method not in target.methods:
            return []
        if not target.all_writes_guarded(method, project):
            return [f"{target.name}.{method}() mutates unguarded state"]
        return []

    def _entry_issues(self, project: ProjectModel,
                      class_model: ClassModel,
                      nested: FunctionModel) -> list[str]:
        """Unsynchronized mutations reachable from a thread body."""
        issues: list[str] = []
        for access in nested.accesses:
            if not access.write or access.held:
                continue
            kind, name = access.target
            if kind == "self":
                issues.append(f"mutates self.{name}")
            else:
                inferred = nested.local_types.get(name)
                if inferred in THREADSAFE_CLASSES:
                    continue
                issues.append(f"mutates captured '{name}'")
        for call in nested.calls:
            if call.held:
                continue
            issue = self._call_issue(project, class_model, nested, call)
            if issue is not None:
                issues.append(issue)
        return issues

    def _call_issue(self, project: ProjectModel,
                    class_model: ClassModel, nested: FunctionModel,
                    call) -> str | None:
        if call.kind == "self":
            method = call.target[0]
            if method in class_model.methods and \
                    not class_model.all_writes_guarded(method, project):
                return f"calls self.{method}() which mutates " \
                       f"unguarded state"
            return None
        if call.kind == "field":
            field_name, method = call.target
            target = project.resolve_class(
                class_model.field_types.get(field_name),
                class_model.ctx.module)
            if target is not None and method in target.methods and \
                    not target.all_writes_guarded(method, project):
                return f"calls self.{field_name}.{method}() on " \
                       f"{target.name}, which mutates unguarded state"
            return None
        if call.kind == "var" and len(call.target) == 2:
            receiver, method = call.target
            if receiver in nested.local_names:
                return None  # constructed in the thread: thread-local
            inferred = nested.local_types.get(receiver)
            if inferred in THREADSAFE_CLASSES:
                return None
            target = project.resolve_class(inferred,
                                           class_model.ctx.module)
            if target is not None and method in target.methods and \
                    not target.all_writes_guarded(method, project):
                return f"calls {receiver}.{method}() on " \
                       f"{target.name}, which mutates unguarded state"
        return None


@register
class LockOrderCycle(BaseRule):
    """CONC003: cyclic lock-acquisition order across the project."""

    rule = Rule("CONC003",
                "lock acquisition order forms a cycle in the global "
                "acquisition graph (potential deadlock)")
    project_level = True

    def check_project(self,
                      contexts: list[FileContext]) -> Iterable[Finding]:
        project = project_model(contexts)
        for witness in project.lock_order_cycles():
            order = " -> ".join(
                token_label(edge[0]) for edge in witness)
            closing = token_label(witness[0][0])
            _source, _target, ctx, node = witness[0]
            yield ctx.finding(
                self.rule, node,
                f"lock-order cycle: {order} -> {closing} "
                f"(opposite acquisition orders can deadlock)")


@register
class ThreadingInSimClock(BaseRule):
    """CONC004: threading primitive constructed in sim-clock code."""

    rule = Rule("CONC004",
                "threading primitive constructed in sim-clock code "
                "(blocks the warped clock instead of skipping)")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not self._drives_sim_clock(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.imports.qualify(node.func)
            if qualified in THREADING_FACTORIES:
                name = qualified.rsplit(".", 1)[-1]
                yield ctx.finding(
                    self.rule, node,
                    f"{name} constructed in sim-clock code would "
                    f"block the warped clock; coordinate through "
                    f"simulation events instead")

    @staticmethod
    def _drives_sim_clock(ctx: FileContext) -> bool:
        if ctx.module.startswith("repro.sim"):
            return True
        return any(target == "repro.sim" or
                   target.startswith("repro.sim.")
                   for target in ctx.imports.aliases.values())
