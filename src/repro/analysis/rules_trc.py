"""TRC — trace-hygiene rules.

TRC001 keeps span begin/end balanced on every control path (an
unbalanced span corrupts the Perfetto nesting for its whole track and
trips the ``open_spans == 0`` run invariant).  TRC002/TRC003 pin every
metric and span name emitted anywhere in the tree to the declared
registry in :mod:`repro.trace.names`, so a typo creates a lint error
instead of a silent new lane.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.findings import Finding, Rule
from repro.analysis.visitors import (
    BaseRule,
    FileContext,
    functions_of,
    register,
)
from repro.trace import names as declared

#: Methods whose first literal argument is a metric name.
_METRIC_METHODS = {"counter": declared.COUNTER_NAMES,
                   "gauge": declared.GAUGE_NAMES,
                   "instant": declared.INSTANT_NAMES,
                   "_instant": declared.INSTANT_NAMES}


def _literals_or_patterns(node: ast.expr) -> list[str]:
    """Every name ``node`` can statically evaluate to: a string literal
    verbatim, an f-string reduced to a ``*``-pattern (one ``*`` per
    interpolated field), and both arms of a conditional expression.
    Fully dynamic names (a variable) contribute nothing."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                parts.append("*")
        return ["".join(parts)]
    if isinstance(node, ast.IfExp):
        return (_literals_or_patterns(node.body)
                + _literals_or_patterns(node.orelse))
    return []


@register
class SpanBalanceRule(BaseRule):
    rule = Rule("TRC001",
                "span begin without a guaranteed matching end "
                "(unbalanced on some control path)")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for function in functions_of(ctx.tree):
            yield from self._check_function(ctx, function)

    def _check_function(self, ctx: FileContext,
                        function: ast.AST) -> Iterable[Finding]:
        begins: list[tuple[str, ast.Call]] = []
        ended: dict[str, int] = {}
        finally_ranges: list[tuple[int, int]] = []
        for node in ast.walk(function):
            if isinstance(node, ast.Try) and node.finalbody:
                first = node.finalbody[0]
                last = node.finalbody[-1]
                finally_ranges.append(
                    (first.lineno,
                     getattr(last, "end_lineno", last.lineno)))
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Call) and \
                    self._is_tracer_method(node.value, "begin"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        begins.append((target.id, node.value))
            elif isinstance(node, ast.Call) and \
                    self._is_tracer_method(node, "end"):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        ended.setdefault(arg.id, node.lineno)

        for handle, begin_call in begins:
            end_line = ended.get(handle)
            if end_line is None:
                yield ctx.finding(
                    self.rule, begin_call,
                    f"span handle {handle!r} is begun but never "
                    f"passed to end()")
                continue
            in_finally = any(low <= end_line <= high
                             for low, high in finally_ranges)
            if in_finally:
                continue
            for node in ast.walk(function):
                if isinstance(node, (ast.Return, ast.Raise)) and \
                        begin_call.lineno < node.lineno < end_line:
                    yield ctx.finding(
                        self.rule, node,
                        f"early exit between begin and end of span "
                        f"handle {handle!r}; close it in a finally "
                        f"block")
                    break

    @staticmethod
    def _is_tracer_method(call: ast.Call, method: str) -> bool:
        return isinstance(call.func, ast.Attribute) and \
            call.func.attr == method


@register
class MetricNameRule(BaseRule):
    rule = Rule("TRC002",
                "instant/counter/gauge name not declared in "
                "repro.trace.names")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.path.replace("\\", "/").endswith("trace/names.py"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Attribute)
                    and node.func.attr in _METRIC_METHODS and node.args):
                continue
            universe = _METRIC_METHODS[node.func.attr]
            for name in _literals_or_patterns(node.args[0]):
                if not declared.is_declared(name, universe):
                    yield ctx.finding(
                        self.rule, node,
                        f"{node.func.attr} name {name!r} is not "
                        f"declared in repro.trace.names")


@register
class SpanNameRule(BaseRule):
    rule = Rule("TRC003",
                "span name not declared in repro.trace.names")

    #: ``_trace_service(resource, job_id, name, record, cat)`` is the
    #: package's span-emitting helper; its third argument is a span
    #: name even though the call is not literally ``.complete()``.
    _HELPER_ARG_INDEX = {"_trace_service": 2}

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.path.replace("\\", "/").endswith("trace/names.py"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or \
                    not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            name_node: ast.expr | None = None
            if method in {"begin", "complete"} and len(node.args) >= 2:
                name_node = node.args[1]
            elif method in self._HELPER_ARG_INDEX:
                index = self._HELPER_ARG_INDEX[method]
                if len(node.args) > index:
                    name_node = node.args[index]
            if name_node is None:
                continue
            for name in _literals_or_patterns(name_node):
                if not declared.is_declared(name, declared.SPAN_NAMES):
                    yield ctx.finding(
                        self.rule, node,
                        f"span name {name!r} is not declared in "
                        f"repro.trace.names")
