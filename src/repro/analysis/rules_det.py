"""DET — determinism rules.

Everything the seeded-replay contract (``python -m repro check --seed
N``) and the bitwise differential pinning against the frozen test
oracles rely on: no wall-clock reads feeding
simulation state, no process-global RNG, no hash-order-dependent
iteration or sorting, no float equality on computed times/scores.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable

from repro.analysis.dataflow import UnorderedTaint
from repro.analysis.findings import Finding, Rule
from repro.analysis.visitors import (
    BaseRule,
    FileContext,
    functions_of,
    register,
)

#: Directories whose wall-clock reads are legitimate by design: the
#: trace layer is explicitly clock-agnostic, and benchmarks measure
#: real elapsed time.
CLOCK_EXEMPT_DIRS = ("trace", "benchmarks")

_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_GLOBAL_RANDOM_PREFIXES = ("random.",)
_NUMPY_LEGACY_RANDOM = {
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "seed", "uniform", "normal", "lognormal",
    "exponential", "poisson", "binomial", "get_state", "set_state",
}
#: numpy.random API that is explicitly seeded / stream-based and fine.
_NUMPY_RANDOM_OK = {"default_rng", "Generator", "SeedSequence",
                    "PCG64", "Philox", "SFC64", "MT19937", "BitGenerator"}

_ENTROPY_CALLS = {"os.urandom", "uuid.uuid1", "uuid.uuid4",
                  "secrets.token_bytes", "secrets.token_hex",
                  "secrets.token_urlsafe", "secrets.randbelow",
                  "secrets.choice"}

#: Names that smell like computed times/scores for the float-equality
#: rule; word-boundary'd so e.g. ``last`` or ``cosine`` do not match.
_FLOAT_KEY_RE = re.compile(
    r"(^|_)(t|time|times|score|scores|cost|costs|seconds|util"
    r"|utilization|rate|duration)(_|$)|(^|_)t\d*$")


def _name_of(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@register
class WallClockRule(BaseRule):
    rule = Rule("DET001",
                "wall-clock read outside trace/ and benchmarks/ "
                "(simulation state must come from the sim clock)")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.in_dir(*CLOCK_EXEMPT_DIRS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.imports.qualify(node.func)
            if qualified in _WALL_CLOCK_CALLS:
                yield ctx.finding(
                    self.rule, node,
                    f"call to {qualified}(); use the simulation clock "
                    f"(sim.now) or the tracer's injected clock")


@register
class GlobalRandomRule(BaseRule):
    rule = Rule("DET002",
                "global random-module use instead of a named "
                "repro.sim.rand stream")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.imports.qualify(node.func)
            if qualified and qualified.startswith(
                    _GLOBAL_RANDOM_PREFIXES) and \
                    not qualified.startswith("random.Random"):
                yield ctx.finding(
                    self.rule, node,
                    f"call to {qualified}(); draw from a named "
                    f"RandomStreams stream so seeding stays "
                    f"compositional")


@register
class NumpyLegacyRandomRule(BaseRule):
    rule = Rule("DET003",
                "legacy numpy.random module-level RNG (process-global "
                "state) instead of a seeded Generator")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.imports.qualify(node.func)
            if not qualified or not qualified.startswith("numpy.random."):
                continue
            tail = qualified.rsplit(".", 1)[-1]
            if tail in _NUMPY_LEGACY_RANDOM and \
                    tail not in _NUMPY_RANDOM_OK:
                yield ctx.finding(
                    self.rule, node,
                    f"call to {qualified}(); use "
                    f"numpy.random.default_rng / RandomStreams")


@register
class SetOrderEscapeRule(BaseRule):
    rule = Rule("DET004",
                "set iteration order escapes into ordered state "
                "(cross-run nondeterminism under hash randomization)")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for function in functions_of(ctx.tree):
            taint = UnorderedTaint(function)
            if not taint.tainted and not self._has_set_literal(function):
                continue
            for node, description in taint.order_escapes():
                yield ctx.finding(
                    self.rule, node,
                    f"{description}; iterate sorted(...) or keep the "
                    f"data in an insertion-ordered structure")

    @staticmethod
    def _has_set_literal(function: ast.AST) -> bool:
        return any(isinstance(node, (ast.Set, ast.SetComp, ast.Call))
                   for node in ast.walk(function))


@register
class IdentityOrderSortRule(BaseRule):
    rule = Rule("DET005",
                "sort keyed by id()/hash() — ordering depends on "
                "allocation addresses / the process hash seed")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            is_sort = (isinstance(node.func, ast.Name)
                       and node.func.id == "sorted") or \
                      (isinstance(node.func, ast.Attribute)
                       and node.func.attr == "sort")
            if not is_sort:
                continue
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                if self._is_identity_key(keyword.value):
                    yield ctx.finding(
                        self.rule, node,
                        "sort key is id()/hash(); use a stable "
                        "domain key (job_id, name, ...)")

    @staticmethod
    def _is_identity_key(key: ast.expr) -> bool:
        if isinstance(key, ast.Name) and key.id in {"id", "hash"}:
            return True
        if isinstance(key, ast.Lambda):
            body = key.body
            if isinstance(body, ast.Call) and \
                    isinstance(body.func, ast.Name) and \
                    body.func.id in {"id", "hash"}:
                return True
        return False


@register
class FloatEqualityRule(BaseRule):
    rule = Rule("DET006",
                "float ==/!= on computed times/scores — exact "
                "equality of derived floats is fragile across "
                "refactors; compare with a tolerance or justify")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq))
                       for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if not all(self._is_floaty(operand) for operand in operands):
                continue
            if any(self._matches_key(operand) for operand in operands):
                yield ctx.finding(
                    self.rule, node,
                    "exact float equality on a time/score value")

    #: Calls whose results are exactly comparable (``times ==
    #: sorted(times)`` is the canonical is-sorted idiom, not float
    #: arithmetic).
    _EXACT_CALLS = {"sorted", "len", "int", "tuple", "list", "set",
                    "frozenset", "str"}

    @classmethod
    def _is_floaty(cls, node: ast.expr) -> bool:
        """Name-like or a non-trivial float literal (0.0 and 1.0 are
        exact sentinels — saturation, disabled — and stay legal)."""
        if isinstance(node, ast.Call):
            return not (isinstance(node.func, ast.Name)
                        and node.func.id in cls._EXACT_CALLS)
        if isinstance(node, (ast.Name, ast.Attribute)):
            return True
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, float):
            return node.value not in (0.0, 1.0)
        return False

    @classmethod
    def _matches_key(cls, node: ast.expr) -> bool:
        name = _name_of(node)
        if name is None and isinstance(node, ast.Call):
            name = _name_of(node.func)
        return bool(name and _FLOAT_KEY_RE.search(name))


@register
class EntropyRule(BaseRule):
    rule = Rule("DET007",
                "ambient entropy source (uuid4/urandom/secrets) — "
                "derive identifiers from seeded streams instead")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.imports.qualify(node.func)
            if qualified in _ENTROPY_CALLS:
                yield ctx.finding(
                    self.rule, node,
                    f"call to {qualified}(); unseeded entropy breaks "
                    f"replay")
