"""Dataflow-lite taint tracking for the DET ordering rules.

Python ``set``/``frozenset`` iteration order depends on the process
hash seed, so any set whose *iteration order escapes* into scheduler
state (a list, a dict's insertion order, the order callbacks fire) is
a cross-run determinism bug — the exact class ``repro.check`` can only
catch when a scenario happens to tickle it.

The tracker is deliberately "lite": per-function, flow-insensitive
name taint.  A name becomes *unordered* when bound to a set-typed
expression (literal, constructor, comprehension, set algebra, or a
parameter annotated as a set); an *escape* is any construct that
consumes the iteration order (a ``for`` loop, a list/dict
comprehension, ``list()``/``tuple()``/``enumerate()``/``iter()``,
``.pop()``).  Order-insensitive consumers (``sorted``, ``len``,
``min``/``max``, membership tests, set algebra, building another set)
are sanitizers, not escapes.
"""

from __future__ import annotations

import ast

#: Calls that consume iteration order (escape it into sequence state).
ORDER_ESCAPING_CALLS = {"list", "tuple", "enumerate", "iter", "next",
                        "reversed"}

#: Calls that consume a set without depending on iteration order.
#: ``sum`` is included: summing ints/bools over a set is common and
#: exact; float accumulation over an unordered set is rare enough to
#: leave to review (flagging every ``sum`` drowns the signal).
ORDER_SAFE_CALLS = {"sorted", "len", "min", "max", "any", "all", "sum",
                    "set", "frozenset", "bool", "isinstance"}

#: Set-producing constructor / method names.
_SET_CONSTRUCTORS = {"set", "frozenset"}
_SET_METHODS = {"union", "intersection", "difference",
                "symmetric_difference", "copy"}


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in {"Set", "FrozenSet", "AbstractSet"}
    if isinstance(node, ast.Name):
        return node.id in {"set", "frozenset", "Set", "FrozenSet",
                           "AbstractSet"}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
        return text.startswith(("set[", "frozenset[", "Set[",
                                "FrozenSet[")) or text in {
            "set", "frozenset"}
    return False


class UnorderedTaint:
    """Which names in one function hold unordered collections."""

    def __init__(self, function: ast.AST):
        self.function = function
        self.tainted: set[str] = set()
        self._collect()

    # -- taint sources ---------------------------------------------------

    def _collect(self) -> None:
        args = self.function.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            if _annotation_is_set(arg.annotation):
                self.tainted.add(arg.arg)
        # Two passes so ``b = a`` taints ``b`` even when ``a``'s own
        # tainting assignment appears later in the source.
        for _ in range(2):
            for node in ast.walk(self.function):
                if isinstance(node, ast.Assign):
                    if self.is_set_expr(node.value):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                self.tainted.add(target.id)
                elif isinstance(node, ast.AnnAssign) and \
                        isinstance(node.target, ast.Name):
                    if _annotation_is_set(node.annotation) or (
                            node.value is not None
                            and self.is_set_expr(node.value)):
                        self.tainted.add(node.target.id)

    def is_set_expr(self, node: ast.expr) -> bool:
        """True when ``node`` evaluates to a set/frozenset."""
        if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and \
                    func.id in _SET_CONSTRUCTORS:
                return True
            if isinstance(func, ast.Attribute) and \
                    func.attr in _SET_METHODS and \
                    self.is_set_expr(func.value):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)):
            return self.is_set_expr(node.left) or \
                self.is_set_expr(node.right)
        if isinstance(node, ast.IfExp):
            return self.is_set_expr(node.body) or \
                self.is_set_expr(node.orelse)
        return False

    # -- escapes ---------------------------------------------------------

    def order_escapes(self) -> list[tuple[ast.AST, str]]:
        """(node, description) for each place iteration order escapes."""
        escapes: list[tuple[ast.AST, str]] = []
        safe_iters = self._order_safe_iterables()
        for node in ast.walk(self.function):
            if isinstance(node, ast.For) and \
                    self.is_set_expr(node.iter) and \
                    id(node.iter) not in safe_iters:
                escapes.append((node, "for-loop over a set"))
            elif isinstance(node, ast.comprehension) and \
                    self.is_set_expr(node.iter) and \
                    id(node.iter) not in safe_iters:
                escapes.append((node.iter,
                                "comprehension over a set"))
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and \
                        func.id in ORDER_ESCAPING_CALLS and node.args \
                        and self.is_set_expr(node.args[0]):
                    escapes.append(
                        (node, f"{func.id}() over a set"))
                elif isinstance(func, ast.Attribute) and \
                        func.attr == "pop" and not node.args and \
                        self.is_set_expr(func.value):
                    escapes.append(
                        (node, "set.pop() takes an arbitrary element"))
                elif isinstance(func, ast.Attribute) and \
                        func.attr == "join" and node.args and \
                        self.is_set_expr(node.args[0]):
                    escapes.append((node, "str.join over a set"))
        return escapes

    def _order_safe_iterables(self) -> set[int]:
        """ids of iterable expressions consumed order-insensitively.

        A set-comprehension over a set is order-safe (the result is a
        set again); likewise a comprehension whose result feeds only a
        sanitizer call would be, but tracking consumers is beyond the
        lite analysis — set comprehensions cover the common idiom.
        """
        safe: set[int] = set()
        for node in ast.walk(self.function):
            if isinstance(node, ast.SetComp):
                for generator in node.generators:
                    safe.add(id(generator.iter))
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in ORDER_SAFE_CALLS:
                for arg in node.args:
                    safe.add(id(arg))
                    if isinstance(arg, ast.GeneratorExp):
                        for generator in arg.generators:
                            safe.add(id(generator.iter))
        return safe
