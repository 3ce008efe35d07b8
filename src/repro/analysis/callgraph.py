"""Interprocedural layer for the CONC rules: call graph + class models.

The per-file rules in harmonylint answer "what does this line do?";
the concurrency family needs "who else can touch this state, and what
locks are they holding when they do?".  This module builds that view
once per lint run:

- :class:`FunctionModel` — one function/method scanned with a
  *held-lock tracker*: every ``self.<field>`` access, every mutation of
  a captured (closure) name, every lock acquisition, and every call is
  recorded together with the set of locks statically held at that
  point.  ``with self._lock:`` blocks, nested ``with``, and the manual
  ``acquire()`` / ``try/finally: release()`` idiom all feed the tracker.
- :class:`ClassModel` — a class's lock fields (attributes assigned a
  ``threading`` primitive), field types (attributes assigned a
  resolvable constructor call, plus ``list[T]`` element types from
  annotations and comprehensions), and per-method models.  Private
  methods called only while a lock is held inherit that lock as
  *context* (so a ``_publish`` helper invoked under ``self._lock``
  counts as guarded).
- :class:`ProjectModel` — the cross-file index: qualified class names,
  module-level functions and locks, local-variable type inference
  (constructor assignments, ``for``/comprehension targets over typed
  fields, ``zip`` position mapping), and transitive lock-acquisition
  sets for the lock-order graph (CONC003).

Lock identity is a token tuple: ``("C", class_qualname, attr)`` for
``self.<attr>`` locks, ``("M", module, name)`` for module-level locks,
and ``("F", scope, name)`` for function-local / parameter locks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.visitors import FileContext, ImportMap

#: Qualified constructors whose result is a mutual-exclusion primitive
#: (things one can hold; Condition wraps a lock and is held the same
#: way).
LOCK_FACTORIES = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
}

#: Qualified constructors for sim-hostile threading machinery beyond
#: the lock factories (CONC004 flags both sets in sim-driven code).
THREADING_FACTORIES = LOCK_FACTORIES | {
    "threading.Event", "threading.Barrier", "threading.Thread",
    "threading.Timer",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
}

#: Classes that are thread-safe by contract: mutating through them
#: never needs an extra caller-side lock.
THREADSAFE_CLASSES = {
    "threading.Event", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Barrier",
    "queue.Queue", "queue.LifoQueue", "queue.PriorityQueue",
    "queue.SimpleQueue",
}

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "discard", "remove", "pop",
    "popitem", "clear", "update", "setdefault", "sort", "reverse",
    "put", "push",
}

#: A lock identity: ("C"|"M"|"F", scope, name).
LockToken = tuple


@dataclass(frozen=True)
class Access:
    """One touch of shared state inside a function."""

    #: ``("self", field)`` or ``("name", captured_name)``.
    target: tuple
    node: ast.AST
    write: bool
    #: Lock tokens statically held at the access site.
    held: frozenset
    #: Access happens in ``__init__``/``__post_init__`` (construction).
    in_init: bool = False
    #: Access sits inside a nested ``def`` whose execution context is
    #: unknown to the enclosing method's lock tracker.
    in_nested: bool = False


@dataclass(frozen=True)
class Acquire:
    """One lock acquisition site."""

    token: LockToken
    node: ast.AST
    #: Tokens held *before* this acquisition.
    held: frozenset
    in_nested: bool = False


@dataclass(frozen=True)
class CallSite:
    """One call, classified by how far it can be resolved.

    ``kind`` is ``"self"`` (``self.m()``, target ``(m,)``), ``"field"``
    (``self.f.m()``, target ``(f, m)``), ``"var"`` (``v.m()`` or
    ``v.a.m()``, target ``(v, a..., m)``), or ``"name"`` (a bare or
    imported callable, target ``(qualified,)``).
    """

    kind: str
    target: tuple
    node: ast.Call
    held: frozenset
    in_nested: bool = False


class FunctionModel:
    """Accesses/acquisitions/calls of one function, with held locks."""

    def __init__(self, name: str, node: ast.AST):
        self.name = name
        self.node = node
        self.accesses: list[Access] = []
        self.acquires: list[Acquire] = []
        self.calls: list[CallSite] = []
        #: Names bound inside the function (params + assignments):
        #: anything else mutated here is captured from an outer scope.
        self.local_names: set[str] = set()
        #: Local name -> qualified class of its constructor assignment.
        self.local_types: dict[str, str] = {}
        #: Local name -> qualified element class for typed iterables.
        self.local_elt_types: dict[str, str] = {}
        #: Local/param names known to be locks (for nested scans).
        self.lock_locals: set[str] = set()
        #: Nested function definitions, by name.
        self.nested: dict[str, ast.AST] = {}
        #: Scanned models of the nested defs (thread entry points).
        self.nested_models: dict[str, "FunctionModel"] = {}


def _receiver_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ["a", "b", "c"]; None for non-name chains."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return list(reversed(parts))


def _annotation_chain(node: ast.expr | None) -> ast.expr | None:
    """Unwrap ``T | None`` / ``Optional[T]`` / string annotations."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            if not (isinstance(side, ast.Constant)
                    and side.value is None):
                return _annotation_chain(side)
    if isinstance(node, ast.Subscript):
        base = node.value
        if isinstance(base, ast.Name) and base.id == "Optional":
            return _annotation_chain(node.slice)
        return node
    return node


class _FunctionScanner:
    """One pass over a function body tracking statically held locks."""

    def __init__(self, model: FunctionModel, imports: ImportMap,
                 class_name: str | None, lock_fields: set[str],
                 module_locks: set[str], outer_locks: set[str],
                 scope: str, in_nested: bool = False):
        self.model = model
        self.imports = imports
        self.class_name = class_name
        self.lock_fields = lock_fields
        self.module_locks = module_locks
        #: Names of enclosing-scope locals/params known to be locks.
        self.outer_locks = set(outer_locks)
        self.scope = scope
        self.in_nested = in_nested
        #: Function-local names known to be locks.
        self.local_locks: set[str] = set()
        self.in_init = class_name is not None and \
            model.name in {"__init__", "__post_init__"}

    # -- driving ---------------------------------------------------------

    def scan(self) -> None:
        node = self.model.node
        args = getattr(node, "args", None)
        if args is not None:
            for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                self.model.local_names.add(arg.arg)
                self._note_param(arg)
            for extra in (args.vararg, args.kwarg):
                if extra is not None:
                    self.model.local_names.add(extra.arg)
        self._block(list(node.body), frozenset())
        self.model.lock_locals = set(self.local_locks)

    def _note_param(self, arg: ast.arg) -> None:
        annotation = _annotation_chain(arg.annotation)
        if annotation is None:
            return
        qualified = self.imports.qualify(
            annotation.value if isinstance(annotation, ast.Subscript)
            else annotation)
        if qualified in LOCK_FACTORIES:
            self.local_locks.add(arg.arg)
        elif qualified is not None and \
                not isinstance(annotation, ast.Subscript):
            self.model.local_types[arg.arg] = qualified

    def _block(self, body: list[ast.stmt], held: frozenset) -> None:
        """Scan a statement sequence; ``acquire()``/``release()``
        statements flow the held set forward to their successors."""
        flowing = set(held)
        for stmt in body:
            self._stmt(stmt, flowing)

    def _stmt(self, stmt: ast.stmt, held: set) -> None:
        if isinstance(stmt, ast.With):
            inner = set(held)
            for item in stmt.items:
                self._expr(item.context_expr, frozenset(inner))
                token = self._lock_token(item.context_expr)
                if token is not None:
                    self._record_acquire(token, item.context_expr,
                                         frozenset(inner))
                    inner.add(token)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars,
                                      item.context_expr)
            self._block(stmt.body, frozenset(inner))
        elif isinstance(stmt, ast.Try):
            # The manual idiom ``lock.acquire(); try: ... finally:
            # lock.release()`` is handled by the flowing set: the
            # acquire above this Try already added the token.
            self._block(stmt.body, frozenset(held))
            for handler in stmt.handlers:
                self._block(handler.body, frozenset(held))
            self._block(stmt.orelse, frozenset(held))
            self._block(stmt.finalbody, frozenset(held))
            # A finally that releases drops the token for successors.
            for inner in ast.walk(ast.Module(body=stmt.finalbody,
                                             type_ignores=[])):
                token = self._release_token(inner)
                if token is not None:
                    held.discard(token)
        elif isinstance(stmt, (ast.If, ast.For, ast.While)):
            test = getattr(stmt, "test", None) or getattr(stmt, "iter")
            self._expr(test, frozenset(held))
            if isinstance(stmt, ast.For):
                self._bind_loop_target(stmt.target, stmt.iter)
            self._block(stmt.body, frozenset(held))
            self._block(stmt.orelse, frozenset(held))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.model.local_names.add(stmt.name)
            self.model.nested[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            self.model.local_names.add(stmt.name)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value, frozenset(held))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assignment(stmt, held)
        elif isinstance(stmt, ast.Expr):
            call = stmt.value
            token = self._acquire_token(call)
            if token is not None:
                self._record_acquire(token, call, frozenset(held))
                held.add(token)
                return
            token = self._release_token(call)
            if token is not None:
                held.discard(token)
                return
            self._expr(stmt.value, frozenset(held))
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, frozenset(held))
                elif isinstance(child, ast.stmt):
                    self._stmt(child, set(held))

    # -- assignments & binding -------------------------------------------

    def _assignment(self, stmt: ast.stmt, held: set) -> None:
        frozen = frozenset(held)
        value = stmt.value
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        if value is not None:
            self._expr(value, frozen)
        for target in targets:
            self._store(target, frozen)
            if value is not None:
                self._bind_target(target, value)
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            self._bind_annotation(stmt.target.id, stmt.annotation)
        elif isinstance(stmt, ast.AnnAssign) and \
                self._is_self_attr(stmt.target):
            pass  # class-model handles self-field annotations

    def _store(self, target: ast.expr, held: frozenset) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(element, held)
            return
        if isinstance(target, ast.Starred):
            self._store(target.value, held)
            return
        if isinstance(target, ast.Name):
            self.model.local_names.add(target.id)
            return
        if isinstance(target, ast.Subscript):
            self._mutation_target(target.value, target, held)
            self._expr(target.slice, held)
            return
        if isinstance(target, ast.Attribute):
            chain = _receiver_chain(target)
            if chain and chain[0] == "self" and len(chain) == 2:
                self._record_access(("self", chain[1]), target,
                                    write=True, held=held)
            elif chain and chain[0] != "self" and len(chain) >= 2 and \
                    not self._is_local(chain[0]):
                self._record_access(("name", chain[0]), target,
                                    write=True, held=held)

    def _mutation_target(self, receiver: ast.expr, node: ast.AST,
                         held: frozenset) -> None:
        """Record ``receiver[...] = x`` / ``receiver.mutator(...)``."""
        chain = _receiver_chain(receiver)
        if not chain:
            return
        if chain[0] == "self" and len(chain) >= 2:
            self._record_access(("self", chain[1]), node, write=True,
                                held=held)
        elif chain[0] != "self" and not self._is_local(chain[0]):
            self._record_access(("name", chain[0]), node, write=True,
                                held=held)

    def _bind_target(self, target: ast.expr, value: ast.expr) -> None:
        """Track constructor types for local names."""
        if not isinstance(target, ast.Name):
            return
        constructed = self._constructed_class(value)
        if constructed is not None:
            self.model.local_types[target.id] = constructed
            if constructed in LOCK_FACTORIES:
                self.local_locks.add(target.id)
            return
        elt = self._elt_class(value)
        if elt is not None:
            self.model.local_elt_types[target.id] = elt

    def _bind_annotation(self, name: str,
                         annotation: ast.expr | None) -> None:
        chain = _annotation_chain(annotation)
        if chain is None:
            return
        if isinstance(chain, ast.Subscript):
            elt = self._class_of_expr(chain.slice)
            if elt is not None:
                self.model.local_elt_types[name] = elt
            return
        qualified = self.imports.qualify(chain)
        if qualified is not None:
            self.model.local_types[name] = qualified

    def _bind_loop_target(self, target: ast.expr,
                          iterable: ast.expr) -> None:
        """``for x in <typed iterable>`` binds x's element type."""
        for name, elt in self._iter_bindings(target, iterable):
            self.model.local_types[name] = elt
        if isinstance(target, ast.Name):
            self.model.local_names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self.model.local_names.add(element.id)

    def _iter_bindings(self, target: ast.expr, iterable: ast.expr) \
            -> list[tuple[str, str]]:
        bindings: list[tuple[str, str]] = []
        if isinstance(iterable, ast.Call) and \
                isinstance(iterable.func, ast.Name) and \
                iterable.func.id == "zip" and \
                isinstance(target, (ast.Tuple, ast.List)):
            for element, arg in zip(target.elts, iterable.args):
                if isinstance(element, ast.Name):
                    elt = self._elt_of(arg)
                    if elt is not None:
                        bindings.append((element.id, elt))
            return bindings
        if isinstance(target, ast.Name):
            elt = self._elt_of(iterable)
            if elt is not None:
                bindings.append((target.id, elt))
        return bindings

    def _elt_of(self, iterable: ast.expr) -> str | None:
        """Element class of an iterable expression, if inferable."""
        if isinstance(iterable, ast.Name):
            return self.model.local_elt_types.get(iterable.id)
        chain = _receiver_chain(iterable)
        if chain and chain[0] == "self" and len(chain) == 2 and \
                self._self_elt_types is not None:
            return self._self_elt_types.get(chain[1])
        return self._elt_class(iterable)

    #: Injected by ClassModel: field -> element class for list fields.
    _self_elt_types: dict[str, str] | None = None

    def _constructed_class(self, value: ast.expr) -> str | None:
        """Qualified class when ``value`` is (or may be) ``C(...)``."""
        if isinstance(value, ast.IfExp):
            return self._constructed_class(value.body) or \
                self._constructed_class(value.orelse)
        if isinstance(value, ast.BoolOp):
            for operand in value.values:
                constructed = self._constructed_class(operand)
                if constructed is not None:
                    return constructed
            return None
        if isinstance(value, ast.Call):
            return self._class_of_expr(value.func)
        return None

    def _class_of_expr(self, node: ast.expr) -> str | None:
        qualified = self.imports.qualify(node)
        if qualified is None:
            return None
        head = qualified.split(".")[0]
        if head in self.model.local_names:
            return None
        return qualified

    def _elt_class(self, value: ast.expr) -> str | None:
        """Element class of a list literal / comprehension of calls."""
        if isinstance(value, ast.ListComp):
            for generator in value.generators:
                for name, elt in self._iter_bindings(
                        generator.target, generator.iter):
                    self.model.local_types[name] = elt
            constructed = self._constructed_class(value.elt)
            if constructed is not None:
                return constructed
            if isinstance(value.elt, ast.Name):
                return self.model.local_types.get(value.elt.id)
            return None
        if isinstance(value, ast.List) and value.elts:
            return self._constructed_class(value.elts[0])
        return None

    # -- expressions ------------------------------------------------------

    def _expr(self, node: ast.expr | None, held: frozenset) -> None:
        if node is None:
            return
        # Note: ast.walk descends into lambdas, so a ``wait_for``
        # predicate is scanned inline with the current held set.
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._call(child, held)
            elif isinstance(child, ast.Attribute) and \
                    isinstance(child.ctx, ast.Load):
                chain = _receiver_chain(child)
                if chain and chain[0] == "self" and len(chain) == 2:
                    self._record_access(("self", chain[1]), child,
                                        write=False, held=held)

    def _call(self, node: ast.Call, held: frozenset) -> None:
        chain = _receiver_chain(node.func)
        if chain is None:
            return
        if chain[0] == "self" and len(chain) == 2:
            self.model.calls.append(CallSite(
                "self", (chain[1],), node, held, self.in_nested))
        elif chain[0] == "self" and len(chain) == 3:
            self.model.calls.append(CallSite(
                "field", (chain[1], chain[2]), node, held,
                self.in_nested))
            if chain[2] in MUTATOR_METHODS:
                self._record_access(("self", chain[1]), node,
                                    write=True, held=held)
        elif len(chain) >= 2 and self._is_local(chain[0]):
            self.model.calls.append(CallSite(
                "var", tuple(chain), node, held, self.in_nested))
        elif len(chain) >= 2 and chain[0] in self.imports.aliases:
            # ``threading.Thread(...)`` / ``np.mean(...)``: the root is
            # an imported module or object, not a captured variable.
            qualified = self.imports.qualify(node.func)
            if qualified is not None:
                self.model.calls.append(CallSite(
                    "name", (qualified,), node, held, self.in_nested))
        elif len(chain) >= 2 and not self._is_local(chain[0]):
            # A mutator call on a captured/global name is a write to it.
            if chain[-1] in MUTATOR_METHODS and len(chain) == 2:
                self._record_access(("name", chain[0]), node,
                                    write=True, held=held)
            self.model.calls.append(CallSite(
                "var", tuple(chain), node, held, self.in_nested))
        else:
            qualified = self.imports.qualify(node.func)
            if qualified is not None:
                self.model.calls.append(CallSite(
                    "name", (qualified,), node, held, self.in_nested))

    def _is_local(self, name: str) -> bool:
        return name in self.model.local_names or name == "self"

    # -- locks ------------------------------------------------------------

    def _lock_token(self, node: ast.expr) -> LockToken | None:
        chain = _receiver_chain(node)
        if chain is None:
            return None
        if chain[0] == "self" and len(chain) == 2 and \
                chain[1] in self.lock_fields:
            return ("C", self.class_name, chain[1])
        if len(chain) == 1:
            name = chain[0]
            if name in self.local_locks or name in self.outer_locks:
                return ("F", self.scope, name)
            if name in self.module_locks:
                return ("M", self.imports.module or "", name)
            # ``from repro.core.a import first`` + ``with first:`` —
            # token it under the *defining* module so acquisition
            # edges line up with the module that owns the lock.
            imported = self.imports.aliases.get(name)
            if imported is not None and "." in imported:
                module, lock_name = imported.rsplit(".", 1)
                return ("M", module, lock_name)
        return None

    def _acquire_token(self, node: ast.expr) -> LockToken | None:
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "acquire":
            return self._lock_token(node.func.value)
        return None

    def _release_token(self, node: ast.AST) -> LockToken | None:
        if isinstance(node, ast.Expr):
            node = node.value
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "release":
            return self._lock_token(node.func.value)
        return None

    def _record_acquire(self, token: LockToken, node: ast.AST,
                        held: frozenset) -> None:
        if token in held:
            return  # re-entrant acquisition, no new edge
        self.model.acquires.append(Acquire(token, node, held,
                                           self.in_nested))

    def _record_access(self, target: tuple, node: ast.AST, write: bool,
                       held: frozenset) -> None:
        if target[0] == "name" and target[1] in self.model.local_names:
            return
        self.model.accesses.append(Access(
            target, node, write, held, in_init=self.in_init,
            in_nested=self.in_nested))

    @staticmethod
    def _is_self_attr(node: ast.expr) -> bool:
        return isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self"


def scan_function(node: ast.AST, imports: ImportMap,
                  class_name: str | None = None,
                  lock_fields: set[str] | None = None,
                  module_locks: set[str] | None = None,
                  outer_locks: set[str] | None = None,
                  scope: str = "", in_nested: bool = False,
                  self_elt_types: dict[str, str] | None = None,
                  outer_types: dict[str, str] | None = None) \
        -> FunctionModel:
    """Build the :class:`FunctionModel` for one function node."""
    model = FunctionModel(getattr(node, "name", "<lambda>"), node)
    if outer_types:
        model.local_types.update(outer_types)
    scanner = _FunctionScanner(
        model, imports, class_name, lock_fields or set(),
        module_locks or set(), outer_locks or set(),
        scope or getattr(node, "name", ""), in_nested)
    scanner._self_elt_types = self_elt_types
    scanner.scan()
    return model


class ClassModel:
    """Concurrency-relevant facts about one class."""

    def __init__(self, ctx: FileContext, node: ast.ClassDef):
        self.ctx = ctx
        self.node = node
        self.name = node.name
        self.qualname = f"{ctx.module}.{node.name}"
        self.lock_fields: set[str] = set()
        self.field_types: dict[str, str] = {}
        self.field_elt_types: dict[str, str] = {}
        self.methods: dict[str, FunctionModel] = {}
        self._module_locks = _module_locks(ctx)
        self._collect_fields()
        self._scan_methods()
        self.context_held = self._propagate_context()

    # -- field discovery ---------------------------------------------------

    def _collect_fields(self) -> None:
        imports = self.ctx.imports
        for method in self.node.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            for stmt in ast.walk(method):
                if isinstance(stmt, ast.AnnAssign) and \
                        self._is_self_field(stmt.target):
                    self._note_annotation(stmt.target.attr,
                                          stmt.annotation)
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if not self._is_self_field(target):
                        continue
                    field_name = target.attr
                    qualified = self._value_class(stmt.value, imports,
                                                 method)
                    if qualified in LOCK_FACTORIES:
                        self.lock_fields.add(field_name)
                    elif qualified is not None:
                        self.field_types.setdefault(field_name,
                                                    qualified)
                    elt = self._value_elt(stmt.value, imports)
                    if elt is not None:
                        self.field_elt_types.setdefault(field_name, elt)

    def _note_annotation(self, field_name: str,
                         annotation: ast.expr) -> None:
        chain = _annotation_chain(annotation)
        if chain is None:
            return
        imports = self.ctx.imports
        if isinstance(chain, ast.Subscript):
            elt = _annotation_chain(chain.slice)
            if elt is not None and not isinstance(elt, ast.Subscript):
                qualified = imports.qualify(elt)
                if qualified is not None:
                    self.field_elt_types.setdefault(field_name,
                                                    qualified)
            return
        qualified = imports.qualify(chain)
        if qualified in LOCK_FACTORIES:
            self.lock_fields.add(field_name)
        elif qualified is not None:
            self.field_types.setdefault(field_name, qualified)

    def _value_class(self, value: ast.expr, imports: ImportMap,
                     method: ast.AST) -> str | None:
        if isinstance(value, ast.IfExp):
            return self._value_class(value.body, imports, method) or \
                self._value_class(value.orelse, imports, method)
        if isinstance(value, ast.Call):
            return imports.qualify(value.func)
        return None

    def _value_elt(self, value: ast.expr,
                   imports: ImportMap) -> str | None:
        if isinstance(value, ast.ListComp) and \
                isinstance(value.elt, ast.Call):
            return imports.qualify(value.elt.func)
        if isinstance(value, ast.List) and value.elts and \
                isinstance(value.elts[0], ast.Call):
            return imports.qualify(value.elts[0].func)
        return None

    @staticmethod
    def _is_self_field(target: ast.expr) -> bool:
        return isinstance(target, ast.Attribute) and \
            isinstance(target.value, ast.Name) and \
            target.value.id == "self"

    # -- method scanning ---------------------------------------------------

    def _scan_methods(self) -> None:
        for method in self.node.body:
            if isinstance(method, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                self.methods[method.name] = scan_function(
                    method, self.ctx.imports, class_name=self.qualname,
                    lock_fields=self.lock_fields,
                    module_locks=self._module_locks,
                    scope=f"{self.qualname}.{method.name}",
                    self_elt_types=self.field_elt_types)
                self._scan_nested(self.methods[method.name])

    def _scan_nested(self, model: FunctionModel) -> None:
        """Fold nested defs' facts in, marked execution-context-unknown."""
        for nested_node in model.nested.values():
            nested = scan_function(
                nested_node, self.ctx.imports, class_name=self.qualname,
                lock_fields=self.lock_fields,
                module_locks=self._module_locks,
                outer_locks=_lock_locals(model),
                scope=f"{self.qualname}.{model.name}",
                in_nested=True,
                self_elt_types=self.field_elt_types,
                outer_types=model.local_types)
            model.nested_models[nested.name] = nested
            model.accesses.extend(nested.accesses)
            model.acquires.extend(nested.acquires)
            model.calls.extend(nested.calls)

    # -- lock-context propagation ------------------------------------------

    def _propagate_context(self) -> dict[str, frozenset]:
        """Locks a private method inherits from every call site.

        A helper like ``_publish`` that is *only* called while
        ``self._lock`` is held is effectively guarded by it.  Public
        methods (no leading underscore) are callable from anywhere and
        inherit nothing.
        """
        sites: dict[str, list[frozenset]] = {}
        for caller in self.methods.values():
            for call in caller.calls:
                if call.kind != "self":
                    continue
                callee = call.target[0]
                sites.setdefault(callee, []).append(
                    (call.held, caller.name))
        context: dict[str, frozenset] = {
            name: frozenset() for name in self.methods}
        for _ in range(len(self.methods)):
            changed = False
            for name in self.methods:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                callers = sites.get(name)
                if not callers:
                    continue
                inherited = None
                for held, caller_name in callers:
                    effective = held | context.get(caller_name,
                                                   frozenset())
                    inherited = effective if inherited is None \
                        else inherited & effective
                inherited = inherited or frozenset()
                if inherited != context[name]:
                    context[name] = inherited
                    changed = True
            if not changed:
                break
        return context

    # -- queries -----------------------------------------------------------

    def class_lock_tokens(self) -> set[LockToken]:
        return {("C", self.qualname, attr) for attr in self.lock_fields}

    def effective_accesses(self):
        """(method, access, effective_held) with context folded in."""
        for name, model in self.methods.items():
            context = self.context_held.get(name, frozenset())
            for access in model.accesses:
                yield model, access, access.held | context

    def all_writes_guarded(self, method_name: str,
                           project: "ProjectModel | None" = None,
                           _depth: int = 3) -> bool:
        """Every mutation reachable from ``method_name`` holds a lock.

        Used to decide whether calling into this class from another
        thread is safe without caller-side synchronization.  Follows
        ``self.m()`` calls and, when a project model is supplied,
        one level of typed field calls.
        """
        model = self.methods.get(method_name)
        if model is None:
            return False
        context = self.context_held.get(method_name, frozenset())
        for access in model.accesses:
            if access.write and not access.in_init and \
                    not (access.held | context):
                return False
        if _depth <= 0:
            return True
        for call in model.calls:
            if call.kind == "self":
                callee = call.target[0]
                if callee in self.methods and callee != method_name:
                    if not (call.held | context) and \
                            not self.all_writes_guarded(
                                callee, project, _depth - 1):
                        return False
            elif call.kind == "field" and project is not None:
                field_name, method = call.target
                target_class = project.resolve_class(
                    self.field_types.get(field_name), self.ctx.module)
                if target_class is not None and \
                        method in target_class.methods and \
                        not (call.held | context) and \
                        not target_class.all_writes_guarded(
                            method, project, _depth - 1):
                    return False
        return True


def _module_locks(ctx: FileContext) -> set[str]:
    """Module-level names assigned a lock factory."""
    locks: set[str] = set()
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.Assign) and \
                isinstance(stmt.value, ast.Call):
            qualified = ctx.imports.qualify(stmt.value.func)
            if qualified in LOCK_FACTORIES:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        locks.add(target.id)
    return locks


def _lock_locals(model: FunctionModel) -> set[str]:
    """Names in ``model`` known (or annotated) to be locks, for
    propagation into nested function scans."""
    locks: set[str] = set(model.lock_locals)
    for name, qualified in model.local_types.items():
        if qualified in LOCK_FACTORIES:
            locks.add(name)
    return locks


class ProjectModel:
    """The cross-file index the CONC rules query."""

    def __init__(self, contexts: list[FileContext]):
        self.contexts = contexts
        self.classes: dict[str, ClassModel] = {}
        self.module_functions: dict[
            str, tuple[FileContext, FunctionModel]] = {}
        for ctx in contexts:
            module_locks = _module_locks(ctx)
            for node in ctx.tree.body:
                if isinstance(node, ast.ClassDef):
                    model = ClassModel(ctx, node)
                    self.classes[model.qualname] = model
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    self.module_functions[
                        f"{ctx.module}.{node.name}"] = (
                            ctx, scan_function(
                                node, ctx.imports,
                                module_locks=module_locks,
                                scope=f"{ctx.module}.{node.name}"))

    def resolve_class(self, qualified: str | None,
                      module: str | None = None) -> ClassModel | None:
        """Look up a class by qualified name; a bare name (same-module
        reference, which :meth:`ImportMap.qualify` leaves unqualified)
        also resolves against ``module``."""
        if qualified is None:
            return None
        found = self.classes.get(qualified)
        if found is None and module and "." not in qualified:
            found = self.classes.get(f"{module}.{qualified}")
        return found

    # -- lock-order graph (CONC003) ----------------------------------------

    def may_acquire(self, class_model: ClassModel, method: str,
                    _seen: set | None = None) -> set[LockToken]:
        """Lock tokens ``method`` may transitively acquire."""
        seen = _seen if _seen is not None else set()
        key = (class_model.qualname, method)
        if key in seen:
            return set()
        seen.add(key)
        model = class_model.methods.get(method)
        if model is None:
            return set()
        acquired = {acq.token for acq in model.acquires}
        for call in model.calls:
            if call.kind == "self":
                acquired |= self.may_acquire(class_model,
                                             call.target[0], seen)
            elif call.kind == "field":
                field_name, callee = call.target
                target = self.resolve_class(
                    class_model.field_types.get(field_name),
                    class_model.ctx.module)
                if target is not None:
                    acquired |= self.may_acquire(target, callee, seen)
        return acquired

    def lock_order_edges(self):
        """Directed edges (held -> acquired, witness ctx, node).

        An edge exists when a lock is acquired while another is held —
        directly (nested ``with``) or through a resolvable call whose
        callee may acquire.
        """
        edges: list[tuple[LockToken, LockToken, FileContext,
                          ast.AST]] = []
        for class_model in self.classes.values():
            for model in class_model.methods.values():
                context = class_model.context_held.get(
                    model.name, frozenset())
                for acq in model.acquires:
                    for held in sorted(acq.held | context, key=str):
                        if held != acq.token:
                            edges.append((held, acq.token,
                                          class_model.ctx, acq.node))
                for call in model.calls:
                    held_here = call.held | context
                    if not held_here:
                        continue
                    targets: set[LockToken] = set()
                    if call.kind == "self":
                        targets = self.may_acquire(class_model,
                                                   call.target[0])
                    elif call.kind == "field":
                        field_name, callee = call.target
                        target = self.resolve_class(
                            class_model.field_types.get(field_name),
                            class_model.ctx.module)
                        if target is not None:
                            targets = self.may_acquire(target, callee)
                    for acquired in sorted(targets, key=str):
                        for held in sorted(held_here, key=str):
                            if held != acquired:
                                edges.append((held, acquired,
                                              class_model.ctx,
                                              call.node))
        # Module-level functions participate in the global graph too
        # (cross-file cycles through module locks).
        for ctx, model in self.module_functions.values():
            for acq in model.acquires:
                for held in sorted(acq.held, key=str):
                    if held != acq.token:
                        edges.append((held, acq.token, ctx, acq.node))
        return edges

    def lock_order_cycles(self):
        """Cycles in the acquisition graph, as witness edge lists."""
        graph: dict[LockToken, dict[LockToken, tuple]] = {}
        for source, target, ctx, node in self.lock_order_edges():
            graph.setdefault(source, {}).setdefault(
                target, (ctx, node))
        cycles = []
        reported: set[frozenset] = set()
        for start in sorted(graph, key=str):
            stack = [(start, [start])]
            while stack:
                current, path = stack.pop()
                for neighbor in sorted(graph.get(current, {}),
                                       key=str):
                    if neighbor == start and len(path) > 1:
                        key = frozenset(path)
                        if key not in reported:
                            reported.add(key)
                            witness = [
                                (a, b) + graph[a][b]
                                for a, b in zip(path,
                                                path[1:] + [start])]
                            cycles.append(witness)
                    elif neighbor not in path:
                        stack.append((neighbor, path + [neighbor]))
        return cycles


#: Single-slot memo: project rules in one Analyzer run share one model.
_LAST_MODEL: tuple[list, ProjectModel] | None = None


def project_model(contexts: list[FileContext]) -> ProjectModel:
    """The (memoized) :class:`ProjectModel` for this context list."""
    global _LAST_MODEL
    if _LAST_MODEL is not None and _LAST_MODEL[0] is contexts:
        return _LAST_MODEL[1]
    model = ProjectModel(contexts)
    _LAST_MODEL = (contexts, model)
    return model
