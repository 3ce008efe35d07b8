"""Dynamic lock sanitizer: the CONC family's runtime counterpart.

The static CONC rules see what the AST shows them; this module watches
what the threads actually do.  :func:`install` monkeypatches
``threading.Lock`` / ``threading.RLock`` with instrumented wrappers
(``threading.Condition``, ``Semaphore``, ``Event`` etc. resolve those
factories at call time, so they are covered automatically), giving
every existing shard/PS/local-runtime test a second life as a lock
checker under ``pytest --sanitize``:

- **Ownership tracking** — releasing a lock a thread does not hold is
  reported instead of silently corrupting the mutex.
- **Held-lock sets + runtime lock-order graph** — locks are classed by
  creation site (lockdep style); acquiring class B while holding class
  A adds the edge A→B, and any cycle in the graph is a potential
  deadlock even if this run didn't interleave into it.

Unguarded reads and writes of shared fields are the static CONC
rules' job (``repro lint``); the sanitizer sees locks only.

The sanitizer's own bookkeeping uses raw ``_thread.allocate_lock()``
so instrumenting ``threading`` cannot recurse into itself.
"""

from __future__ import annotations

import _thread
import sys
import threading

#: Original factories, captured at import so install/uninstall and the
#: wrappers themselves survive repeated patching.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock


class SanitizerError(Exception):
    """Raised by :meth:`Sanitizer.check` when violations were seen."""


def _call_site() -> str:
    """``file:line`` of the nearest caller outside this module and
    :mod:`threading` (so a lock built inside ``Condition.__init__`` is
    classed by the user's ``Condition()`` call site), else of the
    outermost frame."""
    internal = (__file__, threading.__file__)
    frame = sys._getframe(1)
    while frame.f_back is not None and \
            frame.f_code.co_filename in internal:
        frame = frame.f_back
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


class Sanitizer:
    """Collects lock evidence for one instrumented run."""

    def __init__(self, name: str = "sanitizer"):
        self.name = name
        self.violations: list[str] = []
        self._state = _thread.allocate_lock()
        #: thread id -> stack of currently held wrapper locks.
        self._held: dict[int, list] = {}
        #: lock-class site -> {successor site: witness description}.
        self._order: dict[str, dict[str, str]] = {}

    # -- factories ---------------------------------------------------------

    def lock(self, site: str | None = None) -> "SanitizedLock":
        return SanitizedLock(self, site or _call_site())

    def rlock(self, site: str | None = None) -> "SanitizedRLock":
        return SanitizedRLock(self, site or _call_site())

    # -- verdicts ----------------------------------------------------------

    def check(self) -> None:
        """Raise :class:`SanitizerError` if any violation was recorded."""
        with self._state:
            violations = list(self.violations)
        if violations:
            summary = "\n".join(f"- {v}" for v in violations)
            raise SanitizerError(
                f"{self.name}: {len(violations)} concurrency "
                f"violation(s):\n{summary}")

    def _violate(self, message: str) -> None:
        with self._state:
            if message not in self.violations:
                self.violations.append(message)

    # -- held sets & lock order -------------------------------------------

    def _before_acquire(self, lock) -> None:
        """Record order edges *before* blocking: if this acquisition
        would deadlock, the evidence must already be on file."""
        ident = threading.get_ident()
        with self._state:
            held = list(self._held.get(ident, ()))
        for holder in held:
            if holder._site != lock._site:
                self._add_edge(holder._site, lock._site)

    def _after_acquire(self, lock) -> None:
        ident = threading.get_ident()
        with self._state:
            self._held.setdefault(ident, []).append(lock)

    def _on_release(self, lock) -> None:
        ident = threading.get_ident()
        with self._state:
            stack = self._held.get(ident, [])
            if lock in stack:
                stack.remove(lock)
                return
        owner = getattr(lock, "_owner", None)
        self._violate(
            f"lock {lock._site} released by thread {ident} which does "
            f"not hold it (owner: {owner})")

    def _add_edge(self, source: str, target: str) -> None:
        with self._state:
            successors = self._order.setdefault(source, {})
            if target in successors:
                return
            successors[target] = f"{source} -> {target}"
            cycle = self._find_cycle(target, source)
        if cycle is not None:
            path = " -> ".join(cycle + [cycle[0]])
            self._violate(
                f"lock-order inversion: acquiring {target} while "
                f"holding {source} closes the cycle {path}")

    def _find_cycle(self, start: str, goal: str) -> list | None:
        """Path ``start -> ... -> goal`` in the order graph, if any.

        Called with ``_state`` held; the graph is small (one node per
        lock creation site)."""
        stack = [(start, [start])]
        seen = set()
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            if node in seen:
                continue
            seen.add(node)
            for successor in self._order.get(node, ()):
                stack.append((successor, path + [successor]))
        return None


class SanitizedLock:
    """Drop-in ``threading.Lock`` with ownership + order tracking."""

    def __init__(self, sanitizer: Sanitizer, site: str):
        self._inner = _REAL_LOCK()
        self._sanitizer = sanitizer
        self._site = site
        self._owner: int | None = None

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        self._sanitizer._before_acquire(self)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._owner = threading.get_ident()
            self._sanitizer._after_acquire(self)
        return acquired

    def release(self) -> None:
        self._sanitizer._on_release(self)
        self._owner = None
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "locked" if self._inner.locked() else "unlocked"
        return f"<SanitizedLock {state} site={self._site}>"


class SanitizedRLock:
    """Drop-in ``threading.RLock``, including the private protocol
    (``_is_owned``/``_release_save``/``_acquire_restore``) that
    ``threading.Condition`` relies on."""

    def __init__(self, sanitizer: Sanitizer, site: str):
        self._inner = _REAL_LOCK()
        self._sanitizer = sanitizer
        self._site = site
        self._owner: int | None = None
        self._count = 0

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        ident = threading.get_ident()
        if self._owner == ident:
            self._count += 1
            return True
        self._sanitizer._before_acquire(self)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._owner = ident
            self._count = 1
            self._sanitizer._after_acquire(self)
        return acquired

    def release(self) -> None:
        if self._owner != threading.get_ident():
            self._sanitizer._violate(
                f"rlock {self._site} released by thread "
                f"{threading.get_ident()} which does not own it "
                f"(owner: {self._owner})")
            return
        self._count -= 1
        if self._count == 0:
            self._sanitizer._on_release(self)
            self._owner = None
            self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    # -- the Condition protocol -------------------------------------------

    def _is_owned(self) -> bool:
        return self._owner == threading.get_ident()

    def _release_save(self):
        if self._owner != threading.get_ident():
            raise RuntimeError("cannot release un-acquired lock")
        count, self._count = self._count, 0
        self._sanitizer._on_release(self)
        self._owner = None
        self._inner.release()
        return count

    def _acquire_restore(self, saved_count: int) -> None:
        self.acquire()
        self._count = saved_count

    def __repr__(self) -> str:
        return (f"<SanitizedRLock owner={self._owner} "
                f"count={self._count} site={self._site}>")


#: The installed sanitizer, if any (one at a time).
_INSTALLED: Sanitizer | None = None


def current() -> Sanitizer | None:
    """The sanitizer currently patched into :mod:`threading`."""
    return _INSTALLED


def install(sanitizer: Sanitizer) -> Sanitizer:
    """Patch ``threading.Lock``/``RLock`` to hand out instrumented
    wrappers.  ``Condition``, ``Semaphore``, ``Event`` and ``Barrier``
    resolve those module globals per call, so new instances of all of
    them are covered; primitives created *before* install stay raw.
    """
    global _INSTALLED
    if _INSTALLED is not None:
        raise SanitizerError("a sanitizer is already installed")

    def _lock_factory() -> SanitizedLock:
        return sanitizer.lock(_call_site())

    def _rlock_factory() -> SanitizedRLock:
        return sanitizer.rlock(_call_site())

    threading.Lock = _lock_factory
    threading.RLock = _rlock_factory
    _INSTALLED = sanitizer
    return sanitizer


def uninstall() -> None:
    """Restore the real ``threading`` factories.  Wrappers already
    handed out keep working: they own their real locks outright."""
    global _INSTALLED
    threading.Lock = _REAL_LOCK
    threading.RLock = _REAL_RLOCK
    _INSTALLED = None
