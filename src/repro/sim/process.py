"""Generator-based simulated processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  Yielding an event suspends the process until the event
triggers; the event's value is sent back into the generator (or its
exception raised at the yield point).  A :class:`Process` is itself an
event that triggers when the generator returns, so processes can wait
on each other.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING

from repro.errors import ProcessKilled, SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator


class Process(Event):
    """A running simulated process.

    The process starts on construction: its first step executes via a
    zero-delay callback so that spawning is safe from within another
    process's step.
    """

    __slots__ = ("_generator", "_alive", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str = "process"):
        super().__init__(sim, name)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process {name!r} requires a generator, got "
                f"{type(generator).__name__}")
        self._generator = generator
        self._alive = True
        self._waiting_on: Event | None = None
        sim.call_in(0.0, lambda: self._step(None, None))

    @property
    def alive(self) -> bool:
        """True while the generator has not finished or been killed."""
        return self._alive

    def kill(self) -> None:
        """Interrupt the process by raising
        :class:`~repro.errors.ProcessKilled` at its yield point.

        If the generator does not catch it, the process event *succeeds*
        with value ``None`` (a kill is a normal way to end a process, not
        a simulation failure).
        """
        if not self._alive:
            return
        self._waiting_on = None  # detach from whatever we were awaiting
        self._step(None, ProcessKilled(self.name))

    # -- stepping ------------------------------------------------------

    def _on_wait_complete(self, event: Event) -> None:
        if not self._alive or event is not self._waiting_on:
            return  # stale callback (we were killed or redirected)
        self._waiting_on = None
        # A callback runs only once its event has triggered, so the
        # slots can be read without the public properties' checks.
        if event._ok:
            self._step(event._value, None)
        else:
            self._step(None, event._value)

    def _step(self, value, exc) -> None:
        while True:
            if not self._alive:
                return
            try:
                if exc is not None:
                    target = self._generator.throw(exc)
                else:
                    target = self._generator.send(value)
            except StopIteration as stop:
                self._finish(ok=True, value=stop.value)
                return
            except ProcessKilled:
                # The kill's traceback holds this frame, and ``exc``
                # here holds the kill: drop it, or every killed process
                # leaves an exception <-> traceback <-> frame cycle.
                del exc
                self._finish(ok=True, value=None)
                return
            except BaseException as error:  # noqa: BLE001 - via event
                self._finish(ok=False, value=error)
                return
            if not isinstance(target, Event):
                self._generator.close()
                self._finish(ok=False, value=SimulationError(
                    f"process {self.name!r} yielded "
                    f"{type(target).__name__}, expected an Event"))
                return
            if target._triggered:
                # Already-triggered target: resume in place instead of
                # recursing through add_callback -> _on_wait_complete
                # -> _step.  A long synchronous chain of ready events
                # (zero-work subtasks, or a fast-path batch serving a
                # whole job inline) would otherwise overflow the stack.
                if target._ok:
                    value, exc = target._value, None
                else:
                    value, exc = None, target._value
                continue
            self._waiting_on = target
            # add_callback without its triggered check, made just above.
            target._callbacks.append(self._on_wait_complete)
            return

    def _finish(self, ok: bool, value) -> None:
        self._alive = False
        if ok:
            self.succeed(value)
            return
        if not self._callbacks:
            # Nobody is waiting on this process: an error here would be
            # silently lost, leaving the simulation inconsistent.  Fail
            # fast instead of swallowing it.
            raise value
        self.fail(value)
