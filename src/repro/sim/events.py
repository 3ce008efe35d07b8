"""Triggerable events for the simulation kernel.

An :class:`Event` is a one-shot waitable: processes yield it to block
until someone calls :meth:`Event.succeed` or :meth:`Event.fail`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

Callback = Callable[["Event"], None]


class Event:
    """A one-shot event that processes can wait on.

    Events are *triggered* at most once, either successfully (with an
    optional value) or with an exception.  Callbacks registered before
    the trigger run synchronously, in registration order, at trigger
    time; callbacks registered after the trigger run immediately.
    """

    __slots__ = ("sim", "name", "_callbacks", "_triggered", "_ok",
                 "_value")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._callbacks: list[Callback] = []
        self._triggered = False
        self._ok = False
        self._value: Any = None

    # -- inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event was triggered successfully."""
        return self._triggered and self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} has no value yet")
        return self._value

    # -- triggering ---------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value``."""
        self._trigger(True, value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exc`` raised at their yield point.
        """
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError(
                f"event {self.name!r} triggered twice (at t={self.sim.now})")
        self._triggered = True
        self._ok = ok
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            # Nothing is appended once triggered (add_callback runs the
            # callback at once), so an empty list can stay in place.
            self._callbacks = []
            for callback in callbacks:
                callback(self)

    # -- waiting ------------------------------------------------------

    def add_callback(self, callback: Callback) -> None:
        """Run ``callback(event)`` when the event triggers."""
        if self._triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name!r} {state} @t={self.sim.now:.3f}>"
