"""The host's current speed, read from a fixed pure-Python kernel.

The host shares its cores with other work, and its speed moves between a
few levels up to 2.4x apart, often within a second.  Timing one fixed
kernel next to each measured call tells how fast the host ran just then,
so that the call's time can be reported at one reference speed.  The
kernel is the benchmark's own code and runs with the garbage collector
off, so the amount of data the program keeps alive does not enter its
time.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Host seconds the kernel takes at the reference speed.  Reported times
#: are scaled to it: time x REFERENCE_KERNEL_S / kernel time nearby.
REFERENCE_KERNEL_S = 0.0025
#: Least host time between two kernel samples around calls, which keeps
#: the samples under a tenth of the time of a stream of short calls.
SAMPLE_EVERY_S = 0.05


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float):
        self.key = key
        self.value = value


def kernel_seconds() -> float:
    """Host time of one run of the kernel: objects, a dict, a heap and
    float arithmetic, the operations the program spends its time on.

    The garbage collector is off meanwhile: the kernel's allocations
    would otherwise set off collections that walk the program's whole
    heap, and the kernel's time would grow with the program's live data.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: dict[int, float] = {}
        heap: list[tuple[float, int]] = []
        total = 0.0
        for index in range(3000):
            item = _Item(index % 97, index * 0.5)
            table[item.key] = table.get(item.key, 0.0) + item.value
            heapq.heappush(heap, (item.value % 13.0, index))
            if len(heap) > 64:
                total += heapq.heappop(heap)[0]
        total += sum(sorted(table.values())[:10])
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_KERNEL_S / kernel_s


def current_kernel_seconds() -> float:
    """The kernel's median time over five back-to-back runs."""
    return statistics.median(kernel_seconds() for _ in range(5))


class SpeedProbe:
    """Runs the kernel between calls, at most once per
    :data:`SAMPLE_EVERY_S`, and gives each call the mean of the kernel
    times just before and just after it."""

    def __init__(self) -> None:
        #: Kernel seconds around each call, in call order.
        self.kernel_s: list[float] = []
        self._last_at = -float("inf")
        self._last_s = 0.0
        self._waiting = 0

    def before_call(self) -> None:
        if time.perf_counter() - self._last_at >= SAMPLE_EVERY_S:
            self.sample()

    def after_call(self) -> None:
        self._waiting += 1

    def sample(self) -> None:
        kernel_s = kernel_seconds()
        if self._waiting:
            self.kernel_s += [(self._last_s + kernel_s) / 2] * self._waiting
            self._waiting = 0
        self._last_s = kernel_s
        self._last_at = time.perf_counter()
