"""Tests for the simulation kernel's event primitives."""

import pytest

from repro.errors import SimulationError


class TestEvent:
    def test_starts_untriggered(self, sim):
        event = sim.event("e")
        assert not event.triggered
        assert not event.ok

    def test_succeed_delivers_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event("e").value

    def test_double_trigger_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_carries_exception(self, sim):
        event = sim.event()
        error = ValueError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_callback_after_trigger_runs_immediately(self, sim):
        event = sim.event()
        event.succeed(1)
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [1]

    def test_callbacks_run_in_registration_order(self, sim):
        event = sim.event()
        order = []
        event.add_callback(lambda e: order.append("a"))
        event.add_callback(lambda e: order.append("b"))
        event.succeed()
        assert order == ["a", "b"]

    def test_timeout_triggers_at_deadline(self, sim):
        event = sim.timeout(5.0, value="done")
        sim.run()
        assert sim.now == 5.0
        assert event.value == "done"
