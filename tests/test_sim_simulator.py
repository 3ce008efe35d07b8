"""Tests for the simulator event loop."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


class TestClock:
    def test_step_skips_a_cancelled_head(self, sim):
        fired = []
        handle = sim.call_at(1.0, lambda: fired.append("cancelled"))
        sim.call_at(2.0, lambda: fired.append("live"))
        sim.cancel(handle)
        assert sim.step() is True
        assert fired == ["live"]
        assert sim.now == 2.0

    def test_step_refuses_an_entry_behind_a_warped_clock(self, sim):
        sim.call_at(5.0, lambda: None)
        sim.warp(10.0)
        with pytest.raises(SimulationError, match="backwards in time"):
            sim.step()

    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=10.0).now == 10.0

    def test_callbacks_run_in_time_order(self, sim):
        order = []
        sim.call_at(3.0, lambda: order.append(3))
        sim.call_at(1.0, lambda: order.append(1))
        sim.call_at(2.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_ties_run_in_schedule_order(self, sim):
        order = []
        sim.call_at(1.0, lambda: order.append("a"))
        sim.call_at(1.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b"]

    def test_call_in_is_relative(self, sim):
        times = []
        sim.call_at(5.0, lambda: sim.call_in(2.0,
                                             lambda: times.append(sim.now)))
        sim.run()
        assert times == [7.0]

    def test_scheduling_in_the_past_raises(self, sim):
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.call_in(-1.0, lambda: None)


class TestRunControl:
    def test_run_until_stops_clock_at_limit(self, sim):
        fired = []
        sim.call_at(10.0, lambda: fired.append(True))
        end = sim.run(until=4.0)
        assert end == 4.0
        assert not fired
        # The pending callback still runs on a later unrestricted run.
        sim.run()
        assert fired

    def test_run_until_advances_clock_even_when_idle(self, sim):
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_run_until_before_now_raises_and_keeps_clock(self, sim):
        sim.call_at(10.0, lambda: None)
        sim.call_at(20.0, lambda: None)
        sim.run(until=15.0)
        with pytest.raises(SimulationError, match="before now"):
            sim.run(until=5.0)
        assert sim.now == 15.0
        assert sim.run() == 20.0

    @pytest.mark.parametrize("until", [-1.0, float("nan")])
    def test_run_until_must_not_precede_the_clock(self, sim, until):
        sim.call_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(until=until)
        assert sim.now == 0.0

    def test_scheduling_at_nan_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.call_at(float("nan"), lambda: None)
        assert sim.peek() is None

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_peek_reports_next_event_time(self, sim):
        assert sim.peek() is None
        sim.call_at(9.0, lambda: None)
        assert sim.peek() == 9.0

    def test_reentrant_run_raises(self, sim):
        def reenter():
            sim.run()
        sim.call_at(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_scheduled_during_run_execute(self, sim):
        seen = []
        sim.call_at(1.0, lambda: sim.call_in(1.0,
                                             lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]
