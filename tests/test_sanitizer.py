"""Tests for the dynamic race sanitizer (repro.analysis.sanitizer):
lock-order inversion detection, ownership tracking, and
install()/uninstall() patching of the real ``threading`` factories."""

import threading

import pytest

from repro.analysis.sanitizer import (
    Sanitizer,
    SanitizerError,
    current,
    install,
    uninstall,
)


@pytest.fixture
def sanitizer():
    return Sanitizer(name="test")


def run_thread(target, *args):
    thread = threading.Thread(target=target, args=args)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestLockOrder:
    def test_seeded_inversion_detected(self, sanitizer):
        """The acceptance regression: acquiring two locks in opposite
        orders — even sequentially, without an actual deadlock — is
        reported as a lock-order inversion."""
        first = sanitizer.lock("a.py:1")
        second = sanitizer.lock("b.py:1")
        with first:
            with second:
                pass
        with second:
            with first:
                pass
        with pytest.raises(SanitizerError, match="lock-order inversion"):
            sanitizer.check()

    def test_inversion_across_threads_detected(self, sanitizer):
        first = sanitizer.lock("a.py:1")
        second = sanitizer.lock("b.py:1")
        with first:
            with second:
                pass

        def backward():
            with second:
                with first:
                    pass

        run_thread(backward)
        with pytest.raises(SanitizerError, match="lock-order inversion"):
            sanitizer.check()

    def test_three_lock_cycle_detected(self, sanitizer):
        locks = [sanitizer.lock(f"site{i}") for i in range(3)]
        for i in range(3):
            with locks[i]:
                with locks[(i + 1) % 3]:
                    pass
        with pytest.raises(SanitizerError, match="closes the cycle"):
            sanitizer.check()

    def test_consistent_order_clean(self, sanitizer):
        first = sanitizer.lock("a.py:1")
        second = sanitizer.lock("b.py:1")
        for _ in range(3):
            with first:
                with second:
                    pass
        sanitizer.check()

    def test_diamond_of_consistent_orders_clean(self, sanitizer):
        """Two paths to one lock are not a cycle: the search visits
        the shared successor once."""
        a, b, c, d, e = (sanitizer.lock(f"{name}.py:1")
                         for name in "abcde")
        for first, second in ((a, b), (a, c), (b, d), (c, d), (e, a)):
            with first:
                with second:
                    pass
        sanitizer.check()

    def test_reentrant_rlock_no_self_edge(self, sanitizer):
        rlock = sanitizer.rlock("a.py:1")
        with rlock:
            with rlock:
                pass
        sanitizer.check()


class TestOwnership:
    def test_locked_and_repr_show_the_state(self, sanitizer):
        lock = sanitizer.lock("a.py:1")
        rlock = sanitizer.rlock("b.py:1")
        assert not lock.locked()
        assert repr(lock) == "<SanitizedLock unlocked site=a.py:1>"
        with lock, rlock, rlock:
            assert lock.locked()
            assert repr(lock) == "<SanitizedLock locked site=a.py:1>"
            assert repr(rlock) == (f"<SanitizedRLock owner="
                                   f"{threading.get_ident()} count=2 "
                                   f"site=b.py:1>")
        sanitizer.check()

    def test_foreign_release_detected(self, sanitizer):
        lock = sanitizer.lock("a.py:1")
        lock.acquire()
        run_thread(lock.release)
        with pytest.raises(SanitizerError, match="does not hold it"):
            sanitizer.check()

    def test_foreign_rlock_release_detected(self, sanitizer):
        rlock = sanitizer.rlock("a.py:1")
        rlock.acquire()
        run_thread(rlock.release)
        with pytest.raises(SanitizerError, match="does not own it"):
            sanitizer.check()
        rlock.release()

    def test_a_repeated_violation_is_recorded_once(self, sanitizer):
        rlock = sanitizer.rlock("a.py:1")
        rlock.acquire()

        def release_twice():
            rlock.release()
            rlock.release()

        run_thread(release_twice)
        assert len(sanitizer.violations) == 1
        rlock.release()

    def test_a_failed_nonblocking_acquire_takes_nothing(self, sanitizer):
        rlock = sanitizer.rlock("a.py:1")
        held = threading.Event()
        done = threading.Event()

        def hold():
            with rlock:
                held.set()
                done.wait(timeout=10)

        thread = threading.Thread(target=hold)
        thread.start()
        assert held.wait(timeout=10)
        assert rlock.acquire(blocking=False) is False
        done.set()
        thread.join(timeout=10)
        assert rlock.acquire(blocking=False) is True
        rlock.release()
        sanitizer.check()

    def test_condition_protocol_refuses_a_non_owner(self, sanitizer):
        """``_release_save`` keeps ``threading._RLock``'s own check,
        though ``Condition.wait`` tests ``_is_owned()`` first."""
        rlock = sanitizer.rlock("a.py:1")
        with pytest.raises(RuntimeError, match="un-acquired"):
            rlock._release_save()
        sanitizer.check()


class TestInstall:
    @pytest.fixture(autouse=True)
    def _bare_threading(self):
        """These tests drive install() themselves; under
        ``pytest --sanitize`` the session sanitizer is stashed and
        reinstated so the two don't collide."""
        ambient = current()
        if ambient is not None:
            uninstall()
        yield
        if current() is not None:
            uninstall()
        if ambient is not None:
            install(ambient)

    def test_patched_factories_feed_the_sanitizer(self):
        sanitizer = install(Sanitizer(name="patched"))
        try:
            first = threading.Lock()
            second = threading.Lock()
            with first:
                with second:
                    pass
            with second:
                with first:
                    pass
        finally:
            uninstall()
        with pytest.raises(SanitizerError, match="lock-order inversion"):
            sanitizer.check()

    def test_condition_roundtrip_clean(self):
        """Condition resolves the patched RLock at call time; a
        wait/notify round-trip must not produce false violations."""
        sanitizer = install(Sanitizer(name="condition"))
        try:
            condition = threading.Condition()
            ready = []

            def producer():
                with condition:
                    ready.append(True)
                    condition.notify()

            with condition:
                threading.Thread(target=producer).start()
                assert condition.wait_for(lambda: ready, timeout=10)
        finally:
            uninstall()
        sanitizer.check()

    def test_double_install_rejected(self):
        sanitizer = install(Sanitizer(name="one"))
        try:
            with pytest.raises(SanitizerError, match="already installed"):
                install(Sanitizer(name="two"))
            assert current() is sanitizer
        finally:
            uninstall()

    def test_uninstall_restores_real_factories(self):
        real_lock = threading.Lock
        install(Sanitizer(name="temp"))
        assert threading.Lock is not real_lock
        uninstall()
        assert threading.Lock is real_lock
        assert current() is None
