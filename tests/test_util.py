import threading
import time

import numpy as np
import pytest

from debias_cf import util
from debias_cf.util import PARALLEL_MIN_ROWS, both

WAIT_S = 5.0


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(util, "usable_cpus", lambda: 2)


def slow_side(done):
    def run():
        time.sleep(0.1)
        done.set()
        return "slow"
    return run


def failing_side(message):
    def run():
        raise RuntimeError(message)
    return run


class TestBoth:
    def test_second_runs_on_the_worker_also_after_an_error(self, two_cpus):
        with pytest.raises(RuntimeError):
            both(lambda: None, failing_side("second"), PARALLEL_MIN_ROWS)
        caller = threading.current_thread()
        for _ in range(2):
            threads = both(threading.current_thread, threading.current_thread,
                           PARALLEL_MIN_ROWS)
            assert threads[0] is caller
            assert threads[1] is not caller

    @pytest.mark.parametrize("cpus, rows", [(2, PARALLEL_MIN_ROWS - 1), (1, 10**6)])
    def test_serial_on_the_caller_below_gate_or_with_one_cpu(self, monkeypatch, cpus, rows):
        monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
        caller = threading.current_thread()
        threads = both(threading.current_thread, threading.current_thread, rows)
        assert threads == (caller, caller)

    def test_first_error_waits_for_second(self, two_cpus):
        done = threading.Event()
        with pytest.raises(RuntimeError, match="first"):
            both(failing_side("first"), slow_side(done), PARALLEL_MIN_ROWS)
        assert done.is_set()

    def test_second_error_waits_for_first(self, two_cpus):
        done = threading.Event()
        with pytest.raises(RuntimeError, match="second"):
            both(slow_side(done), failing_side("second"), PARALLEL_MIN_ROWS)
        assert done.is_set()

    def test_first_error_wins_when_both_fail(self, two_cpus):
        started = threading.Event()

        def second():
            started.set()
            raise RuntimeError("second")

        def first():
            assert started.wait(WAIT_S)
            raise RuntimeError("first")

        with pytest.raises(RuntimeError, match="first"):
            both(first, second, PARALLEL_MIN_ROWS)

    def test_worker_sees_the_callers_errstate(self, two_cpus):
        def divide():
            return np.ones(2) / np.zeros(2)

        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                both(lambda: None, divide, PARALLEL_MIN_ROWS)
