import threading
import time

import numpy as np
import pytest

from debias_cf import util
from debias_cf.util import PARALLEL_MIN_ROWS, atomic_write, both

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


class TestAtomicWrite:
    @pytest.mark.parametrize("mode, old, new", [("w", "old\n", "new\n"),
                                                ("wb", b"old", b"new")])
    def test_replaces_the_file_on_success(self, tmp_path, mode, old, new):
        path = tmp_path / "artifact"
        with atomic_write(path, mode) as fh:
            fh.write(old)
        with atomic_write(path, mode) as fh:
            fh.write(new)
        assert (path.read_bytes() if "b" in mode else path.read_text()) == new
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_writer_that_raises_leaves_previous_file_and_no_temp(self, tmp_path):
        path = tmp_path / "artifact.tsv"
        path.write_text("previous\n")
        with pytest.raises(RuntimeError, match="part-way"):
            with atomic_write(path) as fh:
                fh.write("half of the new")
                fh.flush()
                raise RuntimeError("part-way")
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.tsv"]

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        with atomic_write(link) as fh:
            fh.write("new")
        assert link.is_symlink()
        assert target.read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    def test_failed_checkpoint_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        from debias_cf import embedding as em

        model, proj = em.init_model(6, 7, 4, seed=5, scale=0.3)
        path = tmp_path / "checkpoint.bin"
        em.save_checkpoint(model, proj, path)
        before = path.read_bytes()

        def crc32(payload):  # computed after the header and payload are written
            raise OSError("disk full")

        monkeypatch.setattr(em.zlib, "crc32", crc32)
        with pytest.raises(OSError, match="disk full"):
            em.save_checkpoint(model.copy(), proj, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]

