"""Small shared helpers: seeded RNG streams, sigmoid, atomic artifact
writes, and the two-sided runner that overlaps the user and item halves
of a loss."""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError


def rng_from(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for (seed, purpose-tags).

    Distinct tag tuples yield independent streams, so subsystems never
    share or race on one generator. A negative seed is a ConfigError.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside path for writing ("w" as UTF-8 text,
    or "wb"). It replaces path only once the block ends without an error;
    on an error it is removed and path keeps its previous contents. There
    is no fsync: a reader never sees a half-written file, but a power loss
    may lose the last write. A symlink is written through."""
    encoding = None if "b" in mode else "utf-8"
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


#: Fewest rows the smaller side of a `both` call needs before its second
#: side goes to the worker thread; below it the hand-off costs more than
#: the overlap saves.
PARALLEL_MIN_ROWS = 256

_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _side_worker() -> ThreadPoolExecutor:
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(1, thread_name_prefix="debias-cf-side")
        return _worker


def both(first, second, rows: int):
    """(first(), second()), with second() on the one worker thread while
    first() runs on the caller's thread.

    The two must not write anything the other reads, and second() must
    not call both, whose one worker would then wait on itself. Both run
    on the caller's thread, one after the other, when the process has
    fewer than two usable CPUs or when rows, the smaller side's row count,
    is below PARALLEL_MIN_ROWS. The worker runs in a copy of the caller's
    context, so numpy's errstate carries over. An error is raised only
    once neither side is still running; when both fail, first()'s error
    wins.
    """
    if rows < PARALLEL_MIN_ROWS or usable_cpus() < 2:
        return first(), second()
    future = _side_worker().submit(contextvars.copy_context().run, second)
    try:
        a = first()
    finally:
        wait((future,))
    return a, future.result()
