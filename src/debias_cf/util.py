"""Small shared helpers: seeded RNG streams, sigmoid, atomic artifact
writes, and the two-sided runner that overlaps the user and item halves
of a loss and the two row lanes of an Adam step."""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

from .errors import ConfigError


def check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def rng_from(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for (seed, purpose-tags).

    Distinct tag tuples yield independent streams, so subsystems never
    share or race on one generator. A negative seed is a ConfigError.
    """
    check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def sigmoid(x):
    """Numerically stable logistic function, branch-free: with
    e = exp(-|x|) it is 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere.
    min(x, -x) is -|x| that keeps a NaN's sign and payload."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out


def atomic_write(path, *parts) -> None:
    """Write parts, all str (as UTF-8) or all bytes-like, to a temporary
    file beside path, then rename it over path. On any error the temporary
    file is removed and path keeps its previous contents. There is no
    fsync: a reader never sees a half-written file, but a power loss may
    lose the last write. A symlink is written through."""
    text = any(isinstance(part, str) for part in parts)
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w" if text else "wb", encoding="utf-8" if text else None) as fh:
            fh.writelines(parts)  # a part of the other kind raises TypeError
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


#: Fewest rows the smaller side of a `both` call needs before its second
#: side goes to the worker thread; below it the hand-off (an empty call
#: took 30-60 us on 2 vCPUs) costs more than the overlap saves. A loss
#: side counts its distinct batch rows, an Adam lane its tensor rows.
PARALLEL_MIN_ROWS = 256

#: The one worker thread of `both`, started on its first submit.
_worker = ThreadPoolExecutor(1, thread_name_prefix="debias-cf-side")


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def both(first, second, rows: int):
    """(first(), second()), with second() on the one worker thread while
    first() runs on the caller's thread. Training calls it for the user
    and item sides of each loss term and for the two lanes of each Adam
    step.

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
    future = _worker.submit(contextvars.copy_context().run, second)
    try:
        a = first()
    finally:
        wait((future,))
    return a, future.result()
