"""Slabs of large arrays, run on every usable core.

A transform of an array of at least 2**16 elements (a 256^2 state, a 16^4
pair and up) runs on every usable core, one slab per core (see split): a
shear of dynamics, the inverse transforms of a formed coupling's two 3-axis
factors, their 4D product (phasespace._outer, or dynamics._flown_product,
which flies each slab's pieces of the product as it forms them), or a
representation change of phasespace.  The result is bit-identical to the
serial one.  later is
the one place that hands work to the pool: together runs these slabs on
it, and stateio.write_state hashes a state of that size on it while the
run goes on.  The usable cores are the process's CPU affinity, so
``taskset -c 0`` keeps all of it serial.
"""

import os
import threading
from functools import partial

# A transform on at least this many elements runs in one slab per usable core.
# Serial time over two-slab time of one complex dynamics._pass along each axis,
# best of 9 x 50 (x 10 from 2**18), two runs, on a 2-vCPU Intel Xeon KVM guest
# with Python 3.11 and numpy 2.4:
#   128^2 0.59-0.87 | 256x128, 128x256 0.67-1.20 | 256^2 1.22-1.94
#   16^4 0.99-1.74 | 512^2 1.47-2.09 | 32^4 1.29-2.45
# 2**16 splits 256^2 and 16^4, which gain on every axis (one 16^4 reading of
# 0.99 aside), and keeps 2**15 and below, which lose about as often, serial.
PARALLEL_MIN = 1 << 16

# Work done piece by piece takes pieces of about this many elements, 1 MiB
# of complex128 (two 32^3 rows of a 32^4 state), which stay in a core's L2
# cache between their steps and are few enough that numpy's per-call cost
# stays small.
CHUNK = 1 << 16

_pool = None  # (executor or None, cores), made on first use
_pool_lock = threading.Lock()


def _drop_pool():
    # a forked child inherits the executor but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _executor():
    """The thread pool of together (None on one core), and the core count."""
    global _pool
    with _pool_lock:
        if _pool is None:
            cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
            executor = None
            if cores > 1:
                from concurrent.futures import ThreadPoolExecutor

                executor = ThreadPoolExecutor(cores - 1, thread_name_prefix="kvnlab-slab")
            _pool = (executor, cores)
        return _pool


def later(size, fn):
    """``fn``'s result, as a zero-argument callable to call once.

    On work of at least PARALLEL_MIN elements (2**16: a 256^2 state, a 16^4
    pair) ``fn`` goes to the pool, which has one thread per usable core but
    one, and the calling thread goes on.  Calling the result runs ``fn`` on
    the calling thread if the pool has not started it, so a pool thread busy
    or slow to wake (an idle vCPU the host is slow to run again) costs at
    most the serial time; otherwise it waits for ``fn`` and re-raises its
    error.  With one usable core, or below the threshold, ``fn`` runs at
    once, and an error it raises propagates from here.
    """
    executor = _executor()[0] if size >= PARALLEL_MIN else None
    if executor is None:
        value = fn()
        return lambda: value
    return _Pending(executor, fn)


class _Pending:
    """The result of later while ``fn`` is on the pool; whichever thread
    runs ``fn`` lets go of it, so what it holds is freed once it is done."""

    def __init__(self, executor, fn):
        self._fn = fn
        self._future = executor.submit(self._run)

    def _run(self):
        fn, self._fn = self._fn, None
        return fn()

    def __call__(self):
        return self._run() if self.drop() else self._future.result()

    def drop(self):
        """Cancel ``fn`` unless the pool has started it; True once it is cancelled."""
        return self._future.cancel()


def together(size, tasks):
    """Run every callable of ``tasks``; on work of at least PARALLEL_MIN
    elements the calling thread runs the first while the rest go to the pool
    (see later), then takes back each one the pool has not started.

    It waits only for tasks already running.  If a task on the calling
    thread raises, the pool tasks not yet started are dropped, the running
    ones waited for, and the error propagates, as does an error raised on a
    pool thread.  With one usable core, or below the threshold, the calling
    thread runs them all in order.

    On a loaded 2-vCPU KVM guest the caller ran 10-72 of 600 pool slabs
    per evolve_2d pass, and passes were faster in 10 of 15 paired rounds.
    """
    if size < PARALLEL_MIN or len(tasks) < 2 or _executor()[0] is None:
        for task in tasks:
            task()
        return
    rest = [later(size, task) for task in tasks[1:]]
    try:
        tasks[0]()
        for task, result in zip(tasks[1:], rest):
            if result.drop():
                task()
    finally:
        for result in rest:
            if not result.drop():
                result()


def split(arr, axes, block):
    """Run ``block(idx)`` on the slabs ``arr[idx]`` of slabs(arr, axes),
    together.  Every 1-D line along ``axes`` lies whole in one slab, so
    transforms along them are bit-identical to the serial ones.
    """
    together(arr.size, [partial(block, idx) for idx in slabs(arr, axes)])


def slabs(arr, axes):
    """Index tuples of slabs that together cover ``arr``: one slab per usable
    core, cut along its first axis not in ``axes``, for an array large enough
    for the pool (see together); else one slab, the whole array."""
    free = [i for i in range(arr.ndim) if i not in axes]
    cores = _executor()[1] if arr.size >= PARALLEL_MIN and free else 1
    at = free[0] if free else 0
    n = arr.shape[at]
    parts = min(cores, n)
    edges = [n * i // parts for i in range(parts + 1)]
    return [(slice(None),) * at + (slice(lo, hi),) for lo, hi in zip(edges, edges[1:])]


def cut(phase, idx):
    """The part of ``phase`` that multiplies the slab ``idx`` of split."""
    return phase[idx] if phase.shape[len(idx) - 1] > 1 else phase
