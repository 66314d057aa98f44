"""Slabs of large arrays, run on every usable core.

A transform of an array of at least 2**16 elements (a 256^2 state, a 16^4
pair and up) runs on every usable core, one slab per core (see split): a
shear of dynamics, the inverse transforms of a formed coupling, or a
representation change of phasespace.  The result is bit-identical to the
serial one.  together is the one place that hands work to the pool, for
these slabs and for stateio.save_state, which hashes a state of that size
while it writes it.  The usable cores are the process's CPU affinity, so
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


def together(size, tasks):
    """Run every callable of ``tasks``; on work of at least PARALLEL_MIN
    elements (2**16: a 256^2 state, a 16^4 pair) the pool takes the rest
    while the calling thread runs the first.

    The pool has one thread per usable core but one.  When its own task is
    done the calling thread cancels each pool task that has not started and
    runs it itself, so a pool thread slow to wake (an idle vCPU the host is
    slow to run again) costs at most the serial time; it waits only for
    tasks already running.  If a task on the calling thread raises, the pool
    tasks not yet started are dropped, the running ones waited for, and the
    error propagates, as does an error raised on a pool thread.  With one
    usable core, or below the threshold, the calling thread runs them all
    in order.

    On a loaded 2-vCPU KVM guest the caller ran 10-72 of 600 pool slabs
    per evolve_2d pass, and passes were faster in 10 of 15 paired rounds.
    """
    executor = _executor()[0] if size >= PARALLEL_MIN and len(tasks) > 1 else None
    if executor is None:
        for task in tasks:
            task()
        return
    futures = [executor.submit(task) for task in tasks[1:]]
    try:
        tasks[0]()
        for task, fut in zip(tasks[1:], futures):
            if fut.cancel():
                task()
    finally:
        for fut in futures:
            if not fut.cancel():
                fut.result()


def split(arr, axes, block):
    """Run ``block(idx)`` on slabs ``arr[idx]`` that together cover ``arr``.

    An array large enough for the pool (see together) is cut along its
    first axis not in ``axes`` into one slab per usable core, and the slabs
    run together.  Every 1-D line along ``axes`` lies whole in one slab, so
    transforms along them are bit-identical to the serial ones.
    """
    free = [i for i in range(arr.ndim) if i not in axes]
    cores = _executor()[1] if arr.size >= PARALLEL_MIN and free else 1
    at = free[0] if free else 0
    n = arr.shape[at]
    parts = min(cores, n)
    edges = [n * i // parts for i in range(parts + 1)]
    together(arr.size, [partial(block, (slice(None),) * at + (slice(lo, hi),))
                        for lo, hi in zip(edges, edges[1:])])


def cut(phase, idx):
    """The part of ``phase`` that multiplies the slab ``idx`` of split."""
    return phase[idx] if phase.shape[len(idx) - 1] > 1 else phase
