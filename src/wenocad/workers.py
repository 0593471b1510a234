"""The process's one worker thread, shared by the solvers and training.

Work that may overlap the calling thread goes to a pool of one thread:
the y sweep of a 2D stage (`solvers.driver`) and each epoch's
full-dataset loss (`training.loop`).  `CPUS` counts the CPUs the process
may run on, once, at import; with fewer than two, callers run the work
inline and no thread is made.  The pool is made on first use and made
again in a forked child, where the parent's worker thread does not
exist.  A job runs in a copy of the submitting thread's context, so
numpy's error state reaches it.  Only the standard library is imported.
"""

from __future__ import annotations

import contextvars
import os
from concurrent import futures

CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)
_pool = None
_pool_pid = None


def submit(fn, *args):
    """fn(*args) on the worker thread, in a copy of the caller's context;
    returns its Future."""
    global _pool, _pool_pid
    if _pool_pid != os.getpid():
        _pool = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="wenocad-worker")
        _pool_pid = os.getpid()
    return _pool.submit(contextvars.copy_context().run, fn, *args)
