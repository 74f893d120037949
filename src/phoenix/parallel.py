"""How many processes a run may fork: the BLAS pin, the usable cores, fork.

``federation`` forks its client workers and ``diffusion`` its sampling
processes by these rules, so both import them from here.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Mapping

# The variables that set the thread count of OpenBLAS, MKL and OpenMP BLAS.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def blas_pinned(environ: Mapping[str, str] = os.environ) -> bool:
    """Whether ``environ`` pins BLAS to one thread: at least one of
    ``BLAS_THREAD_VARIABLES`` is set, and every one that is set says 1."""
    values = [environ[name].strip() for name in BLAS_THREAD_VARIABLES if name in environ]
    return bool(values) and all(value == "1" for value in values)


def usable_cores() -> int:
    """The cores this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def can_fork() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def check_workers(workers: int) -> None:
    """Refuse a worker count ``run_federation`` cannot run with."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers > 1 and not can_fork():
        raise ValueError(f"{workers} workers need processes started by fork, "
                         f"which this platform lacks; use 1 worker")


def default_workers() -> int:
    """The worker count of a run that names none: every usable core when BLAS
    is pinned to one thread and the platform forks; else 1.

    A forked worker inherits its parent's BLAS threads, so with BLAS
    unpinned the workers fight over the cores: two desk workers took 68-88 s
    where one took 31-32 s.
    """
    return usable_cores() if blas_pinned() and can_fork() else 1
