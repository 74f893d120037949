"""How many processes a run may fork, and how values cross their pipes.

``federation`` forks its client workers and ``diffusion`` its sampling
processes by these rules, so both import them from here. Both also send
every value with ``send`` and take it with ``recv``: a protocol-5 pickle
that leaves the arrays out (PEP 574), then the arrays' bytes, written from
and read into array memory, so a parameter table crosses without a copy in
either process.
"""

from __future__ import annotations

import copyreg
import io
import multiprocessing
import os
import pickle
import struct
from typing import Mapping

import numpy as np

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


# Each array that ``recv`` returns starts at a multiple of this many bytes.
ALIGN = 64
# At most this many buffers go to one ``readv``/``writev`` (IOV_MAX on Linux
# and macOS, the platforms that fork).
_IOV_MAX = 1024


def _transfer(move, fd: int, buffers) -> None:
    """Call ``move`` (``os.readv`` or ``os.writev``) on ``fd`` until every
    buffer is filled or written; a read that meets the end raises ``EOFError``."""
    pending = [memoryview(b) for b in buffers if len(b)]
    first = 0
    while first < len(pending):
        done = move(fd, pending[first:first + _IOV_MAX])
        if done == 0:
            raise EOFError("the pipe ended in the middle of a message")
        while first < len(pending) and done >= len(pending[first]):
            done -= len(pending[first])
            first += 1
        if done:
            pending[first] = pending[first][done:]


def _rebuild_array(buffer, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
    return np.frombuffer(buffer, dtype).reshape(shape)


def _reduce_array(array: np.ndarray):
    """Pickle an array as one C-ordered out-of-band buffer (a non-contiguous
    array is copied into one here), so that ``recv`` returns every array as a
    view of its arena."""
    if array.dtype.hasobject:
        return array.__reduce_ex__(5)
    buffer = pickle.PickleBuffer(np.ascontiguousarray(array))
    return _rebuild_array, (buffer, array.dtype, array.shape)


class _Pickler(pickle.Pickler):
    dispatch_table = {**copyreg.dispatch_table, np.ndarray: _reduce_array}


def send(conn, value) -> None:
    """Send ``value`` through the pipe ``conn`` for ``recv`` to take.

    The message is the pickle of ``value`` with its arrays left out,
    prefixed by their byte sizes; then each array's bytes follow, written
    from the array's own memory. A pipe whose reader is gone raises
    ``OSError``.
    """
    buffers: list[pickle.PickleBuffer] = []
    stream = io.BytesIO()
    _Pickler(stream, 5, buffer_callback=buffers.append).dump(value)
    raws = [b.raw() for b in buffers]
    conn.send_bytes(struct.pack(f"<Q{len(raws)}Q", len(raws), *(r.nbytes for r in raws))
                    + stream.getvalue())
    _transfer(os.writev, conn.fileno(), raws)


def recv(conn):
    """Take one value that ``send`` sent through ``conn``.

    The arrays' bytes are read straight into one new ``ALIGN``-aligned
    arena, and the arrays come back as views of it, so they keep the whole
    arena alive. A pipe that ends before the value is whole raises
    ``EOFError``.
    """
    message = conn.recv_bytes()
    (count,) = struct.unpack_from("<Q", message)
    sizes = struct.unpack_from(f"<{count}Q", message, 8)
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + -(-size // ALIGN) * ALIGN)
    raw = np.empty(offsets[-1] + ALIGN, np.uint8)
    arena = raw[-raw.ctypes.data % ALIGN:]
    buffers = [arena[lo:lo + size] for lo, size in zip(offsets, sizes)]
    _transfer(os.readv, conn.fileno(), buffers)
    return pickle.loads(memoryview(message)[8 * (count + 1):], buffers=buffers)
