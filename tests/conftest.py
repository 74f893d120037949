import errno
import multiprocessing.process
import os

import numpy as np
import pytest

CIFAR_CLASS_COUNT = 10


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a child process is still running, and end it
    so that the tests after it start with none."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"child processes left running: {left}"


@pytest.fixture(scope="session")
def cifar_dir(tmp_path_factory):
    """Synthesized CIFAR-10 binary batches with a recognizable pixel pattern."""
    root = tmp_path_factory.mktemp("cifar")
    rng = np.random.default_rng(0)
    for name, offset in [(f"data_batch_{i}.bin", i) for i in range(1, 6)] + [
        ("test_batch.bin", 0)
    ]:
        records = np.empty((10000, 3073), dtype=np.uint8)
        records[:, 0] = (np.arange(10000) + offset) % CIFAR_CLASS_COUNT
        records[:, 1:] = rng.integers(0, 256, size=(10000, 3072), dtype=np.uint8)
        # pin the first record's first pixels to the map's endpoints
        records[0, 1] = 255
        records[0, 2] = 0
        (root / name).write_bytes(records.tobytes())
    return root


@pytest.fixture()
def two_workers(monkeypatch):
    """``default_workers()`` forced to 2: BLAS pinned and two usable cores."""
    from phoenix import parallel

    if not parallel.can_fork():
        pytest.skip("needs processes started by fork")
    for name in parallel.BLAS_THREAD_VARIABLES:
        monkeypatch.setenv(name, "1")
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    assert parallel.default_workers() == 2


class PidLog:
    """A file that each call to ``append`` adds this process's pid to; a
    forked process's memory never comes back, so what it did goes to a file."""

    def __init__(self, path):
        self.path = path

    def append(self) -> None:
        with open(self.path, "a") as fh:
            fh.write(f"{os.getpid()}\n")

    def pids(self) -> list[int]:
        """The pids appended so far, in order."""
        return [int(line) for line in self.path.read_text().split()]


@pytest.fixture()
def pid_log(tmp_path):
    """``pid_log(name)``: a new ``PidLog`` in the test's temporary directory."""
    return lambda name: PidLog(tmp_path / f"{name}.pids")


@pytest.fixture()
def dies_mid_payload(monkeypatch):
    """A forked process that sends arrays through ``parallel.send`` writes its
    head and half of its first array's bytes, then ends."""
    home, writev = os.getpid(), os.writev

    def half_then_exit(fd, buffers):
        if os.getpid() == home:
            return writev(fd, buffers)
        os.write(fd, buffers[0][:len(buffers[0]) // 2])
        os._exit(1)

    monkeypatch.setattr(os, "writev", half_then_exit)


@pytest.fixture()
def second_start_fails(monkeypatch):
    """The second ``Process.start`` in this process raises ``OSError(EAGAIN)``,
    as a fork does when the system has no process to spare."""
    started, start = [], multiprocessing.process.BaseProcess.start

    def start_or_fail(self):
        started.append(self)
        if len(started) == 2:
            raise OSError(errno.EAGAIN, "scripted: no process to spare")
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start_or_fail)


@pytest.fixture()
def open_fds():
    """A function that lists the file descriptors open in this process."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("open descriptors are listed through /dev/fd")
    return lambda: sorted(os.listdir("/dev/fd"), key=int)
