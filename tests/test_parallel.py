import errno
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from phoenix import diffusion, parallel
from phoenix.schedule import linear_schedule
from phoenix.unet import DenoiserConfig, build_unet

pytestmark = pytest.mark.skipif(not parallel.can_fork(),
                                reason="needs processes started by fork")


def arena(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def round_trip(value, duplex):
    """``value`` sent by a forked process through a pipe and received here."""
    fork = multiprocessing.get_context("fork")
    here, there = fork.Pipe(duplex=duplex)
    proc = fork.Process(target=parallel.send, args=(there, value), daemon=True)
    proc.start()
    there.close()
    try:
        return parallel.recv(here)
    finally:
        here.close()
        proc.join(timeout=30)
        assert not proc.is_alive()


@pytest.mark.parametrize("duplex", [False, True], ids=["one-way", "duplex"])
def test_arrays_arrive_bitwise_aligned_and_in_one_arena(duplex):
    rng = np.random.default_rng(0)
    table = rng.standard_normal((700, 600)).astype(np.float32)  # beyond a pipe's buffer
    table[0, :3] = [-0.0, 1e-40, np.float32(-1e-45)]
    sent = {"c-ordered": table, "non-contiguous": table[::3, 1::2],
            "0-d": np.array(2.5, np.float32), "empty": np.empty((0, 4), np.float32),
            "int64": np.arange(5)}
    round_no, tag, got = round_trip((7, "tag", sent), duplex)
    assert (round_no, tag) == (7, "tag")
    for name, want in sent.items():
        assert got[name].dtype == want.dtype and got[name].shape == want.shape
        assert got[name].tobytes() == want.tobytes()
        assert got[name].ctypes.data % parallel.ALIGN == 0
        assert not got[name].flags.owndata and got[name].flags.writeable
    assert len({id(arena(a)) for a in got.values()}) == 1


def test_exception_arrives_with_its_type_and_message():
    got = round_trip(KeyError("scripted"), duplex=False)
    assert type(got) is KeyError and got.args == ("scripted",)


def test_pipe_ending_mid_payload_raises_eof(dies_mid_payload):
    with pytest.raises(EOFError):
        round_trip({"w": np.ones(10_000, np.float32)}, duplex=False)
    assert multiprocessing.active_children() == []


def test_reader_gone_mid_payload_raises_os_error():
    here, there = multiprocessing.get_context("fork").Pipe(duplex=False)

    def take_head_then_close():
        here.recv_bytes()
        here.close()

    reader = threading.Thread(target=take_head_then_close)
    reader.start()
    with pytest.raises(OSError):
        parallel.send(there, np.ones(1_000_000, np.float32))  # beyond a pipe's buffer
    reader.join(timeout=30)
    there.close()


class Lost(Exception):
    """The error a test names for a child that is gone."""


def until_end(conn):
    """A child that waits until the parent closes its end of the pipe."""
    try:
        conn.recv_bytes()
    except EOFError:
        pass


def fork_three():
    with parallel.forked(until_end, [(), (), ()]):
        pass


def test_no_shares_fork_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("asked to fork")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    with parallel.forked(refuse, []) as conns:
        assert conns == []


def test_child_exception_is_raised_as_it_was():
    def fail(conn):
        raise KeyError("scripted")

    with pytest.raises(KeyError) as caught:
        with parallel.forked(fail, [()]) as conns:
            parallel.reply(conns[0], Lost())
    assert type(caught.value) is KeyError and caught.value.args == ("scripted",)
    assert multiprocessing.active_children() == []


def test_killed_child_raises_the_callers_error():
    lost = Lost("scripted")
    with pytest.raises(Lost) as caught:
        with parallel.forked(lambda conn: os.kill(os.getpid(), signal.SIGKILL),
                             [()]) as conns:
            parallel.reply(conns[0], lost)
    assert caught.value is lost
    assert multiprocessing.active_children() == []


def test_error_in_the_block_terminates_the_children():
    began = time.monotonic()
    with pytest.raises(ValueError, match="^here$"):
        with parallel.forked(lambda conn: time.sleep(60), [()]):
            raise ValueError("here")
    assert multiprocessing.active_children() == []
    assert time.monotonic() - began < 30  # not joined after its sleep


def test_closed_parent_ends_reach_every_child():
    # the second child inherits the first one's parent end at fork; unless it
    # closes it, the first never sees its pipe end
    with parallel.forked(until_end, [(), ()]) as conns:
        for conn in conns:
            conn.close()
        deadline = time.monotonic() + 30
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("run", [
    fork_three,
    lambda: diffusion.generate(build_unet(DenoiserConfig(base_channels=4, time_embed_dim=8),
                                          seed=1), linear_schedule(4), 6, seed=1),
], ids=["forked", "generate"])
def test_failed_fork_is_raised_as_it_was_and_leaves_nothing_open(run, second_start_fails,
                                                                 open_fds, monkeypatch):
    # generate cuts three shares, so the second of its two forks fails
    monkeypatch.setattr(parallel, "default_workers", lambda: 3)
    monkeypatch.setattr(diffusion, "SAMPLE_BATCH", 2)
    before = open_fds()
    with pytest.raises(OSError) as caught:
        run()
    assert type(caught.value) is BlockingIOError and caught.value.errno == errno.EAGAIN
    assert multiprocessing.active_children() == []
    assert open_fds() == before


def test_a_forked_process_samples_in_one_process(two_workers):
    # a forked process is a daemon and may not fork; default_workers says so,
    # and generate then draws every batch itself
    model = build_unet(DenoiserConfig(base_channels=4, time_embed_dim=8), seed=1)
    count = 2 * diffusion.SAMPLE_BATCH

    def child(conn):
        forks = []
        os.fork = lambda: forks.append(os.getpid()) or fork()
        workers = parallel.default_workers()
        samples = diffusion.generate(model, linear_schedule(2), count, seed=1)
        parallel.send(conn, (workers, len(samples), forks))

    fork = os.fork
    with parallel.forked(child, [()]) as conns:
        assert parallel.reply(conns[0], Lost()) == (1, count, [])
    assert parallel.default_workers() == 2
