import multiprocessing
import threading

import numpy as np
import pytest

from phoenix import parallel

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
