import struct

import numpy as np
import pytest

from phoenix.formats import (
    FormatError,
    read_checkpoint,
    read_params,
    read_tensor,
    write_checkpoint,
    write_csv,
    write_image,
    write_json,
    write_tensor,
)


def test_tensor_round_trip(tmp_path):
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 7.0
    path = tmp_path / "t.phxt"
    write_tensor(path, arr)
    back = read_tensor(path)
    np.testing.assert_array_equal(back, arr)
    assert back.dtype == np.float32


def test_tensor_header_layout(tmp_path):
    path = tmp_path / "t.phxt"
    write_tensor(path, np.zeros((2, 5), np.float32))
    raw = path.read_bytes()
    assert raw[:4] == b"PHXT"
    version, dtype_code, rank = struct.unpack("<HBB", raw[4:8])
    assert (version, dtype_code, rank) == (1, 0, 2)
    assert struct.unpack("<2Q", raw[8:24]) == (2, 5)
    assert len(raw) == 24 + 4 * 10


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad.phxt"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError, match="magic"):
        read_tensor(path)


def test_tensor_truncated_payload(tmp_path):
    path = tmp_path / "t.phxt"
    write_tensor(path, np.ones(8, np.float32))
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError, match="truncated"):
        read_tensor(path)


@pytest.mark.parametrize("dims", [(2**63 + 1,), (2**32, 2**32)],
                         ids=["count-past-int64", "product-wraps-int64"])
def test_tensor_dims_beyond_the_payload_refused(tmp_path, dims):
    # counted in int64, the first overflows and the second wraps to zero
    path = tmp_path / "t.phxt"
    path.write_bytes(b"PHXT" + struct.pack(f"<HBB{len(dims)}Q", 1, 0, len(dims), *dims)
                     + bytes(16))
    with pytest.raises(FormatError, match="truncated"):
        read_tensor(path)


def test_tensor_rejects_non_finite(tmp_path):
    with pytest.raises(FormatError):
        write_tensor(tmp_path / "nan.phxt", np.array([np.nan], np.float32))


def test_failed_checkpoint_overwrite_keeps_old_file(tmp_path):
    path = tmp_path / "ckpt.phxc"
    write_checkpoint(path, {"w": np.ones(3, np.float32)})
    old = path.read_bytes()
    with pytest.raises(FormatError):
        write_checkpoint(path, {"w": np.zeros(3, np.float32),
                                "v": np.array([np.nan], np.float32)})
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_failed_json_overwrite_keeps_old_file(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"a": 1})
    old = path.read_bytes()
    # keys are sorted, so "a" reaches the file before "b" fails to encode
    with pytest.raises(TypeError):
        write_json(path, {"a": 2, "b": object()})
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def _rows_that_fail_partway():
    yield [1, 2]
    raise RuntimeError("row source failed")


@pytest.mark.parametrize("write_old, write_bad, error", [
    (lambda p: write_csv(p, ["a", "b"], [[0, 1]]),
     lambda p: write_csv(p, ["a", "b"], _rows_that_fail_partway()), RuntimeError),
    (lambda p: write_tensor(p, np.ones(3, np.float32)),
     lambda p: write_tensor(p, np.array([1.0, np.nan], np.float32)), FormatError),
    (lambda p: write_image(p, np.zeros((1, 2, 2), np.float32)),
     lambda p: write_image(p, np.full((1, 2, 2), np.nan, np.float32)), FormatError),
], ids=["csv", "tensor", "image"])
def test_failed_overwrite_keeps_old_file(tmp_path, write_old, write_bad, error):
    path = tmp_path / "artifact"
    write_old(path)
    old = path.read_bytes()
    with pytest.raises(error):
        write_bad(path)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_checkpoint_round_trip(tmp_path):
    params = {
        "layer.w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "layer.b": np.zeros(3, np.float32),
        "head.w": np.full((3, 1), 0.5, np.float32),
    }
    path = tmp_path / "m.phxc"
    write_checkpoint(path, params, personal_names={"head.w"})
    loaded, personal = read_checkpoint(path)
    assert list(loaded) == list(params)  # order preserved
    for name in params:
        np.testing.assert_array_equal(loaded[name], params[name])
    assert personal == {"head.w"}


def test_checkpoint_bytes_equal_the_copying_writer(tmp_path):
    # the writer as it was: every tensor copied into a bytes object
    def copying_writer(params, personal_names):
        out = [b"PHXC", struct.pack("<HI", 1, len(params))]
        for name, arr in params.items():
            arr = np.ascontiguousarray(arr, dtype=np.float32)
            arr = arr.reshape(1) if arr.ndim < 1 else arr
            out += [struct.pack("<H", len(name.encode())), name.encode(),
                    struct.pack("<B", name in personal_names), b"PHXT",
                    struct.pack("<HBB", 1, 0, arr.ndim),
                    struct.pack(f"<{arr.ndim}Q", *arr.shape), arr.astype("<f4").tobytes()]
        return b"".join(out)

    rng = np.random.default_rng(2)
    params = {"big.w": rng.standard_normal((512, 64, 3, 3)).astype(np.float32),  # 4.5 MiB
              "strided": np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2],
              "as-float64": np.linspace(-1, 1, 5),
              "scalar": np.float32(0.25)}
    path = tmp_path / "m.phxc"
    write_checkpoint(path, params, personal_names={"scalar"})
    assert path.read_bytes() == copying_writer(params, {"scalar"})


def test_checkpoint_corrupt_record_names_index(tmp_path):
    params = {"a": np.ones(2, np.float32), "b": np.ones(2, np.float32)}
    path = tmp_path / "m.phxc"
    write_checkpoint(path, params)
    raw = bytearray(path.read_bytes())
    raw = raw[:-6]  # truncate inside the second record's tensor payload
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="record 1"):
        read_checkpoint(path)


def test_checkpoint_name_not_utf8_names_the_record(tmp_path):
    path = tmp_path / "m.phxc"
    write_checkpoint(path, {"first": np.ones(2, np.float32), "second": np.ones(2, np.float32)})
    raw = path.read_bytes()
    assert raw.count(b"second") == 1
    path.write_bytes(raw.replace(b"second", b"\xffecond"))
    with pytest.raises(FormatError, match="checkpoint record 1: .*utf-8"):
        read_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.phxc"
    write_checkpoint(path, {"a": np.ones(1, np.float32)})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError, match="trailing"):
        read_checkpoint(path)


@pytest.mark.parametrize("table, message", [
    ({"a": np.ones(2, np.float32)}, r"missing \['b'\]"),
    ({"a": np.ones(2, np.float32), "b": np.ones((2, 2), np.float32),
      "c": np.ones(1, np.float32)}, r"unexpected \['c'\]"),
    ({"a": np.ones(2, np.float32), "b": np.ones((2, 3), np.float32)}, "'b' has shape"),
], ids=["missing-name", "extra-name", "wrong-shape"])
def test_read_params_refuses_another_model(tmp_path, table, message):
    path = tmp_path / "m.phxc"
    write_checkpoint(path, table)
    expected = {"a": np.zeros(2, np.float32), "b": np.zeros((2, 2), np.float32)}
    with pytest.raises(FormatError, match=message):
        read_params(path, expected)


def test_read_params_returns_the_checkpoint_table(tmp_path):
    params = {"b": np.full((2, 2), 3.0, np.float32), "a": np.ones(2, np.float32)}
    path = tmp_path / "m.phxc"
    write_checkpoint(path, params, personal_names={"a"})
    loaded = read_params(path, {"a": np.zeros(2, np.float32), "b": np.zeros((2, 2), np.float32)})
    assert list(loaded) == list(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name], params[name])


def test_pgm_pixel_mapping(tmp_path):
    img = np.array([[[-1.0, 1.0], [0.0, 0.5]]], dtype=np.float32)
    path = tmp_path / "s.pgm"
    write_image(path, img)
    raw = path.read_bytes()
    header = b"P5\n2 2\n255\n"
    assert raw.startswith(header)
    pixels = list(raw[len(header):])
    assert pixels == [0, 255, 128, 191]  # round((v+1)*127.5) clamped


def test_ppm_rgb_interleaves_channels(tmp_path):
    img = np.zeros((3, 1, 2), dtype=np.float32)
    img[0, 0, 0] = 1.0   # red pixel 0
    img[2, 0, 1] = 1.0   # blue pixel 1
    path = tmp_path / "s.ppm"
    write_image(path, img)
    raw = path.read_bytes()
    body = raw[len(b"P6\n2 1\n255\n"):]
    assert list(body) == [255, 128, 128, 128, 128, 255]


def test_image_rejects_bad_channel_count(tmp_path):
    with pytest.raises(FormatError):
        write_image(tmp_path / "x.pgm", np.zeros((2, 4, 4), np.float32))
