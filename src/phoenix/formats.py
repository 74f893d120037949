"""File formats: PHXT tensors, PHXC checkpoints, PGM/PPM images, JSON.

PHXT: magic ``PHXT``, u16 version (=1), u8 dtype code (0 = float32), u8 rank,
then rank u64 dims, then the row-major little-endian float32 payload.

PHXC: magic ``PHXC``, u16 version (=1), u32 parameter count, then per
parameter: u16 name length, UTF-8 name, u8 flags (bit 0 = personal), and an
embedded PHXT record.

All multi-byte header fields are little-endian. JSON documents are written
with sorted keys. Every writer here replaces its target atomically: a failed
write leaves the previous file as it was.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping

import numpy as np

PHXT_MAGIC = b"PHXT"
PHXC_MAGIC = b"PHXC"
FORMAT_VERSION = 1
DTYPE_F32 = 0


class FormatError(ValueError):
    """A file does not conform to the PHXT/PHXC layout."""


@contextmanager
def _replace_on_success(path: str | Path, mode: str = "wb", **open_kwargs):
    """Write to a temp file beside ``path``; rename it over ``path`` on success.

    A failed write removes the temp file and leaves ``path`` as it was, so
    ``path`` never holds a partial write, even if the process is killed.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, doc, indent: int | None = None) -> None:
    """Write ``doc`` as JSON; ``path`` changes only if the whole write succeeds."""
    with _replace_on_success(path, "w") as f:
        json.dump(doc, f, indent=indent, sort_keys=True)


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write ``header`` then ``rows`` as CSV; ``path`` changes only if every row is written."""
    with _replace_on_success(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def _reading(path: str | Path):
    """Open ``path`` for binary reading; a ``FormatError`` raised inside names it."""
    with open(path, "rb") as f:
        try:
            yield f
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file while reading {what} at offset {f.tell() - len(buf)}")
    return buf


def write_tensor_to(f: BinaryIO, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array, dtype=np.float32)
    if arr.ndim < 1:
        arr = arr.reshape(1)
    if not np.all(np.isfinite(arr)):
        raise FormatError("refusing to write non-finite tensor values")
    f.write(PHXT_MAGIC)
    f.write(struct.pack("<HBB", FORMAT_VERSION, DTYPE_F32, arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    f.write(arr.astype("<f4", copy=False).data)


def read_tensor_from(f: BinaryIO) -> np.ndarray:
    magic = _read_exact(f, 4, "magic")
    if magic != PHXT_MAGIC:
        raise FormatError(f"bad tensor magic {magic!r} at offset {f.tell() - 4}")
    version, dtype_code, rank = struct.unpack("<HBB", _read_exact(f, 4, "tensor header"))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported tensor format version {version}")
    if dtype_code != DTYPE_F32:
        raise FormatError(f"unsupported dtype code {dtype_code}")
    if rank < 1:
        raise FormatError("tensor rank must be at least 1")
    dims = struct.unpack(f"<{rank}Q", _read_exact(f, 8 * rank, "tensor dims"))
    if any(d < 1 for d in dims):
        raise FormatError(f"tensor dims must be positive, got {dims}")
    count = math.prod(dims)  # Python ints: the product of u64 dims can overflow int64
    start = f.tell()
    remaining = f.seek(0, os.SEEK_END) - start
    f.seek(start)
    if 4 * count > remaining:  # checked before reading: the count may exceed memory
        raise FormatError(f"truncated file: tensor dims {dims} need {4 * count} payload "
                          f"bytes, {remaining} remain at offset {start}")
    payload = _read_exact(f, 4 * count, "tensor payload")
    arr = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)
    if not np.all(np.isfinite(arr)):
        raise FormatError("tensor payload contains non-finite values")
    return arr


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    with _replace_on_success(path) as f:
        write_tensor_to(f, array)


def read_tensor(path: str | Path) -> np.ndarray:
    with _reading(path) as f:
        return read_tensor_from(f)


def write_checkpoint(
    path: str | Path,
    params: Mapping[str, np.ndarray],
    personal_names: set[str] | frozenset[str] = frozenset(),
) -> None:
    """Persist a named parameter table with per-parameter personal flags."""
    with _replace_on_success(path) as f:
        f.write(PHXC_MAGIC)
        f.write(struct.pack("<HI", FORMAT_VERSION, len(params)))
        for name, arr in params.items():
            encoded = name.encode("utf-8")
            flags = 1 if name in personal_names else 0
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", flags))
            write_tensor_to(f, arr)


def read_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], set[str]]:
    """Load a parameter table; returns (params, personal-flagged names)."""
    params: dict[str, np.ndarray] = {}
    personal: set[str] = set()
    with _reading(path) as f:
        magic = _read_exact(f, 4, "magic")
        if magic != PHXC_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        version, count = struct.unpack("<HI", _read_exact(f, 6, "checkpoint header"))
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported checkpoint format version {version}")
        for i in range(count):
            try:
                (name_len,) = struct.unpack("<H", _read_exact(f, 2, f"record {i} name length"))
                name = _read_exact(f, name_len, f"record {i} name").decode("utf-8")
                (flags,) = struct.unpack("<B", _read_exact(f, 1, f"record {i} flags"))
                arr = read_tensor_from(f)
            except (FormatError, UnicodeDecodeError) as exc:
                raise FormatError(f"checkpoint record {i}: {exc}") from None
            if name in params:
                raise FormatError(f"checkpoint record {i}: duplicate parameter '{name}'")
            params[name] = arr
            if flags & 1:
                personal.add(name)
        if f.read(1):
            raise FormatError("trailing bytes after last checkpoint record")
    return params, personal


def read_params(path: str | Path, expected: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Load the parameter table of a model whose scaffold holds ``expected``.

    Returns the checkpoint's table, in the checkpoint's order, without its
    personal flags. ``FormatError`` names every missing or unexpected
    parameter, or the first one whose shape differs from ``expected``.
    """
    params, _ = read_checkpoint(path)
    missing, extra = sorted(set(expected) - set(params)), sorted(set(params) - set(expected))
    if missing or extra:
        raise FormatError(f"checkpoint {path} does not match the model: "
                          f"missing {missing}, unexpected {extra}")
    for name, arr in params.items():
        if arr.shape != expected[name].shape:
            raise FormatError(f"checkpoint {path}: parameter '{name}' has shape "
                              f"{arr.shape}, expected {expected[name].shape}")
    return params


def write_image(path: str | Path, image: np.ndarray) -> None:
    """Write one (C,H,W) image in [-1, 1] as binary PGM (C=1) or PPM (C=3)."""
    if image.ndim != 3 or image.shape[0] not in (1, 3):
        raise FormatError(f"image must be (1|3, H, W), got {image.shape}")
    if not np.all(np.isfinite(image)):
        raise FormatError("refusing to write non-finite pixel values")
    c, h, w = image.shape
    pixels = np.clip(np.round((image + 1.0) * 127.5), 0, 255).astype(np.uint8)
    header = f"{'P5' if c == 1 else 'P6'}\n{w} {h}\n255\n".encode("ascii")
    # PGM/PPM interleave channels per pixel; our layout is channel-major.
    body = pixels[0] if c == 1 else pixels.transpose(1, 2, 0)
    with _replace_on_success(path) as f:
        f.write(header)
        f.write(np.ascontiguousarray(body).tobytes())


def image_extension(channels: int) -> str:
    return "pgm" if channels == 1 else "ppm"
