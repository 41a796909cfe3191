"""The binary container that feature datasets (FDS1), heads (HDW1), combiner
models (MMD1) and the head outputs cache (HOC1) share. Each format documents
its own byte layout in its module; this one holds the rules common to all
four:

* the file opens with a 4-byte magic;
* a little-endian ``struct`` header follows, and a file too short to hold
  it is a truncated header;
* the header determines the payload's exact byte length, and a file of any
  other length is rejected;
* payload floats are f32 on disk, and every one must be finite. `Reader.f32`
  hands a block out, and `Reader.records` each field of a record array, as
  a read-only view of the file, its f32 values checked but not cast, so a
  caller copies or casts only what it needs (FDS1: the dataset's feature
  view, from which each user gathers its rows; HDW1: float32 heads, copied
  out of the map; MMD1: float32 combiners). The exception is an f32 block
  read with check=False, for a caller that checks the values itself (the
  HOC1 cache's HeadOutputs);
* every format is written by the one `write`, which emits the magic, the
  packed header, then the payload arrays' bytes, floats as f32. It writes a
  temporary file next to the target and moves it into place with
  os.replace, so a failed or crashed write leaves the old file, or none,
  never a truncated one; and a file mapped by a reader is never cut short
  under it.

Every violation raises FormatError naming the file and the byte offset.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .numerics import first_non_finite

F32 = np.dtype("<f4")


class Reader:
    """One file mapped read-only; `header` holds its unpacked header fields.
    When given, `digest` (a hashlib object) is updated with the file's bytes.
    The magic, the header and the length are all checked on the one mapping,
    so a file replaced meanwhile cannot mix into the checks.

    Format-specific header checks raise `error(...)`; then `expect_payload`
    fixes the file length, and `f32` and `records` read the payload in order
    from the end of the header. They hand out views of the mapping, which
    stays open as long as any of them is alive.
    """

    def __init__(self, path, magic: bytes, header: str, digest=None):
        self.path = path
        with open(path, "rb") as fh:
            # an empty file cannot be mapped; as zero bytes it has a bad magic
            empty = os.fstat(fh.fileno()).st_size == 0
            self.raw = b"" if empty else mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        if digest is not None:
            digest.update(self.raw)
        if self.raw[:4] != magic:
            raise self.error(f"bad magic, expected {magic!r}", offset=0)
        self.offset = 4 + struct.calcsize(header)
        if len(self.raw) < self.offset:
            raise self.error("truncated header", offset=len(self.raw))
        self.header = struct.unpack(header, self.raw[4 : self.offset])

    def error(self, message: str, offset: int) -> FormatError:
        return FormatError(f"{self.path}: {message}", offset=offset)

    def expect_payload(self, nbytes: int) -> None:
        expected = self.offset + nbytes
        if len(self.raw) != expected:
            raise self.error(
                f"expected {expected} bytes, found {len(self.raw)}",
                offset=min(len(self.raw), expected),
            )

    def _view(self, dtype: np.dtype, count: int) -> tuple[np.ndarray, int]:
        """The next `count` items of `dtype` as a read-only view of the file,
        and the byte offset of the first."""
        items = np.frombuffer(self.raw, dtype, count, self.offset)
        start = self.offset
        self.offset += items.nbytes
        return items, start

    def f32(self, shape: tuple, check: bool = True) -> np.ndarray:
        """The next f32 block of `shape` (row-major) as a read-only view of
        the file, its values checked finite unless `check` is False."""
        block, start = self._view(F32, math.prod(shape))
        block = block.reshape(shape)
        if check:
            self._check_finite(block, start)
        return block

    def records(self, dtype: np.dtype, count: int) -> list[np.ndarray]:
        """The next `count` records of the structured `dtype`, one read-only
        view of the file per field, in field order. The values of every f32
        field are checked finite, not cast: the file's bytes are the only
        copy, and a caller casts the rows it needs."""
        items, start = self._view(dtype, count)
        fields = []
        for name in dtype.names:
            field_dtype, field_offset = dtype.fields[name][:2]
            values = items[name]
            if field_dtype.base == F32:
                self._check_finite(values, start + field_offset)
            fields.append(values)
        return fields

    def _check_finite(self, values: np.ndarray, start: int) -> None:
        """Raise a FormatError at the byte offset of the first non-finite
        value of `values`, an f32 view of the file whose first element sits
        at byte `start`. The scan (numerics.first_non_finite) holds one row
        block's mask at a time."""
        first = first_non_finite(values)
        if first is not None:
            offset = start + sum(i * stride for i, stride in zip(first, values.strides))
            raise self.error("non-finite f32 value", offset=offset)


def write(path, magic: bytes, header: str, fields: tuple, payload) -> None:
    """Write magic, the header `fields` packed by `header`, then each payload
    array's bytes in order, float arrays stored as f32, to a temporary file
    next to `path`, and move it onto `path` with os.replace. `payload` is any
    iterable of arrays, consumed once, each block written before the next is
    asked for, so a generator can stream a large payload a block at a time.
    When the write, the payload or the move raises, the temporary file is
    removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic + struct.pack(header, *fields))
            for block in payload:
                stored = F32 if block.dtype.kind == "f" else None
                fh.write(np.ascontiguousarray(block, stored).data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
