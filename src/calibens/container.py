"""The binary container that feature datasets (FDS1), heads (HDW1) and
combiner models (MMD1) share. Each format documents its own byte layout in
its module; this one holds the rules common to all three:

* the file opens with a 4-byte magic;
* a little-endian ``struct`` header follows, and a file too short to hold
  it is a truncated header;
* the header determines the payload's exact byte length, and a file of any
  other length is rejected;
* payload floats are f32 on disk and float64 in memory, and every one must
  be finite;
* a writer emits the magic, the packed header, then the payload arrays'
  bytes, floats as f32.

Every violation raises FormatError naming the file and the byte offset.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

F32 = np.dtype("<f4")


class Reader:
    """One file read whole; `header` holds its unpacked header fields.

    Format-specific header checks raise `error(...)`; then `expect_payload`
    fixes the file length, and `f32` and `records` read the payload in
    order from the end of the header.
    """

    def __init__(self, path, magic: bytes, header: str):
        self.path = path
        self.raw = Path(path).read_bytes()
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

    def f32(self, shape: tuple) -> np.ndarray:
        """The next f32 block of `shape` (row-major) as float64."""
        block = np.frombuffer(self.raw, F32, math.prod(shape), self.offset).reshape(shape)
        start = self.offset
        self.offset += block.nbytes
        return self._float64(block, start)

    def records(self, dtype: np.dtype, count: int) -> list[np.ndarray]:
        """The next `count` records of the structured `dtype`, one array per
        field in field order; f32 fields come back as float64, other fields
        as stored."""
        items = np.frombuffer(self.raw, dtype, count, self.offset)
        start = self.offset
        self.offset += items.nbytes
        fields = []
        for name in dtype.names:
            field_dtype, field_offset = dtype.fields[name][:2]
            values = items[name]
            if field_dtype.base == F32:
                values = self._float64(values, start + field_offset)
            fields.append(values)
        return fields

    def _float64(self, values: np.ndarray, start: int) -> np.ndarray:
        """`values`, an f32 view of the file whose first element sits at
        byte `start`, as a C-contiguous float64 array. They are checked
        before the cast, because casting a signalling NaN warns."""
        finite = np.isfinite(values)
        if not finite.all():
            first = np.argwhere(~finite)[0]
            offset = start + int(np.dot(first, values.strides))
            raise self.error("non-finite f32 value", offset=offset)
        return values.astype(np.float64, order="C")


def write(path, magic: bytes, header: str, fields: tuple, payload: list) -> None:
    """Write magic, the header `fields` packed by `header`, then each payload
    array's bytes in order; float arrays are stored as f32."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(header, *fields))
        for block in payload:
            fh.write((block.astype(F32) if block.dtype.kind == "f" else block).tobytes())
