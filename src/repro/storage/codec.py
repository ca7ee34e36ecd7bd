"""Fixed-width row codecs.

GhostDB tables use fixed-width attributes (the paper gives byte sizes
for every column of both data sets), so a row is a fixed-size record
and row *i* of a table lives at a computable offset -- which is what
lets SKTs omit the sorted-on identifier and lets MJoin/Brute-Force seek
straight to a tuple.

Supported column types: ``IntType`` (2/4/8 bytes, signed), ``FloatType``
(8 bytes IEEE), ``CharType(n)`` (NUL-padded UTF-8).  Each type's
``typed(value)`` is the one rule for what a statement may compare with
or insert into a column of that type: it returns the value as the
column holds it (an integral float becomes an int for an int column,
an int a float for a float column) or raises
:class:`~repro.errors.StorageError`, so no evaluator ever meets a
constant its column does not order with.

Two access granularities exist side by side:

* scalar ``pack``/``unpack``/``unpack_columns`` -- one row at a time,
  the reference semantics;
* batch ``pack_rows``/``unpack_rows``/``unpack_rows_columns`` -- whole
  pages per call through one precompiled :class:`struct.Struct`, used
  by the vectorized execution core.  Batch results are byte- and
  value-identical to a scalar loop (property-tested).
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import StorageError

_INT_CODES = {2: "h", 4: "i", 8: "q"}
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class IntType:
    """Signed little-endian integer of ``size`` bytes (2, 4 or 8)."""

    size: int = 4

    def __post_init__(self):
        if self.size not in (2, 4, 8):
            raise StorageError(f"unsupported int size {self.size}")

    @property
    def width(self) -> int:
        return self.size

    @property
    def struct_code(self) -> str:
        return _INT_CODES[self.size]

    def typed(self, value) -> int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        bound = 1 << (8 * self.size - 1)
        if isinstance(value, bool) or not isinstance(value, int) \
                or not -bound <= value < bound:
            raise StorageError(
                f"a {self.size}-byte int column takes an integer that "
                f"fits it, not {value!r}"
            )
        return value

    def pack(self, value) -> bytes:
        return int(value).to_bytes(self.size, "little", signed=True)

    def unpack(self, raw: bytes):
        return int.from_bytes(raw, "little", signed=True)


@dataclass(frozen=True)
class FloatType:
    """IEEE-754 double (8 bytes)."""

    @property
    def width(self) -> int:
        return 8

    @property
    def struct_code(self) -> str:
        return "d"

    def typed(self, value) -> float:
        # int/float comparisons are exact, so an int beyond the double
        # range is turned away here rather than overflowing in float()
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not -_FLOAT_MAX <= value <= _FLOAT_MAX:   # NaN: False
            raise StorageError(
                f"a float column takes a finite number, not {value!r}"
            )
        return float(value)

    def pack(self, value) -> bytes:
        return struct.pack("<d", float(value))

    def unpack(self, raw: bytes):
        return struct.unpack("<d", raw)[0]


@dataclass(frozen=True)
class CharType:
    """Fixed-width character field of ``size`` bytes, NUL padded."""

    size: int

    def __post_init__(self):
        if self.size <= 0:
            raise StorageError("char size must be positive")

    @property
    def width(self) -> int:
        return self.size

    @property
    def struct_code(self) -> str:
        return f"{self.size}s"

    def encoded(self, value) -> bytes:
        """``value`` as checked UTF-8 bytes, unpadded (``struct`` pads
        a short ``s`` field itself but silently truncates a long one)."""
        raw = str(value).encode("utf-8")
        if len(raw) > self.size:
            raise StorageError(
                f"string of {len(raw)} bytes exceeds char({self.size})"
            )
        return raw

    def typed(self, value) -> str:
        if not isinstance(value, str):
            raise StorageError(
                f"a char({self.size}) column takes a string, not {value!r}"
            )
        self.encoded(value)
        return value

    def pack(self, value) -> bytes:
        return self.encoded(value).ljust(self.size, b"\x00")

    def unpack(self, raw: bytes):
        return raw.rstrip(b"\x00").decode("utf-8")


ColumnType = IntType | FloatType | CharType


class RowCodec:
    """Packs/unpacks tuples of values into fixed-width records."""

    def __init__(self, types: Sequence[ColumnType]):
        self.types = list(types)
        self.offsets: list[int] = []
        pos = 0
        for t in self.types:
            self.offsets.append(pos)
            pos += t.width
        self.row_width = pos
        self._struct = struct.Struct(
            "<" + "".join(t.struct_code for t in self.types)
        )
        #: column positions whose struct value needs the char fix-up
        self._char_cols = [i for i, t in enumerate(self.types)
                           if isinstance(t, CharType)]
        self._preps = [
            t.encoded if isinstance(t, CharType)
            else (float if isinstance(t, FloatType) else int)
            for t in self.types
        ]
        self._column_structs: Dict[Tuple[int, ...], struct.Struct] = {}

    def __reduce__(self):
        # a struct.Struct does not pickle: an image rebuilds the codec
        return RowCodec, (self.types,)

    # ------------------------------------------------------------------
    # scalar access (reference semantics)
    # ------------------------------------------------------------------
    def pack(self, values: Sequence) -> bytes:
        """Encode one row; value count must match the column count."""
        if len(values) != len(self.types):
            raise StorageError(
                f"expected {len(self.types)} values, got {len(values)}"
            )
        return b"".join(t.pack(v) for t, v in zip(self.types, values))

    def unpack(self, raw: bytes) -> Tuple:
        """Decode one full row."""
        if len(raw) < self.row_width:
            raise StorageError(
                f"row of {len(raw)} bytes, codec needs {self.row_width}"
            )
        row = self._struct.unpack_from(raw)
        if self._char_cols:
            row = self._fix_chars(row)
        return row

    def unpack_columns(self, raw: bytes, columns: Sequence[int]) -> Tuple:
        """Decode only the requested column positions of one row."""
        out = []
        for c in columns:
            t = self.types[c]
            off = self.offsets[c]
            out.append(t.unpack(raw[off:off + t.width]))
        return tuple(out)

    # ------------------------------------------------------------------
    # batch access (vectorized execution core)
    # ------------------------------------------------------------------
    def _fix_chars(self, row: Tuple) -> Tuple:
        cells = list(row)
        for i in self._char_cols:
            cells[i] = cells[i].rstrip(b"\x00").decode("utf-8")
        return tuple(cells)

    def _prep_row(self, row: Sequence) -> list:
        if len(row) != len(self.types):
            raise StorageError(
                f"expected {len(self.types)} values, got {len(row)}"
            )
        return [p(v) for p, v in zip(self._preps, row)]

    def pack_rows(self, rows: Iterable[Sequence]) -> bytes:
        """Encode many rows into one contiguous record block.

        Byte-identical to ``b"".join(codec.pack(r) for r in rows)``,
        including the per-row arity check.
        """
        pack = self._struct.pack
        prep = self._prep_row
        try:
            return b"".join(pack(*prep(row)) for row in rows)
        except struct.error as exc:
            raise StorageError(f"batch pack failed: {exc}") from None

    def unpack_rows(self, raw: bytes, count: int) -> List[Tuple]:
        """Decode ``count`` consecutive rows from ``raw`` in one call."""
        need = count * self.row_width
        if len(raw) < need:
            raise StorageError(
                f"{len(raw)} bytes hold fewer than {count} rows of "
                f"{self.row_width} bytes"
            )
        records = self._struct.iter_unpack(raw[:need])
        if not self._char_cols:
            return list(records)
        fix = self._fix_chars
        return [fix(row) for row in records]

    def column_struct(self, columns: Sequence[int]) -> struct.Struct:
        """A cached sub-row :class:`struct.Struct` decoding only
        ``columns`` (which must be in increasing position order) via
        pad bytes -- one C call per partial-row decode."""
        key = tuple(columns)
        cached = self._column_structs.get(key)
        if cached is not None:
            return cached
        fmt = ["<"]
        pos = 0
        for c in key:
            off = self.offsets[c]
            if off < pos:
                raise StorageError(
                    "column_struct needs increasing column positions"
                )
            if off > pos:
                fmt.append(f"{off - pos}x")
            fmt.append(self.types[c].struct_code)
            pos = off + self.types[c].width
        if pos < self.row_width:
            fmt.append(f"{self.row_width - pos}x")
        compiled = struct.Struct("".join(fmt))
        self._column_structs[key] = compiled
        return compiled

    def unpack_rows_columns(self, raw: bytes, count: int,
                            columns: Sequence[int]) -> List[Tuple]:
        """Decode ``columns`` of ``count`` consecutive rows.

        Equals ``[codec.unpack_columns(row_bytes, columns) ...]`` over
        a scalar loop.  Columns given out of increasing order fall back
        to full-row decodes plus reordering.
        """
        columns = list(columns)
        increasing = all(
            self.offsets[a] < self.offsets[b]
            for a, b in zip(columns, columns[1:])
        )
        if not increasing:
            rows = self.unpack_rows(raw, count)
            return [tuple(r[c] for c in columns) for r in rows]
        sub = self.column_struct(columns)
        need = count * self.row_width
        if len(raw) < need:
            raise StorageError(
                f"{len(raw)} bytes hold fewer than {count} rows of "
                f"{self.row_width} bytes"
            )
        records = sub.iter_unpack(raw[:need])
        char_local = [i for i, c in enumerate(columns)
                      if isinstance(self.types[c], CharType)]
        if not char_local:
            return list(records)
        out = []
        for row in records:
            cells = list(row)
            for i in char_local:
                cells[i] = cells[i].rstrip(b"\x00").decode("utf-8")
            out.append(tuple(cells))
        return out
