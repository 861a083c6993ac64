"""Packed columnar record blocks: the engine's batch data layout.

Per-record Python objects dominate the sampling profile once selection
is cached: boxed floats, dict-backed :class:`~repro.core.records.Record`
construction and one-at-a-time rect tests cost more than the draws
themselves.  This module packs batches of records into contiguous typed
arrays instead —

::

    ColumnBlock                       RecordBlock
    ┌──────────────────────┐          ┌──────────────────────────┐
    │ ids   : array('q')   │          │ ids   : array('q')       │
    │ col 0 : array('d')   │  lon     │ lon   : array('d')       │
    │ col 1 : array('d')   │  lat     │ lat   : array('d')       │
    │ [col 2: array('d')]  │  t       │ t     : array('d')       │
    └──────────────────────┘          │ attrs : lazy side-table  │
    index leaves, wire format         └──────────────────────────┘
                                      storage payloads (LSM runs)

— so rect/time containment filters run as one vectorised numpy pass
over the arrays and estimators can absorb whole columns without
materialising ``Record`` objects at all.

The same layout doubles as a wire/storage format (:data:`BLOCK_MAGIC`
header, little-endian, attrs as a trailing JSON side-table that decodes
lazily), used by the LSM sealed-run files so simulated DFS I/O carries
5-10x more points per byte than the JSON document encoding.

``array`` buffers are the storage/wire layout; numpy views over those
same buffers are the one scan path.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.records import Record
from repro.errors import StorageError

__all__ = ["BLOCK_MAGIC", "ColumnBlock", "RecordBlock", "box_mask",
           "is_block_payload"]

#: Wire-format header of every encoded block ("STorm Block v1").
BLOCK_MAGIC = b"STB1"

_HEADER = struct.Struct("<4sBxxxqII")  # magic, dims, n, meta_len, attrs_len

def _to_le(arr: array) -> bytes:
    if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _from_le(typecode: str, data: bytes) -> array:
    arr = array(typecode)
    arr.frombytes(data)
    if sys.byteorder == "big":  # pragma: no cover
        arr.byteswap()
    return arr


def encode_block(ids: array, cols: Sequence[array],
                 meta: dict | None = None, attrs: bytes = b"") -> bytes:
    """Serialise id + coordinate columns (and side-tables) to bytes."""
    n = len(ids)
    for col in cols:
        if len(col) != n:
            raise StorageError(
                f"ragged block: {len(col)} values for {n} ids")
    meta_bytes = b"" if not meta else json.dumps(
        meta, sort_keys=True, separators=(",", ":")).encode()
    parts = [_HEADER.pack(BLOCK_MAGIC, len(cols), n, len(meta_bytes),
                          len(attrs)), meta_bytes, _to_le(ids)]
    parts.extend(_to_le(col) for col in cols)
    parts.append(attrs)
    return b"".join(parts)


def decode_block(data: bytes
                 ) -> tuple[array, list[array], dict, bytes]:
    """Inverse of :func:`encode_block`: (ids, cols, meta, attrs bytes)."""
    if len(data) < _HEADER.size or data[:4] != BLOCK_MAGIC:
        raise StorageError("not a columnar block payload (bad magic)")
    magic, dims, n, meta_len, attrs_len = _HEADER.unpack_from(data)
    if n < 0:
        raise StorageError(f"corrupt block header: n={n}")
    view = memoryview(data)
    off = _HEADER.size
    expected = off + meta_len + 8 * n * (dims + 1) + attrs_len
    if len(data) != expected:
        raise StorageError(
            f"truncated block payload: {len(data)} bytes, "
            f"header promises {expected}")
    meta = json.loads(bytes(view[off:off + meta_len])) if meta_len else {}
    off += meta_len
    ids = _from_le("q", bytes(view[off:off + 8 * n]))
    off += 8 * n
    cols = []
    for _ in range(dims):
        cols.append(_from_le("d", bytes(view[off:off + 8 * n])))
        off += 8 * n
    attrs = bytes(view[off:off + attrs_len])
    return ids, cols, meta, attrs


def is_block_payload(data: bytes) -> bool:
    """Whether bytes start with the columnar block magic header."""
    return data[:4] == BLOCK_MAGIC


def box_mask(cols: Sequence[np.ndarray], lo: Sequence[float],
             hi: Sequence[float]) -> np.ndarray:
    """Boolean mask of the points inside the closed box ``[lo, hi]``,
    given one equal-length coordinate array per axis."""
    mask = (cols[0] >= lo[0]) & (cols[0] <= hi[0])
    for d in range(1, len(cols)):
        mask &= (cols[d] >= lo[d]) & (cols[d] <= hi[d])
    return mask


class ColumnBlock:
    """Immutable packed columns for one batch of indexed points.

    ``ids`` is an ``array('q')`` of item ids; ``cols`` holds one
    ``array('d')`` per dimension (lon, lat[, t]) in index-key order.
    Index leaves keep one of these as their scan-side layout, so rect
    containment runs over contiguous machine floats instead of per-Entry
    tuple comparisons.
    """

    __slots__ = ("ids", "cols", "_views")

    def __init__(self, ids: array, cols: Sequence[array]):
        self.ids = ids
        self.cols = tuple(cols)
        self._views = None  # lazy numpy views over the same buffers
        for col in self.cols:
            if len(col) != len(ids):
                raise StorageError(
                    f"ragged block: {len(col)} values for {len(ids)} ids")

    @classmethod
    def from_points(cls, items: Iterable[tuple[int, Sequence[float]]],
                    dims: int) -> "ColumnBlock":
        """Pack ``(item_id, point)`` pairs into columns."""
        ids = array("q")
        cols = [array("d") for _ in range(dims)]
        for item_id, point in items:
            ids.append(item_id)
            for d in range(dims):
                cols[d].append(point[d])
        return cls(ids, cols)

    @classmethod
    def from_entries(cls, entries: Sequence, dims: int) -> "ColumnBlock":
        """Pack index entries (``.item_id`` / ``.point``) into columns."""
        ids = array("q", [e.item_id for e in entries])
        cols = [array("d", [e.point[d] for e in entries])
                for d in range(dims)]
        return cls(ids, cols)

    @property
    def dims(self) -> int:
        return len(self.cols)

    def __len__(self) -> int:
        return len(self.ids)

    def point(self, i: int) -> tuple[float, ...]:
        """The i-th point as a key tuple."""
        return tuple(col[i] for col in self.cols)

    def _np_views(self):
        if self._views is None:
            self._views = tuple(np.frombuffer(col, dtype=np.float64)
                                for col in self.cols)
        return self._views

    def _mask(self, lo: Sequence[float], hi: Sequence[float]):
        return box_mask(self._np_views(), lo, hi)

    def indices_in(self, lo: Sequence[float], hi: Sequence[float]
                   ) -> list[int]:
        """Positions of points inside the closed box ``[lo, hi]``, in
        ascending order (one vectorised pass)."""
        if not len(self.ids):
            return []
        return np.nonzero(self._mask(lo, hi))[0].tolist()

    def count_in(self, lo: Sequence[float], hi: Sequence[float]) -> int:
        """Number of points inside the closed box ``[lo, hi]``."""
        if not len(self.ids):
            return 0
        return int(np.count_nonzero(self._mask(lo, hi)))

    def encode(self, meta: dict | None = None) -> bytes:
        """Wire-format bytes (:data:`BLOCK_MAGIC` header)."""
        return encode_block(self.ids, self.cols, meta=meta)

    @classmethod
    def decode(cls, data: bytes) -> "tuple[ColumnBlock, dict]":
        """Inverse of :meth:`encode`: (block, meta)."""
        ids, cols, meta, _ = decode_block(data)
        return cls(ids, cols), meta

    def __repr__(self) -> str:
        return f"<ColumnBlock n={len(self.ids)} dims={self.dims}>"


class RecordBlock:
    """Columnar batch of full records with a lazy attrs side-table.

    The storage-facing sibling of :class:`ColumnBlock`: always three
    coordinate columns (lon, lat, t) plus the free-form attribute
    mappings serialised as one trailing JSON list.  **Lazy-attrs
    contract**: decoding a payload never parses the side-table; the
    JSON bytes are parsed on the first :meth:`attrs`/:meth:`record`
    call, so scan paths that only touch ids/coordinates pay nothing
    for attribute-heavy datasets.
    """

    __slots__ = ("ids", "lons", "lats", "ts", "_attrs", "_attrs_raw")

    def __init__(self, ids: array, lons: array, lats: array, ts: array,
                 attrs: "list[dict] | None" = None,
                 attrs_raw: bytes | None = None):
        n = len(ids)
        if not (len(lons) == len(lats) == len(ts) == n):
            raise StorageError("ragged record block columns")
        if attrs is not None and len(attrs) != n:
            raise StorageError(
                f"attrs side-table has {len(attrs)} rows for {n} records")
        self.ids = ids
        self.lons = lons
        self.lats = lats
        self.ts = ts
        self._attrs = attrs
        self._attrs_raw = attrs_raw

    @classmethod
    def from_records(cls, records: Iterable[Record]) -> "RecordBlock":
        records = list(records)
        ids = array("q", [r.record_id for r in records])
        lons = array("d", [r.lon for r in records])
        lats = array("d", [r.lat for r in records])
        ts = array("d", [r.t for r in records])
        attrs = [dict(r.attrs) for r in records]
        if not any(attrs):
            attrs = None  # all-empty side-table encodes to nothing
        return cls(ids, lons, lats, ts, attrs=attrs)

    def __len__(self) -> int:
        return len(self.ids)

    def _attr_table(self) -> "list[dict] | None":
        if self._attrs is None and self._attrs_raw:
            self._attrs = json.loads(self._attrs_raw)
            self._attrs_raw = None
        return self._attrs

    def attrs(self, i: int) -> dict:
        """Attribute mapping of record ``i`` (parses the side-table
        on first use)."""
        table = self._attr_table()
        return {} if table is None else table[i]

    def record(self, i: int) -> Record:
        """Materialise record ``i`` as a full :class:`Record`."""
        return Record(record_id=self.ids[i], lon=self.lons[i],
                      lat=self.lats[i], t=self.ts[i], attrs=self.attrs(i))

    def records(self) -> Iterator[Record]:
        """Materialise every record (the estimator-boundary fallback)."""
        for i in range(len(self.ids)):
            yield self.record(i)

    def encode(self, meta: dict | None = None) -> bytes:
        """Wire/storage bytes: header, columns, JSON attrs side-table."""
        table = self._attr_table()
        attrs = b"" if table is None else json.dumps(
            table, sort_keys=True, separators=(",", ":")).encode()
        return encode_block(self.ids, (self.lons, self.lats, self.ts),
                            meta=meta, attrs=attrs)

    @classmethod
    def decode(cls, data: bytes) -> "tuple[RecordBlock, dict]":
        """Inverse of :meth:`encode` — attrs stay raw until first use."""
        ids, cols, meta, attrs_raw = decode_block(data)
        if len(cols) != 3:
            raise StorageError(
                f"record block payload needs 3 columns, found {len(cols)}")
        return cls(ids, cols[0], cols[1], cols[2],
                   attrs_raw=attrs_raw or None), meta

    def __repr__(self) -> str:
        return f"<RecordBlock n={len(self.ids)}>"
