"""d-dimensional Hilbert curve codec.

Implements Skilling's transpose algorithm ("Programming the Hilbert curve",
AIP Conf. Proc. 707, 2004), which maps between a point on the ``2^bits``
integer grid in ``dim`` dimensions and its position along the Hilbert
space-filling curve.  The Hilbert R-tree (and therefore the RS-tree) sorts
points by this position: nearby curve positions are nearby in space, which
is what gives the single-tree sampler its block locality.

``hilbert_index``/``hilbert_point`` work on integer grid coordinates;
:class:`HilbertEncoder` handles the float world, normalising points inside a
bounding box onto the grid.
"""

from __future__ import annotations

from typing import Sequence

import numpy as _np

from repro.core.geometry import Rect
from repro.errors import GeometryError

__all__ = ["hilbert_index", "hilbert_index_batch", "hilbert_point",
           "HilbertEncoder"]


def _axes_to_transpose(coords: Sequence[int], bits: int, dim: int
                       ) -> list[int]:
    """Convert grid axes to the 'transposed' Hilbert representation."""
    x = list(coords)
    m = 1 << (bits - 1)
    # Inverse undo excess work.
    q = m
    while q > 1:
        p = q - 1
        for i in range(dim):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, dim):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[dim - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(dim):
        x[i] ^= t
    return x


def _transpose_to_axes(transposed: Sequence[int], bits: int, dim: int
                       ) -> list[int]:
    """Inverse of :func:`_axes_to_transpose`."""
    x = list(transposed)
    n = 2 << (bits - 1)
    # Gray decode by H ^ (H/2).
    t = x[dim - 1] >> 1
    for i in range(dim - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    # Undo excess work.
    q = 2
    while q != n:
        p = q - 1
        for i in range(dim - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return x


def _interleave(transposed: Sequence[int], bits: int, dim: int) -> int:
    """Pack the transposed representation into a single integer key."""
    key = 0
    for j in range(bits - 1, -1, -1):
        for i in range(dim):
            key = (key << 1) | ((transposed[i] >> j) & 1)
    return key


def _deinterleave(key: int, bits: int, dim: int) -> list[int]:
    """Unpack a key into the transposed representation."""
    x = [0] * dim
    for j in range(bits - 1, -1, -1):
        for i in range(dim):
            shift = j * dim + (dim - 1 - i)
            x[i] = (x[i] << 1) | ((key >> shift) & 1)
    return x


def hilbert_index(coords: Sequence[int], bits: int) -> int:
    """Hilbert curve position of an integer grid point.

    ``coords`` must all lie in ``[0, 2^bits)``.  The result lies in
    ``[0, 2^(bits*dim))`` and adjacent results are adjacent grid cells.
    """
    dim = len(coords)
    if dim < 1:
        raise GeometryError("need at least one coordinate")
    limit = 1 << bits
    for c in coords:
        if not 0 <= c < limit:
            raise GeometryError(
                f"coordinate {c} outside grid [0, {limit})")
    if dim == 1:
        return int(coords[0])
    return _interleave(_axes_to_transpose(coords, bits, dim), bits, dim)


def hilbert_index_batch(coords, bits: int) -> list[int]:
    """Hilbert curve positions of many grid points at once.

    ``coords`` is an ``(n, dim)`` array-like of integers in
    ``[0, 2^bits)``.  Semantically identical to calling
    :func:`hilbert_index` per row, but the Skilling transpose runs as
    whole-array bitwise operations (see :func:`_hilbert_index_array`).
    The scalar loop is only the fallback for keys that would overflow
    ``int64`` (and for empty or non-2-d input).
    """
    rows = _np.asarray(coords, dtype=_np.int64)
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] * bits > 62:
        return [hilbert_index(tuple(int(c) for c in row), bits)
                for row in coords]
    return _hilbert_index_array(rows, bits).tolist()


def _hilbert_index_array(rows: _np.ndarray, bits: int) -> _np.ndarray:
    """int64 Hilbert keys of an ``(n, dim)`` int64 grid array, for
    ``dim * bits <= 62``: the Skilling transpose as whole-array bitwise
    operations (the per-point Python interpreter cost is what dominates
    bulk loads — compactions and recovery call this on every build)."""
    n, dim = rows.shape
    limit = 1 << bits
    if bool((rows < 0).any()) or bool((rows >= limit).any()):
        raise GeometryError(
            f"coordinate outside grid [0, {limit})")
    if dim == 1:
        return rows[:, 0].copy()
    # One contiguous row per axis, and every step a whole-array pass
    # over it.  Where the scalar code branches on bit k of an axis,
    # ``neg`` (all ones where that bit is set, else 0) selects between
    # the two outcomes arithmetically.
    x = rows.T.copy()
    # Inverse undo excess work.
    for k in range(bits - 1, 0, -1):
        p = (1 << k) - 1
        for i in range(dim):
            neg = (x[i] >> k) & 1
            _np.negative(neg, out=neg)
            t = x[0] ^ x[i]
            t &= p
            t &= ~neg
            neg &= p
            neg |= t
            x[0] ^= neg
            x[i] ^= t
    # Gray encode.
    for i in range(1, dim):
        x[i] ^= x[i - 1]
    t = _np.zeros(n, dtype=_np.int64)
    for k in range(bits - 1, 0, -1):
        t ^= ((x[dim - 1] >> k) & 1) * ((1 << k) - 1)
    x ^= t
    # Interleave bit j of every axis into the packed key.
    key = _np.zeros(n, dtype=_np.int64)
    for j in range(bits - 1, -1, -1):
        for i in range(dim):
            key <<= 1
            key |= (x[i] >> j) & 1
    return key


def hilbert_point(index: int, bits: int, dim: int) -> tuple[int, ...]:
    """Inverse of :func:`hilbert_index`."""
    if not 0 <= index < (1 << (bits * dim)):
        raise GeometryError("hilbert index out of range for grid")
    if dim == 1:
        return (index,)
    return tuple(_transpose_to_axes(_deinterleave(index, bits, dim),
                                    bits, dim))


class HilbertEncoder:
    """Maps float points inside a bounding box to Hilbert keys.

    The encoder snaps each coordinate onto a ``2^bits`` grid over the
    bounding box.  Points outside the box are clamped, so the encoder stays
    usable when updates extend slightly beyond the original data extent.
    """

    __slots__ = ("bounds", "bits", "_scale")

    def __init__(self, bounds: Rect, bits: int = 16):
        if bits < 1 or bits * bounds.dim > 63 * 3:
            raise GeometryError(f"unsupported bits per dimension: {bits}")
        self.bounds = bounds
        self.bits = bits
        cells = (1 << bits) - 1
        scale = []
        for lo, hi in zip(bounds.lo, bounds.hi):
            extent = hi - lo
            scale.append(cells / extent if extent > 0 else 0.0)
        self._scale = tuple(scale)

    @property
    def dim(self) -> int:
        """Dimensionality of the encoder's grid."""
        return self.bounds.dim

    def grid(self, point: Sequence[float]) -> tuple[int, ...]:
        """Snap a float point onto the integer grid (clamping)."""
        if len(point) != self.dim:
            raise GeometryError(
                f"point has {len(point)} coords, encoder is {self.dim}-d")
        cells = (1 << self.bits) - 1
        out = []
        for c, lo, s in zip(point, self.bounds.lo, self._scale):
            g = int((c - lo) * s)
            if g < 0:
                g = 0
            elif g > cells:
                g = cells
            out.append(g)
        return tuple(out)

    def key(self, point: Sequence[float]) -> int:
        """Hilbert key of a float point."""
        return hilbert_index(self.grid(point), self.bits)

    def keys(self, points) -> _np.ndarray:
        """Hilbert keys of many float points (vectorised grid snap).

        ``points`` is an ``(n, dim)`` array-like; a float64 ndarray is
        used as is.  Element for element equal to
        ``[self.key(p) for p in points]``, as an int64 array — or, when
        ``dim * bits > 62`` overflows int64, an object array of the
        scalar codec's Python ints.  Either sorts with ``np.argsort``.
        """
        arr = _np.asarray(points, dtype=_np.float64)
        if arr.size == 0:
            return _np.empty(0, dtype=_np.int64)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise GeometryError(
                f"points must be (n, {self.dim}) shaped")
        lo = _np.asarray(self.bounds.lo, dtype=_np.float64)
        scale = _np.asarray(self._scale, dtype=_np.float64)
        cells = (1 << self.bits) - 1
        grid = ((arr - lo) * scale).astype(_np.int64)
        _np.clip(grid, 0, cells, out=grid)
        if self.dim * self.bits > 62:
            keys = _np.empty(len(grid), dtype=object)
            keys[:] = [hilbert_index(row, self.bits)
                       for row in grid.tolist()]
            return keys
        return _hilbert_index_array(grid, self.bits)
