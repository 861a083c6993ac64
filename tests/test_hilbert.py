"""Unit tests for the Hilbert curve codec."""

import numpy as np
import pytest

from repro.core.geometry import Rect
from repro.errors import GeometryError
from repro.index.hilbert import (HilbertEncoder, hilbert_index,
                                 hilbert_index_batch, hilbert_point)


class TestHilbertIndex:
    def test_bijective_2d_small(self):
        bits = 3
        seen = set()
        for x in range(1 << bits):
            for y in range(1 << bits):
                key = hilbert_index((x, y), bits)
                assert (x, y) == hilbert_point(key, bits, 2)
                seen.add(key)
        assert seen == set(range(1 << (2 * bits)))

    def test_bijective_3d_small(self):
        bits = 2
        seen = set()
        for x in range(1 << bits):
            for y in range(1 << bits):
                for z in range(1 << bits):
                    key = hilbert_index((x, y, z), bits)
                    assert (x, y, z) == hilbert_point(key, bits, 3)
                    seen.add(key)
        assert seen == set(range(1 << (3 * bits)))

    def test_adjacent_keys_are_adjacent_cells_2d(self):
        """The defining Hilbert property: consecutive curve positions are
        grid neighbours (Manhattan distance 1)."""
        bits = 4
        prev = hilbert_point(0, bits, 2)
        for key in range(1, 1 << (2 * bits)):
            cur = hilbert_point(key, bits, 2)
            dist = abs(cur[0] - prev[0]) + abs(cur[1] - prev[1])
            assert dist == 1, f"jump at key {key}: {prev} -> {cur}"
            prev = cur

    def test_adjacent_keys_are_adjacent_cells_3d(self):
        bits = 2
        prev = hilbert_point(0, bits, 3)
        for key in range(1, 1 << (3 * bits)):
            cur = hilbert_point(key, bits, 3)
            dist = sum(abs(a - b) for a, b in zip(cur, prev))
            assert dist == 1
            prev = cur

    def test_1d_is_identity(self):
        assert hilbert_index((5,), 4) == 5
        assert hilbert_point(5, 4, 1) == (5,)

    def test_rejects_out_of_grid(self):
        with pytest.raises(GeometryError):
            hilbert_index((8, 0), 3)
        with pytest.raises(GeometryError):
            hilbert_index((-1, 0), 3)

    def test_rejects_bad_index(self):
        with pytest.raises(GeometryError):
            hilbert_point(1 << 10, 3, 2)


class TestHilbertEncoder:
    def test_grid_snapping(self):
        enc = HilbertEncoder(Rect((0, 0), (10, 10)), bits=4)
        assert enc.grid((0, 0)) == (0, 0)
        assert enc.grid((10, 10)) == (15, 15)

    def test_clamps_outside(self):
        enc = HilbertEncoder(Rect((0, 0), (10, 10)), bits=4)
        assert enc.grid((-5, 20)) == (0, 15)

    def test_key_locality(self):
        """Nearby points should usually have nearby keys: compare average
        key distance of near pairs vs far pairs."""
        enc = HilbertEncoder(Rect((0, 0), (100, 100)), bits=10)
        near = abs(enc.key((50, 50)) - enc.key((50.5, 50)))
        far = abs(enc.key((50, 50)) - enc.key((95, 5)))
        assert near < far

    def test_degenerate_axis(self):
        # A zero-extent axis (all points share a coordinate) must not
        # divide by zero.
        enc = HilbertEncoder(Rect((0, 5), (10, 5)), bits=4)
        assert enc.grid((3, 5))[1] == 0

    def test_dim_mismatch(self):
        enc = HilbertEncoder(Rect((0, 0), (1, 1)), bits=4)
        with pytest.raises(GeometryError):
            enc.key((0.5,))

    def test_rejects_silly_bits(self):
        with pytest.raises(GeometryError):
            HilbertEncoder(Rect((0, 0), (1, 1)), bits=0)


class TestBatchCodec:
    """hilbert_index_batch and HilbertEncoder.keys must agree with the
    scalar codec bit-for-bit — the bulk-load fast path is only a fast
    path if it computes the same curve."""

    def test_batch_matches_scalar_all_dims(self):
        import itertools
        import random as _random
        rng = _random.Random(5)
        for dim, bits in itertools.product((1, 2, 3), (4, 8, 16)):
            limit = 1 << bits
            pts = [tuple(rng.randrange(limit) for _ in range(dim))
                   for _ in range(200)]
            want = [hilbert_index(p, bits) for p in pts]
            assert hilbert_index_batch(pts, bits) == want

    def test_overflow_guard_falls_back_to_scalar(self):
        # 3 dims x 21 bits = 63 curve bits > the int64 budget: the
        # batch path must detour through the scalar codec, not wrap.
        pts = [(1, 2, 3), ((1 << 21) - 1,) * 3]
        want = [hilbert_index(p, 21) for p in pts]
        assert hilbert_index_batch(pts, 21) == want

    def test_empty_batch(self):
        assert hilbert_index_batch([], 8) == []

    def test_batch_rejects_out_of_grid(self):
        with pytest.raises(GeometryError):
            hilbert_index_batch([(0, 16)], 4)
        with pytest.raises(GeometryError):
            hilbert_index_batch([(-1, 0)], 4)

    def test_encoder_keys_match_scalar(self):
        import random as _random
        rng = _random.Random(9)
        enc = HilbertEncoder(Rect((0, 0), (100, 50)), bits=10)
        pts = [(rng.uniform(-10, 110), rng.uniform(-10, 60))
               for _ in range(300)]
        want = [enc.key(p) for p in pts]
        got = enc.keys(pts)
        assert got.dtype == np.int64 and got.tolist() == want
        # An ndarray goes in as is.
        assert enc.keys(np.array(pts)).tolist() == want
        assert enc.keys([]).tolist() == []

    def test_encoder_keys_overflow_falls_back_to_python_ints(self):
        # 3 dims x 21 bits > 62: the keys do not fit int64.
        import random as _random
        rng = _random.Random(10)
        enc = HilbertEncoder(Rect((0, 0, 0), (1, 1, 1)), bits=21)
        pts = np.array([[rng.random() for _ in range(3)]
                        for _ in range(50)] + [[1.0, 1.0, 1.0]])
        got = enc.keys(pts)
        assert got.dtype == object
        assert got.tolist() == [enc.key(p) for p in pts.tolist()]
        assert max(got.tolist()) >= 1 << 62

    def test_encoder_keys_shape_check(self):
        enc = HilbertEncoder(Rect((0, 0), (1, 1)), bits=4)
        with pytest.raises(GeometryError):
            enc.keys([(0.5, 0.5, 0.5)])
