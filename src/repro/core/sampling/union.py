"""Uniform without-replacement draws over a disjoint union of parts.

Three samplers emit a uniform WOR stream of ``P ∩ Q`` by merging
disjoint parts: the RS-tree merges canonical nodes, the tiered sampler
merges LSM tiers, and the distributed sampler merges cluster shards.
They all use :class:`UnionStream`.  The exactness argument is in
DESIGN.md, "Uniform draws over a disjoint union".

A *part* has a ``remaining`` count and a ``draw(m)`` that returns ``m``
further entries of a uniform WOR order over its own population.  A
part may return fewer only when its population became unreachable (a
distributed shard with no live copy); the union then drops the rest of
its count and re-splits the shortfall over the other parts.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

import numpy as np

from repro.index.cost import CostCounter

__all__ = ["PoolPart", "UnionStream", "permute", "split"]

#: Entries ``UnionStream.__next__`` draws ahead in one batch.  Only
#: full drains iterate (the chaos smoke's post-crash drain) and tests;
#: sessions, ``take``, worker fetches and the with-replacement wrapper
#: call ``draw_batch``, which never draws ahead.
_CHUNK = 64


def split(np_rng: np.random.Generator, counts: Sequence[int],
          b: int) -> list[tuple[int, int]]:
    """How ``b`` uniform WOR draws from the union land on the parts.

    One multivariate hypergeometric draw over ``counts``.  Returns the
    ``(part index, share)`` pairs with a non-zero share.  numpy's
    "marginals" method costs one univariate draw per part; its "count"
    method allocates ``sum(counts)`` integers per call, which at
    2·10⁶ points costs ~30× more.
    """
    shares = np_rng.multivariate_hypergeometric(counts, b)
    return [(i, s) for i, s in enumerate(shares.tolist()) if s]


def permute(np_rng: np.random.Generator, batch: list) -> list:
    """``batch`` in uniformly random order (parts fill it grouped)."""
    order = np_rng.permutation(len(batch)).tolist()
    return [batch[j] for j in order]


class PoolPart:
    """A part whose population is an explicit list.

    Each draw takes partial Fisher–Yates steps over a private copy, so
    a draw of m costs O(m) however large the pool is.
    """

    __slots__ = ("_pool", "_pos", "_rng", "remaining")

    def __init__(self, entries: Sequence, rng: random.Random):
        self._pool = list(entries)
        self._pos = 0
        self._rng = rng
        self.remaining = len(self._pool)

    def draw(self, m: int) -> list:
        pool = self._pool
        n = len(pool)
        start = self._pos
        end = min(start + m, n)
        rnd = self._rng.random
        for i in range(start, end):
            j = i + int(rnd() * (n - i))
            pool[i], pool[j] = pool[j], pool[i]
        self._pos = end
        self.remaining = n - end
        return pool[start:end]


class UnionStream:
    """A uniform WOR stream over the union of disjoint parts.

    ``parts`` is the part list, or a zero-argument callable that builds
    it at the first draw (so that work lands in the consumer's draw
    span).  ``cost``, when given, is charged one sample per entry
    drawn.  ``on_close`` runs once, at :meth:`close`, when the
    stream is exhausted or when it is garbage-collected unclosed,
    provided the parts were built.  ``np_rng`` is
    a numpy Generator to share with other unions of the same query
    (nested unions); by default one is seeded from ``rng`` at the
    first draw.
    """

    __slots__ = ("_parts", "_rng", "_cost", "_on_close", "_np_rng",
                 "_remaining", "_total", "_chunk", "_chunk_pos",
                 "_closed")

    def __init__(self, parts: "Sequence | Callable[[], Sequence]",
                 rng: random.Random, cost: CostCounter | None = None,
                 on_close: Callable[[], None] | None = None,
                 np_rng: np.random.Generator | None = None):
        self._parts = parts
        self._rng = rng
        self._cost = cost
        self._on_close = on_close
        self._np_rng = np_rng
        self._remaining: list[int] | None = None
        self._total = 0
        self._chunk: list = []
        self._chunk_pos = 0
        self._closed = False

    def _start(self) -> None:
        parts = self._parts
        if callable(parts):
            parts = self._parts = parts()
        self._remaining = [p.remaining for p in parts]
        self._total = sum(self._remaining)
        if self._np_rng is None:
            self._np_rng = np.random.default_rng(self._rng.getrandbits(64))

    def __iter__(self) -> UnionStream:
        return self

    def __next__(self):
        # A prefix of a uniform WOR order is uniform WOR, so single
        # draws are handed out of a chunk that one batch filled.
        if self._chunk_pos >= len(self._chunk):
            self._chunk = self._draw(_CHUNK)
            self._chunk_pos = 0
            if not self._chunk:
                raise StopIteration
        entry = self._chunk[self._chunk_pos]
        self._chunk_pos += 1
        return entry

    def draw_batch(self, k: int) -> list:
        """The next ``min(k, remaining)`` entries of the stream."""
        if k <= 0:
            return []
        pos = self._chunk_pos
        held = len(self._chunk) - pos
        if not held:
            return self._draw(k)
        take = min(k, held)
        out = self._chunk[pos:pos + take]
        self._chunk_pos = pos + take
        if take < k:
            out += self._draw(k - take)
        return out

    def draw(self, m: int) -> list:
        """The part protocol, for a union nested in another: ``m``
        further entries, grouped by part — the enclosing union's
        permutation orders them."""
        return self._draw(m, ordered=False)

    def _draw(self, k: int, ordered: bool = True) -> list:
        if self._closed:
            return []
        if self._remaining is None:
            self._start()
        parts = self._parts
        remaining = self._remaining
        np_rng = self._np_rng
        out: list = []
        need = min(k, self._total)
        while need > 0:
            for i, share in split(np_rng, remaining, need):
                got = parts[i].draw(share)
                out += got
                if len(got) < share:
                    # The part lost its population: drop what it has
                    # left and re-split the shortfall over the others.
                    self._total -= remaining[i]
                    remaining[i] = 0
                else:
                    self._total -= share
                    remaining[i] -= share
            need = min(k - len(out), self._total)
        if ordered and len(out) > 1:
            out = permute(np_rng, out)
        if self._cost is not None:
            self._cost.charge_sample(len(out))
        if self._total <= 0:
            self._release()
        return out

    def close(self) -> None:
        """End the stream early; later draws return nothing."""
        self._closed = True
        self._chunk = []
        self._chunk_pos = 0
        self._release()

    def __del__(self) -> None:
        # A consumer that stops early without closing (a dropped
        # session) still releases what the parts hold.
        self._release()

    def _release(self) -> None:
        on_close, self._on_close = self._on_close, None
        if on_close is not None and self._remaining is not None:
            on_close()
