"""O(1) weighted source selection for the with-replacement paths.

Every with-replacement sampler repeatedly answers the same question:
*given sources with fixed weights w_0..w_{n-1}, pick source i with
probability w_i / Σw*.  The naive answer — draw ``randrange(total)``
and scan the cumulative sums — is O(n) per draw and shows up directly
in sampler throughput once canonical sets or clusters have many
sources.  :class:`AliasTable` is Walker's alias method for *static*
weights: O(n) build, O(1) per draw (one ``randrange`` + one ``random``
+ two table lookups).

Without-replacement paths split whole batches over their sources
instead (:mod:`repro.core.sampling.union`).  The chi-square tests in
``tests/test_weighted.py`` hold the table to the exact distribution
its weights describe.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import StormError

__all__ = ["AliasTable"]


class AliasTable:
    """Walker/Vose alias table: O(1) draws from a fixed distribution.

    Weights may be any non-negative numbers with a positive sum.
    Zero-weight sources are never drawn.
    """

    __slots__ = ("_n", "_prob", "_alias")

    def __init__(self, weights: Sequence[float]):
        n = len(weights)
        if n == 0:
            raise StormError("alias table needs at least one weight")
        total = 0.0
        for w in weights:
            if w < 0:
                raise StormError(f"negative weight {w}")
            total += w
        if total <= 0:
            raise StormError("alias table needs a positive total weight")
        self._n = n
        # Vose's stable partition into small/large columns.
        scaled = [w * n / total for w in weights]
        prob = [0.0] * n
        alias = list(range(n))
        small = [i for i, s in enumerate(scaled) if s < 1.0]
        large = [i for i, s in enumerate(scaled) if s >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] -= 1.0 - scaled[s]
            (small if scaled[l] < 1.0 else large).append(l)
        # Leftovers are 1.0 up to float error.
        for i in large:
            prob[i] = 1.0
        for i in small:
            prob[i] = 1.0
        self._prob = prob
        self._alias = alias

    def __len__(self) -> int:
        return self._n

    def sample(self, rng: random.Random) -> int:
        """One draw: index i with probability w_i / Σw."""
        i = rng.randrange(self._n)
        if rng.random() < self._prob[i]:
            return i
        return self._alias[i]
