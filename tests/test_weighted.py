"""Tests for the with-replacement weighted-draw structure (alias table).

:class:`AliasTable` must produce *exactly* the discrete distribution its
weights describe — chi-square tests below hold it to that.  The
without-replacement union draw has its own tests in
``tests/test_union.py``.

Seeds are fixed; thresholds use the 0.001 quantile.
"""

import random

import pytest
from scipy import stats

from repro.core.sampling import AliasTable
from repro.errors import StormError


def chi_square_pvalue(observed: list[int], expected: list[float]) -> float:
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected)
               if e > 0)
    df = sum(1 for e in expected if e > 0) - 1
    return stats.chi2.sf(chi2, df=df)


class TestAliasTable:
    def test_rejects_bad_weights(self):
        with pytest.raises(StormError):
            AliasTable([])
        with pytest.raises(StormError):
            AliasTable([1.0, -0.5])
        with pytest.raises(StormError):
            AliasTable([0.0, 0.0])

    def test_len(self):
        assert len(AliasTable([1, 2, 3])) == 3

    def test_single_source(self):
        table = AliasTable([5.0])
        rng = random.Random(1)
        assert all(table.sample(rng) == 0 for _ in range(100))

    def test_zero_weight_sources_never_drawn(self):
        table = AliasTable([1.0, 0.0, 2.0, 0.0])
        rng = random.Random(2)
        draws = {table.sample(rng) for _ in range(5000)}
        assert draws == {0, 2}

    def test_uniform_weights_chi_square(self):
        n, draws = 16, 40_000
        table = AliasTable([1.0] * n)
        rng = random.Random(3)
        counts = [0] * n
        for _ in range(draws):
            counts[table.sample(rng)] += 1
        p = chi_square_pvalue(counts, [draws / n] * n)
        assert p > 1e-3

    def test_skewed_weights_chi_square(self):
        weights = [1.0, 2.0, 4.0, 8.0, 16.0, 0.5]
        total = sum(weights)
        draws = 60_000
        table = AliasTable(weights)
        rng = random.Random(4)
        counts = [0] * len(weights)
        for _ in range(draws):
            counts[table.sample(rng)] += 1
        p = chi_square_pvalue(counts,
                              [draws * w / total for w in weights])
        assert p > 1e-3
