"""Online kernel density estimation over a spatial grid.

The paper (Section 3.2): the density at a point p is
``f(p) = (1/q) Σ_{e ∈ P_Q} κ(d(e, p))`` — an *average* over the in-range
population, so each grid cell's density is estimated by the sample mean of
``κ(d(e, p))`` over the online samples, with a per-cell confidence
interval.  More samples → a sharper density map, which is exactly the
zoom-out demo of Figure 5.

The grid evaluation is vectorised with numpy: one ``update`` costs
O(cells) float ops.  Per-cell mean and variance accumulate with Welford's
update in array form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.estimators.base import Estimate, OnlineEstimator
from repro.core.estimators.intervals import (check_level,
                                             finite_population_correction,
                                             quantile)
from repro.core.records import Record
from repro.errors import EstimatorError

__all__ = ["GridSpec", "OnlineKDE", "gaussian_kernel",
           "epanechnikov_kernel"]


def gaussian_kernel(sq_dist: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian kernel on squared distances (unnormalised height 1)."""
    return np.exp(-sq_dist / (2.0 * bandwidth * bandwidth))


def epanechnikov_kernel(sq_dist: np.ndarray, bandwidth: float
                        ) -> np.ndarray:
    """Epanechnikov kernel: compact support of radius ``bandwidth``."""
    u2 = sq_dist / (bandwidth * bandwidth)
    return np.maximum(0.0, 0.75 * (1.0 - u2))


_KERNELS = {
    "gaussian": gaussian_kernel,
    "epanechnikov": epanechnikov_kernel,
}


@dataclass(frozen=True, slots=True)
class GridSpec:
    """A regular evaluation grid over a lon/lat box."""

    lon_lo: float
    lat_lo: float
    lon_hi: float
    lat_hi: float
    nx: int = 32
    ny: int = 32

    def __post_init__(self):
        if self.lon_lo >= self.lon_hi or self.lat_lo >= self.lat_hi:
            raise EstimatorError("grid box must have positive extent")
        if self.nx < 1 or self.ny < 1:
            raise EstimatorError("grid resolution must be >= 1")

    def centers(self) -> np.ndarray:
        """(nx·ny, 2) array of cell-center coordinates."""
        xs = np.linspace(self.lon_lo, self.lon_hi, self.nx * 2 + 1)[1::2]
        ys = np.linspace(self.lat_lo, self.lat_hi, self.ny * 2 + 1)[1::2]
        gx, gy = np.meshgrid(xs, ys, indexing="xy")
        return np.column_stack([gx.ravel(), gy.ravel()])

    @property
    def cells(self) -> int:
        """Total number of grid cells (nx * ny)."""
        return self.nx * self.ny

    def default_bandwidth(self) -> float:
        """A rule-of-thumb bandwidth: ~2 cells wide."""
        return 2.0 * max((self.lon_hi - self.lon_lo) / self.nx,
                         (self.lat_hi - self.lat_lo) / self.ny)


class OnlineKDE(OnlineEstimator):
    """Progressive density map with per-cell confidence intervals.

    ``estimate().value`` is a ``(ny, nx)`` array of density estimates;
    ``interval`` is ``None`` (the scalar protocol doesn't fit a field) —
    use :meth:`cell_intervals` for the per-cell bounds the paper's
    visualiser shades.
    """

    def __init__(self, grid: GridSpec, bandwidth: float | None = None,
                 kernel: str = "gaussian"):
        super().__init__()
        if kernel not in _KERNELS:
            raise EstimatorError(
                f"unknown kernel {kernel!r}; pick from {sorted(_KERNELS)}")
        self.grid = grid
        self.bandwidth = (bandwidth if bandwidth is not None
                          else grid.default_bandwidth())
        if self.bandwidth <= 0:
            raise EstimatorError("bandwidth must be positive")
        self.kernel_name = kernel
        self._kernel = _KERNELS[kernel]
        self._centers = grid.centers()
        self._mean = np.zeros(grid.cells)
        self._m2 = np.zeros(grid.cells)

    def update(self, record: Record) -> None:
        d2 = ((self._centers[:, 0] - record.lon) ** 2
              + (self._centers[:, 1] - record.lat) ** 2)
        contrib = self._kernel(d2, self.bandwidth)
        n = self.k  # absorb() already incremented
        delta = contrib - self._mean
        self._mean += delta / n
        self._m2 += delta * (contrib - self._mean)

    # The KDE reads only coordinates, so every batch qualifies for the
    # columnar path (this module already requires numpy).
    supports_columns = True

    def absorb_columns(self, lons, lats, ts) -> bool:
        n = len(lons)
        if n == 0:
            return True
        lon = np.asarray(lons, dtype=np.float64)
        lat = np.asarray(lats, dtype=np.float64)
        # (cells, n) kernel contributions for the whole batch, folded in
        # with one per-cell Chan et al. merge — the batch analogue of
        # the per-record Welford update, identical in exact arithmetic.
        d2 = ((self._centers[:, 0, None] - lon[None, :]) ** 2
              + (self._centers[:, 1, None] - lat[None, :]) ** 2)
        contrib = self._kernel(d2, self.bandwidth)
        bmean = contrib.mean(axis=1)
        bm2 = ((contrib - bmean[:, None]) ** 2).sum(axis=1)
        before = self.k
        total = before + n
        delta = bmean - self._mean
        self._mean += delta * (n / total)
        self._m2 += bm2 + delta * delta * (before * n / total)
        self.k = total
        return True

    def _field(self) -> np.ndarray:
        return self._mean.reshape(self.grid.ny, self.grid.nx)

    def _stderr(self) -> np.ndarray:
        if self.k < 2:
            return np.full(self.grid.cells, np.inf)
        var = self._m2 / (self.k - 1)
        fpc = finite_population_correction(self.k, self.fpc_population)
        return np.sqrt(var / self.k * fpc)

    def estimate(self, level: float = 0.95) -> Estimate:
        if self.k == 0:
            raise EstimatorError("no samples absorbed yet")
        se = self._stderr()
        mean_se = float(np.mean(se)) if self.k >= 2 else None
        return Estimate(value=self._field(), std_error=mean_se,
                        interval=None, k=self.k, q=self.population_size,
                        exact=self.is_exact)

    def cell_intervals(self, level: float = 0.95
                       ) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) arrays of per-cell normal confidence bounds."""
        if self.k < 2:
            raise EstimatorError("need two samples for cell intervals")
        check_level(level)
        z = quantile("t", (1 + level) / 2, self.k - 1)
        se = self._stderr().reshape(self.grid.ny, self.grid.nx)
        field = self._field()
        return field - z * se, field + z * se

    def max_relative_error(self, level: float = 0.95,
                           floor: float = 1e-12) -> float:
        """Worst per-cell half-width relative to the map's peak density —
        the scalar quality the demo UI reports for a density map."""
        lo, hi = self.cell_intervals(level)
        peak = float(np.max(self._field()))
        if peak <= floor:
            return math.inf
        return float(np.max((hi - lo) / 2.0) / peak)

    def reset(self) -> None:
        super().reset()
        self._mean = np.zeros(self.grid.cells)
        self._m2 = np.zeros(self.grid.cells)
