"""Minority-representation diagnostics over rankings.

The central object is the share curve: for each top fraction x, the
fraction of minority (red) nodes among the first ceil(x * n) positions of
a ranking, compared with the population baseline. A ranking is fair in the
statistical-parity sense when the curve hugs the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .graph import Color
from .io import table

__all__ = [
    "FairnessCurve",
    "log_grid",
    "minority_share_curve",
    "curve_columns",
    "curve_compare",
    "average_curves",
]

DEFAULT_GRID_POINTS = 40

# ceil(x * n) computed with a small slack so grid values that are exact
# multiples of 1/n (up to float representation) do not round up a rank
_CEIL_EPS = 1e-9

_GRID_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class FairnessCurve:
    """Minority share among the top ceil(x * n) ranks, per grid fraction x.

    ``baseline`` is the population minority fraction; by construction the
    share at x = 1.0 equals it exactly.
    """

    grid: np.ndarray
    share: np.ndarray
    baseline: float


def log_grid(n: int, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Log-spaced top fractions from 1/n to 1.0 inclusive."""
    if n < 1 or points < 2:
        raise ValueError("need n >= 1 and at least two grid points")
    grid = np.geomspace(1.0 / n, 1.0, points)
    grid[0] = 1.0 / n
    grid[-1] = 1.0
    return grid


def _top_counts(grid: np.ndarray, n: int) -> np.ndarray:
    return np.clip(np.ceil(grid * n - _CEIL_EPS).astype(np.int64), 1, n)


def minority_share_curve(order, colors, grid=None) -> FairnessCurve:
    """Minority share along a ranking.

    Parameters
    ----------
    order : permutation of node ids, best rank first.
    colors : per-node color array (``Color`` values or uint8 with R == 1).
    grid : ascending top fractions in (0, 1]; default ``log_grid(n)``.
    """
    order = np.asarray(order)
    if order.size == 0:
        raise ValueError("empty ranking")
    red = np.asarray(colors) == Color.R
    n = red.shape[0]
    if order.shape[0] != n:
        raise ValueError("order and colors disagree on node count")
    if grid is None:
        grid = log_grid(n)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d array")
    if np.any(grid <= 0.0) or np.any(grid > 1.0):
        raise ValueError("grid fractions must lie in (0, 1]")
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be ascending")

    prefix_red = np.cumsum(red[order])
    top = _top_counts(grid, n)
    share = prefix_red[top - 1] / top
    baseline = prefix_red[-1] / n
    return FairnessCurve(grid=grid, share=share, baseline=float(baseline))


def _same_grid(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= _GRID_MATCH_TOL))


def curve_columns(curve: FairnessCurve) -> tuple:
    """The ``x,share,baseline`` columns of one curve in a long-format table."""
    return curve.grid.tolist(), curve.share.tolist(), repeat(curve.baseline)


def curve_compare(curves: Mapping[str, FairnessCurve]) -> str:
    """Long-format CSV ``algo,x,share,baseline`` over one shared grid.

    Rows are grouped by algorithm in mapping order, grid order within.
    Raises on an empty mapping or misaligned grids.
    """
    if not curves:
        raise ValueError("no curves to compare")
    items = list(curves.items())
    ref = items[0][1].grid
    for name, curve in items[1:]:
        if not _same_grid(ref, curve.grid):
            raise ValueError(f"curve {name!r} is on a different grid")
    return table(*((repeat(name), *curve_columns(curve)) for name, curve in items),
                 header="algo,x,share,baseline")


def average_curves(curves: Sequence[FairnessCurve]) -> FairnessCurve:
    """Pointwise mean of replica curves (shares and baseline)."""
    if not curves:
        raise ValueError("no curves to average")
    ref = curves[0].grid
    for curve in curves[1:]:
        if not _same_grid(ref, curve.grid):
            raise ValueError("replica curves are on different grids")
    share = np.mean([c.share for c in curves], axis=0)
    baseline = float(np.mean([c.baseline for c in curves]))
    return FairnessCurve(grid=ref.copy(), share=share, baseline=baseline)
