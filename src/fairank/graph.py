"""Colored directed multigraph with degree accounting and tail statistics.

Nodes are dense integer ids ``0..n-1``, each carrying one of two community
colors. Parallel edges are kept with their multiplicity. The structure is
immutable after construction; adjacency is the edge list itself, so a
whole-graph matrix-vector product is one weighted ``np.bincount``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Color",
    "ColoredDigraph",
    "GraphError",
    "from_edge_list",
    "minority_fraction",
    "hri",
    "degree_ccdf",
    "ccdf_by_color",
    "tail_exponent_fit",
]

DEGREE_KINDS = ("in", "out", "total")


class GraphError(ValueError):
    """Structural problem with graph input: empty edge set, missing or
    unknown colors, malformed records."""


class Color(IntEnum):
    """Community label of a node. By convention R is the minority."""

    B = 0
    R = 1

    @classmethod
    def parse(cls, token: str) -> "Color":
        """Map a text token (``"R"``/``"B"``, case-insensitive) to a color."""
        try:
            return cls[token.strip().upper()]
        except KeyError:
            raise GraphError(f"unknown color {token!r}: expected R or B") from None


ColorSpec = Union[Mapping[int, Color], Sequence[Color], np.ndarray]


@dataclass(frozen=True)
class ColoredDigraph:
    """Immutable directed multigraph whose nodes carry a two-valued color.

    Attributes
    ----------
    n : int
        Number of nodes; ids are ``0..n-1``.
    colors : np.ndarray
        uint8 array of length ``n``; entry equals ``Color.R`` (1) for
        minority nodes and ``Color.B`` (0) otherwise.
    src, dst : np.ndarray
        int64 arrays, one entry per edge, in insertion order.
    indeg, outdeg : np.ndarray
        Per-node degree counts including parallel-edge multiplicity.
    """

    n: int
    colors: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    indeg: np.ndarray
    outdeg: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.src.shape[0])

    def degrees(self, which: str = "total") -> np.ndarray:
        """Degree vector: ``which`` is one of ``in``, ``out``, ``total``."""
        if which == "in":
            return self.indeg
        if which == "out":
            return self.outdeg
        if which == "total":
            return self.indeg + self.outdeg
        raise ValueError(f"unknown degree kind {which!r}: expected one of {DEGREE_KINDS}")

    def is_red(self) -> np.ndarray:
        """Boolean mask of minority (R) nodes."""
        return self.colors == Color.R


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _coerce_colors(colors: ColorSpec) -> np.ndarray:
    if isinstance(colors, Mapping):
        n = len(colors)
        out = np.full(n, 255, dtype=np.uint8)
        for node, color in colors.items():
            node = int(node)
            if not 0 <= node < n:
                raise GraphError(
                    f"color map keys must be dense ids 0..{n - 1}, got {node}"
                )
            out[node] = int(color)
        # dense keys + in-range check above imply every slot was written,
        # unless a duplicate key masked a missing one
        if np.any(out == 255):
            missing = int(np.flatnonzero(out == 255)[0])
            raise GraphError(f"no color given for node {missing}")
        return out
    arr = np.asarray(colors)
    if arr.ndim != 1 or arr.size == 0:
        raise GraphError("colors must be a non-empty 1-d sequence or mapping")
    return arr.astype(np.uint8)


def from_edge_list(edges: Iterable, colors: ColorSpec) -> ColoredDigraph:
    """Build a validated graph from ``(src, dst)`` pairs and per-node colors.

    Parameters
    ----------
    edges : iterable of (int, int) or (m, 2) array
        Directed edges over dense node ids. Parallel edges are kept.
    colors : mapping or sequence
        Color for every node ``0..n-1``; ``n`` is taken from its length.
        Isolated nodes are allowed (color given, no incident edge).

    Raises
    ------
    GraphError
        On an empty edge set, color values other than R/B, or edge
        endpoints outside ``0..n-1``.
    """
    edge_arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if edge_arr.size == 0:
        raise GraphError("edge list is empty")
    if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
        raise GraphError("edges must be (src, dst) pairs")
    edge_arr = edge_arr.astype(np.int64, copy=False)

    color_arr = _coerce_colors(colors)
    n = int(color_arr.shape[0])
    if not np.all((color_arr == Color.B) | (color_arr == Color.R)):
        raise GraphError("colors must be Color.R or Color.B")

    src = edge_arr[:, 0].copy()
    dst = edge_arr[:, 1].copy()
    lo = min(int(src.min()), int(dst.min()))
    hi = max(int(src.max()), int(dst.max()))
    if lo < 0 or hi >= n:
        raise GraphError(
            f"edge endpoint {lo if lo < 0 else hi} outside node range 0..{n - 1}"
        )

    indeg = np.bincount(dst, minlength=n).astype(np.int64)
    outdeg = np.bincount(src, minlength=n).astype(np.int64)

    return ColoredDigraph(
        n=n,
        colors=_freeze(color_arr.copy()),
        src=_freeze(src),
        dst=_freeze(dst),
        indeg=_freeze(indeg),
        outdeg=_freeze(outdeg),
    )


def minority_fraction(g: ColoredDigraph) -> float:
    """Fraction of nodes colored R."""
    return float(np.count_nonzero(g.colors == Color.R)) / g.n


def hri(g: ColoredDigraph) -> float:
    """Heterogeneous-edge ratio: observed cross-color edge fraction divided
    by the ``2 r (1 - r)`` share expected if colors were assigned at random.

    Values below 1 indicate homophily, above 1 heterophily. Undefined (and
    raises) when the graph has a single color.
    """
    r_hat = minority_fraction(g)
    if r_hat == 0.0 or r_hat == 1.0:
        raise GraphError("hri undefined: graph has a single color")
    cross = int(np.count_nonzero(g.colors[g.src] != g.colors[g.dst]))
    return cross / (2.0 * r_hat * (1.0 - r_hat) * g.n_edges)


def degree_ccdf(degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical complementary CDF ``P(D >= k)`` on ``k = 0..max(degrees)``.

    Returns ``(k, ccdf)``; ``ccdf[0]`` is 1 and the sequence is
    non-increasing.
    """
    degrees = np.asarray(degrees)
    if degrees.size == 0:
        raise GraphError("ccdf of an empty degree sequence")
    counts = np.bincount(degrees)
    tail = counts[::-1].cumsum()[::-1]
    ks = np.arange(counts.shape[0], dtype=np.int64)
    return ks, tail / degrees.size


def ccdf_by_color(
    g: ColoredDigraph, which: str = "total"
) -> dict[Color, tuple[np.ndarray, np.ndarray]]:
    """Per-color CCDF of the chosen degree kind (``in``/``out``/``total``)."""
    deg = g.degrees(which)
    out: dict[Color, tuple[np.ndarray, np.ndarray]] = {}
    for color in (Color.B, Color.R):
        mask = g.colors == color
        if np.any(mask):
            out[color] = degree_ccdf(deg[mask])
    return out


def tail_exponent_fit(
    ccdf_pair: tuple[np.ndarray, np.ndarray], k_min: int = 1
) -> float:
    """Estimate the power-law exponent from the log-log CCDF tail.

    Takes a ``(k, ccdf)`` pair as produced by :func:`degree_ccdf` and fits
    a least-squares line to ``log ccdf`` versus ``log k`` over
    ``k >= k_min`` (positive mass only). For a tail ``ccdf ~ k**-(beta-1)``
    the estimate is ``beta = 1 + |slope|``.

    Raises
    ------
    GraphError
        If fewer than three tail points remain or the fitted slope is not
        negative (no decaying tail).
    """
    ks, ccdf = ccdf_pair
    ks = np.asarray(ks, dtype=float)
    ccdf = np.asarray(ccdf, dtype=float)
    if ks.shape != ccdf.shape:
        raise GraphError("ccdf arrays have mismatched shapes")
    mask = (ks >= max(int(k_min), 1)) & (ccdf > 0)
    if int(mask.sum()) < 3:
        raise GraphError("tail fit needs at least three points with positive mass")
    slope = np.polyfit(np.log(ks[mask]), np.log(ccdf[mask]), 1)[0]
    if slope >= 0:
        raise GraphError("tail does not decay: slope is non-negative")
    return 1.0 + float(-slope)
