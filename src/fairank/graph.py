"""Colored directed multigraph with degree accounting and tail statistics.

Nodes are dense integer ids ``0..n-1``, each carrying one of two community
colors. Parallel edges are kept with their multiplicity. The structure is
immutable after construction; adjacency is the edge list itself, so a
whole-graph matrix-vector product is a gather and an ``np.add.at``
scatter over it, one span of edges at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence, Union

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


ColorSpec = Union[Sequence[Color], np.ndarray]


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


def from_edge_list(edges: Iterable, colors: ColorSpec) -> ColoredDigraph:
    """Build a validated graph from ``(src, dst)`` pairs and per-node colors.

    Parameters
    ----------
    edges : iterable of (int, int) or (m, 2) array
        Directed edges over dense node ids. Parallel edges are kept.
    colors : sequence or array
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
    # one int64 copy per column, and none of the whole array
    src = edge_arr[:, 0].astype(np.int64)
    dst = edge_arr[:, 1].astype(np.int64)

    color_arr = np.asarray(colors)
    if color_arr.ndim != 1 or color_arr.size == 0:
        raise GraphError("colors must be a non-empty 1-d sequence")
    color_arr = color_arr.astype(np.uint8)
    n = int(color_arr.shape[0])
    if not np.all((color_arr == Color.B) | (color_arr == Color.R)):
        raise GraphError("colors must be Color.R or Color.B")

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
        colors=_freeze(color_arr),
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
