"""Biased preferential-attachment generator for two-community digraphs.

Growth process: start from one red and one blue node joined by a single
edge, then add nodes one at a time. Each arrival is red with probability
``minority_ratio``, and emits ``outdeg`` directed edges. Every edge picks
its target with probability proportional to current total degree; a target
of the opposite color is kept only with probability ``homophily``,
otherwise the draw is rejected and restarted. Degrees update after every
accepted edge, so later draws within the same arrival see the new edges.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Color, ColoredDigraph, from_edge_list

__all__ = ["BpamParams", "GenerationStats", "generate"]

# Abort if a single edge sees this many rejected draws in a row; at any
# valid homophily > 0 the expected number of retries is tiny, and 0 keeps
# same-color targets always acceptable.
MAX_CONSECUTIVE_REJECTIONS = 10_000_000

_UNIFORM_BLOCK = 8192


@dataclass(frozen=True)
class BpamParams:
    """Generator parameters.

    Attributes
    ----------
    n_nodes : int
        Final node count, at least 2 (the two seed nodes).
    outdeg : int
        Edges emitted by every arriving node, at least 1.
    minority_ratio : float
        Probability that an arrival is red, in [0, 1]. Values above 0.5
        make "minority" a misnomer, so they trigger a warning.
    homophily : float
        Acceptance probability for a cross-color target, in [0, 1].
        1 means color-blind attachment; 0 means strictly same-color edges.
    """

    n_nodes: int
    outdeg: int
    minority_ratio: float
    homophily: float

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be at least 2")
        if self.outdeg < 1:
            raise ValueError("outdeg must be at least 1")
        if not 0.0 <= self.minority_ratio <= 1.0:
            raise ValueError("minority_ratio must lie in [0, 1]")
        if not 0.0 <= self.homophily <= 1.0:
            raise ValueError("homophily must lie in [0, 1]")
        if self.minority_ratio > 0.5:
            warnings.warn(
                "minority_ratio above 0.5: the red class is not a minority",
                stacklevel=2,
            )


@dataclass(frozen=True)
class GenerationStats:
    """Bookkeeping from one generated graph.

    ``alpha_hat`` is the red share of edge endpoints,
    ``sum(total degree of red nodes) / (2 * n_nodes * outdeg)``;
    rejection_count is the number of cross-color draws discarded by the
    homophily filter.
    """

    alpha_hat: float
    rejection_count: int
    n_red: int
    n_blue: int
    seed: int


def generate(params: BpamParams, seed: int) -> tuple[ColoredDigraph, GenerationStats]:
    """Grow one biased preferential-attachment graph.

    Parameters
    ----------
    params : BpamParams
    seed : int
        64-bit seed; the same (params, seed) pair always reproduces the
        same graph, byte for byte.

    Returns
    -------
    (ColoredDigraph, GenerationStats)
        Node 0 is the red seed, node 1 the blue seed (edge 0 -> 1);
        arrivals take ids in arrival order. A node is never its own
        target, so the graph has no self-loops.
    """
    n, d = params.n_nodes, params.outdeg
    r, rho = params.minority_ratio, params.homophily

    rng = np.random.Generator(np.random.PCG64(seed))
    buf = rng.random(_UNIFORM_BLOCK)
    pos = 0

    colors = np.empty(n, dtype=np.uint8)
    colors[0] = Color.R
    colors[1] = Color.B
    color_list = [int(Color.R), int(Color.B)]

    n_edges = 1 + (n - 2) * d
    src = np.empty(n_edges, dtype=np.int64)
    dst = np.empty(n_edges, dtype=np.int64)
    src[0], dst[0] = 0, 1

    # every node once per unit of total degree: a uniform index into the
    # list is a degree-proportional draw
    ep = [0, 1]
    ep_append = ep.append

    rejections = 0
    edge_at = 1

    for u in range(2, n):
        if pos >= _UNIFORM_BLOCK:
            buf = rng.random(_UNIFORM_BLOCK)
            pos = 0
        cu = int(Color.R) if buf[pos] < r else int(Color.B)
        pos += 1
        colors[u] = cu
        color_list.append(cu)

        for _ in range(d):
            streak = 0
            while True:
                if pos >= _UNIFORM_BLOCK:
                    buf = rng.random(_UNIFORM_BLOCK)
                    pos = 0
                slot = int(buf[pos] * len(ep))
                v = ep[slot] if slot < len(ep) else ep[-1]
                pos += 1
                if v == u:
                    # the arrival already holds accepted endpoints; skip
                    # rather than create a self-loop
                    streak += 1
                elif color_list[v] != cu:
                    if pos >= _UNIFORM_BLOCK:
                        buf = rng.random(_UNIFORM_BLOCK)
                        pos = 0
                    keep = buf[pos] < rho
                    pos += 1
                    if keep:
                        break
                    rejections += 1
                    streak += 1
                else:
                    break
                if streak >= MAX_CONSECUTIVE_REJECTIONS:
                    raise RuntimeError(
                        "edge draw exceeded the rejection cap; "
                        "homophily filter cannot be satisfied"
                    )
            src[edge_at] = u
            dst[edge_at] = v
            edge_at += 1
            ep_append(u)
            ep_append(v)

    graph = from_edge_list(np.stack([src, dst], axis=1), colors)
    red = graph.is_red()
    red_degree = int(graph.indeg[red].sum() + graph.outdeg[red].sum())
    stats = GenerationStats(
        alpha_hat=red_degree / (2.0 * n * d),
        rejection_count=rejections,
        n_red=int(np.count_nonzero(red)),
        n_blue=n - int(np.count_nonzero(red)),
        seed=int(seed),
    )
    return graph, stats
