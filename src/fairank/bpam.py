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


def _uniforms(rng: np.random.Generator):
    """The generator's one stream of uniforms, drawn from ``rng`` in blocks."""
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


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

    draw = _uniforms(np.random.Generator(np.random.PCG64(seed))).__next__

    colors = [int(Color.R), int(Color.B)]

    # the edges as (source, target) in arrival order; it also holds every
    # node once per unit of total degree, so a uniform index into it is a
    # degree-proportional draw
    ep = [0, 1]

    rejections = 0

    for u in range(2, n):
        cu = int(Color.R) if draw() < r else int(Color.B)
        colors.append(cu)

        for _ in range(d):
            streak = 0
            while True:
                slot = int(draw() * len(ep))
                v = ep[slot] if slot < len(ep) else ep[-1]
                if v == u:
                    # the arrival already holds accepted endpoints; skip
                    # rather than create a self-loop
                    streak += 1
                elif colors[v] != cu:
                    # drawn even at rho = 0, which keeps the stream's order
                    if draw() < rho:
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
            ep += (u, v)

    graph = from_edge_list(np.array(ep, dtype=np.int64).reshape(-1, 2), colors)
    red = graph.is_red()
    n_red = int(np.count_nonzero(red))
    return graph, GenerationStats(
        alpha_hat=int(graph.degrees()[red].sum()) / (2.0 * n * d),
        rejection_count=rejections,
        n_red=n_red,
        n_blue=n - n_red,
        seed=int(seed),
    )
