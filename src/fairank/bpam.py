"""Biased preferential-attachment generator for two-community digraphs.

Growth process: start from one red and one blue node joined by a single
edge, then add nodes one at a time. Each arrival is red with probability
``minority_ratio``, and emits ``outdeg`` directed edges. Every edge picks
its target with probability proportional to current total degree; a target
of the opposite color is kept only with probability ``homophily``,
otherwise the draw is rejected and restarted. Degrees update after every
accepted edge, so later draws within the same arrival see the new edges.

The edges are not grown one at a time. Edge e draws a uniform slot of the
endpoint list below 2e, the endpoints of the edges before it, and rejected
draws never grow that list. So every pending edge draws at once, and a draw
that lands on a target not yet known waits for it: the targets resolve in
vectorized rounds, with the same law as the process above (Batagelj and
Brandes, Phys. Rev. E 71, 036113, 2005).
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

# Edges join the pending set in windows that grow by a quarter a round, and
# by at least this many edges. The draws of a new window then mostly land
# on targets already known, so few edges wait and the pending arrays stay
# a fraction of the edge count.
_MIN_WINDOW = 256


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
                stacklevel=3,  # past the dataclass's generated __init__
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
    rng = np.random.Generator(np.random.PCG64(seed))
    colors = np.empty(n, dtype=np.uint8)
    colors[:2] = (Color.R, Color.B)
    colors[2:] = np.where(rng.random(n - 2) < params.minority_ratio, Color.R, Color.B)
    edges, rejections = _attach(n, d, colors, params.homophily, rng)

    graph = from_edge_list(edges, colors)
    red = graph.is_red()
    n_red = int(np.count_nonzero(red))
    return graph, GenerationStats(
        alpha_hat=int(graph.degrees()[red].sum()) / (2.0 * n * d),
        rejection_count=rejections,
        n_red=n_red,
        n_blue=n - n_red,
        seed=int(seed),
    )


def _attach(
    n: int, d: int, colors: np.ndarray, rho: float, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Every edge's target, resolved in rounds.

    Returns the ``(m, 2)`` edges, int32 where they fit, and the number of
    rejected cross-color draws.
    """
    m = 1 + (n - 2) * d
    itype = np.int32 if 2 * m < 2**31 else np.int64
    # the endpoint list: slot 2e is the source of edge e, known from its
    # arrival, and slot 2e + 1 its target, -1 until resolved. A uniform slot
    # below 2e is a degree-proportional draw for edge e
    ep = np.full((m, 2), -1, dtype=itype)
    ep[0] = (0, 1)
    ep[1:, 0] = np.repeat(np.arange(2, n, dtype=itype), d)
    ep = ep.reshape(-1)

    # the admitted, unresolved edges, aligned with their drawn slots (-1 to
    # draw again) and their failed draws so far
    pend = slot = streak = np.empty(0, dtype=itype)
    admitted, rejections = 1, 0
    while pend.size or admitted < m:
        if admitted < m:
            window = np.arange(
                admitted, min(m, admitted + max(admitted // 4, _MIN_WINDOW)), dtype=itype
            )
            admitted += window.size
            pend = np.concatenate([pend, window])
            slot = np.concatenate([slot, np.full(window.size, -1, dtype=itype)])
            streak = np.concatenate([streak, np.zeros(window.size, dtype=itype)])

        fresh = np.flatnonzero(slot < 0)
        two_e = 2 * pend[fresh]
        drawn = (rng.random(fresh.size) * two_e).astype(itype)
        # U * 2e can round up to 2e in floating point
        slot[fresh] = np.minimum(drawn, two_e - 1, out=drawn)

        # a slot holding an unresolved target keeps its draw and waits
        v = ep[slot]
        ready = np.flatnonzero(v >= 0)
        e, v = pend[ready], v[ready]
        u = (e - 1) // d + 2
        # a draw of u itself is redrawn, and a cross-color candidate is kept
        # with probability rho; only those candidates draw for it
        failed = v == u
        cross = np.flatnonzero(colors[v] != colors[u])
        rejected = cross[rng.random(cross.size) >= rho]
        failed[rejected] = True
        rejections += rejected.size

        accepted = ~failed
        ep[2 * e[accepted] + 1] = v[accepted]
        again = ready[failed]
        slot[again] = -1
        streak[again] += 1
        if again.size and streak[again].max() >= MAX_CONSECUTIVE_REJECTIONS:
            raise RuntimeError(
                "edge draw exceeded the rejection cap; "
                "homophily filter cannot be satisfied"
            )
        keep = np.ones(pend.size, dtype=bool)
        keep[ready[accepted]] = False
        pend, slot, streak = pend[keep], slot[keep], streak[keep]

    return ep.reshape(m, 2), rejections
