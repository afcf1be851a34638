"""Independent reference implementations used to cross-check the package.

Everything here recomputes quantities from first principles with dense
numpy/scipy routines (eigendecompositions, linear solves, brute-force
enumeration) so that test expectations never share code paths with the
implementations under test. The exceptions are ``sequential_bpam``, the
package's earlier generator kept as the reference for the round-based one,
and ``averaged_ccdf``, a replica mean of the package's ``degree_ccdf``
(itself checked against ``exhaustive_ccdf``) for acceptance criterion 8.

The estimators that check the mean-field account on generated graphs live
here too, since no command runs them: the unnormalized authority trace and
the low-indegree authority ratio of acceptance criterion 6, the size-biased
indegree moment, the parity gap of a share curve, and the two tail
estimators of criterion 8. The trace runs the package's own forward and
backward products, so criterion 6 checks them against walk counts.
"""

from collections import defaultdict

import numpy as np
import scipy.linalg
import scipy.optimize

from fairank.bpam import MAX_CONSECUTIVE_REJECTIONS, GenerationStats
from fairank.fairness import _GRID_MATCH_TOL, FairnessCurve
from fairank.graph import Color, ColoredDigraph, GraphError, degree_ccdf, from_edge_list
from fairank.rankers import _backward, _forward


def dense_adjacency(edges, n):
    """Dense adjacency matrix (with multiplicities) from a raw edge list."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] += 1.0
    return a


def brute_degrees(edges, n):
    """(indeg, outdeg, total) counted by scanning the edge list."""
    indeg = np.zeros(n, dtype=int)
    outdeg = np.zeros(n, dtype=int)
    for u, v in edges:
        outdeg[u] += 1
        indeg[v] += 1
    return indeg, outdeg, indeg + outdeg


def dense_authority_eig(edges, n):
    """All eigenvalues (descending) and the principal eigenvector of A^T A.

    The principal vector is returned entrywise non-negative (Perron choice).
    """
    a = dense_adjacency(edges, n)
    w, v = scipy.linalg.eigh(a.T @ a)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    top = np.abs(v[:, 0])
    top /= np.linalg.norm(top)
    return w, top, v


def sin_largest_angle(cur: np.ndarray, prev: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal row blocks.

    Projects ``cur`` onto the complement of ``prev`` (no cancellation for
    tiny angles) and takes the square root of the top eigenvalue of the
    k x k Gram of that residual, which equals its squared spectral norm.
    The residual overwrites the projection, so one (k, n) block is made.
    """
    resid = (cur @ prev.T) @ prev
    np.subtract(cur, resid, out=resid)
    return float(np.sqrt(max(np.linalg.eigvalsh(resid @ resid.T)[-1], 0.0)))


def dense_hits_limit(edges, n):
    """Limit of the HITS authority iteration from all-one hubs.

    The first authority iterate is the indegree vector and each further
    step multiplies by A^T A, so the normalized iterates tend to the
    projection of the indegrees onto the top eigenspace: the eigenvectors
    whose eigenvalues lie within 1e-8 * lambda_1 of lambda_1. Returned with
    unit L2 norm.
    """
    w, _, v = dense_authority_eig(edges, n)
    cluster = v[:, w >= w[0] - 1e-8 * w[0]]
    indeg = brute_degrees(edges, n)[0]
    limit = cluster @ (cluster.T @ indeg)
    return limit / np.linalg.norm(limit)


def dense_subspace_scores(edges, n, k, weight):
    """Aggregated eigenspace scores from a full dense eigendecomposition."""
    w, _, v = dense_authority_eig(edges, n)
    lam = np.clip(w[:k], 0.0, None)
    f = np.ones(k) if weight == "unit" else lam**2
    return (v[:, :k] ** 2) @ f


def dense_pagerank(edges, n, eta):
    """PageRank by solving the linear system (I - eta*M) x = (1-eta)/n."""
    a = dense_adjacency(edges, n)
    outdeg = a.sum(axis=1)
    m = np.zeros((n, n))
    for u in range(n):
        if outdeg[u] > 0:
            m[:, u] = a[u, :] / outdeg[u]
        else:
            m[:, u] = 1.0 / n
    x = np.linalg.solve(np.eye(n) - eta * m, np.full(n, (1.0 - eta) / n))
    return x / x.sum()


def dense_randomized_hits(edges, n, eps):
    """Restarted hub/authority fixed point via one dense linear solve.

    Stacks authorities and hubs into one vector z = [a; h] and solves
    (I - (1-eps) K) z = eps * 1 where K applies the row-normalized
    adjacency transpose to hubs and the column-normalized adjacency to
    authorities (all-zero rows/columns fall back to uniform).
    """
    a = dense_adjacency(edges, n)
    outdeg = a.sum(axis=1)
    indeg = a.sum(axis=0)
    row_norm = np.zeros((n, n))
    col_norm = np.zeros((n, n))
    for u in range(n):
        row_norm[u, :] = a[u, :] / outdeg[u] if outdeg[u] > 0 else 1.0 / n
    for v in range(n):
        col_norm[:, v] = a[:, v] / indeg[v] if indeg[v] > 0 else 1.0 / n
    k = np.zeros((2 * n, 2 * n))
    k[:n, n:] = row_norm.T  # authorities from hubs
    k[n:, :n] = col_norm  # hubs from authorities
    z = np.linalg.solve(np.eye(2 * n) - (1.0 - eps) * k, np.full(2 * n, eps))
    return z[:n], z[n:]


def alternating_walk_counts(edges, n, t):
    """Number of backward/forward alternating walks of 2t-1 edges per node.

    Walks start at the scored node with a backward step and alternate
    (backward, forward, backward, ...), counting edge multiplicities, by
    explicit recursive enumeration.
    """
    ins = defaultdict(list)
    outs = defaultdict(list)
    for u, v in edges:
        ins[v].append(u)
        outs[u].append(v)

    def back(v, remaining):
        if remaining == 0:
            return 1
        return sum(fwd(w, remaining - 1) for w in ins[v])

    def fwd(w, remaining):
        if remaining == 0:
            return 1
        return sum(back(x, remaining - 1) for x in outs[w])

    return np.array([back(v, 2 * t - 1) for v in range(n)], dtype=float)


def exhaustive_ccdf(degrees):
    """P(deg >= k) for k = 0..max(deg) by direct counting."""
    degrees = list(degrees)
    kmax = max(degrees)
    ks = np.arange(kmax + 1)
    ccdf = np.array([sum(1 for d in degrees if d >= k) / len(degrees) for k in ks])
    return ks, ccdf


def averaged_ccdf(graphs, color, which="total"):
    """Replica-mean CCDF for one color on a shared degree grid 0..max."""
    degs = [g.degrees(which)[g.colors == int(color)] for g in graphs]
    if not degs or any(d.size == 0 for d in degs):
        raise GraphError(f"color {Color(color).name} missing from some replica")
    kmax = max(int(d.max()) for d in degs)
    acc = np.zeros(kmax + 1)  # a replica's CCDF is 0 past its own max degree
    for d in degs:
        ccdf = degree_ccdf(d)[1]
        acc[:ccdf.size] += ccdf
    return np.arange(kmax + 1, dtype=np.int64), acc / len(degs)


def hits_trace(g: ColoredDigraph, t: int) -> tuple[np.ndarray, int]:
    """The authority iterate a^(t) without normalization, as ``(v, e)``
    with a^(t) = ``np.ldexp(v, e)``, which may overflow.

    a^(1) is the indegree vector exactly; each further step multiplies by
    A^T A, so a^(t) counts the alternating backward-forward paths of the
    reinforcement process. ``v`` is rescaled by an exact power of two
    whenever its maximum passes 2**500, so it stays finite, small-graph
    traces remain exact integers, and ratios of its entries are those of
    a^(t).
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    v = g.indeg.astype(float)
    scale = 0
    for _ in range(t - 1):
        v = _backward(g, _forward(g, v))
        peak = v.max()
        if peak > 2.0**500:
            shift = int(np.floor(np.log2(peak)))
            v = np.ldexp(v, -shift)
            scale += shift
    return v, scale


DEFAULT_INDEG_CAP = 10


def size_biased_moment(g: ColoredDigraph, t: int, color: Color) -> float:
    """Within-color indegree moment sum(d^t) / sum(d).

    Grows with the graph size when t - 1 exceeds the color's tail exponent
    minus 2; t = 1 gives exactly 1. Raises when the color class has zero
    total indegree.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    deg = g.indeg[g.colors == int(color)].astype(float)
    total = deg.sum()
    if total == 0.0:
        raise ValueError(f"zero total indegree in color {Color(color).name}")
    return float((deg**t).sum() / total)


def empirical_mf_ratio(
    g: ColoredDigraph, t: int, indeg_cap: int = DEFAULT_INDEG_CAP
) -> float:
    """Red-to-blue ratio of mean authority-per-indegree among low-indegree nodes.

    Runs the unnormalized authority trace to step ``t`` and averages
    ``a^(t)(v) / d_in(v)`` over nodes with ``1 <= d_in(v) <= indeg_cap``,
    separately per color; returns red mean over blue mean. The restriction
    to low indegrees isolates the per-color multiplicative factor from the
    degree itself. Requires ``t >= 2`` (the ratio is identically 1 at
    t = 1) and at least one qualifying node of each color.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    if indeg_cap < 1:
        raise ValueError("indeg_cap must be at least 1")
    vec, _ = hits_trace(g, t)
    eligible = (g.indeg >= 1) & (g.indeg <= indeg_cap)
    means = {}
    for color in (Color.R, Color.B):
        sel = eligible & (g.colors == int(color))
        if not np.any(sel):
            raise ValueError(
                f"no {color.name} nodes with indegree in 1..{indeg_cap}"
            )
        means[color] = float(np.mean(vec[sel] / g.indeg[sel]))
    if means[Color.B] == 0.0:
        raise ValueError("blue mean authority is zero; ratio undefined")
    return means[Color.R] / means[Color.B]


def parity_gap(curve: FairnessCurve, x: float) -> float:
    """share(x) - baseline at a grid point; negative means minority
    under-representation among the top x fraction."""
    hits = np.flatnonzero(np.abs(curve.grid - x) <= _GRID_MATCH_TOL)
    if hits.size == 0:
        raise ValueError(f"x={x!r} is not on the curve grid")
    return float(curve.share[hits[0]] - curve.baseline)


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


def powerlaw_mle(degrees, k_mins):
    """Discrete power-law exponent of a degree sample by maximum likelihood,
    with ``k_min`` chosen by the Kolmogorov-Smirnov distance (Clauset,
    Shalizi & Newman, SIAM Review 51(4), 2009, eq. 3.7 and sec. 3.3).

    For each candidate ``k_min`` the exponent of ``P(k) ~ k**-alpha`` over
    the n samples ``k_i >= k_min`` is the closed-form approximation
    ``alpha = 1 + n / sum(ln(k_i / (k_min - 1/2)))``: the continuous
    law's estimate with its lower bound at ``k_min - 1/2``. The distance is the largest gap between the samples' CCDF on
    ``k_min..max + 1`` and that rounded law's,
    ``((k - 1/2) / (k_min - 1/2))**(1 - alpha)``. Returns ``(alpha,
    k_min)`` at the smallest distance; no zeta function is needed.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    best = None
    for k_min in k_mins:
        if k_min < 1:
            raise ValueError("k_min must be at least 1")
        tail = degrees[degrees >= k_min]
        if tail.size == 0:
            continue
        alpha = 1.0 + tail.size / float(np.log(tail / (k_min - 0.5)).sum())
        ks = np.arange(k_min, int(tail.max()) + 2)
        seen = np.append(np.bincount(tail - k_min)[::-1].cumsum()[::-1], 0) / tail.size
        model = ((ks - 0.5) / (k_min - 0.5)) ** (1.0 - alpha)
        distance = float(np.abs(seen - model).max())
        if best is None or distance < best[0]:
            best = (distance, alpha, int(k_min))
    if best is None:
        raise ValueError("no sample at or above any k_min")
    return best[1], best[2]


def alpha_root(r, rho):
    """Minority degree share fixed point located with a bracketing solver."""

    def gap(a):
        w = a + rho * (1.0 - a)
        u = a * rho + 1.0 - a
        return 0.5 * (r + r * a / w + a * rho * (1.0 - r) / u) - a

    lo, hi = 1e-12, 1.0 - 1e-12
    if gap(lo) * gap(hi) > 0:
        raise ValueError("no sign change on the unit interval")
    return float(scipy.optimize.brentq(gap, lo, hi, xtol=1e-14))


def acceptance_attachment(alpha, rho, r):
    """Attachment matrices from the accept/resample process itself.

    Outgoing rows follow from summing the geometric resample series
    directly; incoming rows reweight outgoing probabilities by arrival
    rates, which is an independent route from any simplified closed form.
    """
    # P(eventually attach same color | source color), geometric series:
    # same-color proposals always accepted, cross-color accepted w.p. rho.
    def out_row(p_same):
        p_cross = 1.0 - p_same
        accept = p_same + rho * p_cross
        return np.array([rho * p_cross / accept, p_same / accept])

    # row = source color; columns ordered (opposite, same) above, so expand:
    # blue source proposes blue with prob 1 - alpha
    row_b = out_row(1.0 - alpha)  # (to red, to blue)
    row_r = out_row(alpha)  # (to blue, to red)
    p_out = np.array(
        [
            [row_b[1], row_b[0]],  # from blue: (to blue, to red)
            [row_r[0], row_r[1]],  # from red: (to blue, to red)
        ]
    )
    arrivals = np.array([1.0 - r, r])
    p_in = np.empty((2, 2))
    for target in (0, 1):
        weights = arrivals * p_out[:, target]
        p_in[target] = weights / weights.sum()
    return p_out, p_in


def spearman(x, y):
    """Spearman rank correlation via scipy."""
    from scipy.stats import spearmanr

    return float(spearmanr(x, y).statistic)


def random_digraph(rng, n_range=(4, 12), p=0.35):
    """Simple loopless random digraph with at least one edge."""
    while True:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        edges = [(int(u), int(v)) for u in range(n) for v in range(n) if mask[u, v]]
        if edges:
            return n, edges


def leading_share_curve(order, is_red, grid):
    """Minority share at each grid point by direct slicing."""
    n = len(order)
    out = []
    for x in grid:
        top = int(np.ceil(x * n - 1e-9))
        out.append(sum(1 for v in order[:top] if is_red[v]) / top)
    return np.array(out)


_UNIFORM_BLOCK = 8192


def _uniforms(rng: np.random.Generator):
    """The generator's one stream of uniforms, drawn from ``rng`` in blocks."""
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


def sequential_bpam(params, seed):
    """The BPAM growth process run edge by edge, one uniform stream in order.

    The package's generator before it resolved edges in vectorized rounds,
    kept unchanged: the same law, another draw order, so it pins the graphs
    of the ranker tests and is the second sample of the two-sample tests.
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
