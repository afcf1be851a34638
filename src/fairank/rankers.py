"""Ranking algorithms over colored digraphs.

Degree, PageRank, hub/authority mutual reinforcement (with an unnormalized
trace variant), a restarted degree-normalized variant, and an eigenspace
variant that aggregates several leading eigenvectors. Every ranker returns
scores together with a deterministic total order.

All iterations are expressed as matrix-vector products against the edge
arrays (``np.bincount`` with weights), which keeps parallel-edge
multiplicity and costs O(|E|) per step without forming a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import ColoredDigraph, GraphError

__all__ = [
    "IterationControl",
    "RankingResult",
    "HitsTrace",
    "SUBSPACE_WEIGHTS",
    "rank_order",
    "degree_rank",
    "pagerank",
    "hits",
    "hits_trace",
    "randomized_hits",
    "subspace_hits",
]

SUBSPACE_WEIGHTS = ("unit", "lambda_sq")

# Relative eigengap below which the leading eigenvalue is treated as
# numerically non-simple (ranking then depends on iteration details).
_DEGENERATE_GAP = 1e-8

# loose angle tolerance for the quick degeneracy probe
_PROBE_ANGLE_TOL = 1e-6

# angle below which a subspace pinned only by a degenerate eigengap is
# accepted as settled (tighter precision is unattainable there)
_STALL_ANGLE_TOL = 1e-8

# highest Chebyshev degree of one filtered subspace sweep, and the largest
# amplification of the top Ritz value over the damped interval it may give
_FILTER_DEGREE = 4
_FILTER_MAX_GAIN = 1e6


@dataclass(frozen=True)
class IterationControl:
    """Stopping rule for iterative rankers.

    ``tol`` bounds the L1 distance between successive (normalized)
    iterates; ``max_iter`` caps the number of full update sweeps.
    """

    tol: float = 1e-10
    max_iter: int = 1000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


_DEFAULT_CTRL = IterationControl()


@dataclass(frozen=True)
class RankingResult:
    """Scores plus the induced deterministic ranking.

    ``order`` is a permutation of node ids, best first: score descending,
    node id ascending on ties. ``residual`` is the last L1 change between
    iterates (0 for direct methods); ``degenerate`` flags rankings that sit
    on a (numerically) non-simple leading eigenvalue or a rank-deficient
    subspace, where the order is not robust.
    """

    algorithm: str
    scores: np.ndarray
    order: np.ndarray
    iterations_used: int = 0
    converged: bool = True
    residual: float = 0.0
    degenerate: bool = False

    def __post_init__(self):
        if not np.all(np.isfinite(self.scores)):
            raise ValueError(f"{self.algorithm}: non-finite scores")


def rank_order(scores, tie_shuffle_seed: Optional[int] = None) -> np.ndarray:
    """Permutation of node ids sorting scores descending, ids ascending on ties.

    With ``tie_shuffle_seed`` the secondary key becomes a seeded random
    permutation instead of the node id, for auditing how much tie placement
    moves downstream metrics.
    """
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[0]
    if tie_shuffle_seed is None:
        tiebreak = np.arange(n)
    else:
        tiebreak = np.random.Generator(np.random.PCG64(tie_shuffle_seed)).permutation(n)
    return np.lexsort((tiebreak, -scores))


def _forward(g: ColoredDigraph, x: np.ndarray) -> np.ndarray:
    """y[u] = sum over edges (u, v) of x[v]   (adjacency times x)."""
    return np.bincount(g.src, weights=x[g.dst], minlength=g.n)


def _backward(g: ColoredDigraph, x: np.ndarray) -> np.ndarray:
    """y[v] = sum over edges (u, v) of x[u]   (adjacency transpose times x)."""
    return np.bincount(g.dst, weights=x[g.src], minlength=g.n)


def degree_rank(g: ColoredDigraph, which: str = "total") -> RankingResult:
    """Rank nodes by indegree or total degree."""
    if which not in ("in", "total"):
        raise ValueError("degree_rank supports which in {'in', 'total'}")
    scores = g.degrees(which).astype(float)
    return RankingResult("degree", scores, rank_order(scores))


def pagerank(
    g: ColoredDigraph, eta: float = 0.85, ctrl: IterationControl = _DEFAULT_CTRL
) -> RankingResult:
    """Random-surfer scores: power iteration on x = eta*P'x + (1-eta)/n.

    P' is the out-degree-normalized transition matrix with the mass of
    zero-outdegree nodes redistributed uniformly; the teleport vector is
    uniform. Scores are kept normalized to sum exactly 1.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    n = g.n
    out = g.outdeg.astype(float)
    has_out = out > 0
    inv_out = np.zeros(n)
    inv_out[has_out] = 1.0 / out[has_out]
    dangling = ~has_out

    x = np.full(n, 1.0 / n)
    teleport = (1.0 - eta) / n
    residual = np.inf
    converged = False
    it = 0
    for it in range(1, ctrl.max_iter + 1):
        flow = _backward(g, x * inv_out)
        loose = x[dangling].sum() / n
        x_new = eta * (flow + loose) + teleport
        x_new /= x_new.sum()
        residual = float(np.abs(x_new - x).sum())
        x = x_new
        if residual < ctrl.tol:
            converged = True
            break
    return RankingResult("pagerank", x, rank_order(x), it, converged, residual)


def _l2(x: np.ndarray) -> float:
    return float(np.sqrt((x * x).sum()))


def hits(
    g: ColoredDigraph, ctrl: IterationControl = _DEFAULT_CTRL
) -> tuple[RankingResult, RankingResult]:
    """Mutually reinforcing authority and hub scores.

    Starting from all-one hubs, alternately sets authorities to the
    backward sum of hub scores and hubs to the forward sum of authority
    scores, L2-normalizing each half-step. The converged authority vector
    is the principal eigenvector of A^T A (hubs: of A A^T). Returns
    (authorities, hubs); both carry the same convergence flags.
    """
    if g.n_edges == 0:
        raise GraphError("hub/authority scores need at least one edge")
    h = np.ones(g.n)
    a_prev = None
    residual = np.inf
    converged = False
    it = 0
    for it in range(1, ctrl.max_iter + 1):
        a = _backward(g, h)
        a /= _l2(a) or 1.0
        h = _forward(g, a)
        h /= _l2(h) or 1.0
        if a_prev is not None:
            residual = float(np.abs(a - a_prev).sum())
            if residual < ctrl.tol:
                converged = True
                a_prev = a
                break
        a_prev = a
    a = a_prev
    degenerate = _top_gap_degenerate(g)
    auth = RankingResult("hits_authority", a, rank_order(a), it, converged, residual, degenerate)
    hub = RankingResult("hits_hub", h, rank_order(h), it, converged, residual, degenerate)
    return auth, hub


@dataclass(frozen=True)
class HitsTrace:
    """Unnormalized authority iterates, first entry the indegree vector.

    Iterate ``t`` (1-based) is ``vectors[t-1] * 2**log2_scales[t-1]``;
    the power-of-two rescaling keeps the stored floats finite while the
    true iterates grow geometrically. Ratios of entries within one iterate
    can use ``vectors`` directly since the scale cancels.
    """

    vectors: list
    log2_scales: list

    def iterate(self, t: int) -> np.ndarray:
        """The true (unscaled) iterate a^(t); may overflow for large t."""
        return np.ldexp(self.vectors[t - 1], self.log2_scales[t - 1])


def hits_trace(g: ColoredDigraph, t_max: int) -> HitsTrace:
    """Authority iterates a^(1)..a^(t_max) without normalization.

    a^(1) is the indegree vector exactly; each further step multiplies by
    A^T A, so a^(t) counts the alternating backward-forward paths of the
    reinforcement process. Entries are rescaled by an exact power of two
    whenever the maximum passes 2**500 (recorded in ``log2_scales``), so
    small-graph traces remain exact integers.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    v = g.indeg.astype(float)
    scale = 0
    vectors = [v]
    scales = [0]
    for _ in range(t_max - 1):
        v = _backward(g, _forward(g, v))
        peak = v.max()
        if peak > 2.0**500:
            shift = int(np.floor(np.log2(peak)))
            v = np.ldexp(v, -shift)
            scale += shift
        vectors.append(v)
        scales.append(scale)
    return HitsTrace(vectors, scales)


def randomized_hits(
    g: ColoredDigraph, eps: float = 0.15, ctrl: IterationControl = _DEFAULT_CTRL
) -> tuple[RankingResult, RankingResult]:
    """Restarted, degree-normalized hub/authority iteration.

    Fixed point of

        a = eps + (1 - eps) * Arow^T h
        h = eps + (1 - eps) * Acol a

    where Arow divides each row of the adjacency by its outdegree and Acol
    divides each column by its indegree; all-zero rows and columns fall
    back to the uniform distribution. The restart term anchors the scale,
    so no normalization is applied.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    n = g.n
    out = g.outdeg.astype(float)
    ind = g.indeg.astype(float)
    inv_out = np.divide(1.0, out, out=np.zeros(n), where=out > 0)
    inv_in = np.divide(1.0, ind, out=np.zeros(n), where=ind > 0)
    no_out = out == 0
    no_in = ind == 0

    h = np.ones(n)
    a_prev = None
    residual = np.inf
    converged = False
    it = 0
    for it in range(1, ctrl.max_iter + 1):
        a = eps + (1.0 - eps) * (_backward(g, h * inv_out) + h[no_out].sum() / n)
        h = eps + (1.0 - eps) * (_forward(g, a * inv_in) + a[no_in].sum() / n)
        if a_prev is not None:
            residual = float(np.abs(a - a_prev).sum())
            if residual < ctrl.tol:
                converged = True
                a_prev = a
                break
        a_prev = a
    a = a_prev
    auth = RankingResult("randomized_hits_authority", a, rank_order(a), it, converged, residual)
    hub = RankingResult("randomized_hits_hub", h, rank_order(h), it, converged, residual)
    return auth, hub


def _orthonormal_rows(z: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the row space of the (b, n) block ``z``.

    Cholesky-QR2: two passes of ``q = inv(L) @ q`` with ``L L^T = q q^T``;
    the second restores the orthogonality the first loses to the Gram's
    squared condition number. One b x b inverse and a matrix product beat a
    triangular solve with n right-hand sides. Householder QR is used instead
    on a block that is not numerically full rank: Cholesky fails, or the
    first pass leaves a Gram (a non-finite one included) more than 1/2 from
    the identity in Frobenius norm, which also keeps the result finite.
    """
    try:
        q = np.linalg.inv(np.linalg.cholesky(z @ z.T)) @ z
        gram = q @ q.T
        if np.linalg.norm(gram - np.eye(len(gram))) <= 0.5:
            return np.linalg.inv(np.linalg.cholesky(gram)) @ q
    except np.linalg.LinAlgError:
        pass
    return np.ascontiguousarray(np.linalg.qr(z.T)[0].T)


def _sin_largest_angle(cur: np.ndarray, prev: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal row blocks.

    Projects ``cur`` onto the complement of ``prev`` (no cancellation for
    tiny angles) and takes the square root of the top eigenvalue of the
    k x k Gram of that residual, which equals its squared spectral norm.
    """
    resid = cur - (cur @ prev.T) @ prev
    return float(np.sqrt(max(np.linalg.eigvalsh(resid @ resid.T)[-1], 0.0)))


def _chebyshev_rows(
    g: ColoredDigraph, x: np.ndarray, ax: np.ndarray, bottom: float, degree: int
) -> np.ndarray:
    """T_m(L) applied to each row of ``x``, m = ``degree``, L = 2 A^T A / bottom - 1.

    L sends the damped interval [0, bottom] onto [-1, 1], where T_m stays
    within 1; above it T_m grows faster than any other polynomial of degree
    m bounded by 1 there. ``ax`` must hold A^T A x and is overwritten. Each
    step T_{j+1} = 2 L T_j - T_{j-1} runs one row at a time and writes over
    T_{j-1}, so the recurrence needs one block beyond ``x`` and ``ax``, and
    ``x`` is only read.
    """
    s = 2.0 / bottom
    prev, cur = x, ax
    cur *= s
    cur -= x
    for _ in range(degree - 1):
        nxt = np.empty_like(cur) if prev is x else prev
        for i, row in enumerate(cur):
            nxt[i] = 2.0 * (s * _backward(g, _forward(g, row)) - row) - prev[i]
        prev, cur = cur, nxt
    return cur


def _filter_degree(top: float, bottom: float) -> int:
    """Largest degree m <= _FILTER_DEGREE with T_m(2 top / bottom - 1) <= _FILTER_MAX_GAIN.

    The gain is how far the filter lifts the top Ritz value over the damped
    interval. Beyond the cap the lower rows drown in the leading direction
    before they are re-orthonormalized; a spectrum that wide gets degree 1,
    the plain sweep.
    """
    if not bottom * _FILTER_MAX_GAIN > top:
        return 1
    x = 2.0 * top / bottom - 1.0
    t_prev, t, degree = 1.0, x, 1
    while degree < _FILTER_DEGREE:
        t_prev, t = t, 2.0 * x * t - t_prev
        if t > _FILTER_MAX_GAIN:
            break
        degree += 1
    return degree


def _ritz_topk(g: ColoredDigraph, k: int, max_iter: int, angle_tol: float = 1e-10):
    """Leading Ritz pairs of A^T A by Chebyshev-filtered block subspace iteration.

    The block holds b = k + 2 (clipped to n) orthonormal rows in a (b, n)
    array, so every matvec reads a contiguous row. It starts from a fixed
    internal seed. Each sweep multiplies the block by A^T A once and takes
    the Ritz pairs. The next block is the Ritz rows passed through a
    Chebyshev filter of degree m <= 4 (``_chebyshev_rows``) that damps
    [0, theta_b], theta_b the smallest Ritz value; its first term is the
    product already taken, so a sweep costs m block products. The filtered
    rows are normalized and re-orthonormalized by Cholesky-QR2, falling
    back to Householder QR on a rank-deficient block
    (``_orthonormal_rows``); the next Rayleigh-Ritz step does not depend on
    which basis of the filtered span it gets.

    The sweep is plain (m = 1, the next block is ``orth(A^T A q)``) on
    sweep 1, so that every later block lies in the range of A^T A and nodes
    with identical in-neighbour columns keep bitwise-equal entries; while
    theta_k and theta_{k+1} are tied, where the stall rule must see plain
    sweeps; after a sweep whose leading-k subspace settled with the
    boundary gap still unresolved (see below); and where the spectrum is
    too wide for the gain cap (``_filter_degree``).

    Iteration stops when the largest principal angle (measured by its sine,
    from a k x k Gram) between successive leading-k subspaces drops below
    ``angle_tol`` and the boundary gap theta_k - theta_{k+1} is resolved:
    it exceeds the tie tolerance plus the residual norm r of the (k+1)-th
    Ritz pair, or r is below ``angle_tol * theta_1``. The filter barely
    lifts rows near theta_b, so without the residual test theta_{k+1}
    could still sit below an eigenvalue tied with theta_k and the tie would
    go unflagged. On a tied boundary the gap check flags the tie, and the
    stall rule stops iteration once the leading-k subspace, or the span of
    the rows down to the last one tied with theta_k, moves by less than
    max(``angle_tol``, 1e-8). Returns (theta, U, iterations, converged,
    angle): eigenvalue estimates descending, the Ritz vectors as the rows
    of U, and the number of sweeps.
    """
    n = g.n
    b = min(k + 2, n)
    rng = np.random.Generator(np.random.PCG64(0x5A11E57))
    q = np.ascontiguousarray(np.linalg.qr(rng.standard_normal((n, b)))[0].T)
    theta = np.zeros(b)
    ritz = q
    prev = None
    angle = np.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        z = np.empty_like(q)
        for i, row in enumerate(q):
            z[i] = _backward(g, _forward(g, row))
        t_small = q @ z.T
        t_small = 0.5 * (t_small + t_small.T)
        w, vecs = np.linalg.eigh(t_small)
        desc = np.argsort(w)[::-1]
        theta = np.maximum(w[desc], 0.0)
        rot = vecs[:, desc].T
        ritz = rot @ q
        del q  # the next block comes from z and the Ritz rows alone
        gap = theta[k - 1] - theta[k] if k < b else np.inf
        tie_tol = _DEGENERATE_GAP * max(theta[0], 1e-300)
        tied = bool(gap <= tie_tol)
        if prev is not None:
            angle = _sin_largest_angle(ritz[:k], prev[:k])
            if tied:
                # the boundary eigenvalues are numerically tied: the leading-k
                # subspace is only defined up to rotations across the gap, so
                # further sweeps cannot sharpen it. Once a tied cluster is
                # exact, eigh rotates freely within it and only the span down
                # to its last row in the block still settles
                settle_tol = max(angle_tol, _STALL_ANGLE_TOL)
                m = int(np.count_nonzero(theta >= theta[k - 1] - tie_tol))
                if angle < settle_tol or _sin_largest_angle(ritz[:m], prev[:m]) < settle_tol:
                    converged = True
                    break
            elif angle < angle_tol:
                resid = np.linalg.norm(rot[k] @ z - theta[k] * ritz[k]) if k < b else 0.0
                if gap > tie_tol + resid or resid < angle_tol * theta[0]:
                    converged = True
                    break
        prev = ritz
        if it == 1 or tied or angle < angle_tol:
            degree = 1
        else:
            degree = _filter_degree(float(theta[0]), float(theta[-1]))
        if degree == 1:
            q = _orthonormal_rows(z)
        else:
            az = rot @ z
            del z  # with q gone too, the filter holds no more blocks than a plain sweep
            f = _chebyshev_rows(g, ritz, az, float(theta[-1]), degree)
            del az
            f /= np.sqrt(np.einsum("ij,ij->i", f, f))[:, None]
            q = _orthonormal_rows(f)
    return theta, ritz, it, converged, angle


def _top_gap_degenerate(g: ColoredDigraph) -> bool:
    """True when the two largest eigenvalues of A^T A (numerically) coincide."""
    if g.n < 2:
        return False
    theta, _, _, _, _ = _ritz_topk(g, 2, 60, _PROBE_ANGLE_TOL)
    return bool(theta[0] - theta[1] <= _DEGENERATE_GAP * max(theta[0], 1e-300))


def subspace_hits(
    g: ColoredDigraph,
    k: int,
    weight: str = "unit",
    ctrl: IterationControl = _DEFAULT_CTRL,
) -> RankingResult:
    """Authority scores aggregated over the leading k-dimensional eigenspace.

    Computes the top k eigenpairs (lambda_i, v_i) of A^T A and scores node
    j as sum_i f(lambda_i) * v_i[j]**2 with f = 1 (``weight="unit"``) or
    f = lambda**2 (``weight="lambda_sq"``). Squaring removes the
    eigenvector sign ambiguity. A degenerate flag is set when k exceeds
    the numeric rank (trailing requested eigenvalues are ~0) or when the
    k-th and (k+1)-th eigenvalues coincide, making the chosen subspace
    arbitrary.
    """
    if not 1 <= k <= g.n:
        raise ValueError("k must lie in 1..n")
    if weight not in SUBSPACE_WEIGHTS:
        raise ValueError(f"weight must be one of {SUBSPACE_WEIGHTS}")
    theta, ritz, it, converged, angle = _ritz_topk(g, k, ctrl.max_iter, ctrl.tol)
    top = theta[:k]
    degenerate = bool(top[-1] <= theta[0] * 1e-12)
    if k < theta.shape[0] and theta[0] > 0:
        degenerate = degenerate or bool(
            top[-1] - theta[k] <= _DEGENERATE_GAP * theta[0]
        )
    f_weights = np.ones(k) if weight == "unit" else top**2
    scores = f_weights @ ritz[:k] ** 2
    return RankingResult(
        "subspace_hits", scores, rank_order(scores), it, converged,
        float(angle if np.isfinite(angle) else 0.0), degenerate,
    )
