"""Ranking algorithms over colored digraphs.

Degree, PageRank, hub/authority mutual reinforcement (with an unnormalized
trace variant), a restarted degree-normalized variant, and an eigenspace
variant that aggregates several leading eigenvectors. Every ranker returns
one RankingResult: scores together with a deterministic total order.

All iterations are expressed as matrix-vector products against the edge
arrays (a gather and an ``np.add.at`` scatter), which keeps parallel-edge
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
    "SUBSPACE_WEIGHTS",
    "rank_order",
    "degree_rank",
    "pagerank",
    "hits",
    "hits_trace",
    "randomized_hits",
    "subspace_hits",
    "Spectrum",
]

SUBSPACE_WEIGHTS = ("unit", "lambda_sq")

# Relative eigengap below which the leading eigenvalue is treated as
# numerically non-simple (ranking then depends on iteration details).
_DEGENERATE_GAP = 1e-8

# a one-row Krylov start of _ritz_topk gives up after this many products
# with A^T A per row of a block of k + 2 (a block run is capped by max_iter)
_KRYLOV_SWEEPS = 20

# a Krylov start that only has to agree with an earlier one compares their
# leading Ritz rows after every this many products with A^T A
_AGREE_EVERY = 4

# how many past steps the Anderson mixing of _fixed_point draws on
_ANDERSON_DEPTH = 4


@dataclass(frozen=True)
class IterationControl:
    """Stopping rule for iterative rankers.

    For PageRank, randomized HITS and HITS on a tied top eigenvalue, one
    iteration is one evaluation of the update map F (``_fixed_point``) and
    ``tol`` bounds the L1 norm of F(x) - x at the last point evaluated. For
    the Ritz solver of HITS and subspace HITS ``tol`` bounds the largest
    residual norm of the leading k + 1 Ritz pairs over the top Ritz value,
    and one iteration is one product with A^T A of a block Krylov run (see
    ``_krylov_start`` and ``_ritz_topk``). Every solve begins with two
    uncounted one-row Krylov runs, the second stopped once it agrees with
    the first. When they agree and the first's Ritz pairs resolve every
    boundary read, they are the solve, of 0 iterations; otherwise the
    block run is. ``max_iter`` caps the iterations; a block run always
    fills its basis once, so it may take more.
    """

    tol: float = 1e-10
    max_iter: int = 1000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


_DEFAULT_CTRL = IterationControl()


def _fixed_point(step, x, it, ctrl: IterationControl):
    """Solve ``x = step(x)`` by Anderson-accelerated fixed-point iteration.

    Type-II Anderson mixing of depth _ANDERSON_DEPTH (Walker & Ni, SIAM J.
    Numer. Anal. 49(4), 2011): with f = step(x) and residual r = f - x, the
    next point is f - dF @ gamma, where the rows of dF and dR hold the
    differences of the last few map outputs and residuals, and gamma
    minimizes ||r - dR^T gamma||_2 through the normal equations of the small
    Gram matrix dR dR^T. The history is cleared when that solve is singular
    or when the L1 residual grows more than tenfold.

    One iteration is one evaluation of ``step``; ``it`` counts those already
    spent on the starting ``x``. Returns (f, iterations, converged,
    residual): f is the last map output (``x`` itself if none ran) and
    residual the L1 norm of r at the last point evaluated, inf if none ran.
    """
    d_out = np.empty((_ANDERSON_DEPTH, x.size))
    d_res = np.empty_like(d_out)
    filled = head = 0
    f = x
    r = None
    residual = np.inf
    while it < ctrl.max_iter and not residual < ctrl.tol:
        it += 1
        f_new = step(x)
        r_new = f_new - x
        last, residual = residual, float(np.abs(r_new).sum())
        if residual > 10.0 * last:
            filled = head = 0
        elif r is not None:
            np.subtract(f_new, f, out=d_out[head])
            np.subtract(r_new, r, out=d_res[head])
            head = (head + 1) % _ANDERSON_DEPTH
            filled = min(filled + 1, _ANDERSON_DEPTH)
        f, r = f_new, r_new
        x = f
        if filled and not residual < ctrl.tol:
            dr = d_res[:filled]
            try:
                gamma = np.linalg.solve(dr @ dr.T, dr @ r)
            except np.linalg.LinAlgError:
                filled = head = 0
            else:
                x = f - gamma @ d_out[:filled]
    return f, it, residual < ctrl.tol, residual


@dataclass(frozen=True)
class RankingResult:
    """Scores plus the induced deterministic ranking.

    ``order`` is a permutation of node ids, best first: score descending,
    node id ascending on ties. ``residual`` is what ``IterationControl.tol``
    bounds: the last change (0 for direct methods, inf when none was
    measured), or for a Ritz solve the Krylov recurrence's estimate
    ``||t[m:, :m] @ y|| / theta_1`` of the largest residual norm of its
    leading Ritz pairs over the top Ritz value. That estimate can read
    below the rounding floor: 6e-18 where the rows measure 1e-15.
    ``degenerate`` flags rankings that sit on a
    (numerically) non-simple leading eigenvalue or a rank-deficient
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


# np.add.at sums in edge-list order, as np.bincount does, and reads the
# graph's read-only index arrays in place, where bincount copies them


def _forward(g: ColoredDigraph, x: np.ndarray) -> np.ndarray:
    """y[u] = sum over edges (u, v) of x[v]   (adjacency times x)."""
    y = np.zeros(g.n)
    np.add.at(y, g.src, x[g.dst])
    return y


def _backward(g: ColoredDigraph, x: np.ndarray) -> np.ndarray:
    """y[v] = sum over edges (u, v) of x[u]   (adjacency transpose times x)."""
    y = np.zeros(g.n)
    np.add.at(y, g.dst, x[g.src])
    return y


def degree_rank(g: ColoredDigraph, which: str = "total") -> RankingResult:
    """Rank nodes by indegree or total degree."""
    if which not in ("in", "total"):
        raise ValueError("degree_rank supports which in {'in', 'total'}")
    scores = g.degrees(which).astype(float)
    return RankingResult("degree", scores, rank_order(scores))


def pagerank(
    g: ColoredDigraph, eta: float = 0.85, ctrl: IterationControl = _DEFAULT_CTRL
) -> RankingResult:
    """Random-surfer scores: the fixed point of x = eta*P'x + (1-eta)/n.

    P' is the out-degree-normalized transition matrix with the mass of
    zero-outdegree nodes redistributed uniformly; the teleport vector is
    uniform. Each update is normalized to sum 1, and the scores are the
    last update.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    n = g.n
    out = g.outdeg.astype(float)
    inv_out = np.divide(1.0, out, out=np.zeros(n), where=out > 0)
    dangling = out == 0
    teleport = (1.0 - eta) / n

    def step(x):
        flow = _backward(g, x * inv_out)
        loose = x[dangling].sum() / n
        x_new = eta * (flow + loose) + teleport
        x_new /= x_new.sum()
        return x_new

    x, it, converged, residual = _fixed_point(step, np.full(n, 1.0 / n), 0, ctrl)
    return RankingResult("pagerank", x, rank_order(x), it, converged, residual)


def _unit(x: np.ndarray) -> np.ndarray:
    """``x`` scaled in place to unit L2 norm (left as is when zero)."""
    x /= float(np.sqrt((x * x).sum())) or 1.0
    return x


def hits(
    g: ColoredDigraph,
    ctrl: IterationControl = _DEFAULT_CTRL,
    *,
    spectrum: Optional[Spectrum] = None,
) -> RankingResult:
    """Authority scores of mutual hub/authority reinforcement.

    Starting from all-one hubs, alternately setting authorities to the
    backward sum of hub scores and hubs to the forward sum of authority
    scores, L2-normalizing each half-step, converges to the principal
    eigenvector of A^T A. On a simple top eigenvalue that is the top Ritz
    vector, signed to agree with the indegrees, read from ``spectrum`` (a
    :class:`Spectrum` of ``g`` that holds k = 1) or from a solve of its own
    at k = 1, whose iterations it reports. On a tied one only the all-ones
    start picks the limit, so the reinforcement loop runs, and its limit is
    signed the same way. Authorities below ``ctrl.tol`` times the largest
    are below what either solve resolves and are set to 0.0, so their ties
    break by node id. On a simple top eigenvalue the hubs of ``g`` are the
    authorities of its reverse.
    """
    if g.n_edges == 0:
        raise GraphError("hub/authority scores need at least one edge")

    def hub_of(a):
        return _unit(_forward(g, a))

    def authority_of(h):
        return _unit(_backward(g, h))

    if spectrum is None:
        spectrum = Spectrum(g, (1,), ctrl)
    theta, ritz, it, converged, residual = spectrum.read(g, 1, ctrl)
    tied = _tied(theta, 1)
    if tied:
        a, it, converged, residual = _fixed_point(
            lambda a: authority_of(hub_of(a)), authority_of(np.ones(g.n)), 1, ctrl
        )
    else:
        a = ritz[0]
    a = a * (1.0 if a @ g.indeg > 0 else -1.0)
    a[np.abs(a) < ctrl.tol * np.abs(a).max()] = 0.0  # below what the solve resolves
    return RankingResult("hits_authority", a, rank_order(a), it, converged, residual, tied)


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


def randomized_hits(
    g: ColoredDigraph, eps: float = 0.15, ctrl: IterationControl = _DEFAULT_CTRL
) -> RankingResult:
    """Authority scores of the restarted, degree-normalized hub/authority iteration.

    Fixed point of

        a = eps + (1 - eps) * Arow^T h
        h = eps + (1 - eps) * Acol a

    where Arow divides each row of the adjacency by its outdegree and Acol
    divides each column by its indegree; all-zero rows and columns fall
    back to the uniform distribution. The restart term anchors the scale,
    so no normalization is applied. Reversing the graph swaps Arow^T and
    Acol, so the hubs of ``g`` are the authorities of its reverse.
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

    def hub_of(a):
        return eps + (1.0 - eps) * (_forward(g, a * inv_in) + a[no_in].sum() / n)

    def authority_of(h):
        return eps + (1.0 - eps) * (_backward(g, h * inv_out) + h[no_out].sum() / n)

    a, it, converged, residual = _fixed_point(
        lambda a: authority_of(hub_of(a)), authority_of(np.ones(n)), 1, ctrl
    )
    return RankingResult("randomized_hits_authority", a, rank_order(a), it, converged, residual)


class _RitzRows(np.ndarray):
    """The leading Ritz rows of a Krylov run: a (rows, n) array to every
    caller, which also carries the run's leading k + 2 Ritz values
    ``theta``, the residual norms ``resid`` of its leading k + 1 Ritz pairs
    and the ``products`` with A^T A it took, so a solve can read its
    boundaries without another product."""

    def __new__(cls, rows, theta, resid, products):
        self = rows.view(cls)
        self.theta, self.resid, self.products = theta, resid, products
        return self


def _krylov_start(
    g: ColoredDigraph,
    k: int,
    tol: float,
    rng,
    s: int = 1,
    agree: Optional[np.ndarray] = None,
    cap: Optional[int] = None,
) -> Optional[np.ndarray]:
    """Leading Ritz rows of A^T A from a Krylov–Schur run with blocks of s rows, or None.

    Thick-restart Lanczos (Stewart 2001; Wu & Simon 2000) on m + s rows,
    m = max(20, 2b + 4) for b = k + 2, so a restart has room to grow at any
    k, with two-pass full reorthogonalization. The first s rows are A^T A
    times normal draws of ``rng``, each projected off those before it, so
    the basis starts in the range of A^T A. Row j + s is A^T A times row j,
    the band form of block Lanczos (Ruhe 1979; Zhou & Saad, Numer.
    Algorithms 47, 2008), so the basis holds s directions of every
    eigenspace. A restart keeps the leading p = k + 4 Ritz rows and the s
    residual rows. The run settles when each of the leading k + 1 Ritz
    pairs has a residual norm of at most ``tol`` theta_1. It returns its
    leading max(k, s) Ritz rows as ``_RitzRows``, and stops before a
    restart that would take it past ``cap`` products (default
    _KRYLOV_SWEEPS b), so it takes at most max(``cap``, m + s). It is
    skipped when n <= m + s.

    A row whose new part is below 1e-12 of the largest product so far, or
    of its own product for a first row (the basis spans an invariant
    subspace), ends a one-row run with None, as does its cap: one row holds
    one direction of a tied eigenspace. A block run instead refills the row
    with a normal draw projected off the rows before it (``_refill``), and
    at its cap returns its rows unsettled.

    A one-row run given the k leading rows ``agree`` of an earlier one
    keeps their overlaps with its basis, ``agree @ basis[j]``, one small
    product per step, rotated with the basis at a restart. After every
    _AGREE_EVERY products it returns its leading k Ritz rows, settled or
    not, once they lie within sqrt(``tol``) / 2 of ``agree``
    (``_agreeing_rows``). A run that never agrees stops as it would without
    ``agree``, on the same rows.
    """
    m, p = max(20, 2 * k + 8), k + 4
    if g.n <= m + s:
        return None
    cap = _KRYLOV_SWEEPS * (k + 2) if cap is None else cap
    basis = np.empty((m + s, g.n))
    t = np.zeros((m + s, m + s))
    for i in range(s):
        w = basis[i]
        w[:] = _backward(g, _forward(g, rng.standard_normal(g.n)))
        size = float(np.sqrt(w @ w))
        _project_off(w, basis[:i])
        if np.sqrt(w @ w) <= 1e-12 * size:
            _refill(w, basis[:i], rng)
        _unit(w)
    if agree is not None:
        overlap = np.empty((k, m + 1))
        overlap[:, 0] = agree @ basis[0]
    first, products, scale = 0, s, 0.0
    while True:
        for j in range(first, m):
            basis[j + s] = _backward(g, _forward(g, basis[j]))
            w, done = basis[j + s], basis[: j + s]
            scale = max(scale, float(np.sqrt(w @ w)))
            t[: j + s, j] = t[j, : j + s] = _project_off(w, done)
            beta = float(np.sqrt(w @ w))
            if beta > 1e-12 * scale:
                w /= beta
            elif s == 1:
                return None
            else:
                _refill(w, done, rng)
                _unit(w)
                beta = 0.0
            t[j + s, j] = beta
            if agree is not None:
                overlap[:, j + 1] = agree @ w
                if j >= k - 1 and (products + j + 1 - first) % _AGREE_EVERY == 0:
                    rows = _agreeing_rows(t[: j + 1, : j + 1], overlap[:, : j + 1],
                                          basis[: j + 1], agree, tol)
                    if rows is not None:
                        return rows
        products += m - first
        theta, y = np.linalg.eigh(t[:m, :m])
        theta, y = theta[::-1], y[:, ::-1]
        resid = np.linalg.norm(t[m:, :m] @ y[:, : k + 1], axis=0)
        settled = bool(np.all(resid <= tol * theta[0]))
        if settled or products + m - p > cap:
            if not settled and s == 1:
                return None
            rows = y[:, : max(k, s)].T @ basis[:m]
            return _RitzRows(rows, np.maximum(theta[: k + 2], 0.0), resid, products)
        basis[:p] = y[:, :p].T @ basis[:m]
        basis[p : p + s] = basis[m:]
        if agree is not None:
            overlap[:, :p] = overlap[:, :m] @ y[:, :p]
            overlap[:, p] = overlap[:, m]
        t = np.diag(np.pad(theta[:p], (0, m + s - p)))
        first = p


def _agreeing_rows(t, overlap, basis, agree, tol) -> Optional[np.ndarray]:
    """The leading Ritz rows of ``t``, the projection of A^T A onto the
    orthonormal ``basis``, if they lie within sqrt(``tol``) / 2 of the
    orthonormal rows ``agree``, else None; ``overlap`` is ``agree @ basis.T``.

    The cosines of the principal angles are the singular values of the
    small ``overlap @ y``. Their sine, sqrt(1 - cos^2), cancels near
    rounding, so an angle that passes is measured again on the rows."""
    k = len(agree)
    y = np.linalg.eigh(t)[1][:, : -k - 1 : -1]
    cos = np.linalg.svd(overlap @ y, compute_uv=False)
    if 1.0 - cos[-1] ** 2 >= 0.25 * tol:
        return None
    rows = y.T @ basis
    return rows if _sin_largest_angle(rows, agree) ** 2 < 0.25 * tol else None


def _project_off(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Removes from ``w``, in place, its part in the span of the orthonormal
    ``rows`` by two Gram–Schmidt passes; returns the summed coefficients."""
    h = rows @ w
    w -= h @ rows
    again = rows @ w
    w -= again @ rows
    return h + again


def _sin_largest_angle(cur: np.ndarray, prev: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal row blocks.

    Projects ``cur`` onto the complement of ``prev`` (no cancellation for
    tiny angles) and takes the square root of the top eigenvalue of the
    k x k Gram of that residual, which equals its squared spectral norm.
    The residual overwrites the projection, so one (k, n) block is made.
    """
    resid = (cur @ prev.T) @ prev
    np.subtract(cur, resid, out=resid)
    return float(np.sqrt(max(np.linalg.eigvalsh(resid @ resid.T)[-1], 0.0)))


def _tie_tol(theta: np.ndarray) -> float:
    """Gap between Ritz values at or below which they count as tied."""
    return _DEGENERATE_GAP * max(theta[0], 1e-300)


def _tied(theta: np.ndarray, k: int) -> bool:
    """Whether theta_k and theta_{k+1} tie; never when the block ends at k."""
    return k < len(theta) and bool(theta[k - 1] - theta[k] <= _tie_tol(theta))


def _refill(w: np.ndarray, done: np.ndarray, rng) -> None:
    """Overwrites ``w`` with a normal draw of ``rng`` projected off the
    orthonormal rows ``done``: the row of a block Krylov run whose product
    lies in the span of the basis."""
    w[:] = rng.standard_normal(len(w))
    _project_off(w, done)


def _dense_eigenpairs(g: ColoredDigraph, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The b leading eigenvalues of the dense n x n A^T A, descending and
    clipped at 0, and its eigenvectors as rows.

    Nodes with identical columns of A, in-neighbour twins, form classes.
    With Q the n x c class indicator scaled to unit columns, A^T A =
    Q (Q^T A^T A Q) Q^T, so each eigenvector u of the c x c middle matrix
    gives the eigenvector Q u of A^T A, whose entries are equal, bit for
    bit, across a class. The contrasts within classes span the rest, where
    A^T A is zero: an orthonormal basis of them fills any rows past c.
    """
    a = np.zeros((g.n, g.n))
    np.add.at(a, (g.src, g.dst), 1.0)
    _, first, cls, size = np.unique(
        a, axis=1, return_index=True, return_inverse=True, return_counts=True
    )
    cls, scale = cls.reshape(-1), np.sqrt(size)
    a_q = a[:, first] * scale
    theta, u = np.linalg.eigh(a_q.T @ a_q)
    rows = u[cls, ::-1].T / scale[cls]
    if b > len(size):
        q = np.zeros((g.n, len(size)))
        q[np.arange(g.n), cls] = 1.0 / scale[cls]
        rows = np.vstack((rows, np.linalg.qr(q, mode="complete")[0][:, len(size) :].T))
        theta = np.pad(theta, (b - len(size), 0))
    return np.maximum(theta[: -b - 1 : -1], 0.0), np.ascontiguousarray(rows[:b])


def _ritz_topk(g: ColoredDigraph, k: int, max_iter: int, tol: float, lower: tuple = ()):
    """Leading Ritz pairs of A^T A from a Krylov–Schur run (``_krylov_start``).

    Two uncounted one-row runs from independent draws start every solve. A
    one-row Krylov space holds one direction of a tied eigenspace, so on a
    tie at or above theta_k the two leading-k subspaces part at a random
    angle: they must agree within sqrt(``tol``). Only that verdict is kept,
    so the second run stops as soon as its leading rows come within half
    that angle of the first's; one that parts runs to its own stop. A
    one-row run draws only before its first product, so the early stop
    moves no later draw.

    When they agree, the first run has settled its leading k + 1 Ritz pairs
    to residual norms r_j of at most ``tol`` theta_1, as a one-row run
    returns rows only once settled. Its Ritz pairs are the solve, a warm
    solve of 0 iterations, when its theta is untied (``_tied``) at k and at
    each size in ``lower`` (each below k): each row then lies within r_j
    over the gap of its eigenvector (Davis & Kahan, SIAM J. Numer. Anal. 7,
    1970).

    Otherwise, a cold solve, one Krylov run with blocks of b = k + 2 rows
    is the solve. It holds b directions of every eigenspace, so ties stay
    in view; it runs to the same residual test, capped at ``max_iter``
    products, and each of its products is an iteration. A graph too small
    for its basis takes the b = min(k + 2, n) leading eigenpairs of its
    dense A^T A (``_dense_eigenpairs``), whose rows give in-neighbour twins
    bitwise-equal entries, with 0 iterations. All draws come from a fixed
    internal seed.

    Returns (theta, U, iterations, converged, residual): the leading
    min(k + 2, n) Ritz values descending, the Ritz vectors as rows of U, the
    largest residual norm of the k + 1 leading pairs over theta_1 (0 for
    the dense eigenpairs), and whether it is at most ``tol``. A reader
    takes its tie verdict from theta at its own k (``_tied``).
    """
    rng = np.random.Generator(np.random.PCG64(0x5A11E57))
    start = _krylov_start(g, k, tol, rng)
    second = start if start is None else _krylov_start(g, k, tol, rng, 1, start)
    warm = (second is not None and _sin_largest_angle(start, second) <= np.sqrt(tol)
            and not any(_tied(start.theta, j) for j in {*lower, k}))
    del second
    if not warm:
        del start
        start = _krylov_start(g, k, tol, rng, k + 2, None, max_iter)
    if start is None:  # too small for the block's basis
        theta, rows = _dense_eigenpairs(g, min(k + 2, g.n))
        return theta, rows, 0, True, 0.0
    theta, resid = start.theta, start.resid
    return (
        theta,
        np.asarray(start),
        0 if warm else start.products,  # the one-row runs go uncounted
        bool(np.all(resid <= tol * theta[0])),
        float(resid.max() / theta[0]),
    )


class Spectrum:
    """The leading Ritz pairs of A^T A of one graph, solved once, on first read.

    ``ks`` holds every subspace size that will be read: HITS reads 1 and
    subspace HITS its ``k``. The one ``_ritz_topk`` solve runs at the
    largest: a one-row Krylov start is the solve only when it resolves
    every boundary in ``ks``, and a block run settles all the leading
    Ritz pairs, so each reader takes a tie verdict from theta at its own k.
    Readers share its arrays, which are read-only. Hold one per graph and
    drop it with the graph; nothing else caches a solve.
    """

    def __init__(self, g: ColoredDigraph, ks, ctrl: IterationControl = _DEFAULT_CTRL):
        self.g = g
        self.ks = frozenset(ks)
        self.ctrl = ctrl
        self._solve = None

    def read(self, g: ColoredDigraph, k: int, ctrl: IterationControl) -> tuple:
        """The solve as ``_ritz_topk`` returns it, (theta, U, iterations,
        converged, residual), for a reader of ``g`` at ``k`` under ``ctrl``."""
        if g is not self.g or k not in self.ks or ctrl != self.ctrl:
            raise ValueError(f"the spectrum holds no solve at k = {k} for this graph and control")
        if self._solve is None:
            *lower, top = sorted(self.ks)
            self._solve = _ritz_topk(self.g, top, self.ctrl.max_iter, self.ctrl.tol, tuple(lower))
            for shared in self._solve[:2]:  # theta and the Ritz rows
                shared.flags.writeable = False
        return self._solve


def subspace_hits(
    g: ColoredDigraph,
    k: int,
    weight: str = "unit",
    ctrl: IterationControl = _DEFAULT_CTRL,
    *,
    spectrum: Optional[Spectrum] = None,
) -> RankingResult:
    """Authority scores aggregated over the leading k-dimensional eigenspace.

    Takes the top k eigenpairs (lambda_i, v_i) of A^T A from ``spectrum``
    (a :class:`Spectrum` of ``g`` that holds ``k``) or from a solve of its
    own, and scores node j as sum_i f(lambda_i) * v_i[j]**2 with f = 1
    (``weight="unit"``) or f = lambda**2 (``weight="lambda_sq"``).
    Squaring removes the eigenvector sign ambiguity. Scores below
    ``ctrl.tol``**2 times the sum of the weights are below what the solve
    resolves and are set to 0.0. A degenerate flag is
    set when k exceeds the numeric rank (trailing requested eigenvalues are
    ~0) or when the k-th and (k+1)-th eigenvalues coincide, making the
    chosen subspace arbitrary.
    """
    if not 1 <= k <= g.n:
        raise ValueError("k must lie in 1..n")
    if weight not in SUBSPACE_WEIGHTS:
        raise ValueError(f"weight must be one of {SUBSPACE_WEIGHTS}")
    if spectrum is None:
        spectrum = Spectrum(g, (k,), ctrl)
    theta, ritz, it, converged, angle = spectrum.read(g, k, ctrl)
    top = theta[:k]
    degenerate = _tied(theta, k) or bool(top[-1] <= theta[0] * 1e-12)
    f_weights = np.ones(k) if weight == "unit" else top**2
    scores = f_weights @ ritz[:k] ** 2
    scores[scores < ctrl.tol**2 * f_weights.sum()] = 0.0  # below what the solve resolves
    return RankingResult(
        "subspace_hits", scores, rank_order(scores), it, converged, angle, degenerate
    )
