"""Ranking algorithms over colored digraphs.

Degree, PageRank, hub/authority mutual reinforcement, a restarted
degree-normalized variant, and an eigenspace variant that aggregates
several leading eigenvectors. Every ranker returns one RankingResult:
scores together with a deterministic total order.

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
    "randomized_hits",
    "subspace_hits",
    "Spectrum",
    "solve_spectrum",
]

SUBSPACE_WEIGHTS = ("unit", "lambda_sq")

# Relative eigengap below which the leading eigenvalue is treated as
# numerically non-simple (ranking then depends on iteration details).
_DEGENERATE_GAP = 1e-8

# a one-row Krylov start of _ritz_topk gives up after this many products
# with A^T A per row of a block of k + 2 (a block run is capped by max_iter)
_KRYLOV_SWEEPS = 20

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
    uncounted one-row Krylov runs: a start, and a check of it that stops at
    its verdict. When the check clears the start and the start's Ritz pairs
    resolve every boundary read, they are the solve, of 0 iterations;
    otherwise the block run is. ``max_iter`` caps the iterations; a block
    run always fills its basis once, so it may take more.
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

    solve = _solve_at(g, 1, ctrl, spectrum)
    tied = _tied(solve.theta, 1)
    if tied:
        a, it, converged, residual = _fixed_point(
            lambda a: authority_of(hub_of(a)), authority_of(np.ones(g.n)), 1, ctrl
        )
    else:
        a, it = solve.rows[0], solve.iterations
        converged, residual = solve.converged, solve.residual
    a = a * (1.0 if a @ g.indeg > 0 else -1.0)
    a[np.abs(a) < ctrl.tol * np.abs(a).max()] = 0.0  # below what the solve resolves
    return RankingResult("hits_authority", a, rank_order(a), it, converged, residual, tied)


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


def _krylov_start(
    g: ColoredDigraph,
    k: int,
    tol: float,
    rng,
    s: int = 1,
    deflate: Optional[tuple] = None,
    cap: Optional[int] = None,
):
    """Leading Ritz pairs of A^T A from a Krylov–Schur run with blocks of s rows, or None.

    Thick-restart Lanczos (Stewart 2001; Wu & Simon 2000) on m + s rows,
    m = max(20, 2b + 4) for b = k + 2, so a restart has room to grow at any
    k, with two-pass full reorthogonalization. The first s rows are A^T A
    times normal draws of ``rng``, each projected off those before it, so
    the basis starts in the range of A^T A. Row j + s is A^T A times row j,
    the band form of block Lanczos (Ruhe 1979; Zhou & Saad, Numer.
    Algorithms 47, 2008), so the basis holds s directions of every
    eigenspace. A restart keeps the leading p = k + 4 Ritz rows and the s
    residual rows. The run settles when each of the leading k + 1 Ritz
    pairs has a residual norm of at most ``tol`` theta_1. It returns
    (rows, theta, resid, products): its leading max(k, s) Ritz rows, k + 2
    Ritz values clipped at 0, k + 1 residual norms and products with A^T A.
    It stops before a restart that would take it past ``cap`` products
    (default _KRYLOV_SWEEPS b), so it takes at most max(``cap``, m + s).
    It is skipped when n <= m + s.

    A row whose new part is below 1e-12 of the largest product so far, or
    of its own product for a first row (the basis spans an invariant
    subspace), ends a one-row run with None, as does its cap: one row holds
    one direction of a tied eigenspace. A block run instead refills the row
    with a normal draw projected off the rows before it (``_refill``), and
    at its cap returns its rows unsettled.

    A one-row run given ``deflate``, the (rows, theta) at k of an earlier
    one, is a check of that run: it projects every row off those k rows too,
    so it runs on A^T A deflated by them, and after every product it reads
    its top Ritz value, a lower bound on the deflated top eigenvalue
    (Parlett 1980). It returns False once that value reaches theta_k less
    the tie tolerance (``_tie_tol``): an eigenvalue the earlier run missed.
    It returns True once the value lies within the tie tolerance of
    theta_{k+1}: the earlier run's next value found again, with nothing
    above it. It returns None when it breaks down, settles or reaches its
    cap before either.
    """
    m, p = max(20, 2 * k + 8), k + 4
    if g.n <= m + s:
        return None
    cap = _KRYLOV_SWEEPS * (k + 2) if cap is None else cap
    basis = np.empty((m + s, g.n))
    t = np.zeros((m + s, m + s))
    if deflate is not None:
        found, seen = deflate
        gap = _tie_tol(seen)
    for i in range(s):
        w = basis[i]
        w[:] = _backward(g, _forward(g, rng.standard_normal(g.n)))
        size = float(np.sqrt(w @ w))
        if deflate is not None:
            _project_off(w, found)
        _project_off(w, basis[:i])
        if np.sqrt(w @ w) <= 1e-12 * size:
            _refill(w, basis[:i], rng)
        _unit(w)
    first, products, scale = 0, s, 0.0
    while True:
        for j in range(first, m):
            basis[j + s] = _backward(g, _forward(g, basis[j]))
            w, done = basis[j + s], basis[: j + s]
            scale = max(scale, float(np.sqrt(w @ w)))
            if deflate is not None:
                _project_off(w, found)
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
            if deflate is not None:
                top = np.linalg.eigvalsh(t[: j + 1, : j + 1])[-1]
                if top >= seen[k - 1] - gap:
                    return False
                if abs(top - seen[k]) <= gap:
                    return True
        products += m - first
        theta, y = np.linalg.eigh(t[:m, :m])
        theta, y = theta[::-1], y[:, ::-1]
        resid = np.linalg.norm(t[m:, :m] @ y[:, : k + 1], axis=0)
        settled = bool(np.all(resid <= tol * theta[0]))
        if settled or products + m - p > cap:
            if deflate is not None or not settled and s == 1:
                return None
            rows = y[:, : max(k, s)].T @ basis[:m]
            return rows, np.maximum(theta[: k + 2], 0.0), resid, products
        basis[:p] = y[:, :p].T @ basis[:m]
        basis[p : p + s] = basis[m:]
        t = np.diag(np.pad(theta[:p], (0, m + s - p)))
        first = p


def _project_off(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Removes from ``w``, in place, its part in the span of the orthonormal
    ``rows`` by two Gram–Schmidt passes; returns the summed coefficients."""
    h = rows @ w
    w -= h @ rows
    again = rows @ w
    w -= again @ rows
    return h + again


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

    Two uncounted one-row runs start every solve: a start, and a check of
    it. A one-row Krylov space holds one direction of a tied eigenspace, so
    on a tie at or above theta_k the start's leading k rows may miss an
    eigenvalue. The check runs on A^T A deflated by those rows, and its top
    Ritz value is a lower bound on the largest eigenvalue they miss: it
    finds the start's theta_{k+1} again, and returns True, or an eigenvalue
    at its theta_k or above, and returns False. A one-row run draws only
    before its first product, so the check draws one row however long it
    runs, and no later draw depends on where it stops.

    When the check clears it, the start has settled its leading k + 1 Ritz
    pairs to residual norms r_j of at most ``tol`` theta_1, as a one-row run
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

    Returns (theta, rows, iterations, converged, residual): the leading
    min(k + 2, n) Ritz values descending, the Ritz vectors as rows, the
    largest residual norm of the k + 1 leading pairs over theta_1 (0 for
    the dense eigenpairs), and whether it is at most ``tol``. A reader
    takes its tie verdict from theta at its own k (``_tied``).
    """
    rng = np.random.Generator(np.random.PCG64(0x5A11E57))
    start = _krylov_start(g, k, tol, rng)
    warm = (start is not None and _krylov_start(g, k, tol, rng, 1, start[:2]) is True
            and not any(_tied(start[1], j) for j in {*lower, k}))
    if not warm:
        del start
        start = _krylov_start(g, k, tol, rng, k + 2, None, max_iter)
    if start is None:  # too small for the block's basis
        theta, rows = _dense_eigenpairs(g, min(k + 2, g.n))
        return theta, rows, 0, True, 0.0
    rows, theta, resid, products = start
    converged = bool(np.all(resid <= tol * theta[0]))
    # the one-row runs go uncounted
    return theta, rows, 0 if warm else products, converged, float(resid.max() / theta[0])


@dataclass(frozen=True)
class Spectrum:
    """One finished Ritz solve of A^T A of ``g`` under ``ctrl``, as
    ``_ritz_topk`` returns it, for every subspace size in ``ks``: HITS reads
    1 and subspace HITS its ``k``. It ran at the largest; a warm solve must
    resolve every boundary in ``ks`` and a cold one settles every leading
    pair, so each reader takes a tie verdict from ``theta`` at its own k.
    Readers share ``theta`` and ``rows``, which are read-only. Hold one per
    graph and drop it with the graph; nothing else keeps a solve.
    """

    g: ColoredDigraph
    ks: frozenset
    ctrl: IterationControl
    theta: np.ndarray
    rows: np.ndarray
    iterations: int
    converged: bool
    residual: float

    def __post_init__(self):
        self.theta.flags.writeable = self.rows.flags.writeable = False


def solve_spectrum(g: ColoredDigraph, ks, ctrl: IterationControl = _DEFAULT_CTRL) -> Spectrum:
    """The Ritz solve of ``g`` that serves every subspace size in ``ks``:
    one ``_ritz_topk`` solve at the largest, tested for ties at the rest."""
    *lower, top = sorted(set(ks))
    solve = _ritz_topk(g, top, ctrl.max_iter, ctrl.tol, tuple(lower))
    return Spectrum(g, frozenset(ks), ctrl, *solve)


def _solve_at(g: ColoredDigraph, k: int, ctrl: IterationControl, shared: Optional[Spectrum]):
    """``shared`` when it serves ``g`` at ``k`` under ``ctrl``, or a solve of
    ``g`` at ``k`` alone when it is None."""
    if shared is None:
        return solve_spectrum(g, (k,), ctrl)
    if g is not shared.g or k not in shared.ks or ctrl != shared.ctrl:
        raise ValueError(f"the spectrum holds no solve at k = {k} for this graph and control")
    return shared


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
    solve = _solve_at(g, k, ctrl, spectrum)
    top = solve.theta[:k]
    degenerate = _tied(solve.theta, k) or bool(top[-1] <= solve.theta[0] * 1e-12)
    f_weights = np.ones(k) if weight == "unit" else top**2
    scores = f_weights @ solve.rows[:k] ** 2
    scores[scores < ctrl.tol**2 * f_weights.sum()] = 0.0  # below what the solve resolves
    return RankingResult("subspace_hits", scores, rank_order(scores), solve.iterations,
                         solve.converged, solve.residual, degenerate)
