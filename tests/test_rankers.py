"""Ranking algorithm tests against dense linear-algebra oracles."""

import hashlib
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

import oracles
from oracles import hits_trace, sin_largest_angle
from fairank import rankers
from fairank.bpam import BpamParams, generate
from fairank.graph import Color, GraphError, from_edge_list
from fairank.rankers import (
    IterationControl,
    _fixed_point,
    degree_rank,
    hits,
    pagerank,
    randomized_hits,
    rank_order,
    solve_spectrum,
    subspace_hits,
)

TIGHT = IterationControl(tol=1e-13, max_iter=5000)


def _graph(edges, n):
    colors = np.zeros(n, dtype=np.uint8)
    colors[: max(1, n // 3)] = int(Color.R)
    return from_edge_list(edges, colors)


def _reversed(g):
    """``g`` with every edge turned around: its authorities are the hubs of ``g``."""
    return from_edge_list(np.column_stack([g.dst, g.src]), g.colors)


def _random_graph(rng, **kwargs):
    n, edges = oracles.random_digraph(rng, **kwargs)
    return _graph(edges, n), edges, n


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


# -- matvecs ------------------------------------------------------------------

def test_matvecs_sum_parallel_edges_in_edge_list_order():
    # bit for bit the sums of a weighted bincount over the edge list, which
    # adds each node's terms in edge-list order too
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        edges = rng.integers(0, n, size=(int(rng.integers(1, 200)), 2))
        g = _graph(edges, n)
        x = rng.standard_normal(n)
        assert np.array_equal(rankers._forward(g, x),
                              np.bincount(edges[:, 0], weights=x[edges[:, 1]], minlength=n))
        assert np.array_equal(rankers._backward(g, x),
                              np.bincount(edges[:, 1], weights=x[edges[:, 0]], minlength=n))


def test_matvec_copies_no_edge_index():
    # the gather and the output cost ~8 bytes per edge; a copy of the
    # graph's int64 index array, as np.bincount takes of a read-only one,
    # would add 8 more
    g, _ = generate(BpamParams(10_000, 6, 0.3, 0.1), seed=3)
    x = np.ones(g.n)
    tracemalloc.start()
    try:
        rankers._backward(g, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.n_edges <= 12


# -- rank_order ---------------------------------------------------------------

def test_rank_order_descending_with_id_ties():
    assert rank_order([3.0, 1.0, 2.0]).tolist() == [0, 2, 1]
    assert rank_order([1.0, 1.0, 0.0]).tolist() == [0, 1, 2]
    assert rank_order([2.0, 5.0, 5.0, 1.0]).tolist() == [1, 2, 0, 3]


def test_rank_order_is_scale_invariant():
    rng = np.random.default_rng(3)
    scores = rng.random(50)
    base = rank_order(scores)
    assert np.array_equal(base, rank_order(scores * 7.5))
    assert np.array_equal(base, rank_order(scores + 100.0))


def test_rank_order_tie_shuffle_is_seeded():
    scores = np.array([1.0, 1.0, 1.0, 0.0])
    a = rank_order(scores, tie_shuffle_seed=5)
    b = rank_order(scores, tie_shuffle_seed=5)
    assert np.array_equal(a, b)
    assert a[3] == 3  # the strict loser never moves
    seen = {tuple(rank_order(scores, tie_shuffle_seed=s)) for s in range(12)}
    assert len(seen) > 1  # ties actually get shuffled


# -- degree -------------------------------------------------------------------

def test_degree_rank_matches_brute_counts():
    edges = [(0, 1), (0, 2), (2, 1), (3, 0), (3, 1)]
    g = _graph(edges, 4)
    indeg, _, total = oracles.brute_degrees(edges, 4)
    assert np.array_equal(degree_rank(g, "in").scores, indeg.astype(float))
    assert np.array_equal(degree_rank(g, "total").scores, total.astype(float))
    assert degree_rank(g).algorithm == "degree"
    with pytest.raises(ValueError):
        degree_rank(g, "out")


# -- pagerank -----------------------------------------------------------------

def test_pagerank_two_cycle_is_uniform():
    g = _graph([(0, 1), (1, 0)], 2)
    res = pagerank(g, ctrl=TIGHT)
    assert res.scores == pytest.approx([0.5, 0.5], abs=1e-12)
    assert res.converged and res.algorithm == "pagerank"


def test_pagerank_matches_dense_solve_on_chain():
    edges = [(0, 1), (1, 2)]  # node 2 dangles
    g = _graph(edges, 3)
    res = pagerank(g, eta=0.85, ctrl=TIGHT)
    expected = oracles.dense_pagerank(edges, 3, 0.85)
    assert np.max(np.abs(res.scores - expected)) < 1e-12
    assert res.scores.sum() == pytest.approx(1.0, abs=1e-12)


def test_pagerank_matches_dense_solve_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g, edges, n = _random_graph(rng)
        res = pagerank(g, eta=0.85, ctrl=TIGHT)
        expected = oracles.dense_pagerank(edges, n, 0.85)
        assert np.max(np.abs(res.scores - expected)) < 1e-11
        assert res.scores.sum() == pytest.approx(1.0, abs=1e-12)


def test_pagerank_eta_validation():
    g = _graph([(0, 1)], 2)
    for eta in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="eta"):
            pagerank(g, eta=eta)


# -- hub/authority ------------------------------------------------------------

def test_hits_star_concentrates_authority():
    # leaves 1..4 all point at the center 0
    g = _graph([(i, 0) for i in range(1, 5)], 5)
    auth = hits(g, ctrl=TIGHT)
    hub = hits(_reversed(g), ctrl=TIGHT)
    assert auth.scores[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(auth.scores[1:])) < 1e-12
    assert hub.scores[0] == pytest.approx(0.0, abs=1e-12)
    assert hub.scores[1:] == pytest.approx([0.5] * 4, abs=1e-12)


def test_hits_matches_dense_eigenvector():
    rng = np.random.default_rng(23)
    done = 0
    while done < 10:
        g, edges, n = _random_graph(rng)
        w, top, _ = oracles.dense_authority_eig(edges, n)
        if w[0] <= 0 or w[1] / w[0] > 0.9:  # keep clearly simple spectra
            continue
        auth = hits(g, ctrl=TIGHT)
        assert cosine(auth.scores, top) > 1 - 1e-10
        assert not auth.degenerate
        # hubs solve the mirrored problem on the reversed edges
        _, hub_top, _ = oracles.dense_authority_eig([(v, u) for u, v in edges], n)
        assert cosine(hits(_reversed(g), ctrl=TIGHT).scores, hub_top) > 1 - 1e-10
        done += 1


# graphs whose top eigenvalue of A^T A is tied, and their vertex counts
TIED_SPECTRA = {
    "two_2cycles": ([(0, 1), (1, 0), (2, 3), (3, 2)], 4),
    "cycle": ([(i, (i + 1) % 5) for i in range(5)], 5),
    "path": ([(i, i + 1) for i in range(30)], 31),
    "in_stars": ([(5 * s + j, 5 * s) for s in range(5) for j in range(1, 5)], 25),
    "star_pair": ([(0, i) for i in range(1, 6)] + [(6, i) for i in range(7, 12)], 12),
}


def _simple_spectra(count):
    """Random graphs whose top eigenvalue is clearly simple."""
    rng = np.random.default_rng(29)
    while count:
        n, edges = oracles.random_digraph(rng)
        w, _, _ = oracles.dense_authority_eig(edges, n)
        if w[0] > 0 and w[1] / w[0] <= 0.9:
            count -= 1
            yield edges, n


@pytest.mark.parametrize("edges, n", [
    *TIED_SPECTRA.values(), *_simple_spectra(6),
], ids=[*TIED_SPECTRA, *(f"simple{i}" for i in range(6))])
def test_hits_authorities_are_the_limit_from_all_one_hubs(edges, n):
    # on a tied top eigenvalue any vector of the eigenspace is an
    # eigenvector; HITS is the one the all-ones start converges to
    auth = hits(_graph(edges, n))
    assert np.max(np.abs(auth.scores - oracles.dense_hits_limit(edges, n))) < 1e-10


def test_hits_on_a_simple_top_eigenvalue_is_one_ritz_solve(solver_calls):
    auth = hits(_bpam_1000(1))
    (solve,) = solver_calls["_ritz_topk"]
    assert not solver_calls["_fixed_point"]
    theta, _, iterations, converged, residual = solve
    assert not rankers._tied(theta, 1) and converged
    assert (auth.iterations_used, auth.converged, auth.residual) == (iterations, True, residual)
    assert not auth.degenerate


def test_ritz_rankers_snap_what_a_krylov_solve_does_not_resolve():
    # a 30-fold edge (60, 61) beside a 60-node graph, too large for the dense
    # eigenpairs: the top eigenvector of A^T A is node 61 alone, and the
    # Krylov rows carry rounding noise on the nodes of the other component
    g0, _ = generate(BpamParams(60, 3, 0.3, 0.5), seed=1)
    edges = np.vstack([np.stack([g0.src, g0.dst], axis=1), [[60, 61]] * 30])
    g = from_edge_list(edges, np.concatenate([g0.colors, [Color.B, Color.R]]))
    spectrum = solve_spectrum(g, (1,))
    assert 0.0 < np.abs(np.delete(spectrum.rows[0], 61)).max() < 1e-15
    for res in (hits(g, spectrum=spectrum), subspace_hits(g, 1, spectrum=spectrum)):
        assert np.all(np.delete(res.scores, 61) == 0.0)
        assert res.order.tolist() == [61, *range(61)]


def test_hits_snaps_authorities_the_solve_does_not_resolve():
    # the top eigenvector of A^T A is node 1 alone: the other 17 exact zeros
    # came out as rounding noise of either sign, and of another size when
    # read from a larger solve, so the two orders below node 1 differed
    g = _graph(HIDDEN_TIE_EDGES, 18)
    own = hits(g)
    shared = hits(g, spectrum=solve_spectrum(g, (1, 8)))
    for res in (own, shared):
        assert res.scores[1] == pytest.approx(1.0)
        assert np.all(np.delete(res.scores, 1) == 0.0)
        assert res.order.tolist() == [1, 0, *range(2, 18)]


def test_hits_flags_tied_leading_eigenvalue():
    # two disjoint 2-cycles make the top eigenvalue a double root
    g = _graph([(0, 1), (1, 0), (2, 3), (3, 2)], 4)
    assert hits(g).degenerate


def test_hits_requires_edges():
    with pytest.raises(GraphError):
        # single node with no edges cannot be built; use empty-edge error
        hits(_graph([], 2))


def test_relabeling_permutes_scores():
    rng = np.random.default_rng(31)
    g, edges, n = _random_graph(rng, n_range=(8, 8))
    perm = rng.permutation(n)
    edges_p = [(int(perm[u]), int(perm[v])) for u, v in edges]
    colors_p = np.zeros(n, dtype=np.uint8)
    colors_p[perm[: max(1, n // 3)]] = int(Color.R)
    g_p = from_edge_list(edges_p, colors_p)

    for run in (
        lambda gg: pagerank(gg, ctrl=TIGHT).scores,
        lambda gg: hits(gg, ctrl=TIGHT).scores,
        lambda gg: randomized_hits(gg, ctrl=TIGHT).scores,
        lambda gg: degree_rank(gg).scores,
    ):
        base = run(g)
        permuted = run(g_p)
        assert permuted[perm] == pytest.approx(base, abs=1e-9)


# -- unnormalized authority trace ----------------------------------------------

def test_trace_starts_at_indegree():
    g, _ = generate(BpamParams(200, 4, 0.3, 0.5), seed=4)
    v, e = hits_trace(g, 1)
    assert np.array_equal(v, g.indeg.astype(float))
    assert e == 0


def test_trace_counts_alternating_walks():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n, edges = oracles.random_digraph(rng, n_range=(4, 8))
        g = _graph(edges, n)
        for t in (1, 2, 3):
            counts = oracles.alternating_walk_counts(edges, n, t)
            assert np.array_equal(np.ldexp(*hits_trace(g, t)), counts)


def test_trace_rescales_instead_of_overflowing():
    # star: iterates scale by 4 each step, overflowing float64 near t ~ 500
    g = _graph([(i, 0) for i in range(1, 5)], 5)
    v, e = hits_trace(g, 700)
    assert np.all(np.isfinite(v))
    assert e > 0
    assert v[0] > 0 and np.all(v[1:] == 0)
    # the center's iterate is 4**t, exactly, across every rescale
    assert np.log2(v[0]) + e == 2 * 700
    # and each step multiplies it by 4
    assert np.ldexp(*hits_trace(g, 2))[0] / np.ldexp(*hits_trace(g, 1))[0] == pytest.approx(4.0)


def test_trace_requires_positive_depth():
    g = _graph([(0, 1)], 2)
    with pytest.raises(ValueError):
        hits_trace(g, 0)


# -- randomized variant ---------------------------------------------------------

def test_randomized_hits_full_restart_is_flat():
    g, _ = generate(BpamParams(100, 3, 0.3, 0.5), seed=6)
    assert np.all(randomized_hits(g, eps=1.0).scores == 1.0)
    assert np.all(randomized_hits(_reversed(g), eps=1.0).scores == 1.0)


def test_randomized_hits_matches_dense_solve():
    rng = np.random.default_rng(53)
    for _ in range(8):
        g, edges, n = _random_graph(rng)
        auth = randomized_hits(g, eps=0.15, ctrl=TIGHT)
        hub = randomized_hits(_reversed(g), eps=0.15, ctrl=TIGHT)
        a_exp, h_exp = oracles.dense_randomized_hits(edges, n, 0.15)
        assert np.max(np.abs(auth.scores - a_exp)) < 1e-10
        assert np.max(np.abs(hub.scores - h_exp)) < 1e-10


def test_randomized_hits_tracks_indegree_on_generated_graphs():
    g, _ = generate(BpamParams(1000, 6, 0.3, 0.3), seed=8)
    auth = randomized_hits(g)
    assert oracles.spearman(auth.scores, g.indeg) > 0.98


def test_randomized_hits_eps_validation():
    g = _graph([(0, 1)], 2)
    for eps in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="eps"):
            randomized_hits(g, eps=eps)


# -- eigenspace ranker ----------------------------------------------------------

def test_subspace_k1_orders_like_the_principal_vector():
    g, _ = generate(BpamParams(500, 5, 0.3, 0.4), seed=10)
    auth = hits(g, ctrl=TIGHT)
    res = subspace_hits(g, 1, ctrl=TIGHT)
    assert np.array_equal(res.order, auth.order)
    assert res.algorithm == "subspace_hits"


def test_subspace_matches_dense_eigendecomposition():
    rng = np.random.default_rng(61)
    done = 0
    while done < 8:
        n, edges = oracles.random_digraph(rng, n_range=(6, 12))
        w, _, _ = oracles.dense_authority_eig(edges, n)
        k = 3
        if n <= k or w[k - 1] < 1e-8 or w[k] / w[k - 1] > 0.9:
            continue  # need a clean gap after the kept triple
        g = _graph(edges, n)
        for weight in ("unit", "lambda_sq"):
            res = subspace_hits(g, k, weight, ctrl=TIGHT)
            expected = oracles.dense_subspace_scores(edges, n, k, weight)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(res.scores - expected)) < 1e-8 * max(scale, 1.0)
            assert res.converged and not res.degenerate
        done += 1


def test_subspace_full_dimension_unit_scores_are_one():
    # with k = n and unit weights every node's squared loadings sum to 1
    rng = np.random.default_rng(67)
    n, edges = oracles.random_digraph(rng, n_range=(5, 9))
    res = subspace_hits(_graph(edges, n), n, "unit", ctrl=TIGHT)
    assert res.scores == pytest.approx(np.ones(n), abs=1e-9)


def test_subspace_flags_rank_deficiency_and_ties():
    # one edge: A^T A has rank 1, so k = 2 reaches into the null space
    res = subspace_hits(_graph([(0, 1)], 3), 2)
    assert res.degenerate
    # disjoint twin cycles: eigenvalues tied across the k = 1 boundary
    res = subspace_hits(_graph([(0, 1), (1, 0), (2, 3), (3, 2)], 4), 1)
    assert res.degenerate


def test_subspace_argument_validation():
    g = _graph([(0, 1)], 2)
    with pytest.raises(ValueError, match="k must"):
        subspace_hits(g, 0)
    with pytest.raises(ValueError, match="k must"):
        subspace_hits(g, 3)
    with pytest.raises(ValueError, match="weight"):
        subspace_hits(g, 1, weight="cubic")


# columns 7 and 8 repeat columns 5 and 6, so A^T A has numeric rank 3,
# below the k + 2 rows of the solver's block when k >= 2
RANK_DEFICIENT_EDGES = [
    (0, 5), (1, 5), (2, 5), (1, 6), (2, 6), (3, 6),
    (0, 7), (1, 7), (2, 7), (1, 8), (2, 8), (3, 8), (0, 9), (3, 9),
]


def test_subspace_on_rank_deficient_graph_matches_dense_oracle():
    edges = RANK_DEFICIENT_EDGES
    n = 10
    g = _graph(edges, n)
    w, _, _ = oracles.dense_authority_eig(edges, n)
    assert w[2] > 0.1 and abs(w[3]) < 1e-12
    res = subspace_hits(g, 3, "unit", ctrl=TIGHT)
    assert np.max(np.abs(res.scores - oracles.dense_subspace_scores(edges, n, 3, "unit"))) < 1e-8
    assert res.converged and not res.degenerate
    # k = 4 reaches into the null space; lambda^2 weights make the scores
    # independent of which null vector the solver picked
    res = subspace_hits(g, 4, "lambda_sq")
    expected = oracles.dense_subspace_scores(edges, n, 4, "lambda_sq")
    assert np.max(np.abs(res.scores - expected)) < 1e-8 * np.max(expected)
    assert res.degenerate


def test_dense_eigenpairs_keep_twins_equal_past_the_rank():
    # four classes of equal columns (nodes 0-4 with no in-edges, 5 and 7, 6
    # and 8, and 9): the first four rows are spread over their classes, and
    # the contrasts within classes fill the other six
    g = _graph(RANK_DEFICIENT_EDGES, 10)
    theta, rows = rankers._dense_eigenpairs(g, 10)
    w, _, _ = oracles.dense_authority_eig(RANK_DEFICIENT_EDGES, 10)
    ata = oracles.dense_adjacency(RANK_DEFICIENT_EDGES, 10)
    ata = ata.T @ ata
    assert np.max(np.abs(theta - np.maximum(w, 0.0))) < 1e-12
    assert np.max(np.abs(rows @ rows.T - np.eye(10))) < 1e-12
    assert np.max(np.abs(rows @ ata - theta[:, None] * rows)) < 1e-12
    for twin, other in ((5, 7), (6, 8)):
        assert np.array_equal(rows[:4, twin], rows[:4, other])
    assert np.array_equal(rankers._dense_eigenpairs(g, 3)[1], rows[:3])


def _bpam_1000(seed):
    # the sequential generator's graphs: the pins below came from them, and
    # the order digests cannot be re-derived on other graphs
    g, _ = oracles.sequential_bpam(BpamParams(1000, 6, 0.3, 0.1), seed=seed)
    return g


# SHA-256 of subspace_hits(g, 6).order.tobytes(), taken from the plain
# (unfiltered) subspace iteration
ORDER_SHA256 = {
    1: "9c565ca2278c5ac4bb0762bc152a8f8ed262704b4403d2faafbf80c16e661636",
    2: "f3c5b5cb5ee0345501cebfc7af176f32b54e50cfe74e9327dd39c782725c9717",
    3: "5bde36a02bc65bd2e94740e30969f60dfb430e5efe07165e4bf41672e6037c2e",
    11: "d44772603b1b07c00b7ccadcf76ae74ea91a827caa6406dd5b0d0235cf28713b",
}


@pytest.mark.parametrize("seed, products, hits_products", [
    (1, 228, 38), (2, 218, 38), (3, 138, 53), (11, 238, 53),
])
def test_solver_iteration_counts_are_pinned(seed, products, hits_products, request):
    # A warm solve, whose two one-row Krylov starts agree, is the first
    # start's Ritz pairs and counts 0 iterations, for subspace HITS and for
    # HITS alike: a start that falls back to a cold solve shows here. The
    # parametrized counts are those of the cold solve, the block Krylov run
    # alone, in products with A^T A (the block sweeps that finished it
    # before took 19/18/2/10 at k = 6 and 2 for HITS, after a block run
    # capped at 160 and 60 products; the Chebyshev-filtered cold block took
    # 12/14/12/11 sweeps and HITS 6/6/7/7; plain subspace iteration from
    # normal rows took 105/139/61/78 sweeps, and the HITS power loop
    # 31/69/55/53 iterations): a change that weakens the block run shows
    # there. The order digests show any node that either path moves
    g = _bpam_1000(seed)
    for expected, expected_hits in ((0, 0), (products, hits_products)):
        res = subspace_hits(g, 6)
        assert res.iterations_used == expected
        assert hashlib.sha256(res.order.tobytes()).hexdigest() == ORDER_SHA256[seed]
        assert hits(g).iterations_used == expected_hits
        request.getfixturevalue("forced_cold")


def _kind(start):
    """What a Krylov start returned: its number of Ritz rows, or None, or
    the True or False of a check run given an earlier start's rows."""
    return start if start is None or isinstance(start, bool) else len(start[0])


def test_a_krylov_start_at_its_product_cap_leaves_the_block_start(monkeypatch, solver_calls):
    # a cap of b products stops a one-row Krylov run that has not settled at
    # its first restart. At k = 6 the one-row start gives up, and the block
    # run, which max_iter caps instead, is the solve: it must converge on
    # the same order and flags. At k = 1 the one-row start settles on its
    # first 21 products, before the cap is consulted, and the check finds
    # its theta_2 again before then
    monkeypatch.setattr(rankers, "_KRYLOV_SWEEPS", 1)
    g = _bpam_1000(1)
    res = subspace_hits(g, 6)
    assert res.converged and not res.degenerate
    assert hashlib.sha256(res.order.tobytes()).hexdigest() == ORDER_SHA256[1]
    auth = hits(g)
    assert auth.converged and not auth.degenerate
    assert [_kind(start) for start in solver_calls["_krylov_start"]] == [None, 8, 1, True]


def test_a_check_with_no_verdict_by_its_cap_gives_up():
    # a theta_k above every eigenvalue and a theta_{k+1} that none of the
    # deflated A^T A lies near: the check reaches neither verdict, and at
    # its cap returns None, which leaves the solve cold
    g = _bpam_1000(1)
    rng = np.random.Generator(np.random.PCG64(1))
    rows, theta = rankers._krylov_start(g, 6, 1e-10, rng)[:2]
    unreachable = np.full_like(theta, 2.0 * theta[0])
    unreachable[6:] = 1.5 * theta[0]
    assert rankers._krylov_start(g, 6, 1e-10, rng, 1, (rows, unreachable), 8) is None


@pytest.mark.parametrize("seed, first, check", [(1, 41, 17), (2, 51, 14), (3, 41, 12)])
def test_the_deflated_check_stops_at_its_verdict(seed, first, check, monkeypatch):
    # products with A^T A (one _forward call each) of one warm solve read at
    # k = 1 and 6: the first one-row start settles, and the check, a one-row
    # run deflated by its leading 6 rows, stops once its top Ritz value
    # comes within the tie tolerance of the first's theta_7, in about half
    # the products of an independent one-row run that agrees with the first
    # within sqrt(tol) (28/32/24; 41/41/31 run to its own settling). The
    # solve counts 0 iterations, and no block run follows
    g = _bpam_1000(seed)
    products, starts = [], []
    forward, krylov = rankers._forward, rankers._krylov_start

    def counted(g, x):
        products.append(1)
        return forward(g, x)

    def start(*args):
        before = len(products)
        rows = krylov(*args)
        starts.append(len(products) - before)
        return rows

    monkeypatch.setattr(rankers, "_forward", counted)
    monkeypatch.setattr(rankers, "_krylov_start", start)
    assert solve_spectrum(g, (1, 6)).iterations == 0
    assert starts == [first, check]
    assert len(products) == first + check


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_warm_solve_is_the_first_krylov_start(seed, monkeypatch):
    # the check clears the one-row start and its Ritz values resolve both
    # boundaries read, 1 and 6: its Ritz pairs are the solve, so every
    # product with A^T A is a start's and no block run follows
    g = _bpam_1000(seed)
    products, starts = [], []
    forward, krylov = rankers._forward, rankers._krylov_start

    def counted(g, x):
        products.append(1)
        return forward(g, x)

    def start(*args):
        before = len(products)
        starts.append((krylov(*args), len(products) - before))
        return starts[-1][0]

    monkeypatch.setattr(rankers, "_forward", counted)
    monkeypatch.setattr(rankers, "_krylov_start", start)
    spectrum = solve_spectrum(g, (1, 6))
    theta = spectrum.theta
    ((rows, first_theta, resid, _), _), _ = starts
    assert len(products) == sum(count for _, count in starts)
    assert (spectrum.iterations, spectrum.converged, rankers._tied(theta, 6)) == (0, True, False)
    assert theta.shape == (8,) and np.array_equal(theta, first_theta)
    assert type(spectrum.rows) is np.ndarray and np.array_equal(spectrum.rows, rows)
    assert spectrum.residual == resid.max() / theta[0] <= spectrum.ctrl.tol


# rounding leaves a residual of about 1e-15 theta_1 in rows formed in floating
# point, where the Krylov estimate that a warm solve reports reads as low as
# 6e-18 theta_1 on these graphs
_ROUNDING_RESIDUAL = 1e-14


@pytest.mark.parametrize("seed, cold", [
    *(pytest.param(seed, False, id=str(seed)) for seed in (1, 2, 3)),
    *(pytest.param(seed, True, id=f"{seed}-cold") for seed in (1, 2, 3)),
])
def test_warm_rows_lie_within_their_residual_over_the_gap(seed, cold, request):
    # Davis & Kahan (SIAM J. Numer. Anal. 7, 1970): a Ritz row's angle to its
    # eigenspace is at most its residual over the gap, here the largest
    # relative residual times theta_1 over theta_k - theta_{k+1}, up to
    # rounding. The rows' own residuals, measured, stay below the reported
    # one. A settled block run, the cold solve, meets the same bound
    if cold:
        request.getfixturevalue("forced_cold")
    g = _bpam_1000(seed)
    edges = list(zip(g.src.tolist(), g.dst.tolist()))
    _, _, vectors = oracles.dense_authority_eig(edges, g.n)
    for k in (1, 3, 6):
        theta, ritz, iterations, converged, residual = rankers._ritz_topk(g, k, 1000, 1e-10)
        assert converged and (iterations > 0) == cold
        ritz = ritz[:k]
        floor = (residual + _ROUNDING_RESIDUAL) * theta[0]
        for t, row in zip(theta, ritz):
            assert np.linalg.norm(rankers._backward(g, rankers._forward(g, row)) - t * row) <= floor
        sine = sin_largest_angle(ritz, np.ascontiguousarray(vectors[:, :k].T))
        assert sine <= floor / (theta[k - 1] - theta[k])


def test_a_start_tied_at_a_boundary_read_leaves_a_cold_solve(solver_calls):
    # on two copies of one graph the one-row start at k = 2 holds the doubled
    # top eigenvalue twice, and the check clears it, so its theta_1 and
    # theta_2 tie at the boundary 1 that HITS reads: the block run of k + 2
    # rows is the solve.
    # Its theta ties at 1 and not at 2, and its k = 2 scores are those of
    # one copy's dense eigenvector, on both copies
    one = _bpam_1000(2)
    g = _two_copies(one)
    spectrum = solve_spectrum(g, (1, 2))
    first, check, block = solver_calls["_krylov_start"]
    assert check is True
    assert rankers._tied(first[1], 1) and not rankers._tied(first[1], 2)
    rows, theta, _, products = block
    assert len(rows) == 4 and spectrum.iterations == products > 0 and spectrum.converged
    assert np.array_equal(spectrum.theta, theta) and np.array_equal(spectrum.rows, rows)
    assert rankers._tied(spectrum.theta, 1) and not rankers._tied(spectrum.theta, 2)
    res = subspace_hits(g, 2, spectrum=spectrum)
    assert res.converged and not res.degenerate
    edges = list(zip(one.src.tolist(), one.dst.tolist()))
    expected = oracles.dense_subspace_scores(edges, one.n, 1, "unit")
    assert np.max(np.abs(res.scores - np.tile(expected, 2))) <= 1e-11


def test_a_second_start_that_parts_from_the_first_leaves_a_cold_solve(solver_calls):
    # on two copies of one graph at k = 6 and tol = 1e-6 the first one-row
    # start holds the three leading doubled eigenvalues as pairs, untied at
    # the boundary, but the check deflated by its rows finds an eigenvalue
    # at its theta_6 or above. Only that verdict makes the block run of
    # k + 2 rows the solve
    one = _bpam_1000(2)
    g = _two_copies(one)
    ctrl = IterationControl(tol=1e-6)
    res = subspace_hits(g, 6, ctrl=ctrl)
    first, check, block = solver_calls["_krylov_start"]
    assert not rankers._tied(first[1], 6)
    assert check is False
    assert res.iterations_used == block[3] > 0
    assert res.converged and not res.degenerate
    edges = list(zip(one.src.tolist(), one.dst.tolist()))
    expected = oracles.dense_subspace_scores(edges, one.n, 3, "unit")
    assert np.max(np.abs(res.scores - np.tile(expected, 2))) <= 1e-6


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-15])
@pytest.mark.parametrize("k", [1, 6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_krylov_start_that_stops_early_agrees_with_the_first(seed, k, tol):
    # the check deflated by the first run's leading k rows finds the first's
    # theta_{k+1} again, with nothing at its theta_k or above: True. The
    # same draw run to its own settling gives leading rows within sqrt(tol)
    # of the first's
    g = _bpam_1000(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    first = rankers._krylov_start(g, k, tol, rng)
    draw = rng.bit_generator.state
    assert rankers._krylov_start(g, k, tol, rng, 1, first[:2]) is True
    rng.bit_generator.state = draw
    settled = rankers._krylov_start(g, k, tol, rng)
    assert settled[0].shape == first[0].shape == (k, g.n)
    assert sin_largest_angle(settled[0], first[0]) <= np.sqrt(tol)


def test_a_krylov_start_that_parts_from_the_first_runs_to_its_own_stop():
    # on two copies of one graph the top eigenvalue is doubled, and the
    # check, deflated by the first run's leading row, finds the other copy:
    # False, after one normal draw and no other. The same draw run to its
    # own settling gives a leading row that parts from the first's
    g = _two_copies(_bpam_1000(2))
    tol = IterationControl().tol
    rng = np.random.Generator(np.random.PCG64(5))
    first = rankers._krylov_start(g, 1, tol, rng)
    draw = rng.bit_generator.state
    assert rankers._krylov_start(g, 1, tol, rng, 1, first[:2]) is False
    after = rng.bit_generator.state
    rng.bit_generator.state = draw
    rng.standard_normal(g.n)
    assert rng.bit_generator.state == after
    rng.bit_generator.state = draw
    assert sin_largest_angle(rankers._krylov_start(g, 1, tol, rng)[0], first[0]) > np.sqrt(tol)


@pytest.mark.parametrize("seed, pagerank_iterations, rhits_iterations", [
    (1, 19, 20), (2, 19, 21), (3, 21, 20),
])
def test_fixed_point_iteration_counts_are_pinned(seed, pagerank_iterations, rhits_iterations):
    # Anderson mixing takes about half the map evaluations of the plain
    # iteration, which took 39/40/41 (PageRank) and 42/42/41 (randomized
    # HITS) here: a change that weakens the mixer shows here
    g = _bpam_1000(seed)
    assert pagerank(g).iterations_used == pagerank_iterations
    assert randomized_hits(g).iterations_used == rhits_iterations


@pytest.mark.parametrize("rho", [0.1, 0.5, 1.0])
def test_one_warm_solve_matches_the_dense_oracle_at_every_k(rho, solver_calls):
    g, _ = generate(BpamParams(1000, 6, 0.3, rho), seed=1)
    edges = list(zip(g.src.tolist(), g.dst.tolist()))
    spectrum = solve_spectrum(g, (1, 3, 6))
    for k in (1, 3, 6):
        res = subspace_hits(g, k, spectrum=spectrum)
        assert res.converged and not res.degenerate
        expected = oracles.dense_subspace_scores(edges, g.n, k, "unit")
        assert np.max(np.abs(res.scores - expected)) <= 1e-11
    starts = solver_calls["_krylov_start"]
    assert len(starts) == 2 and all(start is not None for start in starts)


@pytest.mark.parametrize("k, cold_sweeps", [(16, 21), (18, 26), (25, 42)])
def test_the_krylov_start_serves_large_k(k, cold_sweeps, solver_calls):
    # the basis grows with k, so a restart keeps room for new rows. A basis
    # of 20 rows left none at these k (p = k + 4 > 20): the start ran to its
    # cap, and the block sweeps of the cold solve after it took 21, 26 and 42
    g, _ = generate(BpamParams(1000, 6, 0.3, 0.5), seed=1)
    res = subspace_hits(g, k)
    starts = solver_calls["_krylov_start"]
    assert len(starts) == 2 and all(start is not None for start in starts)
    assert res.converged and res.iterations_used <= cold_sweeps
    edges = list(zip(g.src.tolist(), g.dst.tolist()))
    expected = oracles.dense_subspace_scores(edges, g.n, k, "unit")
    assert np.max(np.abs(res.scores - expected)) <= 1e-11


def test_a_krylov_start_that_breaks_down_leaves_a_cold_solve(solver_calls):
    # ten disjoint copies of one in-star (n = 40, above the 21-row basis):
    # A^T A has the eigenvalues 3 (ten-fold) and 0 alone, so the Krylov space
    # is invariant after one product and the one-row start breaks down. The
    # block run (b = 3 and 5 rows) refills its rows and is the solve, which
    # converges and flags the tie
    edges = [(4 * c + leaf, 4 * c + 3) for c in range(10) for leaf in range(3)]
    g = _graph(edges, 40)
    auth = hits(g)
    res = subspace_hits(g, 3)
    starts = solver_calls["_krylov_start"]
    assert [_kind(start) for start in starts] == [None, 3, None, 5]
    assert auth.converged and auth.degenerate
    assert res.converged and res.degenerate


def _two_copies(g):
    edges = np.stack([g.src, g.dst], axis=1)
    return from_edge_list(np.vstack([edges, edges + g.n]), np.concatenate([g.colors, g.colors]))


def test_a_tie_that_each_krylov_start_sees_once_leaves_a_cold_solve(solver_calls):
    # two disjoint copies of one graph (n = 2000): every eigenvalue of A^T A
    # is doubled, and there are hundreds of distinct ones, so no one-row run
    # breaks down. At k = 1 and k = 3 a doubled eigenvalue straddles the
    # boundary, and the one-row start holds one random direction of it: the
    # check deflated by its rows finds the other, and a block run of k + 2
    # rows is the solve, which flags the tie. At k = 2 and k = 6 the
    # boundary falls between pairs, the check clears the start, and the
    # scores are those of one copy's dense eigenspace, on both copies
    one = _bpam_1000(2)
    g = _two_copies(one)
    edges = list(zip(one.src.tolist(), one.dst.tolist()))
    auth = hits(g)
    limit = oracles.dense_hits_limit(edges, one.n)
    assert auth.converged and auth.degenerate
    assert np.max(np.abs(auth.scores - np.tile(limit, 2) / np.sqrt(2))) < 1e-10
    for k, tied in ((1, True), (2, False), (3, True), (6, False)):
        res = subspace_hits(g, k)
        assert res.converged and res.degenerate == tied
        if not tied:
            expected = oracles.dense_subspace_scores(edges, one.n, k // 2, "unit")
            assert np.max(np.abs(res.scores - np.tile(expected, 2))) <= 1e-11
    starts = solver_calls["_krylov_start"]
    # per solve, for hits, then k = 1, 2, 3, 6: the start's rows, the
    # check's verdict, and the block run's rows when cold
    assert [_kind(start) for start in starts] == [
        1, False, 3, 1, False, 3, 2, True, 3, False, 5, 6, True,
    ]


def test_the_check_draws_one_row_and_nothing_else(monkeypatch):
    # a cold solve is the block run started from the one-row start's rng
    # state plus the one normal row that the check draws, however long the
    # check runs
    g = _two_copies(_bpam_1000(2))
    states, krylov = [], rankers._krylov_start

    def start(g, k, tol, rng, *rest):
        states.append(rng.bit_generator.state)
        return krylov(g, k, tol, rng, *rest)

    monkeypatch.setattr(rankers, "_krylov_start", start)
    theta, rows, iterations, converged, _ = rankers._ritz_topk(g, 1, 1000, 1e-10)
    assert len(states) == 3 and iterations > 0 and converged
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = states[0]
    krylov(g, 1, 1e-10, rng)
    assert rng.bit_generator.state == states[1]
    rng.standard_normal(g.n)
    assert rng.bit_generator.state == states[2]
    block = krylov(g, 1, 1e-10, rng, 3, None, 1000)
    assert np.array_equal(block[0], rows) and np.array_equal(block[1], theta)
    assert block[3] == iterations


@pytest.mark.parametrize("k", [1, 3])
def test_a_check_finds_the_other_copy_of_a_doubled_eigenvalue(k, solver_calls):
    # on two copies of one graph the doubled eigenvalue at k straddles the
    # boundary: the one-row start's leading k rows hold one direction of it,
    # and its (k+1)-th Ritz pair, settled through rounding, the other.
    # Deflated by those k rows, the check's top Ritz value reaches the
    # start's theta_k less the tie tolerance, a lower bound on an eigenvalue
    # outside them: the check returns False, as the tie test on the start's
    # theta finds, and the block run is the solve, which flags the tie
    one = _bpam_1000(2)
    g = _two_copies(one)
    edges = list(zip(one.src.tolist(), one.dst.tolist()))
    dense = oracles.dense_authority_eig(edges, one.n)[0]
    j = (k - 1) // 2  # the pair at k and k + 1 is one copy's simple eigenvalue j + 1
    assert np.min(np.abs(np.delete(dense, j) - dense[j])) > 1e-3 * dense[0]
    res = subspace_hits(g, k)
    first, check, block = solver_calls["_krylov_start"]
    assert check is False and rankers._tied(first[1], k)
    assert res.degenerate and res.converged and res.iterations_used == block[3] > 0


def test_a_tied_graph_untied_at_the_boundary_solves_warm(solver_calls):
    # two copies of a graph whose three leading eigenvalues the one-row start
    # at k = 6 holds as pairs: the check clears it, and the warm solve's
    # scores are those of one copy's dense eigenspace, on both copies. An
    # angle test against an independent one-row run rejects this start, and
    # a cold solve takes 308 products
    one, _ = generate(BpamParams(500, 6, 0.3, 0.5), 12)
    g = _two_copies(one)
    res = subspace_hits(g, 6)
    assert res.iterations_used == 0 and res.converged and not res.degenerate
    assert [_kind(start) for start in solver_calls["_krylov_start"]] == [6, True]
    edges = list(zip(one.src.tolist(), one.dst.tolist()))
    expected = oracles.dense_subspace_scores(edges, one.n, 3, "unit")
    assert np.max(np.abs(res.scores - np.tile(expected, 2))) <= 1e-11


@pytest.mark.parametrize("seed", [1, 2])
def test_subspace_matches_dense_eigensolve_at_n1000(seed):
    g = _bpam_1000(seed)
    edges = list(zip(g.src.tolist(), g.dst.tolist()))
    expected = oracles.dense_subspace_scores(edges, g.n, 6, "unit")
    assert np.max(np.abs(subspace_hits(g, 6).scores - expected)) <= 1e-11


def _in_neighbour_twins(g):
    """Groups of two or more nodes with the same non-empty sorted in-neighbour tuple."""
    in_nbrs = defaultdict(list)
    for u, v in zip(g.src.tolist(), g.dst.tolist()):
        in_nbrs[v].append(u)
    groups = defaultdict(list)
    for v, us in in_nbrs.items():
        groups[tuple(sorted(us))].append(v)
    return [nodes for nodes in groups.values() if len(nodes) > 1]


@pytest.mark.parametrize("graph", ["rank_deficient", "bpam_seed_1"])
def test_subspace_scores_of_twin_columns_are_bitwise_equal(graph):
    # equal columns of A give equal entries in every vector of the range of
    # A^T A; the solver must keep such ties exact, not merely close, or the
    # id tie-break (and --tie-shuffle) stops seeing them
    if graph == "rank_deficient":
        g = _graph(RANK_DEFICIENT_EDGES, 10)
    else:
        g = _bpam_1000(1)
    twins = _in_neighbour_twins(g)
    assert twins
    for k in (1, 2, 3, 4, "hits"):
        scores = hits(g).scores if k == "hits" else subspace_hits(g, k).scores
        for nodes in twins:
            assert np.all(scores[nodes] == scores[nodes[0]]), (k, nodes)


STRESS = IterationControl(1e-10, 20000)


@pytest.mark.parametrize("k, weight, parent_sweeps", [(2, "unit", 26), (4, "lambda_sq", 119)])
def test_subspace_converges_on_a_wide_spectrum(k, weight, parent_sweeps):
    # a 10000-fold edge makes the top eigenvalue 1e8 times the rest: the
    # solver must still converge, and in no more sweeps than plain subspace
    # iteration took. At n = 7 the solve is the dense eigenpairs of A^T A,
    # since n <= max(20, 2k + 8) + b leaves no room for a Krylov basis
    edges = [(0, 1)] * 10000 + [(2, 3), (3, 2), (4, 5), (5, 6), (6, 4), (2, 5)]
    w, _, _ = oracles.dense_authority_eig(edges, 7)
    assert w[0] / w[1] > 1e7
    res = subspace_hits(_graph(edges, 7), k, weight, ctrl=STRESS)
    expected = oracles.dense_subspace_scores(edges, 7, k, weight)
    assert res.converged
    assert res.iterations_used <= parent_sweeps
    assert np.max(np.abs(res.scores - expected)) < 1e-8 * max(np.max(expected), 1.0)


def test_subspace_stalls_on_a_fully_tied_spectrum():
    # on a path every nonzero eigenvalue of A^T A is 1, where the sweeps
    # that once solved it needed a stall rule to stop. The block run holds
    # the whole eigenspace after one basis fill and settles there, within
    # m + b = 20 + 4 products
    res = subspace_hits(_graph([(i, i + 1) for i in range(30)], 31), 2, ctrl=STRESS)
    assert res.converged and res.degenerate
    assert res.iterations_used <= 24


# eigenvalues of A^T A: 144, 5.24, 2, 2, 2, 2, 1, ...
HIDDEN_TIE_EDGES = [(0, 1)] * 12 + [
    (3, 9), (4, 9), (4, 10), (4, 11), (5, 16), (7, 8), (9, 15), (12, 16),
    (13, 3), (13, 5), (14, 10), (14, 11), (14, 13), (15, 13), (16, 15),
]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_subspace_flags_a_tie_that_spans_the_boundary(k):
    # the 4-fold 2 spans the boundary at k = 3, 4 and 5. At n = 18 the solve
    # is the dense eigenpairs of A^T A, since n <= max(20, 2k + 8) + b leaves
    # no room for a Krylov basis, so the rows inside the cluster are exact
    # and eigh may rotate them freely: the tie must be flagged all the same.
    # The sweep bounds date from an earlier solver; plain subspace iteration
    # ran out of sweeps at k = 3, 4 and took 13 at 5
    w, _, _ = oracles.dense_authority_eig(HIDDEN_TIE_EDGES, 18)
    assert np.allclose(w[2:6], 2.0) and w[6] < 1.5
    res = subspace_hits(_graph(HIDDEN_TIE_EDGES, 18), k)
    assert res.converged and res.degenerate
    assert res.iterations_used <= {3: 13, 4: 13, 5: 16}[k]


@pytest.mark.parametrize("graph, k, iterations", [
    ("path", 2, 24), ("path", 5, 27),
    ("hidden_tie", 3, 12), ("hidden_tie", 4, 11), ("hidden_tie", 5, 10),
])
def test_subspace_stops_on_a_tied_boundary_at_a_loose_tolerance(graph, k, iterations):
    # a tied boundary must stop the solve at a loose tol and be flagged.
    # Plain subspace iteration took 21 sweeps (path, k = 2), did not
    # converge (path, k = 5), took 12, 10, 10 sweeps (hidden tie) and left
    # k = 5 unflagged. On the path the block run settles in one basis fill
    # of m + b products (20 + 4 and 20 + 7); the hidden tie (n = 18) is
    # solved densely
    if graph == "path":
        g = _graph([(i, i + 1) for i in range(30)], 31)
    else:
        g = _graph(HIDDEN_TIE_EDGES, 18)
    res = subspace_hits(g, k, ctrl=IterationControl(1e-6, 1000))
    assert res.converged and res.degenerate
    assert res.iterations_used <= iterations


@pytest.mark.parametrize("graph, k", [("in_stars", 6), ("in_stars", 8), ("star_pair", 3)])
def test_subspace_settles_on_a_tie_at_zero(graph, k):
    # k reaches past the numeric rank (5 for in_stars, 2 for star_pair) and
    # a tied zero eigenvalue fills the rest of the block. A^T A maps those
    # rows to rounding noise, so only the rows above zero can settle; the
    # stall rule that waited for the span of the whole block ran all 1000
    # sweeps here
    edges, n = TIED_SPECTRA[graph]
    res = subspace_hits(_graph(edges, n), k)
    assert res.converged and res.degenerate
    assert res.iterations_used <= 3


def _agrees_up_to_noise(res, ref, noise=1e-12):
    """Whether ``res`` orders every pair of nodes as ``ref`` does, except
    pairs whose ``ref`` scores lie within ``noise`` of each other."""
    return bool(np.all(np.diff(ref.scores[res.order]) <= noise))


@pytest.mark.parametrize("graph", [*TIED_SPECTRA, "hidden_tie", "bpam_seed_1"])
def test_readings_below_a_larger_solve_match_their_own_solves(graph, solver_calls):
    # one solve at k* serves HITS (k = 1) and subspace HITS at k = 3, 4, 5.
    # Each boundary gets its own tie test, so each reading gets the tie flag
    # and convergence that a solve of its own gives. A degenerate reading's
    # order is arbitrary (any rotation across the tie gives it), and entries
    # that are zero in exact arithmetic carry rounding noise, so orders are
    # compared where the flag says they are defined, up to that noise
    if graph == "bpam_seed_1":
        g = _bpam_1000(1)
    else:
        g = _graph(*{**TIED_SPECTRA, "hidden_tie": (HIDDEN_TIE_EDGES, 18)}[graph])
    ks = [k for k in (3, 4, 5) if k < g.n]
    spectrum = solve_spectrum(g, (1, *ks, min(8, g.n)))
    shared = [hits(g, spectrum=spectrum), *(subspace_hits(g, k, spectrum=spectrum) for k in ks)]
    assert len(solver_calls["_ritz_topk"]) == 1
    own = [hits(g), *(subspace_hits(g, k) for k in ks)]
    for res, ref in zip(shared, own):
        assert (res.degenerate, res.converged) == (ref.degenerate, ref.converged)
        if not ref.degenerate:
            assert _agrees_up_to_noise(res, ref) and _agrees_up_to_noise(ref, res)


def test_a_spectrum_serves_only_what_it_was_built_for():
    g = _bpam_1000(1)
    spectrum = solve_spectrum(g, (1, 6))
    with pytest.raises(ValueError, match="k = 3"):
        subspace_hits(g, 3, spectrum=spectrum)
    with pytest.raises(ValueError):
        hits(g, IterationControl(tol=1e-6), spectrum=spectrum)
    with pytest.raises(ValueError):
        hits(_bpam_1000(2), spectrum=spectrum)


def test_a_shared_solve_is_read_only_and_its_readers_copy():
    # readers share one solve's arrays, so none may write to them, and the
    # scores each reader returns are its own
    g = _bpam_1000(1)
    spectrum = solve_spectrum(g, (1, 6))
    for shared in (spectrum.theta, spectrum.rows):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 1.0
    for res in (hits(g, spectrum=spectrum), subspace_hits(g, 6, spectrum=spectrum)):
        assert not np.shares_memory(res.scores, spectrum.rows)


def _in_edges(target, sources, mults):
    return [(s, target) for s, c in zip(sources, mults) for _ in range(c)]


@pytest.mark.parametrize("k, tol, sweeps", [(2, 1e-10, 7), (3, 1e-10, 6), (2, 1e-6, 5), (3, 1e-6, 5)])
def test_subspace_stops_on_a_gap_just_above_the_tie_tolerance(k, tol, sweeps):
    # eigenvalues of A^T A: 1e10 - 1, 300, 200, 100, 2.62, 0.38, 0, ...
    # The gaps at k = 2, 3 are 100, only 1e-8 above the tie tolerance
    # 1e-8 * theta_1, so a settled subspace must not wait for the (k+1)-th
    # residual to fall below 1e-8. Plain subspace iteration took 7, 6, 5, 5
    # sweeps here
    edges = (
        _in_edges(5, range(5), (99999, 447, 13, 4, 2))
        + _in_edges(9, (6, 7, 8), (10, 10, 10))
        + _in_edges(12, (10, 11), (10, 10))
        + _in_edges(14, (13,), (10,))
        + [(15, 16), (15, 17), (18, 17)]
    )
    res = subspace_hits(_graph(edges, 19), k, ctrl=IterationControl(tol, 1000))
    assert res.converged and not res.degenerate
    assert res.iterations_used <= sweeps


@pytest.mark.parametrize("graph, degenerate, iterations", [
    ("cycle", True, 8), ("path", True, 23), ("star_pair", True, 3), ("twin_pairs", False, 60),
])
def test_degeneracy_probe_settles_on_tied_spectra(graph, degenerate, iterations, solver_calls):
    # hits reads its degeneracy flag off its one Ritz solve at k = 1. That
    # solve must settle here within the sweeps that the separate k = 2 probe
    # it replaced took with plain subspace iteration, or on the path (n =
    # 31), the one graph here large enough for a block run, within one basis
    # fill of m + b = 20 + 3 products. On twin_pairs a simple top eigenvalue
    # 2 is followed by an exact 3-fold 1 that fills the rest of the block
    edges, n = {
        **TIED_SPECTRA,
        "twin_pairs": ([(0, 1), (2, 3), (4, 5), (6, 7), (6, 8)], 9),
    }[graph]
    auth = hits(_graph(edges, n))
    (solve,) = solver_calls["_ritz_topk"]
    theta, _, it, converged, _ = solve
    assert converged and it <= iterations and rankers._tied(theta, 1) == degenerate
    # only a tied top eigenvalue runs the reinforcement loop
    assert len(solver_calls["_fixed_point"]) == int(degenerate)
    assert auth.converged and auth.degenerate == degenerate


# -- eigen-solver building blocks -----------------------------------------------

@pytest.mark.parametrize("sine", [0.5, 1e-4, 1e-8, 1e-10])
def test_gram_angle_matches_spectral_norm(sine):
    rng = np.random.default_rng(int(-np.log10(sine)))
    k, n = 6, 400
    for _ in range(5):
        basis = np.linalg.qr(rng.standard_normal((n, 2 * k)))[0].T
        prev, away = basis[:k], basis[k:]
        # tilt each row of prev towards the complement; the largest tilt is
        # the largest principal angle
        sines = sine * rng.uniform(0.1, 1.0, k)
        sines[rng.integers(k)] = sine
        cur = np.sqrt(1.0 - sines**2)[:, None] * prev + sines[:, None] * away
        cur = np.linalg.qr(rng.standard_normal((k, k)))[0] @ cur  # another basis
        spectral = np.linalg.norm(cur - (cur @ prev.T) @ prev, 2)
        assert sin_largest_angle(cur, prev) == pytest.approx(spectral, rel=1e-6)
        assert sin_largest_angle(cur, prev) == pytest.approx(sine, rel=1e-4)


def _affine_contraction(seed, n=50, radius=0.95):
    """A symmetric M of spectral radius ``radius``, a c, and the fixed point of x -> Mx + c."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigenvalues = rng.uniform(-radius, radius, n)
    eigenvalues[0] = radius
    m = (q * eigenvalues) @ q.T
    c = rng.standard_normal(n)
    return m, c, np.linalg.solve(np.eye(n) - m, c)


def test_fixed_point_solves_an_affine_contraction():
    m, c, exact = _affine_contraction(41)
    ctrl = IterationControl()
    x, it, converged, residual = _fixed_point(lambda x: m @ x + c, np.zeros(50), 0, ctrl)
    assert converged and residual < ctrl.tol
    # ||M||_2 = 0.95, so a residual below tol puts x within tol / (1 - 0.95)
    assert np.linalg.norm(x - exact) < ctrl.tol / (1 - 0.95)
    plain, y = 0, np.zeros(50)
    while True:
        plain += 1
        y, last = m @ y + c, y
        if np.abs(y - last).sum() < ctrl.tol:
            break
    assert it < plain / 2


def test_a_jump_in_the_residual_clears_the_anderson_history():
    # the sixth evaluation jumps, so its residual grows more than tenfold.
    # With the history cleared the next point is that evaluation's output
    # itself; with any history left it would be mixed
    m, c, exact = _affine_contraction(43)
    calls = []

    def step(x):
        y = m @ x + c + (1e3 if len(calls) == 5 else 0.0)
        calls.append((x, y))
        return y

    ctrl = IterationControl()
    x, _, converged, _ = _fixed_point(step, np.zeros(50), 0, ctrl)
    residuals = [np.abs(out - point).sum() for point, out in calls]
    assert residuals[5] > 10 * residuals[4]
    mixed = [not np.array_equal(point, out) for (_, out), (point, _) in zip(calls, calls[1:])]
    assert mixed[:8] == [False, True, True, True, True, False, True, True]
    assert converged and np.linalg.norm(x - exact) < ctrl.tol / (1 - 0.95)


def test_a_singular_anderson_solve_clears_the_history():
    # a constant step makes every residual difference zero, so the Gram
    # system of the mixing step is singular at every evaluation: the loop
    # must clear its history and go on with the plain step, not raise
    x, it, converged, residual = _fixed_point(
        lambda x: x + 1.0, np.zeros(3), 0, IterationControl(max_iter=5)
    )
    assert (it, converged, residual) == (5, False, 3.0)
    assert np.array_equal(x, np.full(3, 5.0))


def test_iteration_control_validation():
    with pytest.raises(ValueError):
        IterationControl(tol=0.0)
    with pytest.raises(ValueError):
        IterationControl(max_iter=0)


def test_non_convergence_is_reported():
    g, _ = generate(BpamParams(300, 4, 0.3, 0.5), seed=12)
    res = pagerank(g, ctrl=IterationControl(tol=1e-14, max_iter=3))
    assert not res.converged
    assert res.iterations_used == 3
    assert res.residual > 1e-14


def test_a_single_sweep_reports_an_infinite_residual(forced_cold):
    # one map evaluation measures no change, so no residual: 0.0 would read
    # as exact. A cold Ritz solve capped at one product stops after its
    # first basis fill, whose Ritz pairs do have a residual: it reports that
    # finite residual, above tol, and does not converge
    g = _bpam_1000(1)
    one = IterationControl(max_iter=1)
    for res in (subspace_hits(g, 3, ctrl=one), hits(g, one)):
        assert not res.converged and one.tol < res.residual < np.inf
    res = randomized_hits(g, ctrl=one)
    assert not res.converged and res.residual == np.inf


def test_max_iter_caps_a_cold_solve(forced_cold):
    # a cold solve counts the block run's products with A^T A, and stops
    # before a restart that would take it past max_iter. Its first basis
    # fill always runs, so it takes at most max(max_iter, m + b), here
    # m + b = 20 + 8 at k = 6. At the default cap it converges with the
    # count test_solver_iteration_counts_are_pinned pins
    g = _bpam_1000(1)
    capped = subspace_hits(g, 6, ctrl=IterationControl(max_iter=100))
    assert not capped.converged and 0 < capped.iterations_used <= max(100, 20 + 8)
    res = subspace_hits(g, 6)
    assert res.converged and res.iterations_used == 228
    assert hashlib.sha256(res.order.tobytes()).hexdigest() == ORDER_SHA256[1]


# SHA-256 over the scores and (iterations, converged, residual) of pagerank,
# hits and randomized_hits on one n=1000 BPAM graph, at three stopping rules
POWER_ITERATION_SHA256 = {
    1000: "e2d7a7c9b409bbda210ad8e1a73f580d44f0b9a0747fb79baf1422ab6455ac87",
    1: "da33398e560963aeea99b528e1bca4b924b54567163fae429887c4d2ffb067f1",
    2: "f2f31eb67adf2dd2e02ffa1beb5cebbd59952ef4c9c1ee79539c1eeb874ae8b9",
}


@pytest.mark.parametrize("max_iter", [1000, 1, 2])
def test_power_iteration_outputs_are_pinned(max_iter):
    g = _bpam_1000(1)
    ctrl = IterationControl(max_iter=max_iter)
    h = hashlib.sha256()
    for res in (pagerank(g, ctrl=ctrl), hits(g, ctrl), randomized_hits(g, ctrl=ctrl)):
        h.update(res.scores.tobytes())
        h.update(repr((res.iterations_used, res.converged, res.residual)).encode())
    assert h.hexdigest() == POWER_ITERATION_SHA256[max_iter]
