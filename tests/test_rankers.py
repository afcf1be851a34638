"""Ranking algorithm tests against dense linear-algebra oracles."""

import numpy as np
import pytest

import oracles
from fairank.bpam import BpamParams, generate
from fairank.graph import Color, GraphError, from_edge_list
from fairank.rankers import (
    IterationControl,
    _orthonormal_rows,
    _sin_largest_angle,
    degree_rank,
    hits,
    hits_trace,
    pagerank,
    randomized_hits,
    rank_order,
    subspace_hits,
)

TIGHT = IterationControl(tol=1e-13, max_iter=5000)


def _graph(edges, n):
    colors = np.zeros(n, dtype=np.uint8)
    colors[: max(1, n // 3)] = int(Color.R)
    return from_edge_list(edges, colors)


def _random_graph(rng, **kwargs):
    n, edges = oracles.random_digraph(rng, **kwargs)
    return _graph(edges, n), edges, n


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


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
    auth, hub = hits(g, ctrl=TIGHT)
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
        auth, hub = hits(g, ctrl=TIGHT)
        assert cosine(auth.scores, top) > 1 - 1e-10
        assert not auth.degenerate
        # hubs solve the mirrored problem on the reversed edges
        _, hub_top, _ = oracles.dense_authority_eig([(v, u) for u, v in edges], n)
        assert cosine(hub.scores, hub_top) > 1 - 1e-10
        done += 1


def test_hits_flags_tied_leading_eigenvalue():
    # two disjoint 2-cycles make the top eigenvalue a double root
    g = _graph([(0, 1), (1, 0), (2, 3), (3, 2)], 4)
    auth, hub = hits(g)
    assert auth.degenerate and hub.degenerate


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
        lambda gg: hits(gg, ctrl=TIGHT)[0].scores,
        lambda gg: randomized_hits(gg, ctrl=TIGHT)[0].scores,
        lambda gg: degree_rank(gg).scores,
    ):
        base = run(g)
        permuted = run(g_p)
        assert permuted[perm] == pytest.approx(base, abs=1e-9)


# -- unnormalized authority trace ----------------------------------------------

def test_trace_starts_at_indegree():
    g, _ = generate(BpamParams(200, 4, 0.3, 0.5), seed=4)
    trace = hits_trace(g, 3)
    assert np.array_equal(trace.vectors[0], g.indeg.astype(float))
    assert trace.log2_scales[0] == 0


def test_trace_counts_alternating_walks():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n, edges = oracles.random_digraph(rng, n_range=(4, 8))
        g = _graph(edges, n)
        trace = hits_trace(g, 3)
        for t in (1, 2, 3):
            counts = oracles.alternating_walk_counts(edges, n, t)
            assert np.array_equal(trace.iterate(t), counts)


def test_trace_rescales_instead_of_overflowing():
    # star: iterates scale by 4 each step, overflowing float64 near t ~ 500
    g = _graph([(i, 0) for i in range(1, 5)], 5)
    trace = hits_trace(g, 700)
    assert all(np.all(np.isfinite(v)) for v in trace.vectors)
    assert trace.log2_scales[-1] > 0
    v = trace.vectors[-1]
    assert v[0] > 0 and np.all(v[1:] == 0)
    # the center-to-leaf iterate ratio stays 4 across a rescale boundary
    assert trace.iterate(2)[0] / trace.iterate(1)[0] == pytest.approx(4.0)


def test_trace_requires_positive_depth():
    g = _graph([(0, 1)], 2)
    with pytest.raises(ValueError):
        hits_trace(g, 0)


# -- randomized variant ---------------------------------------------------------

def test_randomized_hits_full_restart_is_flat():
    g, _ = generate(BpamParams(100, 3, 0.3, 0.5), seed=6)
    auth, hub = randomized_hits(g, eps=1.0)
    assert np.all(auth.scores == 1.0)
    assert np.all(hub.scores == 1.0)


def test_randomized_hits_matches_dense_solve():
    rng = np.random.default_rng(53)
    for _ in range(8):
        g, edges, n = _random_graph(rng)
        auth, hub = randomized_hits(g, eps=0.15, ctrl=TIGHT)
        a_exp, h_exp = oracles.dense_randomized_hits(edges, n, 0.15)
        assert np.max(np.abs(auth.scores - a_exp)) < 1e-10
        assert np.max(np.abs(hub.scores - h_exp)) < 1e-10


def test_randomized_hits_tracks_indegree_on_generated_graphs():
    g, _ = generate(BpamParams(1000, 6, 0.3, 0.3), seed=8)
    auth, _ = randomized_hits(g)
    assert oracles.spearman(auth.scores, g.indeg) > 0.98


def test_randomized_hits_eps_validation():
    g = _graph([(0, 1)], 2)
    for eps in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="eps"):
            randomized_hits(g, eps=eps)


# -- eigenspace ranker ----------------------------------------------------------

def test_subspace_k1_orders_like_the_principal_vector():
    g, _ = generate(BpamParams(500, 5, 0.3, 0.4), seed=10)
    auth, _ = hits(g, ctrl=TIGHT)
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


def test_subspace_on_rank_deficient_graph_matches_dense_oracle():
    # columns 7 and 8 repeat columns 5 and 6, so A^T A has numeric rank 3,
    # below the k + 2 rows of the solver's block
    edges = [(0, 5), (1, 5), (2, 5), (1, 6), (2, 6), (3, 6),
             (0, 7), (1, 7), (2, 7), (1, 8), (2, 8), (3, 8), (0, 9), (3, 9)]
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


@pytest.mark.parametrize("seed, sweeps, hits_iterations", [
    (1, 105, 31), (2, 139, 69), (3, 61, 55), (11, 78, 53),
])
def test_solver_iteration_counts_are_pinned(seed, sweeps, hits_iterations):
    # the counts Householder QR and an n x k SVD angle gave: a cheaper sweep
    # must not change how many sweeps run
    g, _ = generate(BpamParams(1000, 6, 0.3, 0.1), seed=seed)
    assert subspace_hits(g, 6).iterations_used == sweeps
    auth, hub = hits(g)
    assert auth.iterations_used == hub.iterations_used == hits_iterations


# -- eigen-solver building blocks -----------------------------------------------

@pytest.fixture
def qr_calls(monkeypatch):
    """Shapes of every Householder QR call made while the test runs."""
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(a.shape) or qr(a))
    return calls


def test_orthonormal_rows_of_full_rank_block(qr_calls):
    rng = np.random.default_rng(71)
    # nearly collinear rows, condition number 1e6: one Cholesky-QR pass
    # alone would lose about 1e-4 of orthogonality here
    mix = np.linalg.qr(rng.standard_normal((8, 8)))[0] * np.logspace(0, -6, 8)
    z = mix @ np.linalg.qr(rng.standard_normal((2000, 8)))[0].T
    qr_calls.clear()
    q = _orthonormal_rows(z)
    assert qr_calls == []
    assert np.max(np.abs(q @ q.T - np.eye(8))) < 1e-12
    # same row space: projecting z onto the rows of q reproduces it
    assert np.max(np.abs(z - (z @ q.T) @ q)) < 1e-12 * np.max(np.abs(z))


def test_orthonormal_rows_fall_back_on_rank_deficient_block(qr_calls):
    rng = np.random.default_rng(73)
    z = rng.standard_normal((6, 300))
    z[5] = z[0] - 2.0 * z[3]
    q = _orthonormal_rows(z)
    assert qr_calls == [(300, 6)]
    assert np.all(np.isfinite(q))
    assert np.max(np.abs(q @ q.T - np.eye(6))) < 1e-12
    assert np.max(np.abs(z - (z @ q.T) @ q)) < 1e-12 * np.max(np.abs(z))


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
        assert _sin_largest_angle(cur, prev) == pytest.approx(spectral, rel=1e-6)
        assert _sin_largest_angle(cur, prev) == pytest.approx(sine, rel=1e-4)


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
