"""Generator tests: determinism, degree bookkeeping, color mixing."""

import numpy as np
import pytest

import oracles
from fairank.bpam import BpamParams, generate
from fairank.graph import Color, hri, minority_fraction
from fairank.meanfield import solve_alpha

from conftest import BASE_SEED


def test_same_seed_reproduces_graph():
    params = BpamParams(300, 5, 0.3, 0.4)
    g1, s1 = generate(params, seed=11)
    g2, s2 = generate(params, seed=11)
    assert np.array_equal(g1.src, g2.src)
    assert np.array_equal(g1.dst, g2.dst)
    assert np.array_equal(g1.colors, g2.colors)
    assert s1 == s2
    g3, _ = generate(params, seed=12)
    assert not np.array_equal(g1.colors, g3.colors) or not np.array_equal(
        g1.dst, g3.dst
    )


def test_seed_pair_and_arrival_outdegrees():
    g, _ = generate(BpamParams(50, 3, 0.3, 0.5), seed=2)
    assert g.colors[0] == Color.R and g.colors[1] == Color.B
    assert (g.src[0], g.dst[0]) == (0, 1)
    assert g.n_edges == 1 + 48 * 3
    # seed nodes emit nothing beyond the seed edge; every arrival emits outdeg
    assert g.outdeg[0] == 1 and g.outdeg[1] == 0
    assert np.all(g.outdeg[2:] == 3)
    assert not np.any(g.src == g.dst)  # no self-loops


def test_two_node_graph_is_just_the_seed():
    g, stats = generate(BpamParams(2, 4, 0.3, 0.5), seed=0)
    assert g.n == 2 and g.n_edges == 1
    assert stats.n_red == 1 and stats.n_blue == 1
    assert stats.alpha_hat == pytest.approx(1 / (2 * 2 * 4))  # red endpoint deg 1


def test_alpha_hat_normalization_and_counts():
    g, stats = generate(BpamParams(200, 4, 0.3, 0.5), seed=9)
    red = g.colors == Color.R
    red_degree = int((g.indeg + g.outdeg)[red].sum())
    assert stats.alpha_hat == pytest.approx(red_degree / (2 * 200 * 4))
    assert stats.n_red == int(red.sum())
    assert stats.n_red + stats.n_blue == 200
    assert stats.seed == 9


def test_homophily_zero_blocks_cross_edges():
    g, stats = generate(BpamParams(400, 3, 0.3, 0.0), seed=3)
    cross = np.count_nonzero(g.colors[g.src] != g.colors[g.dst])
    assert cross == 1  # only the seed edge
    assert stats.rejection_count > 0


def test_homophily_one_is_color_blind():
    g, stats = generate(BpamParams(2000, 6, 0.3, 1.0), seed=BASE_SEED)
    assert stats.rejection_count == 0
    cross = np.count_nonzero(g.colors[g.src] != g.colors[g.dst]) / g.n_edges
    # random-coloring expectation 2 r (1 - r) = 0.42; frozen seed gives .4214
    assert cross == pytest.approx(0.42, abs=0.02)


def test_edge_targets_follow_exact_law():
    # With d = 1, arrival u draws its one target v with probability
    # proportional to deg(v) * w(v): deg counts the endpoints of the earlier
    # edges, and w is 1 for u's color and rho otherwise, since a rejected
    # cross-color draw restarts. Checked per (u, v) over many seeds.
    n, rho, reps = 6, 0.25, 3000
    expected = np.zeros((n, n))
    variance = np.zeros((n, n))
    observed = np.zeros((n, n))
    same_color_seed = 0
    for seed in range(reps):
        g, _ = generate(BpamParams(n, 1, 0.3, rho), seed=seed)
        for u in range(2, n):
            earlier = np.concatenate([g.src[: u - 1], g.dst[: u - 1]])
            weight = np.bincount(earlier, minlength=n) * np.where(
                g.colors == g.colors[u], 1.0, rho
            )
            p = weight / weight.sum()
            expected[u] += p
            variance[u] += p * (1 - p)
            observed[u, g.dst[u - 1]] += 1
        same_color_seed += int(g.colors[g.dst[1]] == g.colors[2])
    assert np.all(np.abs(observed - expected) <= 4 * np.sqrt(variance) + 1e-9)
    # the third node's edge hits the same-color seed with probability 1/(1+rho)
    p_same = 1 / (1 + rho)
    assert abs(same_color_seed - reps * p_same) <= 4 * np.sqrt(reps * p_same * (1 - p_same))


def test_parameter_validation():
    with pytest.raises(ValueError, match="n_nodes"):
        BpamParams(1, 3, 0.3, 0.5)
    with pytest.raises(ValueError, match="outdeg"):
        BpamParams(10, 0, 0.3, 0.5)
    with pytest.raises(ValueError, match="minority_ratio"):
        BpamParams(10, 3, 1.2, 0.5)
    with pytest.raises(ValueError, match="homophily"):
        BpamParams(10, 3, 0.3, -0.1)
    with pytest.warns(UserWarning, match="not a minority"):
        BpamParams(10, 3, 0.7, 0.5)


def test_minority_fraction_tracks_arrival_rate():
    g, _ = generate(BpamParams(1000, 6, 0.3, 0.3), seed=BASE_SEED)
    # binomial 4-sigma band around r = 0.3 at n = 1000
    assert minority_fraction(g) == pytest.approx(0.3, abs=0.06)


def test_mean_red_share_stays_below_arrival_rate(batch_cache):
    batch = batch_cache(r=0.3, rho=0.3)
    mean_alpha = float(np.mean([st.alpha_hat for st in batch.stats]))
    assert mean_alpha < 0.28  # strictly under r = 0.3
    # and near the self-consistent limit value, allowing finite-size bias
    assert mean_alpha == pytest.approx(solve_alpha(0.3, 0.3), abs=0.015)


def test_hri_increases_with_homophily_acceptance():
    means = []
    for rho in (0.1, 0.5, 1.0):
        vals = [
            hri(generate(BpamParams(400, 4, 0.3, rho), seed=BASE_SEED + i)[0])
            for i in range(20)
        ]
        means.append(float(np.mean(vals)))
    assert means[1] - means[0] > 0.3
    assert means[2] - means[1] > 0.2
    assert means[2] == pytest.approx(1.0, abs=0.15)  # color-blind limit


def test_rejections_follow_acceptance_rate():
    lo = generate(BpamParams(500, 6, 0.3, 0.1), seed=1)[1].rejection_count
    hi = generate(BpamParams(500, 6, 0.3, 0.9), seed=1)[1].rejection_count
    assert lo > hi > 0
