"""Generator tests: determinism, degree bookkeeping, color mixing."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

import fairank.bpam
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
    # random-coloring expectation 2 r (1 - r) = 0.42; frozen seed gives .4065
    assert cross == pytest.approx(0.42, abs=0.02)


def test_edge_targets_follow_exact_law():
    # Edge e from arrival u draws its target v with probability proportional
    # to deg(v) * w(v) over v != u: deg counts every endpoint of the edges
    # before e, the arrival's own earlier edges too, and w is 1 for u's color
    # and rho otherwise, since a rejected cross-color draw restarts. Checked
    # per (e, v) over many seeds, with one edge per arrival and with two, so
    # that a later edge must see the earlier one and skip u
    rho, reps = 0.25, 3000
    for n, d in ((6, 1), (5, 2)):
        m = 1 + (n - 2) * d
        expected = np.zeros((m, n))
        variance = np.zeros((m, n))
        observed = np.zeros((m, n))
        same_color_seed = 0
        for seed in range(reps):
            g, _ = generate(BpamParams(n, d, 0.3, rho), seed=seed)
            for e in range(1, m):
                u = g.src[e]
                earlier = np.concatenate([g.src[:e], g.dst[:e]])
                weight = np.bincount(earlier, minlength=n) * np.where(
                    g.colors == g.colors[u], 1.0, rho
                )
                weight[u] = 0.0
                p = weight / weight.sum()
                expected[e] += p
                variance[e] += p * (1 - p)
                observed[e, g.dst[e]] += 1
            same_color_seed += int(g.colors[g.dst[1]] == g.colors[2])
        assert np.all(np.abs(observed - expected) <= 4 * np.sqrt(variance) + 1e-9), d
        # the third node's first edge hits the same-color seed with
        # probability 1/(1+rho)
        p_same = 1 / (1 + rho)
        assert abs(same_color_seed - reps * p_same) <= 4 * np.sqrt(
            reps * p_same * (1 - p_same)
        ), d


def _replica_statistics(make, seeds):
    """Per replica: alpha_hat, rejections per edge, and the in-degree CCDF of
    each color at k = 1, 2, 4, ..., 32."""
    ks = 2 ** np.arange(6)
    rows = []
    for seed in seeds:
        g, stats = make(seed)
        red = g.colors == Color.R
        ccdf = [np.mean(g.indeg[mask][:, None] >= ks, axis=0) for mask in (red, ~red)]
        rows.append([stats.alpha_hat, stats.rejection_count / g.n_edges, *np.concatenate(ccdf)])
    return np.array(rows)


def test_generator_matches_the_sequential_oracle_across_replicas():
    # the rounds must give the sequential growth process's law, not only its
    # per-edge marginals: two samples of independent replicas, disjoint
    # seeds, compared statistic by statistic
    params = BpamParams(400, 4, 0.3, 0.2)
    reps = 150
    ours = _replica_statistics(lambda s: generate(params, seed=s),
                               range(BASE_SEED, BASE_SEED + reps))
    theirs = _replica_statistics(lambda s: oracles.sequential_bpam(params, s),
                                 range(BASE_SEED + reps, BASE_SEED + 2 * reps))
    for col in range(2):  # alpha_hat and rejections per edge, whole distribution
        assert ks_2samp(ours[:, col], theirs[:, col]).pvalue > 1e-3, col
    se = np.sqrt((ours.var(axis=0, ddof=1) + theirs.var(axis=0, ddof=1)) / reps)
    diff = np.abs(ours.mean(axis=0) - theirs.mean(axis=0))
    assert np.all(diff <= 4 * se + 1e-12), diff / np.maximum(se, 1e-12)


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


def _graph_sha256(g, stats):
    h = hashlib.sha256()
    for arr in (g.src, g.dst, g.colors):
        h.update(arr.tobytes())
    h.update(repr(stats).encode())
    return h.hexdigest()


# SHA-256 of src, dst, colors and repr(stats) from the sequential generator
# the package used before its targets resolved in rounds. Each case draws
# past the first block of uniforms (8,192 draws): about 17.3k and 16.8k for
# the two n=1000 seeds, 20.5k at rho = 0 (every cross-colour target still
# spends an acceptance draw) and 10.5k at rho = 1
@pytest.mark.parametrize("n, d, rho, seed, digest", [
    (1000, 6, 0.1, 1, "886b59d601b62c32e0a32848c787fe48fe2ba2881c0bb3924e0f08678bb38e90"),
    (1000, 6, 0.1, 2, "667336d376468cbb5f1fba61e71398a324ac694bac01a1c5152fa33b0769055d"),
    (2000, 3, 0.0, 1, "a717a0e5f2f97cd79b179aeca4495cfd9fb8365ef7279efc77c858b5fbfdf4e9"),
    (2000, 3, 1.0, 1, "bc97399f5e5ca5be431cabcf40ccdfaabb999774accb91c2012c46d73dbe0602"),
])
def test_generator_output_is_pinned_across_uniform_blocks(n, d, rho, seed, digest):
    g, stats = oracles.sequential_bpam(BpamParams(n, d, 0.3, rho), seed=seed)
    assert _graph_sha256(g, stats) == digest


# the same cases from the round-based generator; it draws in another order,
# so its graphs differ from the sequential ones for the same seed
@pytest.mark.parametrize("n, d, rho, seed, digest", [
    (1000, 6, 0.1, 1, "e43fe3169a1699c06f19b326c2b5ec15e9757084818e9ceffa9c09597e86f48a"),
    (1000, 6, 0.1, 2, "a4f791bf61f7c8a65d4369a48b470d47c19a3a30e401513707d37e6a956edfac"),
    (2000, 3, 0.0, 1, "66b82f86a07ee27faf355f3a7c5f4c1fbe94372c420315557583af44652d4e94"),
    (2000, 3, 1.0, 1, "832aef5f5ac48e1f7dc873ce034571f6b1e97e2bf3d5c3c27285b3ab6c8400df"),
])
def test_generator_output_is_pinned(n, d, rho, seed, digest):
    g, stats = generate(BpamParams(n, d, 0.3, rho), seed=seed)
    assert _graph_sha256(g, stats) == digest


def test_generate_peak_memory_per_edge():
    # int32 rounds over a window of pending edges, and one int64 edge array
    # at the end; the sequential generator's list of Python ints peaked at
    # ~62 bytes per edge. A small run first makes the one-time allocations,
    # so the peak does not depend on which tests ran before
    generate(BpamParams(100, 3, 0.3, 0.1), seed=1)
    tracemalloc.start()
    try:
        g, _ = generate(BpamParams(20_000, 6, 0.3, 0.1), seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.n_edges <= 56


def test_rejection_cap_raises(monkeypatch):
    # a streak counts rejected cross-color draws and self-loop redraws alike
    monkeypatch.setattr(fairank.bpam, "MAX_CONSECUTIVE_REJECTIONS", 3)
    message = "edge draw exceeded the rejection cap; homophily filter cannot be satisfied"
    with pytest.raises(RuntimeError, match=message):
        generate(BpamParams(200, 3, 0.3, 0.0), seed=1)
    monkeypatch.setattr(fairank.bpam, "MAX_CONSECUTIVE_REJECTIONS", 1)
    with pytest.raises(RuntimeError, match=message):
        generate(BpamParams(200, 6, 0.3, 1.0), seed=1)
