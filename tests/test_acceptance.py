"""End-to-end acceptance gate: each test prints one PASS/FAIL verdict line."""

import json
import time

import numpy as np
import pytest

import oracles
from conftest import BASE_SEED
from fairank.cli import main
from fairank.fairness import minority_share_curve
from fairank.graph import Color, from_edge_list, tail_exponent_fit
from fairank.meanfield import (
    attachment_probs,
    empirical_mf_ratio,
    exponents,
    mf_ratio,
    q_matrix,
    solve_alpha,
    verify_propositions,
)
from fairank.rankers import (
    IterationControl,
    degree_rank,
    hits,
    hits_trace,
    pagerank,
    randomized_hits,
    subspace_hits,
)

B, R = Color.B, Color.R

# replica-mean HITS share at the top decile, memoized per parameter point
_hits_share_cache: dict = {}


@pytest.fixture
def verdict(capsys):
    """Print a live verdict line even while pytest captures stdout."""

    def _report(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")

    return _report


def _mean_hits_share(batch_cache, r: float, rho: float, x: float = 0.1):
    """Replica means of (HITS-authority minority share at x, baseline)."""
    key = (r, rho, x)
    if key not in _hits_share_cache:
        batch = batch_cache(r=r, rho=rho)
        shares, bases = [], []
        for g in batch.graphs:
            auth = hits(g)
            curve = minority_share_curve(auth.order, g.colors, [x])
            shares.append(curve.share[0])
            bases.append(curve.baseline)
        _hits_share_cache[key] = (float(np.mean(shares)), float(np.mean(bases)))
    return _hits_share_cache[key]


def test_criterion_1_top_decile_underrepresentation(batch_cache, verdict):
    """100 BPAM replicas (N=1000, d=6, r=0.3, rho=0.1): the replica-mean
    minority share among the top 10% of HITS authorities stays below 0.20
    against a 0.30 population baseline, in under two minutes."""
    t0 = time.perf_counter()
    share, baseline = _mean_hits_share(batch_cache, 0.3, 0.1)
    elapsed = time.perf_counter() - t0
    ok = share < 0.20 and elapsed < 120.0
    verdict(
        1,
        ok,
        f"mean top-10% HITS share {share:.4f} < 0.20 "
        f"(baseline {baseline:.3f}), {elapsed:.1f}s < 120s",
    )
    assert ok


def test_criterion_2_homophily_ordering(batch_cache, verdict):
    """The replica-mean HITS share at x=0.1 is monotonically non-decreasing
    across rho in {0.1, 0.3, 0.5} at r=0.3 (100 replicas each)."""
    means = [_mean_hits_share(batch_cache, 0.3, rho)[0] for rho in (0.1, 0.3, 0.5)]
    ok = means[0] <= means[1] <= means[2]
    verdict(2, ok, "shares " + " <= ".join(f"{m:.4f}" for m in means))
    assert ok, means


def test_criterion_3_fair_boundaries(batch_cache, verdict):
    """At r=0.5 (rho=0.5) and rho=1 (r=0.3), the replica-mean degree,
    PageRank, and HITS share curves all stay within +-0.05 of the baseline
    for every x >= 0.1."""
    grid = np.linspace(0.1, 1.0, 10)
    worst = 0.0
    for r, rho in ((0.5, 0.5), (0.3, 1.0)):
        batch = batch_cache(r=r, rho=rho)
        sums = {algo: np.zeros(grid.size) for algo in ("degree", "pagerank", "hits")}
        base_sum = 0.0
        for g in batch.graphs:
            orders = {
                "degree": degree_rank(g).order,
                "pagerank": pagerank(g).order,
                "hits": hits(g).order,
            }
            for algo, order in orders.items():
                curve = minority_share_curve(order, g.colors, grid)
                sums[algo] += curve.share
            base_sum += minority_fraction_of(g)
        base = base_sum / len(batch.graphs)
        for algo in sums:
            dev = float(np.max(np.abs(sums[algo] / len(batch.graphs) - base)))
            worst = max(worst, dev)
    ok = worst <= 0.05
    verdict(3, ok, f"max |mean share - mean baseline| = {worst:.4f} <= 0.05")
    assert ok


def minority_fraction_of(g) -> float:
    return float((g.colors == int(R)).mean())


def test_criterion_4_meanfield_grid(verdict):
    """On the 10x19 (r, rho) grid the full proposition suite passes and the
    analytic quantities obey: probability rows sum to 1 within 1e-12,
    alpha <= r, K_B > 1/2 > K_R, beta_R > 3 > beta_B > 2, 2*K_B - 1 < K_R
    (strict for r < 0.5; exact-collapse equalities at the symmetric r=0.5
    edge), and the ratio F is strictly increasing in rho with F(1) = 1 —
    all in under a second."""
    t0 = time.perf_counter()
    rs = [round(0.05 * i, 2) for i in range(1, 11)]
    rhos = [round(0.05 * i, 2) for i in range(1, 20)]
    worst_row = 0.0
    failures = []
    for r in rs:
        f_prev = -np.inf
        for rho in rhos:
            alpha = solve_alpha(r, rho)
            p_out, p_in = attachment_probs(alpha, rho, r)
            q = q_matrix(p_out, p_in)
            for mat in (p_out, p_in, q):
                worst_row = max(
                    worst_row, float(np.max(np.abs(mat.sum(axis=1) - 1.0)))
                )
            suite = verify_propositions(r, rho)
            failures += [
                f"r={r} rho={rho}: {name}"
                for name, check in suite.items()
                if not check.passed
            ]
            k_b, k_r, beta_b, beta_r = exponents(r, rho)
            f = mf_ratio(r, rho)
            if r < 0.5:
                checks = {
                    "alpha<r": alpha < r,
                    "K_B>1/2": k_b > 0.5,
                    "K_R<1/2": k_r < 0.5,
                    "beta_R>3": beta_r > 3.0,
                    "3>beta_B": 3.0 > beta_b,
                    "beta_B>2": beta_b > 2.0,
                    "2K_B-1<K_R": 2.0 * k_b - 1.0 < k_r,
                }
            else:
                # symmetric edge of the grid: both colors provably share
                # K = 1/2 and beta = 3, so the orderings become equalities
                checks = {
                    "alpha==r": alpha == r,
                    "K_B==1/2": abs(k_b - 0.5) <= 1e-12,
                    "K_R==1/2": abs(k_r - 0.5) <= 1e-12,
                    "beta_B==3": abs(beta_b - 3.0) <= 1e-12,
                    "beta_R==3": abs(beta_r - 3.0) <= 1e-12,
                }
            checks["F increasing"] = f > f_prev
            failures += [f"r={r} rho={rho}: {k}" for k, v in checks.items() if not v]
            f_prev = f
        if mf_ratio(r, 1.0) != 1.0:
            failures.append(f"r={r}: F(1) != 1")
        if not f_prev < 1.0:
            failures.append(f"r={r}: F(0.95) not below 1")
    elapsed = time.perf_counter() - t0
    ok = not failures and worst_row <= 1e-12 and elapsed < 1.0
    verdict(
        4,
        ok,
        f"{len(rs) * len(rhos)} grid points, worst row-sum error "
        f"{worst_row:.2e} <= 1e-12, {elapsed * 1000:.0f}ms < 1s"
        + (f"; failures: {failures[:3]}" if failures else ""),
    )
    assert ok, failures[:10]


def test_criterion_5_spectral_oracles(verdict):
    """On 50 small random digraphs (n <= 12) with non-degenerate spectra,
    HITS authorities match the dense principal eigenvector of A^T A to
    cosine >= 1 - 1e-8, subspace scores (both weightings, k=3) match a
    dense eigendecomposition to relative error <= 1e-8, and PageRank
    matches a dense linear solve to L-infinity <= 1e-9."""
    k = 3
    tight = IterationControl(tol=1e-13, max_iter=20000)
    sub_ctrl = IterationControl(tol=1e-10, max_iter=20000)
    rng = np.random.default_rng(BASE_SEED)
    worst_cos_deficit = 0.0
    worst_sub = 0.0
    worst_pr = 0.0
    accepted = 0
    draws = 0
    while accepted < 50:
        n, edges = oracles.random_digraph(rng)
        draws += 1
        w, principal, _ = oracles.dense_authority_eig(edges, n)
        # eigenvector comparisons are only well defined away from ties:
        # redraw graphs whose top or k-th spectral gap (per the dense
        # oracle) is under 1%, or whose k-th eigenvalue vanishes
        if w[0] <= 1e-8 or w[1] / w[0] > 0.99:
            continue
        if w[k - 1] <= 1e-8 * w[0] or w[k] / w[k - 1] > 0.99:
            continue
        accepted += 1
        colors = [B] * n
        colors[0] = R
        g = from_edge_list(edges, colors)

        auth = hits(g, tight)
        cos = float(
            abs(np.dot(auth.scores, principal))
            / (np.linalg.norm(auth.scores) * np.linalg.norm(principal))
        )
        worst_cos_deficit = max(worst_cos_deficit, 1.0 - cos)

        for weight in ("unit", "lambda_sq"):
            res = subspace_hits(g, k, weight, sub_ctrl)
            assert res.converged and not res.degenerate
            oracle = oracles.dense_subspace_scores(edges, n, k, weight)
            rel = float(
                np.max(np.abs(res.scores - oracle)) / np.max(np.abs(oracle))
            )
            worst_sub = max(worst_sub, rel)

        pr = pagerank(g, 0.85, tight)
        dense = oracles.dense_pagerank(edges, n, 0.85)
        worst_pr = max(worst_pr, float(np.max(np.abs(pr.scores - dense))))
    ok = worst_cos_deficit <= 1e-8 and worst_sub <= 1e-8 and worst_pr <= 1e-9
    verdict(
        5,
        ok,
        f"50/{draws} graphs: cosine deficit {worst_cos_deficit:.1e} <= 1e-8, "
        f"subspace rel err {worst_sub:.1e} <= 1e-8, "
        f"pagerank Linf {worst_pr:.1e} <= 1e-9",
    )
    assert ok


def test_criterion_6_trace_bridge(batch_cache, verdict):
    """The unnormalized authority trace starts at the indegree vector
    exactly, its third iterate equals brute-force alternating walk counts
    on 20 random digraphs (n <= 8), and the empirical low-indegree
    authority ratio (t=3, cap 10, 100 replicas, r=0.3) is larger at
    rho=0.5 than at rho=0.1."""
    rng = np.random.default_rng(BASE_SEED + 6)
    exact = True
    for _ in range(20):
        n, edges = oracles.random_digraph(rng, n_range=(4, 8))
        colors = [B] * n
        colors[0] = R
        g = from_edge_list(edges, colors)
        exact = exact and np.array_equal(np.ldexp(*hits_trace(g, 1)), g.indeg.astype(float))
        exact = exact and np.array_equal(
            np.ldexp(*hits_trace(g, 3)), oracles.alternating_walk_counts(edges, n, 3)
        )
    ratios = {
        rho: float(
            np.mean(
                [
                    empirical_mf_ratio(g, t=3, indeg_cap=10)
                    for g in batch_cache(r=0.3, rho=rho).graphs
                ]
            )
        )
        for rho in (0.1, 0.5)
    }
    ok = exact and ratios[0.5] > ratios[0.1]
    verdict(
        6,
        ok,
        f"trace iterates exact: {exact}; empirical ratio "
        f"{ratios[0.1]:.4f} (rho=0.1) < {ratios[0.5]:.4f} (rho=0.5)",
    )
    assert ok, ratios


def test_criterion_7_randomized_hits_tracks_indegree(batch_cache, verdict):
    """Across 100 BPAM seeds (N=1000), the Spearman correlation between
    randomized-HITS authorities and indegree is at least 0.9 on every
    replica, and eps=1 yields exactly uniform scores."""
    batch = batch_cache(r=0.3, rho=0.5)
    lo = 1.0
    for g in batch.graphs:
        auth = randomized_hits(g)
        lo = min(lo, oracles.spearman(auth.scores, g.indeg.astype(float)))
    uniform = randomized_hits(batch.graphs[0], eps=1.0)
    flat = bool(np.all(uniform.scores == 1.0))
    ok = lo >= 0.9 and flat
    verdict(7, ok, f"min Spearman {lo:.4f} >= 0.9; eps=1 exactly uniform: {flat}")
    assert ok


def test_criterion_8_tail_exponents(batch_cache, verdict):
    """Analytic per-color exponents agree with tail fits on 100-replica
    averaged degree CCDFs at N=1000 within +-0.4, and the fitted red
    exponent exceeds the blue one for r=0.3, rho in {0.1, 0.3, 0.5}."""
    worst_dev = 0.0
    ordering = True
    for rho in (0.1, 0.3, 0.5):
        batch = batch_cache(r=0.3, rho=rho)
        _, _, beta_b, beta_r = exponents(0.3, rho)
        fits = {}
        for color, beta in ((B, beta_b), (R, beta_r)):
            ks, ccdf = oracles.averaged_ccdf(batch.graphs, color)
            n_color = float(
                np.mean([(g.colors == int(color)).sum() for g in batch.graphs])
            )
            # fit only the settled tail: skip the outdegree bump (k < 10)
            # and the noise floor where under ~5 nodes per replica remain
            keep = ccdf >= 5.0 / n_color
            fits[color] = tail_exponent_fit((ks[keep], ccdf[keep]), k_min=10)
            worst_dev = max(worst_dev, abs(fits[color] - beta))
        ordering = ordering and fits[R] > fits[B]
    ok = worst_dev <= 0.4 and ordering
    verdict(
        8,
        ok,
        f"max |fitted - analytic| = {worst_dev:.3f} <= 0.4; "
        f"fitted red > blue on all rho: {ordering}",
    )
    assert ok


def _compare_outputs(path_a, path_b):
    """Differences between two run outputs, ignoring wall-clock metadata."""
    diffs = []
    if path_a.is_dir():
        names_a = sorted(p.name for p in path_a.iterdir())
        names_b = sorted(p.name for p in path_b.iterdir())
        if names_a != names_b:
            return [f"file sets differ: {names_a} vs {names_b}"]
        for name in names_a:
            bytes_a = (path_a / name).read_bytes()
            bytes_b = (path_b / name).read_bytes()
            if name == "manifest.json":
                doc_a = json.loads(bytes_a)
                doc_b = json.loads(bytes_b)
                for doc in (doc_a, doc_b):
                    doc.pop("wall_clock_sec", None)
                    doc["config"].pop("out_dir", None)
                if doc_a != doc_b:
                    diffs.append(name)
            elif bytes_a != bytes_b:
                diffs.append(name)
    elif path_a.read_bytes() != path_b.read_bytes():
        diffs.append(path_a.name)
    return diffs


def test_criterion_9_determinism(tmp_path, verdict):
    """Running every subcommand twice with the same config, seed, and
    --threads 1 yields byte-identical outputs (manifests compared modulo
    wall-clock and output-directory metadata)."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    code = main(
        ["generate", "--out-dir", str(inputs), "--nodes", "60", "--outdeg", "3",
         "--reps", "1", "--seed", "11", "--threads", "1"]
    )
    assert code == 0
    edges = str(inputs / "edges_0000.tsv")
    colors = str(inputs / "colors_0000.tsv")

    synth = ["--nodes", "60", "--outdeg", "3", "--seed", "11", "--threads", "1"]
    subcommands = {
        "generate": lambda d: ["generate", "--out-dir", str(d), "--reps", "2"] + synth,
        "rank": lambda d: ["rank", "--algo", "pagerank",
                           "--out", str(d / "ranking.csv")] + synth,
        "curve": lambda d: ["curve", "--out-dir", str(d), "--reps", "3",
                            "--grid-points", "12", "--svg"] + synth,
        "real": lambda d: ["real", "--edges", edges, "--colors", colors,
                           "--out-dir", str(d), "--grid-points", "12",
                           "--threads", "1"],
        "meanfield": lambda d: ["meanfield", "--grid", "--out", str(d / "mf.csv")],
        "verify": lambda d: ["verify", "--r", "0.3", "--rho", "0.4",
                             "--out", str(d / "checks.csv")],
        "sweep": lambda d: ["sweep", "--axis", "k", "--values", "1,2",
                            "--out-dir", str(d), "--reps", "2",
                            "--grid-points", "12"] + synth,
    }
    diffs = []
    for name, argv_of in subcommands.items():
        runs = []
        for tag in ("a", "b"):
            d = tmp_path / f"{name}_{tag}"
            d.mkdir()
            assert main(argv_of(d)) == 0, name
            produced = sorted(d.iterdir())
            runs.append(d if len(produced) != 1 else produced[0])
        diffs += [f"{name}/{item}" for item in _compare_outputs(*runs)]
    ok = not diffs
    verdict(
        9,
        ok,
        f"{len(subcommands)} subcommands byte-identical across reruns"
        + (f"; diffs: {diffs}" if diffs else ""),
    )
    assert ok, diffs
