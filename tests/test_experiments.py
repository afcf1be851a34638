"""Replica orchestration, CSV schemas, and manifest bookkeeping."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

import oracles
from fairank.bpam import BpamParams, generate
from fairank.experiments import (
    ExperimentConfig,
    ccdf_csv,
    compute_ranking,
    ranking_csv,
    run_curves,
    run_generate,
    run_rank,
    sweep,
)
from fairank.fairness import minority_share_curve
from fairank.graph import Color, GraphError, from_edge_list, hri, minority_fraction
from fairank.io import write_color_file, write_edge_list
from fairank.rankers import degree_rank, hits

B, R = Color.B, Color.R


def small_config(tmp_path, **overrides):
    base = dict(
        n_nodes=60, outdeg=3, minority_ratio=0.3,
        homophily=0.5, reps=3, base_seed=7, algos=("degree", "hits"),
        grid_points=12, out_dir=str(tmp_path),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="reps"):
        ExperimentConfig(reps=0)
    with pytest.raises(ValueError, match="threads"):
        ExperimentConfig(threads=0)
    with pytest.raises(ValueError, match="unknown algorithm"):
        ExperimentConfig(algos=("degree", "mystery"))
    with pytest.raises(ValueError, match="algos names no algorithm"):
        ExperimentConfig(algos=())
    # the rankers' own choices are checked before a run creates out_dir
    with pytest.raises(ValueError, match="weight must be one of"):
        ExperimentConfig(weight="bogus")
    with pytest.raises(ValueError, match="degree_which"):
        ExperimentConfig(degree_which="out")
    # the stopping rule and the generator parameters are checked up front
    with pytest.raises(ValueError, match="tol"):
        ExperimentConfig(tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        ExperimentConfig(max_iter=0)
    with pytest.raises(ValueError, match="n_nodes"):
        ExperimentConfig(n_nodes=1)
    # a loaded graph has no generator parameters to check
    assert ExperimentConfig(edge_file="e.tsv", color_file="c.tsv", n_nodes=1).reps == 1
    for one_file in ({"edge_file": "e.tsv"}, {"color_file": "c.tsv"}):
        with pytest.raises(ValueError, match="must be given together"):
            ExperimentConfig(**one_file)
    # the graph source follows from the files, so it is not an argument
    with pytest.raises(TypeError, match="mode"):
        ExperimentConfig(mode="real")


def test_config_checks_k_against_the_nodes_it_ranks():
    # only the eigenspace ranker reads k, and a loaded graph's size is unknown
    assert ExperimentConfig(n_nodes=5, algos=("degree",)).k == 6
    assert ExperimentConfig(n_nodes=6, algos=("subspace",)).k == 6
    with pytest.raises(ValueError, match="k must not exceed n_nodes"):
        ExperimentConfig(n_nodes=5, algos=("subspace",))
    assert ExperimentConfig(edge_file="e.tsv", color_file="c.tsv", k=50,
                            algos=("subspace",)).k == 50


def test_config_derives_graph_source_and_replica_count_from_files():
    assert ExperimentConfig().mode == "synthetic"
    assert ExperimentConfig().reps == 100
    real = ExperimentConfig(edge_file="e.tsv", color_file="c.tsv", reps=5)
    assert (real.mode, real.reps) == ("real", 1)
    assert dataclasses.asdict(real)["mode"] == "real"  # manifests keep the key
    assert dataclasses.replace(real, k=2).mode == "real"


def test_file_pair_alone_makes_run_real_rank_the_files(tmp_path):
    # a graph no BPAM replica of the config could be: 5 nodes, 3 edges
    g = from_edge_list([(0, 1), (2, 1), (3, 4)], [R, B, B, R, B])
    write_edge_list(tmp_path / "e.tsv", g)
    write_color_file(tmp_path / "c.tsv", g)
    config = ExperimentConfig(edge_file=str(tmp_path / "e.tsv"),
                              color_file=str(tmp_path / "c.tsv"),
                              algos=("degree",), out_dir=str(tmp_path))
    curves, manifest, _ = run_curves(config)
    summary = (tmp_path / "summary.csv").read_text().split("\n")
    assert summary[1:3] == ["nodes,5", "edges,3"]
    assert curves["degree"].baseline == 0.4
    assert manifest["seeds"] == [] and manifest["config"]["reps"] == 1


def test_config_derived_objects():
    config = ExperimentConfig(n_nodes=50, outdeg=2, tol=1e-6, max_iter=77, base_seed=40)
    assert config.bpam_params() == BpamParams(50, 2, 0.3, 0.5)
    assert config.ctrl().tol == 1e-6 and config.ctrl().max_iter == 77
    assert config.replica_seed(3) == 43


def test_compute_ranking_dispatch():
    g, _ = generate(BpamParams(80, 3, 0.3, 0.5), seed=1)
    config = ExperimentConfig(n_nodes=80, outdeg=3)
    seen = {
        algo: compute_ranking(g, algo, config).algorithm
        for algo in ("degree", "pagerank", "hits", "rhits", "subspace")
    }
    assert seen == {
        "degree": "degree",
        "pagerank": "pagerank",
        "hits": "hits_authority",
        "rhits": "randomized_hits_authority",
        "subspace": "subspace_hits",
    }
    with pytest.raises(ValueError, match="unknown algorithm"):
        compute_ranking(g, "mystery", config)


def test_averaged_ccdf_hand_value():
    g1 = from_edge_list([(0, 1)], [B, R])
    g2 = from_edge_list([(0, 1), (1, 0)], [B, R])
    ks, ccdf = oracles.averaged_ccdf([g1, g2], R, "total")
    assert ks.tolist() == [0, 1, 2]
    assert ccdf == pytest.approx([1.0, 1.0, 0.5])
    with pytest.raises(GraphError, match="missing"):
        oracles.averaged_ccdf([from_edge_list([(0, 1)], [B, B])], R)


def test_ccdf_csv_groups_colors():
    per_color = {
        B: (np.array([0, 1]), np.array([1.0, 0.25])),
        R: (np.array([0]), np.array([1.0])),
    }
    lines = ccdf_csv(per_color).strip().split("\n")
    assert lines[0] == "color,k,ccdf"
    assert lines[1:] == ["B,0,1.0", "B,1,0.25", "R,0,1.0"]


def test_ranking_csv_orders_rows():
    g = from_edge_list([(0, 2), (1, 2), (2, 1)], [B, R, B])
    result = compute_ranking(g, "degree", ExperimentConfig())
    lines = ranking_csv(result).strip().split("\n")
    assert lines[0] == "node,score,rank"
    assert lines[1].split(",") == ["2", "3.0", "1"]
    labeled = ranking_csv(result, labels=["x", "y", "z"]).strip().split("\n")
    assert labeled[1].startswith("z,")


def test_run_synthetic_outputs(tmp_path):
    config = small_config(tmp_path)
    averaged, manifest, all_converged = run_curves(config)
    assert set(averaged) == {"degree", "hits"}
    assert all_converged

    curves = (tmp_path / "curves.csv").read_text().strip().split("\n")
    assert curves[0] == "algo,x,share,baseline"
    assert len(curves) == 1 + 2 * config.grid_points

    stats = (tmp_path / "stats.csv").read_text().strip().split("\n")
    assert stats[0] == "replica,seed,alpha_hat,rejection_count,n_red,n_blue"
    assert len(stats) == 1 + config.reps
    assert [row.split(",")[1] for row in stats[1:]] == ["7", "8", "9"]

    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest == payload
    assert payload["command"] == "curve"
    assert payload["seeds"] == [7, 8, 9]
    assert payload["config"]["n_nodes"] == 60
    for name, digest in payload["file_hashes"].items():
        actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert actual == digest


def test_run_synthetic_svg(tmp_path):
    run_curves(small_config(tmp_path, svg=True))
    svg = (tmp_path / "curves.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "degree" in svg and "hits" in svg  # legend entries
    assert "stroke-dasharray" in svg  # the dashed baseline rule


def test_thread_fanout_is_bit_identical(tmp_path):
    one = tmp_path / "one"
    two = tmp_path / "two"
    run_curves(small_config(one, threads=1))
    run_curves(small_config(two, threads=2))
    assert (one / "curves.csv").read_bytes() == (two / "curves.csv").read_bytes()
    assert (one / "stats.csv").read_bytes() == (two / "stats.csv").read_bytes()


def test_run_generate_outputs(tmp_path):
    config = small_config(tmp_path, reps=2)
    run_generate(config)
    for name in ("edges_0000.tsv", "colors_0000.tsv", "edges_0001.tsv",
                 "colors_0001.tsv", "stats.csv", "manifest.json"):
        assert (tmp_path / name).exists()
    edges = (tmp_path / "edges_0000.tsv").read_text().strip().split("\n")
    assert len(edges) == 1 + (config.n_nodes - 2) * config.outdeg
    assert edges[0] == "0\t1"


@pytest.mark.parametrize("from_files", [False, True])
def test_run_curves_writes_the_outputs_of_its_graph_source(from_files, tmp_path):
    out = tmp_path / "out"
    config = small_config(out, reps=2)
    if from_files:
        g, _ = generate(config.bpam_params(), seed=1)
        write_edge_list(tmp_path / "e.tsv", g)
        write_color_file(tmp_path / "c.tsv", g)
        config = small_config(out, edge_file=str(tmp_path / "e.tsv"),
                              color_file=str(tmp_path / "c.tsv"))
    _, manifest, _ = run_curves(config)
    own = {"summary.csv", "ccdf.csv", "node_mapping.tsv"} if from_files else {"stats.csv"}
    assert set(os.listdir(out)) == {"curves.csv", "manifest.json", *own}
    assert set(manifest["file_hashes"]) == {"curves.csv", *own}
    assert manifest["command"] == ("real" if from_files else "curve")


def test_run_generate_rejects_a_file_pair_before_writing(tmp_path):
    g = from_edge_list([(0, 1), (1, 0)], [B, R])
    write_edge_list(tmp_path / "e.tsv", g)
    write_color_file(tmp_path / "c.tsv", g)
    config = small_config(tmp_path / "out", edge_file=str(tmp_path / "e.tsv"),
                          color_file=str(tmp_path / "c.tsv"))
    with pytest.raises(ValueError, match="file pair"):
        run_generate(config)
    assert not (tmp_path / "out").exists()


def test_run_real_summary_matches_graph(tmp_path):
    g, _ = generate(BpamParams(120, 4, 0.3, 0.4), seed=3)
    write_edge_list(tmp_path / "e.tsv", g)
    write_color_file(tmp_path / "c.tsv", g)
    config = small_config(
        tmp_path,
        edge_file=str(tmp_path / "e.tsv"), color_file=str(tmp_path / "c.tsv"),
    )
    curves, manifest, _ = run_curves(config)
    rows = dict(
        line.split(",")
        for line in (tmp_path / "summary.csv").read_text().strip().split("\n")[1:]
    )
    assert rows["nodes"] == "120"
    assert rows["edges"] == str(g.n_edges)
    assert float(rows["minority_fraction"]) == minority_fraction(g)
    assert float(rows["hri"]) == pytest.approx(hri(g))
    assert (tmp_path / "ccdf.csv").exists()
    mapping = (tmp_path / "node_mapping.tsv").read_text().strip().split("\n")
    assert len(mapping) == 120 and mapping[0] == "0\t0"
    assert curves["degree"].baseline == minority_fraction(g)


def test_run_real_two_clique_toy_hits_buries_minority(tmp_path):
    # Two disjoint 15-node near-cliques.  The red-heavy clique keeps its red
    # nodes at full degree (ties resolve by ascending id, putting them on top
    # of the degree ranking) but is missing a few blue-blue edges, so the
    # all-blue clique carries the larger eigenvalue and all the HITS mass.
    removed = {(9, 10), (10, 9), (11, 12), (12, 11), (13, 14), (14, 13)}
    edges = [
        (i, j)
        for i in range(15) for j in range(15)
        if i != j and (i, j) not in removed
    ]
    edges += [(i, j) for i in range(15, 30) for j in range(15, 30) if i != j]
    colors = [R] * 9 + [B] * 21
    g = from_edge_list(edges, colors)
    write_edge_list(tmp_path / "e.tsv", g)
    write_color_file(tmp_path / "c.tsv", g)
    config = small_config(
        tmp_path, algos=("degree", "hits"),
        edge_file=str(tmp_path / "e.tsv"), color_file=str(tmp_path / "c.tsv"),
    )
    curves, _, _ = run_curves(config)
    exact = minority_share_curve(
        degree_rank(g).order, g.colors, [0.2]
    ).share[0]
    assert exact == 1.0
    assert minority_share_curve(hits(g).order, g.colors, [0.2]).share[0] == 0.0
    head = curves["degree"].grid <= 0.2
    assert head.any()
    assert np.all(curves["hits"].share[head] < curves["degree"].share[head])


def test_run_real_rejects_single_color(tmp_path):
    g = from_edge_list([(0, 1), (1, 0)], [B, B])
    write_edge_list(tmp_path / "e.tsv", g)
    write_color_file(tmp_path / "c.tsv", g)
    config = small_config(
        tmp_path,
        edge_file=str(tmp_path / "e.tsv"), color_file=str(tmp_path / "c.tsv"),
    )
    with pytest.raises(GraphError, match="single color"):
        run_curves(config)


def test_sweep_k_reranks_subspace(tmp_path):
    config = small_config(tmp_path, reps=2)
    text, manifest, _ = sweep(config, "k", [1, 2])
    lines = text.strip().split("\n")
    assert lines[0] == "axis,value,algo,x,share,baseline"
    values = {row.split(",")[1] for row in lines[1:]}
    assert values == {"1", "2"}  # integer formatting, not 1.0
    assert all(row.split(",")[2] == "subspace" for row in lines[1:])
    assert (tmp_path / "sweep.csv").read_text() == text


def _solve_sizes(solver_calls):
    """The k of every Ritz solve so far: its block holds k + 2 rows."""
    return [len(theta) - 2 for theta, *_ in solver_calls["_ritz_topk"]]


@pytest.mark.parametrize("run", [run_rank, run_curves])
def test_hits_and_subspace_share_one_solve_per_replica(run, tmp_path, solver_calls):
    config = small_config(tmp_path, algos=("hits", "degree", "subspace"), k=4)
    run(config)
    assert _solve_sizes(solver_calls) == [4] * (1 if run is run_rank else config.reps)


def test_hits_without_subspace_solves_at_k1(tmp_path, solver_calls):
    run_curves(small_config(tmp_path))
    assert _solve_sizes(solver_calls) == [1, 1, 1]


@pytest.mark.parametrize("run, algos", [
    (run_generate, ("degree", "hits")),
    (run_curves, ("degree", "pagerank")),
])
def test_a_run_without_a_spectral_ranker_makes_no_solve(run, algos, tmp_path, solver_calls):
    # the shared solve is made up front, so only a run that ranks with HITS
    # or subspace HITS may make it
    run(small_config(tmp_path, algos=algos))
    assert _solve_sizes(solver_calls) == []


def test_sweep_k_solves_each_graph_once_and_records_what_ran(tmp_path, solver_calls):
    _, manifest, _ = sweep(small_config(tmp_path, reps=2), "k", [1, 2, 4])
    assert _solve_sizes(solver_calls) == [4, 4]
    # the manifest records the ranker that ran and the k of its one solve
    assert (manifest["config"]["algos"], manifest["config"]["k"]) == (["subspace"], 4)


def test_sweep_rho_regenerates(tmp_path):
    config = small_config(tmp_path, reps=2, algos=("degree",))
    text, manifest, _ = sweep(config, "rho", [0.2, 0.8])
    values = {row.split(",")[1] for row in text.strip().split("\n")[1:]}
    assert values == {"0.2", "0.8"}
    # two values x two replicas -> four generator seeds recorded
    assert len(manifest["seeds"]) == 4


def test_sweep_validation(tmp_path):
    config = small_config(tmp_path)
    with pytest.raises(ValueError, match="axis"):
        sweep(config, "outdeg", [1])
    with pytest.raises(ValueError, match="empty sweep"):
        sweep(config, "k", [])
    with pytest.raises(ValueError, match="whole numbers"):
        sweep(config, "k", [2, 3.7])
    real = small_config(tmp_path, edge_file="e.tsv", color_file="c.tsv")
    with pytest.raises(ValueError, match="needs synthetic mode"):
        sweep(real, "rho", [0.5])
