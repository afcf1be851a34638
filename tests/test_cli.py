"""Command-line behavior: exit codes, schemas, config files, determinism."""

import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fairank.experiments
from fairank import cli
from fairank.bpam import BpamParams, generate
from fairank.cli import main
from fairank.experiments import ExperimentConfig, compute_ranking
from fairank.fairness import curve_compare, log_grid, minority_share_curve
from fairank.io import load_graph, write_color_file, write_edge_list
from fairank.meanfield import mf_ratio
from fairank.rankers import degree_rank, rank_order

from conftest import BASE_SEED


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def dataset(tmp_path):
    g, _ = generate(BpamParams(120, 4, 0.3, 0.4), seed=3)
    edges = tmp_path / "edges.tsv"
    colors = tmp_path / "colors.tsv"
    write_edge_list(edges, g)
    write_color_file(colors, g)
    return str(edges), str(colors)


# -- usage errors -----------------------------------------------------------------

def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 1
    assert "subcommand is required" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("transmogrify")
    assert exc.value.code == 1


def test_bad_flag_value_exits_one():
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--nodes", "many")
    assert exc.value.code == 1


def test_missing_input_file_exits_two(tmp_path, capsys):
    code = run_cli(
        "real", "--edges", str(tmp_path / "nope.tsv"),
        "--colors", str(tmp_path / "nope2.tsv"), "--out-dir", str(tmp_path),
    )
    assert code == 2
    assert "fairank real: error:" in capsys.readouterr().err


def test_bad_color_value_reports_location(tmp_path, capsys):
    (tmp_path / "e.tsv").write_text("a\tb\n")
    (tmp_path / "c.tsv").write_text("a\tR\nb\tX\n")
    code = run_cli(
        "real", "--edges", str(tmp_path / "e.tsv"),
        "--colors", str(tmp_path / "c.tsv"), "--out-dir", str(tmp_path),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "c.tsv:2" in err and "unknown color 'X'" in err


def test_rank_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "e.tsv").write_bytes(b"a\tb\nb\ta\n\xffa\tb\n")
    (tmp_path / "c.tsv").write_text("a\tR\nb\tB\n")
    code = run_cli("rank", "--edges", str(tmp_path / "e.tsv"),
                   "--colors", str(tmp_path / "c.tsv"), "--algo", "degree")
    assert code == 2
    assert "e.tsv:3: not UTF-8" in capsys.readouterr().err


def test_rank_needs_both_files(tmp_path, capsys):
    (tmp_path / "e.tsv").write_text("0\t1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("rank", "--edges", str(tmp_path / "e.tsv"))
    assert exc.value.code == 1
    assert "given together" in capsys.readouterr().err


def test_zero_threads_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--nodes", "40", "--threads", "0")
    assert exc.value.code == 1
    assert "threads must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["curve", "--tol", "0"], "tol must be positive"),
    (["curve", "--max-iter", "0"], "max_iter must be at least 1"),
    (["curve", "--reps", "0"], "reps must be at least 1"),
    (["generate", "--nodes", "1"], "n_nodes must be at least 2"),
    (["curve", "--eta", "1"], "eta must lie in [0, 1)"),
    (["curve", "--eps", "0"], "eps must lie in (0, 1]"),
    (["curve", "--k", "0"], "k must be at least 1"),
    (["curve", "--nodes", "5", "--algos", "subspace"], "k must not exceed n_nodes"),
    (["curve", "--grid-points", "1"], "grid_points must be at least 2"),
    (["curve", "--seed", "-1"], "base_seed must be non-negative"),
    (["curve", "--tie-shuffle", "-1"], "tie_shuffle_seed must be non-negative"),
    (["curve", "--algos", "degree", "degree"], "algos names an algorithm twice"),
    (["sweep", "--axis", "rho", "--values", "0.5,2"], "homophily must lie in [0, 1]"),
    (["sweep", "--axis", "k", "--values", "0"], "k must be at least 1"),
    (["sweep", "--axis", "k", "--values", "2,7", "--nodes", "6"], "k must not exceed n_nodes"),
    (["meanfield", "--r", "2", "--rho", "0.1"], "r must lie in [0, 1]"),
    (["verify", "--r", "0.3", "--rho", "1.5"], "rho must lie in [0, 1]"),
])
def test_invalid_run_setting_exits_one_before_any_output(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    out_flag = "--out" if argv[0] in ("meanfield", "verify") else "--out-dir"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, out_flag, str(out))
    assert exc.value.code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, output", [
    ("rank", ["--algo", "degree", "--out", "ranking.csv"]),
    ("real", ["--algos", "degree", "--out-dir", "real"]),
])
def test_one_graph_commands_accept_only_one_thread(command, output, dataset, tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    edges, colors = dataset
    argv = [command, "--edges", edges, "--colors", colors, *output]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--threads", "2")
    assert exc.value.code == 1
    assert "only 1 is accepted" in capsys.readouterr().err
    assert run_cli(*argv, "--threads", "1") == 0


# -- generate ----------------------------------------------------------------------

def test_generate_writes_replicas(tmp_path):
    code = run_cli(
        "generate", "--nodes", "40", "--outdeg", "2", "--reps", "2",
        "--seed", "5", "--out-dir", str(tmp_path),
    )
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        "edges_0000.tsv", "colors_0000.tsv", "edges_0001.tsv",
        "colors_0001.tsv", "stats.csv", "manifest.json",
    }
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seeds"] == [5, 6]


def test_generate_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(
            "generate", "--nodes", "50", "--outdeg", "3", "--reps", "2",
            "--seed", "9", "--out-dir", str(out), "--threads", "1",
        ) == 0
    for name in ("edges_0000.tsv", "colors_0001.tsv", "stats.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# -- rank --------------------------------------------------------------------------

def test_rank_synthetic_to_stdout(capsys):
    code = run_cli("rank", "--nodes", "60", "--outdeg", "3", "--seed", "2",
                   "--algo", "degree")
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "node,score,rank"
    assert len(lines) == 61
    first_score = float(lines[1].split(",")[1])
    second_score = float(lines[2].split(",")[1])
    assert first_score >= second_score
    assert [row.split(",")[2] for row in lines[1:4]] == ["1", "2", "3"]


def test_rank_real_uses_labels(dataset, tmp_path, capsys):
    edges, colors = dataset
    out = tmp_path / "ranks.csv"
    code = run_cli("rank", "--edges", edges, "--colors", colors,
                   "--algo", "pagerank", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "node,score,rank"
    assert len(lines) == 121
    scores = [float(r.split(",")[1]) for r in lines[1:]]
    assert abs(sum(scores) - 1.0) < 1e-9
    assert scores == sorted(scores, reverse=True)


def test_rank_quotes_labels_that_hold_a_comma_or_quote(tmp_path):
    (tmp_path / "e.tsv").write_text('a,b\td"e\nplain\ta,b\n')
    (tmp_path / "c.tsv").write_text('a,b\tR\nd"e\tB\nplain\tB\n')
    out = tmp_path / "ranks.csv"
    assert run_cli("rank", "--edges", str(tmp_path / "e.tsv"), "--colors",
                   str(tmp_path / "c.tsv"), "--algo", "degree", "--out", str(out)) == 0
    text = out.read_text()
    assert '\n"a,b",' in text and '\n"d""e",' in text and "\nplain," in text
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node", "score", "rank"]
    assert all(len(row) == 3 for row in rows)
    assert [row[0] for row in rows[1:]] == ["a,b", 'd"e', "plain"]


def test_rank_strict_nonconvergence_exits_three(capsys):
    code = run_cli(
        "rank", "--nodes", "80", "--outdeg", "3", "--seed", "2",
        "--algo", "pagerank", "--max-iter", "1", "--tol", "1e-15", "--strict",
    )
    assert code == 3
    assert "did not converge" in capsys.readouterr().err


# -- curve -------------------------------------------------------------------------

def test_curve_outputs_and_svg(tmp_path):
    code = run_cli(
        "curve", "--nodes", "60", "--outdeg", "3", "--reps", "2", "--seed", "4",
        "--algos", "degree", "hits", "--grid-points", "10",
        "--out-dir", str(tmp_path), "--svg",
    )
    assert code == 0
    curves = (tmp_path / "curves.csv").read_text().strip().split("\n")
    assert curves[0] == "algo,x,share,baseline"
    assert len(curves) == 1 + 2 * 10
    assert (tmp_path / "curves.svg").exists()
    assert (tmp_path / "stats.csv").exists()


def _modules_loaded_by(argv) -> set:
    """The modules that a fresh process holds once ``fairank <argv>`` has
    exited 0; ``argv`` must send every output to files."""
    code = (f"import sys; from fairank.cli import main; assert main({argv!r}) == 0; "
            "print(*sorted(sys.modules))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    return set(result.stdout.split())


def test_a_curve_run_loads_no_scipy(tmp_path):
    # the runtime is NumPy-only, the eigensolver included; SciPy is a
    # test-side oracle, and this process has loaded it already
    argv = ["curve", "--nodes", "200", "--reps", "2", "--algos", "hits", "subspace",
            "--strict", "--out-dir", str(tmp_path)]
    assert [name for name in _modules_loaded_by(argv)
            if name.partition(".")[0] == "scipy"] == []


@pytest.mark.parametrize("argv", [
    ["curve", "--nodes", "100", "--reps", "2", "--threads", "1"],
    ["generate", "--nodes", "100", "--reps", "2"],
], ids=["curve", "generate"])
def test_a_one_process_graph_command_loads_no_pool_and_no_mean_field(argv, tmp_path):
    # the worker pool and the mean field load on first use, so a run that
    # calls neither does not pay for them at start-up
    loaded = _modules_loaded_by([*argv, "--out-dir", str(tmp_path)])
    assert sorted(name for name in loaded
                  if name.partition(".")[0] in ("concurrent", "multiprocessing")
                  or name == "fairank.meanfield") == []


def test_verify_loads_the_mean_field(tmp_path):
    argv = ["verify", "--r", "0.3", "--rho", "0.4", "--out", str(tmp_path / "checks.csv")]
    assert "fairank.meanfield" in _modules_loaded_by(argv)


def test_a_pool_run_loads_the_pool_and_writes_the_one_process_bytes(tmp_path):
    argv = ["curve", "--nodes", "100", "--reps", "2"]
    pool, one = tmp_path / "pool", tmp_path / "one"
    assert "concurrent.futures.process" in _modules_loaded_by(
        [*argv, "--threads", "2", "--out-dir", str(pool)])
    assert run_cli(*argv, "--threads", "1", "--out-dir", str(one)) == 0
    for name in ("curves.csv", "stats.csv"):
        assert (pool / name).read_bytes() == (one / name).read_bytes()


def test_curve_weight_flag_maps_to_internal_name(tmp_path):
    code = run_cli(
        "curve", "--nodes", "50", "--outdeg", "2", "--reps", "1", "--seed", "4",
        "--algos", "subspace", "--k", "2", "--weight", "lambda2",
        "--grid-points", "8", "--out-dir", str(tmp_path),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["weight"] == "lambda_sq"


# -- real --------------------------------------------------------------------------

def test_real_end_to_end(dataset, tmp_path):
    edges, colors = dataset
    out = tmp_path / "analysis"
    code = run_cli(
        "real", "--edges", edges, "--colors", colors,
        "--algos", "degree", "hits", "rhits", "--out-dir", str(out),
    )
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "curves.csv", "summary.csv", "ccdf.csv", "node_mapping.tsv",
        "manifest.json",
    }
    rows = (out / "curves.csv").read_text().strip().split("\n")[1:]
    shares = [float(r.split(",")[2]) for r in rows]
    assert all(0.0 <= s <= 1.0 for s in shares)


def test_real_on_generated_files_reproduces_the_curve_run(tmp_path):
    # the file path (write, read, relabel) must rank the generated graph to
    # the same bytes as the in-memory run of the same seed
    graph = ["--nodes", "60", "--outdeg", "3", "--reps", "1", "--seed", "11"]
    algos = ["--algos", "degree", "pagerank", "hits", "rhits", "subspace", "--strict"]
    files = tmp_path / "files"
    assert run_cli("generate", *graph, "--out-dir", str(files)) == 0
    assert run_cli("real", "--edges", str(files / "edges_0000.tsv"),
                   "--colors", str(files / "colors_0000.tsv"), *algos,
                   "--out-dir", str(tmp_path / "real")) == 0
    assert run_cli("curve", *graph, *algos, "--out-dir", str(tmp_path / "curve")) == 0
    curves = (tmp_path / "real" / "curves.csv").read_bytes()
    assert curves == (tmp_path / "curve" / "curves.csv").read_bytes()


def test_real_homophilic_graph_underranks_minority(tmp_path):
    # strongly homophilic generated graph: mutual-reinforcement scores leave
    # the red class underrepresented near the top of the ranking
    g, _ = generate(BpamParams(400, 6, 0.3, 0.1), seed=BASE_SEED)
    write_edge_list(tmp_path / "e.tsv", g)
    write_color_file(tmp_path / "c.tsv", g)
    out = tmp_path / "run"
    code = run_cli(
        "real", "--edges", str(tmp_path / "e.tsv"),
        "--colors", str(tmp_path / "c.tsv"),
        "--algos", "hits", "--out-dir", str(out),
    )
    assert code == 0
    rows = [r.split(",") for r in
            (out / "curves.csv").read_text().strip().split("\n")[1:]]
    xs = np.array([float(r[1]) for r in rows])
    shares = np.array([float(r[2]) for r in rows])
    baseline = float(rows[0][3])
    near_tenth = int(np.argmin(np.abs(xs - 0.1)))
    assert shares[near_tenth] < baseline - 0.05


# -- meanfield / verify ---------------------------------------------------------------

def test_meanfield_single_point(capsys):
    code = run_cli("meanfield", "--r", "0.3", "--rho", "0.4")
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "r,rho,alpha,K_B,K_R,beta_B,beta_R,q_BB,q_RB,q_BR,q_RR,F"
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), (float(v) for v in lines[1].split(","))))
    assert row["F"] == mf_ratio(0.3, 0.4)
    assert row["alpha"] < row["r"]
    assert row["q_BB"] + row["q_BR"] == pytest.approx(1.0)


def test_meanfield_reports_an_undefined_ratio_as_nan(capsys):
    assert run_cli("meanfield", "--r", "1", "--rho", "0.5") == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert dict(zip(header.split(","), row.split(",")))["F"] == "nan"


@pytest.mark.parametrize("r", ["0", "1"])
def test_meanfield_undefined_attachment_is_a_data_error(r, capsys):
    # at rho = 0 with r in {0, 1} one colour's sources accept no mass
    assert run_cli("meanfield", "--r", r, "--rho", "0") == 2
    assert "undefined probability" in capsys.readouterr().err


def test_meanfield_grid_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("meanfield", "--grid", "--out", str(out1)) == 0
    assert run_cli("meanfield", "--grid", "--out", str(out2)) == 0
    text = out1.read_text()
    assert text == out2.read_text()
    assert len(text.strip().split("\n")) == 1 + 10 * 19


def test_meanfield_needs_point_or_grid(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("meanfield")
    assert exc.value.code == 1
    assert "--grid" in capsys.readouterr().err


def test_verify_single_point(capsys):
    code = run_cli("verify", "--r", "0.3", "--rho", "0.4")
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "r,rho,check,mode,passed,margin"
    assert all(row.split(",")[4] == "true" for row in lines[1:])
    assert "checks passed" in captured.err


def test_verify_grid_summary(tmp_path, capsys):
    out = tmp_path / "v.csv"
    assert run_cli("verify", "--grid", "--out", str(out)) == 0
    err = capsys.readouterr().err
    # every check passes across the default grid: "N/N checks passed"
    passed, total = err.split(":")[1].strip().split()[0].split("/")
    assert passed == total


# -- sweep -------------------------------------------------------------------------

def test_sweep_k_axis(tmp_path):
    code = run_cli(
        "sweep", "--axis", "k", "--values", "1,2", "--nodes", "50",
        "--outdeg", "2", "--reps", "2", "--seed", "3", "--grid-points", "8",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "axis,value,algo,x,share,baseline"
    assert {r.split(",")[1] for r in rows[1:]} == {"1", "2"}


def test_sweep_k_rejects_algos_other_than_subspace(tmp_path, capsys):
    base = ["sweep", "--axis", "k", "--values", "1,2", "--nodes", "50",
            "--outdeg", "2", "--reps", "1", "--grid-points", "8"]
    out = tmp_path / "mixed"
    with pytest.raises(SystemExit) as exc:
        run_cli(*base, "--algos", "subspace", "hits", "--out-dir", str(out))
    assert exc.value.code == 1
    assert "--axis k ranks only subspace" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()
    out = tmp_path / "subspace"
    assert run_cli(*base, "--algos", "subspace", "--out-dir", str(out)) == 0
    assert {r.split(",")[2] for r in (out / "sweep.csv").read_text().split()[1:]} == {"subspace"}


def test_sweep_rho_requires_synthetic(dataset, tmp_path, capsys):
    edges, colors = dataset
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "sweep", "--axis", "rho", "--values", "0.2,0.8",
            "--edges", edges, "--colors", colors, "--out-dir", str(tmp_path),
        )
    assert exc.value.code == 1
    assert "synthetic" in capsys.readouterr().err


def test_sweep_empty_values(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--axis", "k", "--values", ",,", "--out-dir", str(tmp_path))
    assert exc.value.code == 1


@pytest.mark.parametrize("axis, values", [("k", "1,x"), ("k", "1.5"), ("rho", "0.1,x")])
def test_sweep_values_that_do_not_parse_exit_one(axis, values, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--axis", axis, "--values", values, "--nodes", "50",
                "--out-dir", str(out))
    assert exc.value.code == 1
    assert f"--axis {axis} takes comma-separated" in capsys.readouterr().err
    assert not out.exists()


# -- every accepted flag does what it says ------------------------------------------

@pytest.mark.parametrize("argv", [
    ["generate", "--nodes", "10", "--reps", "1", "--strict"],
    ["meanfield", "--grid", "--strict"],
    ["verify", "--r", "0.7", "--rho", "0.4", "--strict"],
    ["meanfield", "--grid", "--threads", "7"],
    ["verify", "--grid", "--threads", "2"],
    ["rank", "--nodes", "30", "--reps", "50"],
    ["rank", "--nodes", "30", "--out-dir", "elsewhere"],
    ["meanfield", "--grid", "--out-dir", "elsewhere"],
    ["verify", "--grid", "--out-dir", "elsewhere"],
    ["meanfield", "--grid", "--r", "0.3"],
    ["verify", "--grid", "--r", "0.3", "--rho", "0.4"],
])
def test_flag_a_subcommand_would_ignore_exits_one(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, config", [
    (["rank", "--nodes", "999", "--homophily", "0.9"], ""),
    (["rank", "--outdeg", "2"], ""),
    (["rank"], "minority_ratio = 0.2\n"),
    (["sweep", "--axis", "k", "--values", "1", "--reps", "7", "--nodes", "5"], ""),
    (["sweep", "--axis", "k", "--values", "1"], "reps = 7\n"),
])
def test_generator_flag_on_a_file_graph_exits_one(argv, config, dataset, tmp_path,
                                                  capsys):
    # these flags shape a generated graph and would do nothing to one read
    # from files; --seed stays, since it offsets the --tie-shuffle seed
    edges, colors = dataset
    argv = [*argv, "--edges", edges, "--colors", colors, "--seed", "3",
            "--out-dir" if argv[0] == "sweep" else "--out", str(tmp_path / "out")]
    if config:
        (tmp_path / "cfg").write_text(config)
        argv += ["--config", str(tmp_path / "cfg")]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 1
    assert "not used with --edges/--colors" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _ranked_nodes(text):
    return [int(row.split(",")[0]) for row in text.strip().split("\n")[1:]]


def test_rank_tie_shuffle_reorders_tied_degrees(capsys):
    argv = ["rank", "--nodes", "60", "--outdeg", "3", "--seed", "2", "--algo", "degree"]
    assert run_cli(*argv) == 0
    plain = capsys.readouterr().out
    assert run_cli(*argv, "--tie-shuffle", "4") == 0
    shuffled = capsys.readouterr().out
    scores = degree_rank(generate(BpamParams(60, 3, 0.3, 0.5), seed=2)[0]).scores
    # replica 0 of base seed 2: ties ordered by the permutation of seed 4 + 2
    assert _ranked_nodes(shuffled) == rank_order(scores, 6).tolist()
    assert _ranked_nodes(shuffled) != _ranked_nodes(plain)


def test_rank_tie_shuffle_on_files_uses_base_seed(dataset, capsys):
    edges, colors = dataset
    argv = ["rank", "--edges", edges, "--colors", colors, "--algo", "degree",
            "--seed", "5", "--tie-shuffle", "4"]
    assert run_cli(*argv) == 0
    labels = [int(label) for label in load_graph(edges, colors)[1]]
    scores = degree_rank(load_graph(edges, colors)[0]).scores
    expected = [labels[node] for node in rank_order(scores, 9).tolist()]
    assert _ranked_nodes(capsys.readouterr().out) == expected


def test_real_tie_shuffle_reorders_tied_degrees(dataset, tmp_path):
    edges, colors = dataset
    g, _ = load_graph(edges, colors)
    texts = []
    for tag, extra in (("plain", []), ("shuffled", ["--tie-shuffle", "4"])):
        out = tmp_path / tag
        assert run_cli("real", "--edges", edges, "--colors", colors,
                       "--algos", "degree", "--out-dir", str(out), *extra) == 0
        texts.append((out / "curves.csv").read_text())
    # a loaded graph is replica 0 of base seed 0
    order = rank_order(degree_rank(g).scores, 4)
    expected = curve_compare({"degree": minority_share_curve(order, g.colors, log_grid(g.n))})
    assert texts[1] == expected
    assert texts[1] != texts[0]


def test_real_sweep_tie_shuffle_reorders_ties(dataset, tmp_path):
    edges, colors = dataset
    g, _ = load_graph(edges, colors)
    texts = []
    for tag, extra in (("plain", []), ("shuffled", ["--tie-shuffle", "4"])):
        out = tmp_path / tag
        assert run_cli("sweep", "--axis", "k", "--values", "1,2", "--edges", edges,
                       "--colors", colors, "--out-dir", str(out), *extra) == 0
        texts.append((out / "sweep.csv").read_text().strip().split("\n"))
    grid = log_grid(g.n)
    expected = []
    for k in (1, 2):
        scores = compute_ranking(g, "subspace", ExperimentConfig(k=k)).scores
        curve = minority_share_curve(rank_order(scores, 4), g.colors, grid)
        expected += [f"k,{k},subspace,{x!r},{s!r},{curve.baseline!r}"
                     for x, s in zip(grid.tolist(), curve.share.tolist())]
    assert texts[1][1:] == expected
    assert texts[1] != texts[0]


def test_sweep_k_generates_each_replica_once(tmp_path, monkeypatch):
    calls = []
    original = fairank.experiments.generate

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fairank.experiments, "generate", counting)
    assert run_cli("sweep", "--axis", "k", "--values", "1,2,4", "--nodes", "40",
                   "--outdeg", "2", "--reps", "2", "--grid-points", "8",
                   "--threads", "1", "--out-dir", str(tmp_path)) == 0
    assert len(calls) == 2


def test_real_sweep_k_loads_the_files_once(dataset, tmp_path, monkeypatch):
    edges, colors = dataset
    calls = []
    original = fairank.experiments.load_graph

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fairank.experiments, "load_graph", counting)
    assert run_cli("sweep", "--axis", "k", "--values", "1,2,4", "--edges", edges,
                   "--colors", colors, "--grid-points", "8",
                   "--out-dir", str(tmp_path)) == 0
    assert len(calls) == 1


def test_real_sweep_k_records_one_replica(dataset, tmp_path):
    edges, colors = dataset
    assert run_cli("sweep", "--axis", "k", "--values", "1,2", "--edges", edges,
                   "--colors", colors, "--grid-points", "8",
                   "--out-dir", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["reps"] == 1
    assert manifest["config"]["mode"] == "real"
    assert manifest["seeds"] == []


# -- option defaults -------------------------------------------------------------------

@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_each_default_is_declared_once(command, dataset):
    # with only its required options, a subcommand's config is
    # ExperimentConfig's defaults: the option table declares none of its own
    edges, colors = dataset
    required = {"real": ["--edges", edges, "--colors", colors],
                "sweep": ["--axis", "k", "--values", "1"]}.get(command, [])
    expected = ExperimentConfig()
    if command == "real":
        expected = ExperimentConfig(edge_file=edges, color_file=colors)
    if command == "rank":  # --algo keeps its own default
        expected = dataclasses.replace(expected, algos=("hits",))
    assert cli._config(cli._build_parser(command).parse_args(required)) == expected


def test_config_file_list_and_mapped_values_reach_the_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algos = degree hits\nweight = lambda2\n")
    argv = cli._config_argv("curve", str(cfg)) + ["--config", str(cfg)]
    config = cli._config(cli._build_parser("curve").parse_args(argv))
    assert config.algos == ("degree", "hits")
    assert config.weight == "lambda_sq"


# -- config file and environment -------------------------------------------------------

def test_config_file_supplies_defaults_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "nodes = 44\n"
        "outdeg = 2\n"
        "reps = 2\n"
        "algos = degree hits\n"
        "grid_points = 8\n"
    )
    out = tmp_path / "out"
    code = run_cli(
        "curve", "--config", str(cfg), "--reps", "1",
        "--seed", "6", "--out-dir", str(out),
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_nodes"] == 44  # from the file
    assert manifest["config"]["reps"] == 1  # flag wins
    assert manifest["config"]["algos"] == ["degree", "hits"]


@pytest.mark.parametrize("spelling", [["--conf", "{}"], ["--config={}"], ["--con={}"]])
def test_config_file_read_under_every_spelling_argparse_takes(tmp_path, spelling):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("reps = 2\nnodes = 50\nalgos = degree\n")
    out = tmp_path / "out"
    flags = [token.format(cfg) for token in spelling]
    assert run_cli("curve", *flags, "--seed", "6", "--out-dir", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["reps"] == 2 and manifest["config"]["n_nodes"] == 50


def test_ambiguous_abbreviation_is_not_read_as_config(dataset, capsys):
    edges, colors = dataset
    with pytest.raises(SystemExit) as exc:
        run_cli("rank", "--edges", edges, "--co", colors)
    assert exc.value.code == 1
    assert "ambiguous option: --co could match --config, --colors" in capsys.readouterr().err


def test_option_before_the_subcommand_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("reps = 2\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", str(cfg), "curve", "--out-dir", str(tmp_path))
    assert exc.value.code == 1
    assert "comes before every option" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_config_file_unknown_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("warp_speed = 9\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("curve", "--config", str(cfg))
    assert exc.value.code == 1
    assert "warp_speed" in capsys.readouterr().err


def test_config_file_byte_order_mark_is_dropped(tmp_path):
    # as in the data files: a mark before the first key is not part of it,
    # and lone-CR and CRLF line ends split lines as LF does
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfnodes = 44\rreps = 2\r\nalgos = degree hits\n")
    argv = cli._config_argv("curve", str(cfg))
    config = cli._config(cli._build_parser("curve").parse_args(argv))
    assert (config.n_nodes, config.reps, config.algos) == (44, 2, ("degree", "hits"))


def test_config_file_byte_that_is_not_utf8_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"reps = 2\nnodes = 4\xff4\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("curve", "--config", str(cfg))
    assert exc.value.code == 1
    assert f"{cfg}:2: not UTF-8" in capsys.readouterr().err


def test_config_file_boolean_words(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("svg = true\nnodes = 40\noutdeg = 2\nreps = 1\n")
    out = tmp_path / "out"
    code = run_cli("curve", "--config", str(cfg), "--seed", "2",
                   "--grid-points", "8", "--out-dir", str(out))
    assert code == 0
    assert (out / "curves.svg").exists()


def test_one_graph_commands_ignore_threads_env_var(dataset, tmp_path, monkeypatch):
    # --threads is the only way to set the worker count
    monkeypatch.setenv("FAIRANK_THREADS", "4")
    edges, colors = dataset
    out = tmp_path / "real"
    assert run_cli("real", "--edges", edges, "--colors", colors, "--algos", "degree",
                   "--out-dir", str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["threads"] == 1


@pytest.mark.parametrize("value", ["2", "zero"])
def test_generate_does_not_read_threads_env_var(value, tmp_path, monkeypatch):
    # --threads is the only way to set the worker count
    monkeypatch.setenv("FAIRANK_THREADS", value)
    out = tmp_path / "out"
    assert run_cli("generate", "--nodes", "40", "--outdeg", "2", "--reps", "2",
                   "--seed", "1", "--out-dir", str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["threads"] == 1
