"""Golden SHA-256 digests of every CLI output at the determinism-check sizes.

Each case runs one subcommand at the tiny configuration of acceptance
criterion 9 (n=60, d=3, seed 11, one process) and hashes every file it
writes. ``manifest.json`` is hashed after dropping ``wall_clock_sec`` and
reducing the path-valued config entries to their base names, so the pin
holds across machines and temporary directories. A change that means to
alter an output updates the pin and says why in CHANGES.md; it never
deletes one.
"""

import hashlib
import json
import os

import pytest

from fairank.cli import main

SYNTH = ["--nodes", "60", "--outdeg", "3", "--seed", "11", "--threads", "1"]
ALL_ALGOS = ["--algos", "degree", "pagerank", "hits", "rhits", "subspace"]
PATH_KEYS = ("out_dir", "edge_file", "color_file")


def _argv(case, out, edges, colors):
    files = ["--edges", edges, "--colors", colors]
    return {
        "generate": ["generate", "--out-dir", out, "--reps", "2", *SYNTH],
        "curve": ["curve", "--out-dir", out, "--reps", "3", "--grid-points", "12",
                  "--svg", *ALL_ALGOS, *SYNTH],
        "curve_tie_shuffle": ["curve", "--out-dir", out, "--reps", "3",
                              "--grid-points", "12", "--algos", "degree", "hits",
                              "--tie-shuffle", "5", *SYNTH],
        "real": ["real", *files, "--out-dir", out, "--grid-points", "12", "--svg",
                 *ALL_ALGOS, "--threads", "1"],
        "rank_synthetic": ["rank", "--algo", "pagerank",
                           "--out", os.path.join(out, "ranking.csv"), *SYNTH],
        "rank_synthetic_degree": ["rank", "--algo", "degree",
                                  "--out", os.path.join(out, "ranking.csv"), *SYNTH],
        "rank_files": ["rank", *files, "--algo", "hits", "--threads", "1",
                       "--out", os.path.join(out, "ranking.csv")],
        "sweep_rho": ["sweep", "--axis", "rho", "--values", "0.2,0.8", "--out-dir", out,
                      "--reps", "2", "--grid-points", "12", *SYNTH],
        "sweep_k": ["sweep", "--axis", "k", "--values", "1,2", "--out-dir", out,
                    "--reps", "2", "--grid-points", "12", *SYNTH],
        "sweep_k_files": ["sweep", "--axis", "k", "--values", "1,2", *files,
                          "--out-dir", out, "--grid-points", "12", "--threads", "1"],
        "meanfield": ["meanfield", "--grid", "--out", os.path.join(out, "mf.csv")],
        "verify": ["verify", "--r", "0.3", "--rho", "0.4",
                   "--out", os.path.join(out, "checks.csv")],
        "verify_grid": ["verify", "--grid", "--out", os.path.join(out, "checks.csv")],
    }[case]


GOLDEN = {
    "generate": {
        "colors_0000.tsv":
            "c12cf9c5d8dda3b4c3825c20f3d3e49c14d3e5486453abc8c13858cd2802ad94",
        "colors_0001.tsv":
            "faee62190f7896419784b5e8a4839f1efa4a4c4a1e465dc1bc0847309f8d419e",
        "edges_0000.tsv":
            "ed24eddeb86899d3ff84a9df74b075f12f5a7a1a704e828814ac42122b461990",
        "edges_0001.tsv":
            "fe8fac6a0b499381e750f75792684e44655f1b8e3798312e96c0508c29337dd0",
        "manifest.json":
            "b119676c83ec98a35f4310731f99c7ef4b1695f85a221a2fd278c0529e01e250",
        "stats.csv":
            "de56a5a239884b4e9658398a137ce8d5be346d9498a20543cd60c46e3233886f",
    },
    "curve": {
        "curves.csv":
            "67fc74cf49b51e07ac09051b22a91f8ffc4a90231205ed808f962bd6fca5f084",
        "curves.svg":
            "452673fa2ead3156ab82b1d47854f6e613ebb56064a5a08e6648b3b55934b701",
        "manifest.json":
            "934cb3f9186c688c11af00f5bf254a3f3586d547aab9a7834b475ca1b40399fe",
        "stats.csv":
            "3adf936536b1fe50a2b2fd8b6bb299c734d7bc08017a757d651928e46a26681f",
    },
    "curve_tie_shuffle": {
        "curves.csv":
            "259629799dd50b2c60e3120e5af4c4233c07dc58e7a3d2eea7c5ec7b7887a971",
        "manifest.json":
            "3f3552b64919ab2fa70add6070293d6eb74e84c4c2982a0de516b69e4effb222",
        "stats.csv":
            "3adf936536b1fe50a2b2fd8b6bb299c734d7bc08017a757d651928e46a26681f",
    },
    "real": {
        "ccdf.csv":
            "311e3bbbf474331fd0e476a54100740e5f20ac17f076b43a935e205a62a8b42b",
        "curves.csv":
            "002e9797880f49201286f1d0241fe1e581cc41483cde935a798340e0c51f6751",
        "curves.svg":
            "4daf301c6b289a76a7172481c390b194bf74458e73abe09cb6234e4ca28aa2d8",
        "manifest.json":
            "67b95ace93c5d44ce56e198d555117dc830ab628c2463e648d6484b5f8252619",
        "node_mapping.tsv":
            "1f686e1dfc8dbcf4829b927a2c894df0a9c8512d0384f29a7d6fe39b7687b13d",
        "summary.csv":
            "28dec1bdfa5f5e2dbeebeb249bfbfd19f4a2da7a84b0cd426bc385926f6753a3",
    },
    "rank_synthetic": {
        "ranking.csv":
            "51681f0f39abf9dc63ed793bcd84235ec16ad93fe19881d86dd8543300e9b840",
    },
    "rank_synthetic_degree": {
        "ranking.csv":
            "653e12acdfd6dac7bba40a986ac23d7dd81292fbe2cfce1eecd560dcac95e1d9",
    },
    "rank_files": {
        "ranking.csv":
            "e39cc59bab75762409837ea9ae6957f00e9c602d07dd60e9581cd8d3fb4aab48",
    },
    "sweep_rho": {
        "manifest.json":
            "ab287aa96f2562867d343231916d21ea20923762e2278d97eb175af4954d9b56",
        "sweep.csv":
            "057322a2ca7c74cb4ac106fbc36d2ba0a3c6e934e07ceec025d38370a58328a8",
    },
    "sweep_k": {
        "manifest.json":
            "69492e3b72653394f9cba7bc895c5ce8d96c57fbf2f2573982f1a2b274e89dc3",
        "sweep.csv":
            "373dcc911ecf2e6cc838b71a3d1e5a73abb2cd65ecb4758ca2695d896c08a8a8",
    },
    "sweep_k_files": {
        "manifest.json":
            "9e2af9926f4d69879a3a0cee6e22c714fef91102bfb825b2775d9d259f7590c8",
        "sweep.csv":
            "703656ec1fa345abdee0cfb187eb89d3ab4a37a19aaa82dbbdcd6b1516d32a52",
    },
    "meanfield": {
        "mf.csv":
            "e05525240c0596f43e54a1bb1c985013d736db4b7d7f4e999e4cc14d8d55c06c",
    },
    "verify": {
        "checks.csv":
            "308cc0a49574e22fe22eabf950c3fca236c2f0c6fdeb1a2026e3b705e04c4eda",
    },
    "verify_grid": {
        "checks.csv":
            "42560169a6337d2206dac62d06777e93ee0dfcb72c4006dc9f0968965146b4fd",
    },
}


def _digest(path):
    data = path.read_bytes()
    if path.name == "manifest.json":
        payload = json.loads(data)
        del payload["wall_clock_sec"]
        for key in PATH_KEYS:
            value = payload["config"][key]
            payload["config"][key] = None if value is None else os.path.basename(value)
        data = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    assert main(["generate", "--out-dir", str(d), "--reps", "1", *SYNTH]) == 0
    return str(d / "edges_0000.tsv"), str(d / "colors_0000.tsv")


def outputs_of(case, out, inputs):
    out.mkdir()
    assert main(_argv(case, str(out), *inputs)) == 0
    return {p.name: _digest(p) for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digests(case, tmp_path, inputs):
    assert outputs_of(case, tmp_path / case, inputs) == GOLDEN[case]
