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
            "381463d423d9c6d9a90ed59c8f78e82cc091ec366f281cdfe6b51d93c336e767",
        "colors_0001.tsv":
            "ade795b6b918d50ff7490b32e42e7cc8f030995b2281c394275b358f101b86ed",
        "edges_0000.tsv":
            "9c3a0ff3fc48e9a7b398db4127b1cad9450a0a95357a94ad71f492b07b9b1adc",
        "edges_0001.tsv":
            "ddffaa84b3e9483858aa9fd8224ef9c8574af91b68161383d9967b29e15518e5",
        "manifest.json":
            "2acd07afde6ae8bff907f82018758d1141191bd6dd5ffd57cd3d791412f83423",
        "stats.csv":
            "092493a9440b3ffca0d0f2d49b67b66d75a2d83e86ea1a1aa0ae1b60a403b3af",
    },
    "curve": {
        "curves.csv":
            "303a5f3ffaaf3420dc1c8bba852a4c1a89ae51a36ecba1ccd25cfe26bd15fbe3",
        "curves.svg":
            "0955826b471ca4080a44b28258ac41934e515200c77bf278d0b151a2b4500a5a",
        "manifest.json":
            "d8c2e9eec4975bbc0aec1147a2e949cb32ce84147963cf7cabf6c7896b1eceac",
        "stats.csv":
            "02be2c8a4fc90f33b956f7957eceb5ebef34e0f3b8528cb86b6c5dbb1622f60d",
    },
    "curve_tie_shuffle": {
        "curves.csv":
            "cc7250742402b18f9cc713fde6a7d123558670aef14ed19e90d92a38c7322463",
        "manifest.json":
            "6c360251089ba43595019b1946574cafdb813ac36f8feaded0add2c6bffeb08e",
        "stats.csv":
            "02be2c8a4fc90f33b956f7957eceb5ebef34e0f3b8528cb86b6c5dbb1622f60d",
    },
    "real": {
        "ccdf.csv":
            "15fd813cd769526466a2f9ff4d855b9e854d46f22d035cf3d17531d279d0e25f",
        "curves.csv":
            "0878d7b5175bdd3119e7ffabc0b3506e35a51248f05c0ea50cd238542796fe51",
        "curves.svg":
            "79fc92c57b4f7fb060cdaba14d3f63f6c3fccc51942bbbdca2c0123f363b07d7",
        "manifest.json":
            "8393736e9419e9d1aa3893816968fc6f6d0ad0a90ae65a4736b3d1679fe448e2",
        "node_mapping.tsv":
            "1f686e1dfc8dbcf4829b927a2c894df0a9c8512d0384f29a7d6fe39b7687b13d",
        "summary.csv":
            "1441aa5e071f5db2d6546adf81a417f685eb97cc7476731342e69015df600f96",
    },
    "rank_synthetic": {
        "ranking.csv":
            "1c1bdadd3d90952f10ae8b817a0b625354020f59542d81cc12d6dd816f7813b4",
    },
    "rank_synthetic_degree": {
        "ranking.csv":
            "8f61f5c2bd15f4b379b77a40099c2329066dd8405ce90c9c79979f92371a2229",
    },
    "rank_files": {
        "ranking.csv":
            "68245932b3880886efa4aeb4ea61f1c41e0debc28d1ff338a782988cfea12eea",
    },
    "sweep_rho": {
        "manifest.json":
            "498667bd3f9661c018e65e480f27608fe7541cde39bd47195c6857791c9974f0",
        "sweep.csv":
            "8ec927d83baace6cdd4630860ee5286007386d0a2a8bc66035cc21662eec345e",
    },
    "sweep_k": {
        "manifest.json":
            "ee64bdc43c5ad5bd994bb186942a037c4524126424344abc85bb4151fbef5017",
        "sweep.csv":
            "f96f9df4b7c85de64e67764e18c99c07328a5ba0173f765222cae8d5542b41a2",
    },
    "sweep_k_files": {
        "manifest.json":
            "39e6aa583154816a22dd134a81a225f946b7977a6fe6f80f39792351c591f532",
        "sweep.csv":
            "8a0670188d8f63b375c6365374494a25df62055bb1bd05a2b39a53370b78c4ff",
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
