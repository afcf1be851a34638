"""Output checks for the benchmark's CLI commands.

Each check returns a list of problems (empty when the output is right).
Any problem fails the command it belongs to.
"""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
from pathlib import Path

# tolerance on |replica-mean alpha_hat - mean-field alpha| at n=1000, 100
# replicas: the replica spread is ~0.015, so the mean's standard error is
# ~0.0015, and the finite-size bias measured ~0.002
ALPHA_TOL = 0.01

# baseline and share at x = 1 are both means of the same per-replica
# values, summed in possibly different orders
_SHARE_TOL = 1e-12


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def manifest(out_dir: Path) -> tuple[list[str], dict]:
    """Every hash in ``manifest.json`` matches its file.

    Returns (problems, the manifest's file hashes) so the hashes can serve
    as the command's output digests.
    """
    path = out_dir / "manifest.json"
    try:
        hashes = json.loads(path.read_text(encoding="utf-8"))["file_hashes"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path}: unreadable manifest ({exc})"], {}
    problems = []
    for name, expected in sorted(hashes.items()):
        target = out_dir / name
        if not target.is_file():
            problems.append(f"{target}: listed in manifest but missing")
        elif _sha256(target) != expected:
            problems.append(f"{target}: hash differs from manifest")
    return problems, hashes


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def curves(path: Path, algos: list[str]) -> tuple[list[str], dict]:
    """Every requested algorithm on one grid, shares in [0, 1], and the
    share at x = 1 equal to the baseline.

    Returns (problems, rows per algorithm).
    """
    try:
        rows = _read_csv(path)
    except OSError as exc:
        return [f"{path}: {exc}"], {}
    by_algo: dict[str, list[dict]] = {}
    for row in rows:
        by_algo.setdefault(row["algo"], []).append(row)
    problems = []
    if list(by_algo) != list(algos):
        problems.append(f"{path}: algorithms {list(by_algo)}, expected {list(algos)}")
    grids = {algo: [r["x"] for r in rs] for algo, rs in by_algo.items()}
    if len({tuple(g) for g in grids.values()}) > 1:
        problems.append(f"{path}: algorithms are on different grids")
    for algo, rs in by_algo.items():
        shares = [float(r["share"]) for r in rs]
        if not all(0.0 <= s <= 1.0 for s in shares):
            problems.append(f"{path}: {algo} has a share outside [0, 1]")
        last = rs[-1]
        if float(last["x"]) != 1.0:
            problems.append(f"{path}: {algo} grid does not end at x = 1")
        elif abs(float(last["share"]) - float(last["baseline"])) > _SHARE_TOL:
            problems.append(f"{path}: {algo} share at x = 1 differs from the baseline")
    return problems, by_algo


def stats(path: Path, reps: int, seed: int) -> tuple[list[str], list[dict]]:
    """One row per replica, replica i carrying seed + i."""
    try:
        rows = _read_csv(path)
    except OSError as exc:
        return [f"{path}: {exc}"], []
    problems = []
    if len(rows) != reps:
        problems.append(f"{path}: {len(rows)} rows for {reps} replicas")
    for i, row in enumerate(rows):
        if int(row["replica"]) != i or int(row["seed"]) != seed + i:
            problems.append(f"{path}: row {i} is replica {row['replica']} seed {row['seed']}")
            break
    return problems, rows


def hits_below_baseline(by_algo: dict) -> list[str]:
    """The paper's headline: the replica-mean HITS minority share in the top
    decile (largest grid x <= 0.1) lies below the population baseline."""
    rows = [r for r in by_algo.get("hits", []) if float(r["x"]) <= 0.1 + 1e-12]
    if not rows:
        return ["curves.csv: no HITS share at or below x = 0.1"]
    row = rows[-1]
    if not float(row["share"]) < float(row["baseline"]):
        return [f"HITS top-decile share {row['share']} is not below baseline {row['baseline']}"]
    return []


def alpha_near_mean_field(rows: list[dict], expected: float) -> list[str]:
    """Replica-mean alpha_hat within ALPHA_TOL of the mean-field alpha."""
    mean = statistics.fmean(float(r["alpha_hat"]) for r in rows)
    if abs(mean - expected) > ALPHA_TOL:
        return [f"mean alpha_hat {mean:.4f} is not within {ALPHA_TOL} of {expected:.4f}"]
    return []


def same_curves(got: dict, want: dict, algos: list[str]) -> list[str]:
    """The named algorithms' curve rows are identical in both outputs."""
    return [
        f"{algo}: curve differs from the in-memory reference"
        for algo in algos
        if got.get(algo) != want.get(algo)
    ]
