#!/usr/bin/env python3
"""The fairank benchmark: CLI workloads, output checks, and a traced run.

Run from the root of a fairank checkout:

    python3 perfbench/run.py --workload curve_small --seed 1 --seconds 35 --trace 0

Every iteration of a workload is a fresh single-threaded child process
(perfbench/child.py) that imports ``fairank.cli`` from the checkout's
``src/`` and runs the workload's commands through ``fairank.cli.main``.
Iterations repeat until the next one would end after ``--seconds``; at
least one runs. After each iteration the outputs are checked.

``--trace 0`` reports the end-to-end metrics, with tracing off.
``--trace 1`` runs one untraced iteration, then traced ones, and reports
the per-layer metrics (spans.py) as medians over the traced iterations.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
provenance, each metric with its unit, and any failed check. The exit
code is 0 whenever a result is printed, and 2 when the current directory
is not a fairank checkout. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import checks
import spans

HERE = Path(__file__).resolve().parent
WORKLOADS = ("curve_small", "rank_large", "files_roundtrip")
ALGOS = ["degree", "pagerank", "hits", "rhits", "subspace"]
FILE_ALGOS = ["degree", "pagerank"]
R, RHO = 0.3, 0.1
BPAM = ["--outdeg", "6", "--minority-ratio", str(R), "--homophily", str(RHO),
        "--threads", "1"]
# rank_large ranks one fixed graph, the ROADMAP baseline's seed: its cost
# follows the graph's spectrum, and across seeds 1-10 the subspace sweeps
# ranged 53-96 and the run 9.7-15.6 s (quartile spread 27% of the median),
# more than any bound could absorb with one graph per command
RANK_LARGE_SEED = 7
SETUP_PROBES = 5
# a run must end within 180 s even when a child hangs
RUN_LIMIT_S = 170
STARTED = time.perf_counter()
WORK_DIR = ".perfbench_work"


@dataclass(frozen=True)
class Sizes:
    small_n: int
    small_reps: int
    large_n: int


FULL = Sizes(small_n=1000, small_reps=100, large_n=100_000)
# --tiny: for the smoke test only. The paper's statistical claims need the
# full sizes, so only curve_small at FULL checks them.
TINY = Sizes(small_n=200, small_reps=2, large_n=200)


@dataclass
class Iteration:
    wall_s: float | None = None  # raw, summed over the commands
    wall_cal_s: float | None = None  # calibrated (calibrate.py)
    setup_s: float | None = None
    setup_cal_s: float | None = None
    peak_rss_mb: float | None = None
    problems: list = field(default_factory=list)  # per command
    digests: list = field(default_factory=list)  # per command
    trace: dict | None = None


# -- child processes -----------------------------------------------------

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("FAIRANK_THREADS", None)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def run_child(root: Path, commands: list, trace: bool):
    """Run one child; returns (setup seconds, result dict or None, stderr)."""
    job = json.dumps({"commands": commands, "trace": trace})
    start = time.perf_counter()
    # unbuffered, so readline() takes only the "ready" line and leaves the
    # rest of the pipe to communicate()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), job],
        cwd=root, env=child_env(root), bufsize=0,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    timeout = max(1.0, RUN_LIMIT_S - (start - STARTED))
    try:
        if not select.select([proc.stdout], [], [], timeout)[0]:
            raise subprocess.TimeoutExpired(proc.args, timeout)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        return None, None, f"child timed out after {timeout:.0f} s\n{err.decode()}"
    err = err.decode(errors="replace")
    if ready.strip() != b"ready" or proc.returncode != 0:
        return None, None, err
    result = json.loads(out.decode().strip().splitlines()[-1])
    src = (root / "src").resolve()
    if Path(result["fairank_file"]).resolve().parent.parent != src:
        return setup_s, None, f"child imported fairank from {result['fairank_file']}"
    return setup_s, result, err


def calibrated_setup(setup_s: float, result: dict) -> float | None:
    speed = result["setup_speed"]
    return calibrate.calibrated(setup_s - speed["handler_s"], speed)


# -- workloads -----------------------------------------------------------

def curve_argv(nodes: int, reps: int, algos: list, seed: int, out: Path) -> list:
    return ["curve", "--nodes", str(nodes), "--reps", str(reps), "--algos", *algos,
            "--strict", "--seed", str(seed), *BPAM, "--out-dir", str(out)]


def check_curve(out: Path, reps: int, seed: int, algos: list, headline: bool):
    problems, digests = checks.manifest(out)
    found, by_algo = checks.curves(out / "curves.csv", algos)
    problems += found
    found, rows = checks.stats(out / "stats.csv", reps, seed)
    problems += found
    if headline:
        problems += checks.hits_below_baseline(by_algo)
        if rows:
            problems += checks.alpha_near_mean_field(rows, mean_field_alpha())
    return problems, digests, by_algo


def mean_field_alpha() -> float:
    src = str(Path.cwd() / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from fairank.meanfield import solve_alpha

    return solve_alpha(R, RHO)


def build(workload: str, seed: int, out: Path, sizes: Sizes, reference: dict):
    """One iteration's commands as (argv, check); check() -> (problems, digests)."""
    if workload in ("curve_small", "rank_large"):
        small = workload == "curve_small"
        nodes, reps = (sizes.small_n, sizes.small_reps) if small else (sizes.large_n, 1)
        curve_out = out / "curve"
        return [(curve_argv(nodes, reps, ALGOS, seed, curve_out),
                 lambda: check_curve(curve_out, reps, seed, ALGOS,
                                     small and sizes == FULL)[:2])]

    gen, real = out / "generate", out / "real"
    generate_argv = ["generate", "--nodes", str(sizes.large_n), "--reps", "1",
                     "--seed", str(seed), *BPAM, "--out-dir", str(gen)]
    real_argv = ["real", "--edges", str(gen / "edges_0000.tsv"),
                 "--colors", str(gen / "colors_0000.tsv"), "--algos", *FILE_ALGOS,
                 "--strict", "--threads", "1", "--out-dir", str(real)]

    def check_generate():
        problems, digests = checks.manifest(gen)
        problems += checks.stats(gen / "stats.csv", 1, seed)[0]
        return problems, digests

    def check_real():
        problems, digests = checks.manifest(real)
        found, by_algo = checks.curves(real / "curves.csv", FILE_ALGOS)
        problems += found + checks.same_curves(by_algo, reference, FILE_ALGOS)
        return problems, digests

    return [(generate_argv, check_generate), (real_argv, check_real)]


def graph_seed(workload: str, seed: int) -> int:
    """The base seed the workload's commands get from ``--seed``."""
    return RANK_LARGE_SEED if workload == "rank_large" else seed


def run_reference(root: Path, seed: int, out: Path, sizes: Sizes):
    """files_roundtrip's in-memory reference: ``curve --reps 1`` on the
    same seed. Returns (problems, curve rows per algorithm)."""
    ref = out / "reference"
    _, result, err = run_child(
        root, [curve_argv(sizes.large_n, 1, FILE_ALGOS, seed, ref)], False)
    if result is None:
        return [f"reference child failed: {err.strip()[-500:]}"], {}
    code = result["commands"][0]["code"]
    if code != 0:
        return [f"reference exit code {code}: {err.strip()[-500:]}"], {}
    problems, _, by_algo = check_curve(ref, 1, seed, FILE_ALGOS, False)
    return problems, by_algo


def iteration(root, workload, seed, out, sizes, reference, trace) -> Iteration:
    commands = build(workload, seed, out, sizes, reference)
    setup_s, result, err = run_child(root, [argv for argv, _ in commands], trace)
    it = Iteration(setup_s=setup_s)
    if result is None:
        it.problems = [[f"child failed: {err.strip()[-500:]}"] for _ in commands]
        it.digests = [{} for _ in commands]
        return it
    for (argv, check), record in zip(commands, result["commands"]):
        if record["code"] != 0:
            problems, digests = [f"exit code {record['code']}: {err.strip()[-500:]}"], {}
        else:
            problems, digests = check()
        it.problems.append([f"{argv[0]}: {p}" for p in problems])
        it.digests.append(digests)
    it.setup_cal_s = calibrated_setup(setup_s, result)
    it.wall_s = sum(record["wall_s"] for record in result["commands"])
    it.wall_cal_s = (
        calibrate.calibrated(it.wall_s, *(r["speed"] for r in result["commands"]))
        or calibrate.calibrated(it.wall_s, result["setup_speed"]))
    it.peak_rss_mb = result["peak_rss_mb"]
    it.trace = result["trace"]
    shutil.rmtree(out, ignore_errors=True)
    return it


# -- determinism ---------------------------------------------------------

def exact_counts(summary: dict) -> dict:
    """The traced counts that must repeat exactly on one seed."""
    calls = {name: entry[0] for name, entry in sorted(summary["buckets"].items())}
    return {"calls": calls, **summary["counts"]}


def check_repeats(its: list, record_path: Path) -> None:
    """Digests and counts agree across iterations, and with the record an
    earlier run of the same source tree and seed left in the work dir."""
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    first = next((it for it in its if all(it.digests)), None)
    digests = record.get("digests") or (first.digests if first else None)
    traced = [it for it in its if it.trace is not None]
    counts = record.get("counts") or (exact_counts(traced[0].trace) if traced else None)
    for it in its:
        for i, got in enumerate(it.digests):
            if got and digests and got != digests[i]:
                it.problems[i].append("output digests differ from another run on this seed")
        if it.trace is not None and exact_counts(it.trace) != counts:
            it.problems[0].append("traced counts differ from another run on this seed")
    if digests is not None:
        record["digests"] = digests
    if counts is not None:
        record["counts"] = counts
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")


# -- provenance ----------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        level = _read(f"{base}/index{index}/level").strip()
        kind = _read(f"{base}/index{index}/type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = _read(f"{base}/index{index}/size").strip()
    return sizes


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "graph_seed": graph_seed(args.workload, args.seed),
        "trace": args.trace,
        "git_commit": _git_commit(root),
        "src_sha256": src_digest(root),
        "src_lines": sum(p.read_bytes().count(b"\n")
                         for p in sorted((root / "src" / "fairank").glob("*.py"))),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- the run -------------------------------------------------------------

def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _repeat(root, args, seed, sizes, tmp, reference) -> list:
    """Iterations until the next one would end after --seconds. With
    --trace 1 the first is untraced, to measure the tracing overhead, and at
    least one traced iteration follows."""
    its = []
    deadline = time.perf_counter() + args.seconds
    while True:
        start = time.perf_counter()
        traced = bool(args.trace and its)
        its.append(iteration(root, args.workload, seed, tmp / f"iter{len(its)}",
                             sizes, reference, traced))
        now = time.perf_counter()
        if len(its) > args.trace and now + (now - start) > deadline:
            return its


def end_to_end(its, probes, attempted, failed) -> tuple[dict, list]:
    """End-to-end metrics; wall and set-up times are calibrated.

    ``probes`` holds (raw, calibrated) set-up seconds of the set-up probes.
    """
    setups = probes + [(it.setup_s, it.setup_cal_s) for it in its]
    metrics = {
        "wall_cal_s": (_median(it.wall_cal_s for it in its), "s"),
        "setup_s": (_median(cal for _, cal in setups), "s"),
        "peak_rss_mb": (_median(it.peak_rss_mb for it in its), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    lines = [
        f"raw wall_s median {_median(it.wall_s for it in its)} s over {len(its)} "
        f"iterations; raw setup_s median {_median(raw for raw, _ in setups)} s "
        f"over {len(setups)} starts",
        "per iteration wall_cal_s " + " ".join(f"{it.wall_cal_s:.4f}" for it in its
                                               if it.wall_cal_s is not None),
        "per iteration wall_s " + " ".join(f"{it.wall_s:.4f}" for it in its
                                           if it.wall_s is not None),
    ]
    return metrics, lines


def layered(its) -> tuple[dict, list]:
    """Per-layer medians over the traced iterations, plus report lines."""
    untraced = [it.wall_s for it in its if it.trace is None and it.wall_s is not None]
    traced = [it for it in its if it.trace is not None and it.wall_s is not None]
    if not traced:
        return {}, ["no traced iteration completed"]
    per_it = [spans.per_layer(it.trace, it.wall_s) for it in traced]
    # median_low: a value some iteration measured, so counts stay integers
    metrics = {name: (statistics.median_low(m[name][0] for m in per_it), unit)
               for name, (_, unit) in per_it[0].items()}
    overhead = metrics["trace.wall_s"][0] - _median(untraced) if untraced else 0.0
    metrics["trace.overhead_s"] = (overhead, "s")
    layers = spans.layer_self_times(traced[0].trace)
    named = ", ".join(f"{k} {v:.4f}" for k, v in sorted(layers.items()))
    wall = per_it[0]["trace.wall_s"][0]
    lines = [f"layer self times of the first traced iteration (s): {named}; "
             f"sum {sum(layers.values()):.4f} of traced wall {wall:.4f}, "
             f"remainder {wall - sum(layers.values()):.6f}"]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny graphs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "fairank" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: {root} holds no fairank source tree "
                         "(src/fairank/cli.py); run from a checkout's root\n")
        return 2
    sizes = TINY if args.tiny else FULL
    seed = graph_seed(args.workload, args.seed)
    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        probes, problems, reference = [], [], {}
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup_s, result, _ = run_child(root, [], False)
                if result is not None:
                    probes.append((setup_s, calibrated_setup(setup_s, result)))
        if args.workload == "files_roundtrip":
            problems, reference = run_reference(root, seed, tmp, sizes)
        its = _repeat(root, args, seed, sizes, tmp, reference)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    size_tag = "tiny" if args.tiny else "full"
    tag = f"{args.workload}-{seed}-{size_tag}-{src_digest(root)[:16]}"
    check_repeats(its, work / "records" / f"{tag}.json")

    per_command = [p for it in its for p in it.problems]
    if args.workload == "files_roundtrip":
        per_command.append([f"reference: {p}" for p in problems])
    attempted = len(per_command)
    failed = sum(1 for p in per_command if p)
    if args.trace:
        metrics, lines = layered(its)
    else:
        metrics, lines = end_to_end(its, probes, attempted, failed)

    print("provenance " + json.dumps(provenance(root, args), sort_keys=True))
    print(f"iterations {len(its)}; commands attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for line in lines:
        print(line)
    for problem in (p for group in per_command for p in group):
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
