"""Experiment orchestration: one replica pipeline, aggregation, CSV emission.

Every run is one plan: a graph source (BPAM replica seeds, or one edge and
color file pair) crossed with ranker specs and, for sweeps, axis values. A
top-level worker builds one replica's graph at a time, ranks it under every
spec and keeps only what the run writes. Replicas fan out over a process
pool; reduction always happens in replica-index order, so a
single-threaded run is byte-reproducible and a multi-threaded run produces
the same aggregates. Each run writes CSV outputs plus a JSON manifest that
records the configuration, per-replica seeds, and a hash of every emitted
file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional, Sequence

from . import __version__
from .bpam import BpamParams, GenerationStats, generate
from .fairness import (
    DEFAULT_GRID_POINTS,
    average_curves,
    curve_columns,
    curve_compare,
    log_grid,
    minority_share_curve,
)
from .graph import (
    Color,
    ColoredDigraph,
    GraphError,
    ccdf_by_color,
    hri,
    minority_fraction,
)
from .io import (
    load_graph,
    table,
    write_color_file,
    write_edge_list,
    write_node_mapping,
    write_text,
)
from .rankers import (
    IterationControl,
    RankingResult,
    SUBSPACE_WEIGHTS,
    Spectrum,
    degree_rank,
    hits,
    pagerank,
    rank_order,
    randomized_hits,
    solve_spectrum,
    subspace_hits,
)

__all__ = [
    "ALGORITHMS",
    "ExperimentConfig",
    "compute_ranking",
    "run_curves",
    "run_generate",
    "run_rank",
    "sweep",
    "sweep_configs",
]

ALGORITHMS = ("degree", "pagerank", "hits", "rhits", "subspace")

DEFAULT_REPS = 100


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment, defaults included.

    ``edge_file`` with ``color_file`` is a real dataset, one replica; without
    them the BPAM fields give ``reps`` graphs. ``mode`` records which ("real"
    or "synthetic") and is derived, not an argument. Per-algorithm knobs
    apply to whichever algorithms in ``algos`` consume them. An invalid
    setting raises ValueError here, before a run starts.
    """

    mode: str = field(init=False)
    # synthetic
    n_nodes: int = 1000
    outdeg: int = 6
    minority_ratio: float = 0.3
    homophily: float = 0.5
    reps: int = DEFAULT_REPS
    base_seed: int = 0
    # real
    edge_file: Optional[str] = None
    color_file: Optional[str] = None
    # ranking
    algos: tuple = ("degree", "pagerank", "hits")
    eta: float = 0.85
    eps: float = 0.15
    k: int = 6
    weight: str = "unit"
    tol: float = 1e-10
    max_iter: int = 1000
    degree_which: str = "total"
    tie_shuffle_seed: Optional[int] = None
    # fairness grid
    grid_points: int = DEFAULT_GRID_POINTS
    # io
    out_dir: str = "."
    threads: int = 1
    svg: bool = False

    def __post_init__(self):
        if (self.edge_file is None) != (self.color_file is None):
            raise ValueError("edge_file and color_file must be given together")
        object.__setattr__(self, "mode", "synthetic" if self.edge_file is None else "real")
        if self.mode == "real":  # a loaded graph is one replica
            object.__setattr__(self, "reps", 1)
        for algo in self.algos:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")
        self.ctrl()  # IterationControl and BpamParams check their own fields
        if self.mode == "synthetic":
            self.bpam_params()
        # k is the eigenspace ranker's subspace size; a loaded graph's node
        # count is known only once its files are read
        ranks_generated_subspace = self.mode == "synthetic" and "subspace" in self.algos
        for ok, message in (
            (self.reps >= 1, "reps must be at least 1"),
            (self.threads >= 1, "threads must be at least 1"),
            (len(self.algos) >= 1, "algos names no algorithm"),
            (len(set(self.algos)) == len(self.algos), "algos names an algorithm twice"),
            (self.weight in SUBSPACE_WEIGHTS, f"weight must be one of {SUBSPACE_WEIGHTS}"),
            (self.degree_which in ("in", "total"), "degree_which must be 'in' or 'total'"),
            (0.0 <= self.eta < 1.0, "eta must lie in [0, 1)"),
            (0.0 < self.eps <= 1.0, "eps must lie in (0, 1]"),
            (self.k >= 1, "k must be at least 1"),
            (not ranks_generated_subspace or self.k <= self.n_nodes,
             "k must not exceed n_nodes"),
            (self.grid_points >= 2, "grid_points must be at least 2"),
            (self.base_seed >= 0, "base_seed must be non-negative"),
            (self.tie_shuffle_seed is None or self.tie_shuffle_seed >= 0,
             "tie_shuffle_seed must be non-negative"),
        ):
            if not ok:
                raise ValueError(message)

    def bpam_params(self) -> BpamParams:
        return BpamParams(self.n_nodes, self.outdeg, self.minority_ratio, self.homophily)

    def ctrl(self) -> IterationControl:
        return IterationControl(tol=self.tol, max_iter=self.max_iter)

    def replica_seed(self, index: int) -> int:
        return self.base_seed + index


def compute_ranking(
    g: ColoredDigraph, algo: str, config: ExperimentConfig, spectrum: Optional[Spectrum] = None
) -> RankingResult:
    """Run one configured algorithm; the HITS rankers rank by authorities.

    HITS and subspace HITS read ``spectrum`` when given, a Spectrum of
    ``g`` that holds their k, and solve on their own otherwise."""
    ctrl = config.ctrl()
    if algo == "degree":
        return degree_rank(g, config.degree_which)
    if algo == "pagerank":
        return pagerank(g, config.eta, ctrl)
    if algo == "hits":
        return hits(g, ctrl, spectrum=spectrum)
    if algo == "rhits":
        return randomized_hits(g, config.eps, ctrl)
    if algo == "subspace":
        return subspace_hits(g, config.k, config.weight, ctrl, spectrum=spectrum)
    raise ValueError(f"unknown algorithm {algo!r}")


def _hash_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _finish(command, config, seeds, t0, texts: dict, written=(), curves=None) -> dict:
    """End a run in ``config.out_dir``: write ``texts`` (file name -> text)
    and, under ``config.svg``, the chart of ``curves``. Then write and
    return the manifest, which hashes those files and the ones named in
    ``written``, which the run wrote itself, as ``json.load`` reads it."""
    out_dir = config.out_dir
    if config.svg and curves:
        from .svg import curve_chart

        texts = {**texts, "curves.svg": curve_chart(curves)}
    for name, text in texts.items():
        write_text(os.path.join(out_dir, name), text)
    manifest = {
        "command": command,
        "config": dataclasses.asdict(config),
        "seeds": list(seeds),
        "version": __version__,
        "wall_clock_sec": time.perf_counter() - t0,
        "file_hashes": {name: _hash_file(os.path.join(out_dir, name))
                        for name in sorted([*texts, *written])},
    }
    payload = json.dumps(manifest, indent=2, sort_keys=True)
    write_text(os.path.join(out_dir, "manifest.json"), payload + "\n")
    return json.loads(payload)  # tuples in the config read back as lists


def ccdf_csv(per_color: dict) -> str:
    """CSV ``color,k,ccdf`` from a color -> (k, ccdf) mapping."""
    blocks = [(repeat(color.name), per_color[color][0].tolist(), per_color[color][1].tolist())
              for color in (Color.B, Color.R) if color in per_color]
    return table(*blocks, header="color,k,ccdf")


def _csv_field(label: str) -> str:
    """A label as one CSV field, quoted as RFC 4180 says if it holds a comma or a quote."""
    quoted = "," in label or '"' in label
    return '"' + label.replace('"', '""') + '"' if quoted else label


def ranking_csv(result: RankingResult, labels=None) -> str:
    """CSV ``node,score,rank`` sorted by rank (best first)."""
    order = result.order.tolist()
    nodes = order if labels is None else [_csv_field(labels[node]) for node in order]
    scores = result.scores[result.order].tolist()
    return table((nodes, scores, range(1, len(order) + 1)), header="node,score,rank")


def _stats_csv(stats_list: Sequence[GenerationStats]) -> str:
    rows = [(i, st.seed, float(st.alpha_hat), st.rejection_count, st.n_red, st.n_blue)
            for i, st in enumerate(stats_list)]
    return table(tuple(zip(*rows)),
                 header="replica,seed,alpha_hat,rejection_count,n_red,n_blue")


# -- the replica pipeline ---------------------------------------------------

@dataclass(frozen=True)
class _Replica:
    """One replica's work order for :func:`_run_replica`.

    ``config`` names the graph source: BPAM parameters with seed
    ``config.replica_seed(index)``, or in real mode the file pair, which is
    replica 0. Every ``(algo, config)`` pair in ``specs`` ranks the same
    graph, and one Ritz solve serves all its spectral specs. ``keep`` picks
    what comes back per spec: ``"curves"`` (a minority-share curve) or
    ``"rankings"`` (the RankingResult); ``"files"`` ranks nothing and writes
    the graph into ``config.out_dir`` instead.
    """

    config: ExperimentConfig
    index: int
    specs: tuple = ()
    keep: str = "curves"


@dataclass(frozen=True)
class _Outcome:
    stats: Optional[GenerationStats]  # None for a loaded graph
    outputs: list  # one FairnessCurve or RankingResult per spec
    converged: bool
    loaded: Optional[tuple] = None  # (graph, labels) of a loaded graph
    files: tuple = ()  # names of the files written into config.out_dir


def _run_replica(job: _Replica) -> _Outcome:
    """Build one replica's graph and rank it under every spec (top level, so
    process pools can pickle it). A tie-shuffle seed reorders ties by
    ``tie_shuffle_seed + replica seed``."""
    config = job.config
    seed = config.replica_seed(job.index)
    stats = loaded = None
    files = ()
    if config.mode == "real":
        g, labels = load_graph(config.edge_file, config.color_file)
        loaded = (g, labels)
        if job.keep == "curves" and minority_fraction(g) in (0.0, 1.0):
            raise GraphError("dataset has a single color; analysis undefined")
    else:
        g, stats = generate(config.bpam_params(), seed)
    if job.keep == "files":
        files = (f"edges_{job.index:04d}.tsv", f"colors_{job.index:04d}.tsv")
        write_edge_list(os.path.join(config.out_dir, files[0]), g)
        write_color_file(os.path.join(config.out_dir, files[1]), g)
    if job.keep == "curves":
        grid = log_grid(g.n, config.grid_points)
    # HITS reads k = 1 and subspace HITS its k: one solve at the largest
    ks = [1 if a == "hits" else spec.k for a, spec in job.specs if a in ("hits", "subspace")]
    spectrum = solve_spectrum(g, ks, config.ctrl()) if ks else None
    outputs = []
    converged = True
    for algo, spec in job.specs:
        result = compute_ranking(g, algo, spec, spectrum)
        if spec.tie_shuffle_seed is not None:
            order = rank_order(result.scores, spec.tie_shuffle_seed + seed)
            result = dataclasses.replace(result, order=order)
        converged = converged and result.converged
        if job.keep == "curves":
            result = minority_share_curve(result.order, g.colors, grid)
        outputs.append(result)
    return _Outcome(stats, outputs, converged, loaded, files)


def _fan_out(config: ExperimentConfig, jobs: list) -> list:
    """Outcomes in job order; a process pool only when there is work to share.
    The pool's modules load here, so a one-process run never pays for them."""
    if config.threads == 1 or len(jobs) == 1:
        return [_run_replica(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=config.threads) as pool:
        return list(pool.map(_run_replica, jobs))


def _replicas(config: ExperimentConfig, specs: tuple, keep: str = "curves") -> list:
    """Every replica of ``config``'s graph source, in replica order."""
    return _fan_out(config, [_Replica(config, i, specs, keep) for i in range(config.reps)])


def _curves(config: ExperimentConfig, specs: tuple) -> tuple[list, list]:
    """Replica-mean curve per spec, reduced in replica order, plus the outcomes."""
    outcomes = _replicas(config, specs)
    averaged = [
        average_curves([outcome.outputs[j] for outcome in outcomes])
        for j in range(len(specs))
    ]
    return averaged, outcomes


def _algo_specs(config: ExperimentConfig) -> tuple:
    return tuple((algo, config) for algo in config.algos)


def _converged(outcomes) -> bool:
    return all(outcome.converged for outcome in outcomes)


def _seeds(config: ExperimentConfig) -> list[int]:
    """Generator seeds of the replicas; a loaded graph has none."""
    if config.mode == "real":
        return []
    return [config.replica_seed(i) for i in range(config.reps)]


# -- run paths: each picks its outputs over the replica pipeline -----------

def run_generate(config: ExperimentConfig) -> dict:
    """Emit raw replica graphs (edge + color files) plus generation stats."""
    if config.mode == "real":
        raise ValueError("generate writes BPAM replicas; a file pair has none to write")
    t0 = time.perf_counter()
    os.makedirs(config.out_dir, exist_ok=True)
    outcomes = _replicas(config, (), keep="files")
    texts = {"stats.csv": _stats_csv([o.stats for o in outcomes])}
    written = [name for outcome in outcomes for name in outcome.files]
    return _finish("generate", config, _seeds(config), t0, texts, written)


def run_rank(config: ExperimentConfig) -> tuple[list, Optional[list]]:
    """Rank one graph under every algorithm in ``config.algos``.

    The graph is replica 0 of the BPAM source (seed ``base_seed``), or the
    loaded file pair in real mode. Returns the RankingResults in ``algos``
    order and the loaded graph's node labels (None for a generated graph).
    """
    (outcome,) = _fan_out(config, [_Replica(config, 0, _algo_specs(config), "rankings")])
    labels = outcome.loaded[1] if outcome.loaded else None
    return outcome.outputs, labels


def run_curves(config: ExperimentConfig) -> tuple[dict, dict, bool]:
    """Replica-averaged fairness curves for every configured algorithm.

    Writes ``curves.csv`` (long format) and ``manifest.json``, whose
    ``command`` is "curve" for generated graphs and "real" for a loaded file
    pair. Generated graphs add ``stats.csv`` (per replica); a loaded graph
    adds summary stats (node/edge counts, minority fraction, cross-edge
    index), per-color CCDFs and the node-id mapping. Returns (averaged
    curves, manifest, all-converged).
    """
    t0 = time.perf_counter()
    os.makedirs(config.out_dir, exist_ok=True)
    averaged, outcomes = _curves(config, _algo_specs(config))
    curves = dict(zip(config.algos, averaged))
    texts = {"curves.csv": curve_compare(curves)}
    written = []
    if config.mode == "real":
        g, labels = outcomes[0].loaded
        written.append("node_mapping.tsv")
        write_node_mapping(os.path.join(config.out_dir, written[0]), labels)
        summary = (("nodes", "edges", "minority_fraction", "hri"),
                   (g.n, g.n_edges, minority_fraction(g), hri(g)))
        texts["summary.csv"] = table(summary, header="key,value")
        texts["ccdf.csv"] = ccdf_csv(ccdf_by_color(g, config.degree_which))
    else:
        texts["stats.csv"] = _stats_csv([o.stats for o in outcomes])
    command = "curve" if config.mode == "synthetic" else "real"
    manifest = _finish(command, config, _seeds(config), t0, texts, written, curves)
    return curves, manifest, _converged(outcomes)


def sweep_configs(config: ExperimentConfig, axis: str, values: Sequence) -> list:
    """The config of each swept value, each checked as ExperimentConfig checks
    its fields: ``axis="rho"`` sets ``homophily`` and ``axis="k"`` sets
    ``k`` of the eigenspace ranker, the one ranker a k sweep runs."""
    if axis not in ("rho", "k"):
        raise ValueError("axis must be 'rho' or 'k'")
    if len(values) == 0:
        raise ValueError("empty sweep axis")
    if axis == "rho":
        if config.mode == "real":
            raise ValueError("rho sweeps a generation parameter; needs synthetic mode")
        return [dataclasses.replace(config, homophily=float(v)) for v in values]
    if any(int(v) != v for v in values):
        raise ValueError("a k sweep takes whole numbers")
    return [dataclasses.replace(config, algos=("subspace",), k=int(v)) for v in values]


def sweep(config: ExperimentConfig, axis: str, values: Sequence) -> tuple[str, dict, bool]:
    """Curve sets across a swept parameter.

    ``axis="rho"`` regenerates synthetic replicas per homophily value;
    ``axis="k"`` builds each replica graph of the configured input
    (synthetic replicas or a real dataset) once, solves its spectrum once at
    the largest k and ranks it with the eigenspace ranker at every subspace
    dimension; its manifest records ``algos`` ("subspace",) and that k.
    Emits one long-format CSV ``axis,value,algo,x,share,baseline``.
    """
    subs = sweep_configs(config, axis, values)
    t0 = time.perf_counter()
    os.makedirs(config.out_dir, exist_ok=True)
    rows = []  # (value, algo, curve)
    seeds: list[int] = []
    converged = True

    if axis == "rho":
        for sub in subs:
            averaged, outcomes = _curves(sub, _algo_specs(sub))
            rows += [(sub.homophily, algo, c) for algo, c in zip(sub.algos, averaged)]
            seeds += _seeds(sub)
            converged = converged and _converged(outcomes)
    else:
        config = max(subs, key=lambda sub: sub.k)  # what ran: subspace, up to this k
        averaged, outcomes = _curves(config, tuple(("subspace", sub) for sub in subs))
        rows = [(sub.k, "subspace", c) for sub, c in zip(subs, averaged)]
        # every value averages the same replicas, and the manifest says so
        seeds = _seeds(config) * len(values)
        converged = _converged(outcomes)

    text = table(*((repeat(axis), repeat(value), repeat(algo), *curve_columns(curve))
                   for value, algo, curve in rows),
                 header="axis,value,algo,x,share,baseline")
    manifest = _finish(f"sweep:{axis}", config, seeds, t0, {"sweep.csv": text})
    return text, manifest, converged
