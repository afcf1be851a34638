"""Outside-in tracing of fairank for the benchmark's traced run.

Nothing under ``src/`` changes: the tracer replaces module attributes at the
boundaries the pipeline crosses with timing wrappers, from outside the
package. It wraps

- every function ``fairank.experiments`` imports from another fairank
  module (bpam, rankers, fairness, io, graph);
- every function ``fairank.cli`` imports from another fairank module
  (the experiments entry points, and the loaders ``rank`` uses);
- ``from_edge_list`` as bound in ``fairank.bpam`` and in ``fairank.io``.

The caller times ``fairank.cli.main`` itself as the root span. Spans stay in
memory; :meth:`Tracer.summary` reduces them per name (calls, total time,
self time) at the end. Self time is a span's duration minus the durations
of its direct child spans, so the self times of all spans add up to the
root spans' durations.

:func:`per_layer` turns one summary into the benchmark's ``per_layer``
metrics. It imports nothing from fairank, so the parent process can use it.
"""

from __future__ import annotations

import functools
import inspect
import os
from time import perf_counter

# ranker function name -> CLI algorithm name
RANKERS = {
    "degree_rank": "degree",
    "pagerank": "pagerank",
    "hits": "hits",
    "randomized_hits": "rhits",
    "subspace_hits": "subspace",
}

_WRITERS = ("write_edge_list", "write_color_file", "write_node_mapping")


class Tracer:
    """Span recorder plus the counts read off wrapped calls' results."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.counts = {
            "rankers": {algo: {"iterations": 0, "nonconverged": 0, "degenerate": 0}
                        for algo in RANKERS.values()},
            "bpam": {"edges": 0, "rejections": 0},
            "io": {"bytes_written": 0, "bytes_read": 0},
        }
        self.probes = {"hits_fixed_s": 0.0, "rank_order_s": 0.0}
        self._graphs = []  # graphs produced since the last probe
        self._scores = []  # ranking scores produced since the last probe

    # -- spans ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, module, attr, name):
        fn = getattr(module, attr)
        hook = self._hook(attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result

        setattr(module, attr, traced)

    def install(self):
        """Patch the fairank modules; call once, after importing them."""
        import fairank.bpam
        import fairank.cli
        import fairank.experiments
        import fairank.io

        for module in (fairank.experiments, fairank.cli):
            for attr, value in list(vars(module).items()):
                owner = getattr(value, "__module__", "") or ""
                if (inspect.isfunction(value) and owner.startswith("fairank.")
                        and owner != module.__name__):
                    self._wrap(module, attr, f"{owner.rsplit('.', 1)[1]}.{attr}")
        for module in (fairank.bpam, fairank.io):
            if hasattr(module, "from_edge_list"):
                self._wrap(module, "from_edge_list", "graph.from_edge_list")

    # -- counts read off results ---------------------------------------

    def _hook(self, attr):
        if attr == "generate":
            return self._on_generate
        if attr == "load_graph":
            return self._on_load
        if attr in _WRITERS:
            return self._on_write
        if attr in RANKERS:
            return functools.partial(self._on_ranking, RANKERS[attr])
        return None

    def _on_generate(self, args, result):
        graph, stats = result
        self.counts["bpam"]["edges"] += int(graph.n_edges)
        self.counts["bpam"]["rejections"] += int(stats.rejection_count)
        self._graphs.append(graph)

    def _on_load(self, args, result):
        self.counts["io"]["bytes_read"] += sum(os.path.getsize(p) for p in args[:2])
        self._graphs.append(result[0])

    def _on_write(self, args, result):
        self.counts["io"]["bytes_written"] += os.path.getsize(args[0])

    def _on_ranking(self, algo, args, result):
        ranking = result[0] if isinstance(result, tuple) else result
        counts = self.counts["rankers"][algo]
        counts["iterations"] += int(ranking.iterations_used)
        counts["nonconverged"] += 0 if ranking.converged else 1
        counts["degenerate"] += 1 if ranking.degenerate else 0
        self._scores.append(ranking.scores)

    # -- probes run between commands, outside every span ----------------

    def probe(self):
        """Time the HITS fixed cost and ``rank_order`` on what the last
        command produced, then drop the references."""
        from fairank.rankers import IterationControl, hits, rank_order

        one_sweep = IterationControl(max_iter=1)
        for graph in self._graphs:
            start = perf_counter()
            hits(graph, one_sweep)
            self.probes["hits_fixed_s"] += perf_counter() - start
        for scores in self._scores:
            start = perf_counter()
            rank_order(scores)
            self.probes["rank_order_s"] += perf_counter() - start
        self._graphs.clear()
        self._scores.clear()

    # -- reduction -----------------------------------------------------

    def summary(self):
        """Per span name: [calls, total seconds, self seconds]."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        buckets = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = buckets.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        return {"buckets": buckets, "counts": self.counts, "probes": self.probes}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(summary, traced_wall_s):
    """Per-layer metrics ``{name: (value, unit)}`` of one traced iteration.

    ``traced_wall_s`` is the summed wall time of the iteration's commands.
    Every span name feeds exactly one metric or ``trace.other_s``, so the
    self-time metrics plus ``trace.other_s`` and ``trace.remainder_s`` add
    up to ``trace.wall_s``.
    """
    buckets = summary["buckets"]
    counts = summary["counts"]
    used = set()

    def calls(name):
        used.add(name)
        return buckets.get(name, [0, 0.0, 0.0])[0]

    def total(*names):
        used.update(names)
        return sum(buckets.get(n, [0, 0.0, 0.0])[1] for n in names)

    def self_time(*names):
        used.update(names)
        return sum(buckets.get(n, [0, 0.0, 0.0])[2] for n in names)

    m = {}
    for attr, algo in RANKERS.items():
        seconds = total(f"rankers.{attr}")
        rc = counts["rankers"][algo]
        m[f"rankers.{algo}.s"] = (seconds, "s")
        m[f"rankers.{algo}.iterations"] = (rc["iterations"], "count")
        m[f"rankers.{algo}.s_per_iter"] = (_ratio(seconds, rc["iterations"]), "s")
        m[f"rankers.{algo}.nonconverged"] = (rc["nonconverged"], "count")
        m[f"rankers.{algo}.degenerate"] = (rc["degenerate"], "count")
    m["rankers.hits.fixed_s"] = (summary["probes"]["hits_fixed_s"], "s")
    m["rankers.rank_order.s"] = (summary["probes"]["rank_order_s"], "s")

    graphs = calls("bpam.generate")
    edges = counts["bpam"]["edges"]
    rejections = counts["bpam"]["rejections"]
    drawn = edges - graphs  # each graph's seed edge is not drawn
    m["bpam.generate.self_s"] = (self_time("bpam.generate"), "s")
    m["bpam.generate.calls"] = (graphs, "count")
    m["bpam.ns_per_edge"] = (_ratio(total("bpam.generate") * 1e9, edges), "ns")
    m["bpam.edges"] = (edges, "count")
    m["bpam.rejections"] = (rejections, "count")
    m["bpam.accept_ratio"] = (_ratio(drawn, drawn + rejections), "ratio")

    m["graph.from_edge_list.s"] = (total("graph.from_edge_list"), "s")
    m["graph.from_edge_list.calls"] = (calls("graph.from_edge_list"), "count")
    m["graph.summary.s"] = (
        total("graph.ccdf_by_color", "graph.hri", "graph.minority_fraction"), "s")

    write_s = total(*(f"io.{w}" for w in _WRITERS))
    load_s = total("io.load_graph")
    m["io.write.s"] = (write_s, "s")
    m["io.load_graph.self_s"] = (self_time("io.load_graph"), "s")
    m["io.bytes_written"] = (counts["io"]["bytes_written"], "bytes")
    m["io.bytes_read"] = (counts["io"]["bytes_read"], "bytes")
    m["io.write_mb_per_s"] = (_ratio(counts["io"]["bytes_written"] / 1e6, write_s), "MB/s")
    m["io.read_mb_per_s"] = (_ratio(counts["io"]["bytes_read"] / 1e6, load_s), "MB/s")

    m["fairness.share_curve.s"] = (
        total("fairness.minority_share_curve", "fairness.log_grid"), "s")
    m["fairness.aggregate.s"] = (
        total("fairness.average_curves", "fairness.curve_compare"), "s")

    m["experiments.self_s"] = (
        self_time(*(n for n in buckets if n.startswith("experiments."))), "s")
    m["cli.self_s"] = (self_time("cli.main"), "s")

    all_self = sum(entry[2] for entry in buckets.values())
    m["trace.wall_s"] = (traced_wall_s, "s")
    m["trace.other_s"] = (
        sum((e[2] for n, e in buckets.items() if n not in used), 0.0), "s")
    m["trace.remainder_s"] = (traced_wall_s - all_self, "s")
    return m


def layer_self_times(summary):
    """Self seconds per layer (the span name's prefix), for the report."""
    layers = {}
    for name, (_, _, self_s) in summary["buckets"].items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    return layers
