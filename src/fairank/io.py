"""Reading and writing the on-disk graph formats.

Edge lists are tab-separated ``src<TAB>dst`` lines; color files are
``node<TAB>R`` / ``node<TAB>B``. Blank lines are ignored in both, and a
``#`` at the start of a line or of a tab-separated field starts a comment
that runs to the end of the line; a ``#`` inside a label is kept. Node labels may be arbitrary strings; they are remapped
to dense ids in color-file order and the mapping can be written back out.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterable, Sequence

import numpy as np

from .graph import Color, ColoredDigraph, GraphError, from_edge_list

__all__ = [
    "read_edge_list",
    "read_color_file",
    "load_graph",
    "write_edge_list",
    "write_color_file",
    "write_node_mapping",
]


def _drop_comment(line: str) -> str:
    """Cut a line at the first tab-separated field that starts with ``#``."""
    fields = line.split("\t")
    for i, field in enumerate(fields):
        if field.lstrip().startswith("#"):
            return "\t".join(fields[:i])
    return line


def _records(path) -> Iterable[tuple[int, list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if "#" in line:
                line = _drop_comment(line)
            body = line.strip()
            if not body:
                continue
            yield lineno, body.split("\t")


def read_edge_list(path) -> list[tuple[str, str]]:
    """Parse ``src<TAB>dst`` lines into label pairs (labels kept as text)."""
    edges = []
    for lineno, fields in _records(path):
        if len(fields) != 2:
            raise GraphError(f"{path}:{lineno}: expected 'src<TAB>dst'")
        edges.append((fields[0].strip(), fields[1].strip()))
    return edges


def read_color_file(path) -> dict[str, Color]:
    """Parse ``node<TAB>color`` lines; duplicate nodes are an error."""
    colors: dict[str, Color] = {}
    for lineno, fields in _records(path):
        if len(fields) != 2:
            raise GraphError(f"{path}:{lineno}: expected 'node<TAB>color'")
        label = fields[0].strip()
        if label in colors:
            raise GraphError(f"{path}:{lineno}: duplicate color for node {label!r}")
        try:
            colors[label] = Color.parse(fields[1])
        except GraphError as exc:
            raise GraphError(f"{path}:{lineno}: {exc}") from None
    return colors


def load_graph(edge_path, color_path) -> tuple[ColoredDigraph, list[str]]:
    """Load a colored digraph from an edge file plus a color file.

    Labels become dense ids in color-file order. Returns the graph and the
    label list (``labels[i]`` is the original name of node ``i``). Edges
    mentioning a node that has no color entry are an error.
    """
    color_map = read_color_file(color_path)
    if not color_map:
        raise GraphError(f"{color_path}: no color records")
    labels = list(color_map.keys())
    index = {label: i for i, label in enumerate(labels)}

    raw_edges = read_edge_list(edge_path)
    if not raw_edges:
        raise GraphError(f"{edge_path}: no edge records")
    try:
        ids = np.fromiter(
            map(index.__getitem__, itertools.chain.from_iterable(raw_edges)),
            np.int64,
            count=2 * len(raw_edges),
        )
    except KeyError as exc:
        # the line is looked up only here, off the fast path; a stream that
        # cannot be read twice (a pipe) leaves the bare path
        label = exc.args[0]
        where = next((f"{edge_path}:{no}" for no, fields in _records(edge_path)
                      if label in (field.strip() for field in fields)), edge_path)
        raise GraphError(
            f"{where}: node {label!r} has no entry in {os.fspath(color_path)}"
        ) from None
    edges = ids.reshape(-1, 2)

    color_arr = np.fromiter((int(color_map[l]) for l in labels), dtype=np.uint8)
    return from_edge_list(edges, color_arr), labels


def _label(labels: Sequence[str] | None, node: int) -> str:
    return str(node) if labels is None else labels[node]


def write_edge_list(path, g: ColoredDigraph, labels: Sequence[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s, d in zip(g.src.tolist(), g.dst.tolist()):
            fh.write(f"{_label(labels, s)}\t{_label(labels, d)}\n")


def write_color_file(path, g: ColoredDigraph, labels: Sequence[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for node, c in enumerate(g.colors.tolist()):
            fh.write(f"{_label(labels, node)}\t{Color(c).name}\n")


def write_node_mapping(path, labels: Sequence[str]) -> None:
    """Write ``id<TAB>original_label`` lines recording the dense remapping."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for node, label in enumerate(labels):
            fh.write(f"{node}\t{label}\n")
