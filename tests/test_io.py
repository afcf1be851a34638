"""File format round trips and parse error reporting."""

import numpy as np
import pytest

from fairank.graph import Color, GraphError, from_edge_list
from fairank.io import (
    load_graph,
    read_color_file,
    read_edge_list,
    write_color_file,
    write_edge_list,
    write_node_mapping,
)


@pytest.fixture
def toy_files(tmp_path):
    edges = tmp_path / "edges.tsv"
    colors = tmp_path / "colors.tsv"
    edges.write_text(
        "# comment line\n"
        "alice\tbob\n"
        "\n"
        "carol\talice\t# trailing comment\n"
        "bob\tcarol\n"
    )
    colors.write_text("alice\tR\nbob\tB\ncarol\tB\n")
    return edges, colors


def test_load_graph_maps_labels_in_color_order(toy_files):
    g, labels = load_graph(*toy_files)
    assert labels == ["alice", "bob", "carol"]
    assert g.n == 3 and g.n_edges == 3
    assert g.colors.tolist() == [int(Color.R), int(Color.B), int(Color.B)]
    assert (g.src.tolist(), g.dst.tolist()) == ([0, 2, 1], [1, 0, 2])


def test_round_trip_preserves_graph(tmp_path):
    g = from_edge_list([(0, 1), (1, 2), (2, 0), (0, 1)], [Color.R, Color.B, Color.B])
    write_edge_list(tmp_path / "e.tsv", g)
    write_color_file(tmp_path / "c.tsv", g)
    g2, labels = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert labels == ["0", "1", "2"]
    assert np.array_equal(g2.src, g.src)
    assert np.array_equal(g2.dst, g.dst)
    assert np.array_equal(g2.colors, g.colors)


def test_round_trip_with_labels(tmp_path, toy_files):
    g, labels = load_graph(*toy_files)
    write_edge_list(tmp_path / "e2.tsv", g, labels)
    write_color_file(tmp_path / "c2.tsv", g, labels)
    assert read_edge_list(tmp_path / "e2.tsv") == [
        ("alice", "bob"), ("carol", "alice"), ("bob", "carol")
    ]
    assert read_color_file(tmp_path / "c2.tsv") == {
        "alice": Color.R, "bob": Color.B, "carol": Color.B
    }


def test_hash_inside_label_round_trips(tmp_path):
    g = from_edge_list([(0, 1), (1, 2), (2, 0)], [Color.R, Color.B, Color.B])
    labels = ["a#b", "c", "d#"]
    write_edge_list(tmp_path / "e.tsv", g, labels)
    write_color_file(tmp_path / "c.tsv", g, labels)
    with open(tmp_path / "e.tsv", "a", encoding="utf-8") as fh:
        fh.write("# closing comment\nc\td#\t#trailing comment\n")
    g2, labels2 = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert labels2 == labels
    assert g2.src.tolist() == [0, 1, 2, 1]
    assert g2.dst.tolist() == [1, 2, 0, 2]


def test_node_mapping_file(tmp_path):
    write_node_mapping(tmp_path / "map.tsv", ["x", "y"])
    assert (tmp_path / "map.tsv").read_text() == "0\tx\n1\ty\n"


def test_parse_errors_carry_line_numbers(tmp_path):
    bad_edge = tmp_path / "bad_edges.tsv"
    bad_edge.write_text("a\tb\nc d\n")  # line 2 uses spaces, not a tab
    with pytest.raises(GraphError, match=r"bad_edges\.tsv:2: expected"):
        read_edge_list(bad_edge)

    bad_color = tmp_path / "bad_colors.tsv"
    bad_color.write_text("a\tR\nb\tpurple\n")
    with pytest.raises(GraphError, match=r"bad_colors\.tsv:2: unknown color 'purple'"):
        read_color_file(bad_color)

    dup = tmp_path / "dup.tsv"
    dup.write_text("a\tR\na\tB\n")
    with pytest.raises(GraphError, match=r"dup\.tsv:2: duplicate color for node 'a'"):
        read_color_file(dup)


def test_load_graph_missing_color_entry(tmp_path):
    (tmp_path / "e.tsv").write_text("a\tb\nb\tz\n")
    (tmp_path / "c.tsv").write_text("a\tR\nb\tB\n")
    with pytest.raises(GraphError, match="node 'z' has no entry"):
        load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")


def test_load_graph_empty_inputs(tmp_path):
    (tmp_path / "e.tsv").write_text("# only a comment\n")
    (tmp_path / "c.tsv").write_text("a\tR\nb\tB\n")
    with pytest.raises(GraphError, match="no edge records"):
        load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    (tmp_path / "c0.tsv").write_text("\n")
    with pytest.raises(GraphError, match="no color records"):
        load_graph(tmp_path / "e.tsv", tmp_path / "c0.tsv")
