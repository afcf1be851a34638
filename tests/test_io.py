"""File format round trips and parse error reporting."""

import os
import tracemalloc
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

import fairank.io
from fairank.bpam import BpamParams, generate
from fairank.cli import main
from fairank.graph import Color, GraphError, from_edge_list
from fairank.io import (
    load_graph,
    table,
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


def test_hash_inside_label_round_trips(tmp_path):
    (tmp_path / "e.tsv").write_text(
        "a#b\tc\nc\td#\nd#\ta#b\n# closing comment\nc\td#\t#trailing comment\n"
    )
    (tmp_path / "c.tsv").write_text("a#b\tR\nc\tB\nd#\tB\n")
    g2, labels2 = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert labels2 == ["a#b", "c", "d#"]
    assert g2.src.tolist() == [0, 1, 2, 1]
    assert g2.dst.tolist() == [1, 2, 0, 2]


def test_node_mapping_file(tmp_path):
    write_node_mapping(tmp_path / "map.tsv", ["x", "y"])
    assert (tmp_path / "map.tsv").read_text() == "0\tx\n1\ty\n"


_PERMUTED = np.random.default_rng(8).permutation(1002).tolist()


@pytest.mark.parametrize("values", [list(range(1002)), _PERMUTED, [*range(11), 99, 100, 1001]],
                         ids=["in_order", "permuted", "sparse"])
def test_node_mapping_of_decimal_labels_is_rendered_in_numpy(tmp_path, monkeypatch, values):
    # labels loaded as canonical decimals, of every width up to 1001, are
    # written from their values: the same bytes as the table writer
    (tmp_path / "e.tsv").write_text("0\t1\n")
    (tmp_path / "c.tsv").write_text("".join(f"{v}\t{'RB'[v % 2]}\n" for v in values))
    _, labels = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert labels == [str(v) for v in values]
    expected = table((range(len(values)), labels), sep="\t").encode()
    monkeypatch.setattr(fairank.io, "_SLICE", 7)  # ids of one width span slices
    monkeypatch.setattr(fairank.io, "table", None)  # not called
    write_node_mapping(tmp_path / "map.tsv", labels)
    assert (tmp_path / "map.tsv").read_bytes() == expected


@pytest.mark.parametrize("change", [
    lambda labels: labels.__setitem__(0, "x"),
    lambda labels: labels.reverse(),
    lambda labels: labels.sort(key=len, reverse=True),
    lambda labels: labels.append("12"),
    lambda labels: labels.pop(),
    lambda labels: labels.__delitem__(slice(3, 5)),
    lambda labels: labels.__iadd__(["x"]),
], ids=["setitem", "reverse", "sort", "append", "pop", "delitem", "iadd"])
def test_node_mapping_of_changed_decimal_labels_follows_the_list(tmp_path, change):
    # the values the mapping is written from never outlive a change to the labels
    (tmp_path / "e.tsv").write_text("0\t1\n")
    (tmp_path / "c.tsv").write_text("".join(f"{v}\tR\n" for v in range(12)))
    _, labels = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    change(labels)
    write_node_mapping(tmp_path / "map.tsv", labels)
    assert (tmp_path / "map.tsv").read_text() == table((range(len(labels)), labels), sep="\t")


def test_node_mapping_of_string_labels_keeps_the_table_writer(tmp_path, monkeypatch):
    (tmp_path / "e.tsv").write_text("0\tx\n")
    (tmp_path / "c.tsv").write_text("0\tR\nx\tB\n10\tB\n")
    _, labels = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    written = []
    monkeypatch.setattr(fairank.io, "table", lambda *blocks, **kw: written.append(blocks) or "")
    write_node_mapping(tmp_path / "map.tsv", labels)
    assert written == [((range(3), ["0", "x", "10"]),)]


def _is_canonical(label):
    """Whether ``label`` is a canonical decimal below 10**18, by ``int``."""
    return (label.isascii() and label.isdigit() and str(int(label)) == label
            and int(label) < 10**18)


_LABEL_SETS = [[], ["0"], ["7", "10", "99", "100", "1001"], ["01"], ["1", "01"], ["+1"],
               ["-1"], ["\u0661"], [" 1"], ["1e3"], ["1\n2"], [str(10**18 - 1)], [str(10**18)]]


@pytest.mark.parametrize("labels", [*_LABEL_SETS, [*"0123456", "x", *map(str, range(8, 20))]],
                         ids=[*map(repr, _LABEL_SETS), "x_in_the_second_of_3_slices"])
def test_node_mapping_writer_follows_each_slice_of_labels(tmp_path, monkeypatch, labels):
    # a slice of canonical decimals is rendered from its values in NumPy,
    # any other slice by the table writer, to the same bytes
    expected = table((range(len(labels)), labels), sep="\t").encode()
    paths = []
    ascii_rows, table_writer = fairank.io._ascii_rows, fairank.io.table
    monkeypatch.setattr(fairank.io, "_SLICE", 7)
    monkeypatch.setattr(fairank.io, "_ascii_rows",
                        lambda *a: paths.append("numpy") or ascii_rows(*a))
    monkeypatch.setattr(fairank.io, "table",
                        lambda *a, **kw: paths.append("table") or table_writer(*a, **kw))
    write_node_mapping(tmp_path / "map.tsv", labels)
    assert (tmp_path / "map.tsv").read_bytes() == expected
    slices = [labels[lo:lo + 7] for lo in range(0, len(labels), 7)]
    assert paths == ["numpy" if all(map(_is_canonical, part)) else "table" for part in slices]


def test_write_node_mapping_holds_one_slice_of_the_labels(tmp_path, monkeypatch):
    # string labels go through the table writer one slice at a time, so the
    # peak follows the slice, not the node count. Measured 3.7 bytes per
    # label with CPython 3.11 and NumPy 2.4, where the whole table at once
    # peaked at 69; the bound is the other writers' 20
    monkeypatch.setattr(fairank.io, "_SLICE", 4096)
    labels = [f"n{i}" for i in range(100_000)]
    tracemalloc.start()
    try:
        write_node_mapping(tmp_path / "map.tsv", labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "map.tsv").read_text() == "".join(f"{i}\tn{i}\n" for i in range(100_000))
    assert peak / len(labels) <= 20


# every kind of value the package writes, and labels that would be format
# directives if they were part of the format string
_VALUES = [7, -3, 0.1, 3.0000000000000004, float("nan"), float("inf"), float("-inf"),
           -0.0, 5e-324, 1e300, True, np.float64(0.1), np.int64(-5),
           "50%", "%s", "%%", "{}", "a#b"]


def _blocks():
    """Fresh blocks on every call, since map and repeat columns are one-shot."""
    return [
        (_VALUES, _VALUES[::-1]),
        (range(len(_VALUES)), map(str, _VALUES), repeat("%d")),
        (range(5), _VALUES),  # ragged: the shortest column ends the block
        ([], range(3)),
        (_VALUES[:2],),
    ]


def _rows_by_str(blocks, header, sep):
    """The text of a table, one ``str`` call per field."""
    head = "" if header is None else header + "\n"
    return head + "".join(sep.join(map(str, row)) + "\n"
                          for columns in blocks for row in zip(*columns))


@pytest.mark.parametrize("sep", [",", "\t"])
@pytest.mark.parametrize("header", [None, "a,b"])
def test_table_writes_str_of_each_field(sep, header):
    assert table(*_blocks(), header=header, sep=sep) == _rows_by_str(_blocks(), header, sep)
    for block, same in zip(_blocks(), _blocks()):
        assert table(block, header=header, sep=sep) == _rows_by_str([same], header, sep)


def test_labels_that_hold_format_directives_are_written_as_read(tmp_path):
    labels = ["50%", "%s", "{0}", "a%db"]
    (tmp_path / "e.tsv").write_text("50%\t%s\n%s\t{0}\n{0}\ta%db\na%db\t50%\n50%\t{0}\n")
    (tmp_path / "c.tsv").write_text("50%\tR\n%s\tB\n{0}\tB\na%db\tR\n")
    files = ["--edges", str(tmp_path / "e.tsv"), "--colors", str(tmp_path / "c.tsv")]
    assert main(["real", *files, "--algos", "degree", "--out-dir", str(tmp_path / "out")]) == 0
    mapping = (tmp_path / "out" / "node_mapping.tsv").read_bytes()
    assert mapping == b"0\t50%\n1\t%s\n2\t{0}\n3\ta%db\n"
    out = tmp_path / "ranking.csv"
    assert main(["rank", *files, "--algo", "degree", "--out", str(out)]) == 0
    rows = out.read_text().split("\n")[1:-1]
    assert sorted(row.split(",")[0] for row in rows) == sorted(labels)


def test_parse_errors_carry_line_numbers(tmp_path):
    bad_edge = tmp_path / "bad_edges.tsv"
    bad_edge.write_text("a\tb\nc d\n")  # line 2 uses spaces, not a tab
    (tmp_path / "c.tsv").write_text("a\tR\nb\tB\nc\tB\n")
    with pytest.raises(GraphError, match=r"bad_edges\.tsv:2: expected 'src<TAB>dst'"):
        load_graph(bad_edge, tmp_path / "c.tsv")

    (tmp_path / "e.tsv").write_text("a\tb\n")  # the color file is read first
    bad_color = tmp_path / "bad_colors.tsv"
    bad_color.write_text("a\tR\nb\tpurple\n")
    with pytest.raises(GraphError, match=r"bad_colors\.tsv:2: unknown color 'purple'"):
        load_graph(tmp_path / "e.tsv", bad_color)

    dup = tmp_path / "dup.tsv"
    dup.write_text("a\tR\na\tB\n")
    with pytest.raises(GraphError, match=r"dup\.tsv:2: duplicate color for node 'a'"):
        load_graph(tmp_path / "e.tsv", dup)


def test_load_graph_missing_color_entry(tmp_path):
    (tmp_path / "e.tsv").write_text("a\tb\n\n# z\nb\tz\n")
    (tmp_path / "c.tsv").write_text("a\tR\nb\tB\n")
    with pytest.raises(GraphError, match=r"e\.tsv:4: node 'z' has no entry"):
        load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_graph_missing_color_entry_on_a_pipe(tmp_path):
    # the labels are mapped as the lines are read, so a pipe names the line too
    (tmp_path / "c.tsv").write_text("a\tR\nb\tB\n")
    read_end, write_end = os.pipe()
    os.write(write_end, b"a\tb\nb\tz\n")
    os.close(write_end)
    try:
        with pytest.raises(GraphError, match=rf"^/dev/fd/{read_end}:2: node 'z' has no entry"):
            load_graph(f"/dev/fd/{read_end}", tmp_path / "c.tsv")
    finally:
        os.close(read_end)


def test_load_graph_reports_the_first_fault_in_file_order(tmp_path):
    (tmp_path / "e.tsv").write_text("a\tb\nb\tz\na\tb\nb a\n")
    (tmp_path / "c.tsv").write_text("a\tR\nb\tB\n")
    with pytest.raises(GraphError, match=r"e\.tsv:2: node 'z' has no entry"):
        load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")


def test_load_graph_keeps_no_label_table(tmp_path):
    # one pass maps labels to ids as it reads; a table of label pairs would
    # cost ~200 bytes per edge on top of the graph
    g, _ = generate(BpamParams(10_000, 6, 0.3, 0.1), seed=3)
    write_edge_list(tmp_path / "e.tsv", g)
    write_color_file(tmp_path / "c.tsv", g)
    tracemalloc.start()
    try:
        loaded, _ = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.n_edges == g.n_edges
    assert peak / g.n_edges <= 120


def test_load_graph_keeps_no_color_dict(tmp_path):
    # a color file of canonical decimals is parsed in NumPy: the peak is the
    # label strings that load_graph returns (~61 bytes each) and a few
    # arrays. Measured 104 bytes per node with CPython 3.11 and NumPy 2.4,
    # where the color dict peaked at 132; the bound adds 15%
    g, _ = generate(BpamParams(10_000, 6, 0.3, 0.1), seed=3)
    write_color_file(tmp_path / "c.tsv", g)
    (tmp_path / "e.tsv").write_text("0\t1\n")
    tracemalloc.start()
    try:
        loaded, _ = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.colors, g.colors)
    assert peak / g.n <= 120


def test_write_edge_list_holds_one_slice_of_the_endpoints(tmp_path, monkeypatch):
    # the endpoints are rendered to text one slice at a time, so the peak
    # follows the slice, not the edge count; the digit buffers of every
    # edge at once would cost ~70 bytes per edge. A small slice keeps the
    # traced write quick
    monkeypatch.setattr(fairank.io, "_SLICE", 4096)
    rng = np.random.default_rng(5)
    g = from_edge_list(rng.integers(0, 50_000, size=(60_000, 2)),
                       rng.integers(0, 2, size=50_000))
    tracemalloc.start()
    try:
        write_edge_list(tmp_path / "e.tsv", g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = "".join(f"{s}\t{d}\n" for s, d in zip(g.src.tolist(), g.dst.tolist()))
    assert (tmp_path / "e.tsv").read_text() == expected
    assert peak / g.n_edges <= 20


def test_write_color_file_holds_one_slice_of_the_nodes(tmp_path, monkeypatch):
    # the ids and color letters are rendered one slice at a time, as the
    # edges are; the whole table's Python strings at once cost ~70 bytes
    # per node
    monkeypatch.setattr(fairank.io, "_SLICE", 4096)
    rng = np.random.default_rng(5)
    g = from_edge_list(rng.integers(0, 50_000, size=(60_000, 2)),
                       rng.integers(0, 2, size=50_000))
    tracemalloc.start()
    try:
        write_color_file(tmp_path / "c.tsv", g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "c.tsv").read_text() == _colors_by_str(g)
    assert peak / g.n <= 20


def _colors_by_str(g):
    """The text of a color file, one ``str`` call per id."""
    return "".join(f"{i}\t{Color(c).name}\n" for i, c in enumerate(g.colors.tolist()))


def _boundary_graph(n):
    """A graph on ``n`` nodes whose edges join 0, ``n - 1`` and every id
    below ``n`` at a digit-width boundary (9, 10, 99, 100, ...), each id
    as a source and as a target, beside ids of other widths."""
    ids = sorted({0, n - 1} | {v for k in range(1, 19) for v in (10**k - 1, 10**k) if v < n})
    edges = list(zip(ids, ids[::-1])) + list(zip(ids, ids[1:]))
    return from_edge_list(edges, [Color.R if i % 3 else Color.B for i in range(n)])


_WRITTEN_GRAPHS = [
    *(_boundary_graph(n) for n in (1, 2, 10, 11, 1000, 1001)),
    from_edge_list([(1, 0)], [Color.R, Color.B]),  # one edge
    from_edge_list([(10, 10)], [Color.B] * 11),  # a self loop
]


@pytest.mark.parametrize("slice_rows", [1, 7, 4096])
@pytest.mark.parametrize("g", _WRITTEN_GRAPHS,
                         ids=[f"n{g.n}-m{g.n_edges}" for g in _WRITTEN_GRAPHS])
def test_writers_give_str_of_each_id(tmp_path, monkeypatch, g, slice_rows):
    # slices of 1 and 7 rows split the ids of one width across slices
    monkeypatch.setattr(fairank.io, "_SLICE", slice_rows)
    write_edge_list(tmp_path / "e.tsv", g)
    write_color_file(tmp_path / "c.tsv", g)
    expected = "".join(f"{s}\t{d}\n" for s, d in zip(g.src.tolist(), g.dst.tolist()))
    assert (tmp_path / "e.tsv").read_bytes() == expected.encode()
    assert (tmp_path / "c.tsv").read_bytes() == _colors_by_str(g).encode()


def test_ascii_rows_gives_str_of_each_value_at_every_width():
    values = [0, 9, 10, 99, 100, *(10**k + d for k in range(3, 19) for d in (-1, 0)), 2**63 - 1]
    col = np.array(values, dtype=np.int64)
    letters = np.frombuffer(b"RB" * len(values), dtype=np.uint8)[:len(values)]
    expected = "".join(f"{a}\t{b},{chr(c)}\n"
                       for a, b, c in zip(values, values[::-1], letters.tolist()))
    assert fairank.io._ascii_rows((col, col[::-1], letters), b"\t,\n") == expected.encode()
    for value in values:  # a column as wide as its one value
        assert fairank.io._ascii_rows((np.array([value]),), b"\n") == f"{value}\n".encode()


def test_load_graph_empty_inputs(tmp_path):
    (tmp_path / "e.tsv").write_text("# only a comment\n")
    (tmp_path / "c.tsv").write_text("a\tR\nb\tB\n")
    with pytest.raises(GraphError, match="no edge records"):
        load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    (tmp_path / "c0.tsv").write_text("\n")
    with pytest.raises(GraphError, match="no color records"):
        load_graph(tmp_path / "e.tsv", tmp_path / "c0.tsv")


def test_a_byte_order_mark_is_not_part_of_a_label(tmp_path, monkeypatch):
    for chunk in (1, 2, 7, 1 << 16):  # the mark may span reads
        monkeypatch.setattr(fairank.io, "_CHUNK", chunk)
        (tmp_path / "e.tsv").write_text("0\t1\n1\t0\n", encoding="utf-8")
        (tmp_path / "c.tsv").write_text("0\tR\n1\tB\n", encoding="utf-8-sig")
        g, labels = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
        assert labels == ["0", "1"] and g.src.tolist() == [0, 1], chunk
        (tmp_path / "e.tsv").write_text("0\t1\n1\t0\n", encoding="utf-8-sig")
        _, labels = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
        assert labels == ["0", "1"], chunk


def _numbered_files(n):
    edges = "".join(f"{i}\t{(i + 1) % n}\n" for i in range(n)).encode()
    colors = "".join(f"{i}\t{'RB'[i % 2]}\n" for i in range(n)).encode()
    return edges, colors


def _spoil(text: bytes, line: int, byte: bytes) -> bytes:
    """``text`` with ``byte`` put at the start of line ``line`` (1-based)."""
    lines = text.split(b"\n")
    lines[line - 1] = byte + lines[line - 1]
    return b"\n".join(lines)


# line 3 lies in the first chunk, line 12,000 past the first 64 Ki bytes
@pytest.mark.parametrize("line", [3, 12_000])
@pytest.mark.parametrize("spoiled", ["e.tsv", "c.tsv"])
def test_a_byte_that_is_not_utf8_names_its_file_and_line(tmp_path, spoiled, line):
    edges, colors = _numbered_files(20_000)
    for newline in (b"\n", b"\r\n", b"\r"):
        for name, text in (("e.tsv", edges), ("c.tsv", colors)):
            text = _spoil(text, line, b"\xff") if name == spoiled else text
            (tmp_path / name).write_bytes(text.replace(b"\n", newline))
        with pytest.raises(GraphError, match=rf"{spoiled}:{line}: not UTF-8$"):
            load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")


@pytest.mark.parametrize("line", [3, 12_000])
def test_faults_before_a_byte_that_is_not_utf8_come_first(tmp_path, line):
    # a truncated two-byte sequence on the next line, in the same chunk
    edges, colors = _numbered_files(20_000)
    edges = _spoil(_spoil(edges, line - 1, b"z"), line, b"\xc3")
    (tmp_path / "e.tsv").write_bytes(edges)
    (tmp_path / "c.tsv").write_bytes(colors)
    with pytest.raises(GraphError, match=rf"e\.tsv:{line - 1}: node 'z\d+' has no entry"):
        load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")


# -- the bulk path and the line parser ----------------------------------------

# plain lines around each input, so its odd lines fall in later chunks
_PLAIN_EDGES = "".join(f"{i}\t{(7 * i) % 40}\n" for i in range(40))
_PLAIN_COLORS = "".join(f"{i}\t{'RB'[i % 3 == 0]}\n" for i in range(40))
_LONG = "x" * 300


def _permuted_decimals(seed):
    """1,000 color lines of the labels 40..1039 in a seeded order, where the
    501st repeats the 201st's label."""
    labels = (np.random.default_rng(seed).permutation(1000) + 40).tolist()
    labels[500] = labels[200]
    return "".join(f"{v}\t{'BR'[v % 3 == 0]}\n" for v in labels)


# (id, edge lines, color lines) put between the plain edge and color lines
PARSE_CASES = [
    ("comments", "# note\n3\ta#b\t# tail\n  # indented\na#b\t4 # no\n", "a#b\tR\n4 # no\tb\n#\n"),
    ("blank_lines_and_stray_tabs", "\n\t\n\t3\t5\n5\t3\t\n \t\n3\t 5\n\n", "\n\t\n"),
    ("double_tab", "3\t\t5\n", ""),
    ("tab_then_line", "3\t\n5\n", ""),
    ("three_fields", "3\t5\t6\n", ""),
    ("three_fields_then_one", "3\t5\t6\n7\n", ""),
    ("spaced_and_non_ascii_labels", "a b\tc d\né\t3\n", "a b\tB\nc d\tR\né\tR\n"),
    ("long_line", f"{_LONG}\t3\n3\t{_LONG}\n", f"{_LONG}\tR\n"),
    ("missing_label", "3\tz\n", ""),
    ("missing_then_bad_line", "3\tz\n3 5\n", ""),
    ("duplicate_color", "", "7\tB\n"),
    ("bad_color", "", "x\tpurple\n"),
    ("duplicate_in_one_chunk", "", "x\tR\nx\tR\n"),
    ("lower_case_and_spaced_colors", "x\ty\n", "x\tr\ny\t b \n"),
    # decimal labels: the id table holds the canonical ones, so any other
    # spelling of a number must not reach it
    ("leading_zero_beside_one", "01\t1\n1\t01\n", "01\tB\n"),
    ("leading_zero_with_no_entry", "3\t01\n", ""),
    ("zero_and_double_zero", "0\t00\n00\t0\n", "00\tR\n"),
    ("double_zero_with_no_entry", "0\t00\n", ""),
    ("signed_labels", "-1\t1\n+1\t1\n", "-1\tR\n+1\tB\n"),
    ("signed_label_with_no_entry", "3\t+1\n", ""),
    ("twenty_digit_label", "3\t12345678901234567890\n", "12345678901234567890\tR\n"),
    ("twenty_digit_label_with_no_entry", "3\t99999999999999999999\n", ""),
    ("label_above_the_table", "3\t40\n", ""),
    ("decimal_label_with_no_entry", "3\t42\n", "45\tR\n"),
    ("color_labels_inside_the_table_span", "3\t327\n", "327\tR\n"),
    ("sparse_color_labels", "3\t328\n", "328\tR\n"),
    ("non_canonical_color_label", "7\t07\n", "07\tR\n"),
    # color files of decimal labels: a chunk that is not all decimal
    # label, tab and color letter sends it and every later chunk to the
    # dict, with the labels read so far
    ("decimal_duplicate_in_a_later_chunk", "3\t45\n",
     "".join(f"{i}\tB\n" for i in range(40, 50)) + "45\tR\n"),
    ("two_decimal_duplicates", "", "40\tR\n41\tR\n41\tB\n40\tB\n"),
    ("duplicate_then_bad_color", "", "40\tR\n7\tB\n41\tpurple\n"),
    # the NumPy duplicate check names the later line only if its sort of
    # the label values is stable; an unstable one orders an equal pair by
    # the input and the CPU's sort kernel, so two orders are tried
    ("decimal_duplicate_among_1000_permuted", "", _permuted_decimals(0)),
    ("decimal_duplicate_among_1000_permuted_again", "", _permuted_decimals(1)),
    ("decimal_beside_its_leading_zero", "40\t040\n040\t40\n", "40\tB\n040\tR\n"),
    ("lower_case_decimal_colors", "3\t40\n41\t3\n", "40\tr\n41\tb\n"),
    ("unknown_color_letter", "", "40\tX\n"),
    ("two_color_letters", "", "40\tRB\n"),
    ("spaced_color_letter", "3\t40\n", "40\t R\n"),
    ("digits_in_the_color_field", "", "\t5R\n"),
    ("tab_in_the_color_field", "", "40\t\t\n"),
    ("missing_color_then_blank_line", "", "40\tR\n41\t\n\n42\tB\n"),
    ("digits_after_the_color_letter", "", "\tR5\n"),
    ("color_letter_before_the_tab", "", "40R\t\n"),
    ("color_letter_starts_the_next_line", "", "40\t\nR41\tB\n"),
    ("comment_and_blank_line_in_decimals", "3\t41\n42\t40\n",
     "40\tR\n# note\n41\tB\n\n42\tR\n"),
    ("labels_past_eight_times_n", "3\t999\n999\t40\n", "40\tR\n999\tB\n"),
    ("nineteen_digit_labels", "3\t9999999999999999999\n",
     "9223372036854775807\tR\n9999999999999999999\tB\n"),
]


def _write_case(tmp_path, edges, colors, newline="\n", final_newline=True):
    paths = []
    for name, text in (("e.tsv", _PLAIN_EDGES + edges + _PLAIN_EDGES),
                       ("c.tsv", _PLAIN_COLORS + colors)):
        if not final_newline:
            text = text.rstrip("\n")
        (tmp_path / name).write_bytes(text.replace("\n", newline).encode())
        paths.append(tmp_path / name)
    return paths


def _outcome(edge_path, color_path):
    """What loading gives: the graph's arrays and labels, or the error text."""
    try:
        g, labels = load_graph(edge_path, color_path)
    except GraphError as exc:
        return str(exc)
    return g.src.tolist(), g.dst.tolist(), g.colors.tolist(), labels


def _by_lines(monkeypatch, *paths):
    """The outcome with each file read whole and sent to the line parser."""
    with monkeypatch.context() as m:
        m.setattr(fairank.io, "_chunks",
                  lambda path: [(1, Path(path).read_text(encoding="utf-8-sig").encode())])
        m.setattr(fairank.io, "_plain_fields", lambda text: None)
        m.setattr(fairank.io, "_id_table", lambda labels: None)
        m.setattr(fairank.io, "_decimal_colors", lambda data: None)
        return _outcome(*paths)


@pytest.mark.parametrize("newline, final_newline",
                         [("\n", True), ("\r\n", True), ("\r", True), ("\n", False)],
                         ids=["lf", "crlf", "cr", "no_final_newline"])
@pytest.mark.parametrize("edges, colors", [case[1:] for case in PARSE_CASES],
                         ids=[case[0] for case in PARSE_CASES])
def test_chunked_load_matches_the_line_parser(tmp_path, monkeypatch, edges, colors,
                                              newline, final_newline):
    paths = _write_case(tmp_path, edges, colors, newline, final_newline)
    expected = _by_lines(monkeypatch, *paths)
    for chunk in (1, 7, 64, 1 << 16):
        monkeypatch.setattr(fairank.io, "_CHUNK", chunk)
        assert _outcome(*paths) == expected, chunk


def test_plain_chunks_skip_the_line_parser(tmp_path, monkeypatch):
    # every chunk of a written file takes the bulk path; a chunk with a
    # missing label goes back to the line parser, which names the line
    g, _ = generate(BpamParams(300, 3, 0.3, 0.5), seed=2)
    write_edge_list(tmp_path / "e.tsv", g)
    write_color_file(tmp_path / "c.tsv", g)
    parsed = []
    records = fairank.io._records

    def spy(path, form, lineno, text):
        parsed.append(lineno)
        return records(path, form, lineno, text)

    monkeypatch.setattr(fairank.io, "_records", spy)
    monkeypatch.setattr(fairank.io, "_CHUNK", 256)
    loaded, _ = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert parsed == []
    assert np.array_equal(loaded.src, g.src) and np.array_equal(loaded.dst, g.dst)
    assert np.array_equal(loaded.colors, g.colors)

    with open(tmp_path / "e.tsv", "a") as fh:
        fh.write("0\tz\n")
    with pytest.raises(GraphError, match=rf"e\.tsv:{g.n_edges + 1}: node 'z' has no entry"):
        load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert len(parsed) == 1


def test_id_table_holds_dense_canonical_decimal_labels():
    # the table spans labels below 8 times their count, so it costs no more
    # than the label strings; any other label set is mapped through a dict
    labels = [str(i) for i in range(0, 80, 2)]
    table = fairank.io._id_table(labels)
    assert table.tolist() == [i // 2 if i % 2 == 0 else -1 for i in range(79)]
    assert fairank.io._id_table(labels + ["327"]) is not None
    for label in ["328", "07", "00", "+1", "-1", "1e3", "x", "٣", "99999999999999999999"]:
        assert fairank.io._id_table(labels + [label]) is None, label


def test_decimal_chunks_are_mapped_in_numpy(tmp_path, monkeypatch):
    # a written file pair has canonical decimal labels, so every color
    # chunk is parsed in NumPy and every edge chunk is mapped through the id
    # table: no chunk of either file is split into label strings. A chunk
    # with a missing label still reaches the line parser
    g, _ = generate(BpamParams(300, 3, 0.3, 0.5), seed=4)
    write_edge_list(tmp_path / "e.tsv", g)
    write_color_file(tmp_path / "c.tsv", g)
    split, parsed = [], []
    plain_fields, records = fairank.io._plain_fields, fairank.io._records

    def split_spy(text):
        split.append(text)
        return plain_fields(text)

    def records_spy(path, form, lineno, text):
        parsed.append(lineno)
        return records(path, form, lineno, text)

    monkeypatch.setattr(fairank.io, "_plain_fields", split_spy)
    monkeypatch.setattr(fairank.io, "_records", records_spy)
    monkeypatch.setattr(fairank.io, "_CHUNK", 256)
    loaded, labels = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert split == []
    assert parsed == []
    assert np.array_equal(loaded.src, g.src) and np.array_equal(loaded.dst, g.dst)
    assert np.array_equal(loaded.colors, g.colors) and labels == [str(i) for i in range(g.n)]

    with open(tmp_path / "e.tsv", "a") as fh:
        fh.write("0\tz\n")
    with pytest.raises(GraphError, match=rf"e\.tsv:{g.n_edges + 1}: node 'z' has no entry"):
        load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert len(parsed) == 1

    # in reverse order, node i is label n - 1 - i: the ids differ from the
    # labels, and the table maps each label to its own line. Without a
    # final newline the last chunk is still parsed in NumPy
    write_edge_list(tmp_path / "e.tsv", g)
    reversed_colors = b"".join((tmp_path / "c.tsv").read_bytes().splitlines(True)[::-1])
    (tmp_path / "r.tsv").write_bytes(reversed_colors.rstrip(b"\n"))
    paths = tmp_path / "e.tsv", tmp_path / "r.tsv"
    split.clear()
    parsed.clear()
    outcome = _outcome(*paths)
    assert split == [] and parsed == []
    assert outcome[3] == [str(i) for i in range(g.n)][::-1]
    assert outcome == _by_lines(monkeypatch, *paths)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("edges, colors", [("3\t5\n", ""), ("3\tz\n", ""), ("", "7\tR\n")],
                         ids=["loads", "missing_label", "duplicate_color"])
def test_chunked_load_from_pipes_matches_the_files(tmp_path, monkeypatch, edges, colors):
    paths = _write_case(tmp_path, edges, colors)
    expected = _by_lines(monkeypatch, *paths)
    monkeypatch.setattr(fairank.io, "_CHUNK", 64)
    pipes = [os.pipe() for _ in paths]
    try:
        for path, (_, write_end) in zip(paths, pipes):
            os.write(write_end, path.read_bytes())
            os.close(write_end)
        fd_paths = [f"/dev/fd/{read_end}" for read_end, _ in pipes]
        outcome = _outcome(*fd_paths)
    finally:
        for read_end, _ in pipes:
            os.close(read_end)
    if isinstance(expected, str):
        for path, fd_path in zip(paths, fd_paths):
            expected = expected.replace(str(path), fd_path)
    assert outcome == expected
