"""Reading and writing files: the graph formats, and every output table.

Edge lists are tab-separated ``src<TAB>dst`` lines; color files are
``node<TAB>R`` / ``node<TAB>B``. Blank lines are ignored in both, and a
``#`` at the start of a line or of a tab-separated field starts a comment
that runs to the end of the line; a ``#`` inside a label is kept. Node
labels may be arbitrary strings; they are remapped to dense ids in
color-file order and the mapping can be written back out.

Each input file is read forward once as bytes, in chunks of whole lines,
so it may be a pipe. As in text mode, a UTF-8 byte-order mark at its start
is dropped, and ``\\r\\n`` and a lone ``\\r`` end a line. A canonical
decimal is a label of digits, below 10**18, with no leading zero other
than in ``0`` itself; ``01`` is not one, so it and ``1`` stay two labels.
A color file is parsed in NumPy, duplicate check included, up to its
first chunk that is not all ``decimal<TAB>R|B|r|b`` lines; the labels
read by then, that chunk and every later one go into a dict. Each edge
chunk takes the first of three paths that fits it. (1) When every color
label is a canonical decimal below 8 times the node count, a chunk whose
every label is such a decimal with a color entry is parsed and mapped in
NumPy, through a table indexed by label value. (2) A chunk whose every
line is two plain ASCII labels and one tab is split and mapped in bulk
through a dict. (3) Every other chunk, and one of the others that holds
a fault, goes through the line parser, the one place that decodes text,
skips comments and blank lines and raises parse errors, so every path
gives the same records and errors. A byte that is not UTF-8 is one of
those errors, and names its line.

Every text file the package writes goes through :func:`write_text`, and
every table in it through :func:`table`: each field is written as
``str(value)`` of a Python value, so a float is its shortest round-trip
repr, and lines end in ``\\n`` on every platform. A block of rows is one
``%`` operation over its cells. The generated edge and color files hold
only node ids and color letters, so they skip the Python values: their
digits are computed in NumPy, a slice of rows at a time, to the same
bytes. The node mapping is written a slice at a time too, from the labels
alone: a slice whose labels are all canonical decimals is written from
their values in NumPy, any other through :func:`table`.
"""

from __future__ import annotations

import os
import sys
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .graph import Color, ColoredDigraph, GraphError, from_edge_list

__all__ = [
    "load_graph",
    "write_edge_list",
    "write_color_file",
    "write_node_mapping",
    "table",
    "write_text",
]

# rows rendered at a time by the file writers: only one slice of the rows
# is ever held as text
_SLICE = 1 << 16

# bytes read at a time by _chunks; one chunk's fields are the only
# per-record strings alive at once
_CHUNK = 1 << 16

# the bytes a label may hold in a chunk that skips the line parser:
# printable ASCII other than space and "#"
_LABEL_BYTES = bytes(b for b in range(0x21, 0x7F) if b != ord("#"))

# the color tokens Color.parse takes that such a chunk can hold
_COLOR_TOKENS = {token: c for c in Color for token in (c.name, c.name.lower())}

# the bytes of those tokens, and the color value of each of them
_COLOR_BYTES = "".join(_COLOR_TOKENS).encode("ascii")
_COLOR_OF_BYTE = np.zeros(256, dtype=np.uint8)
_COLOR_OF_BYTE[list(_COLOR_BYTES)] = list(_COLOR_TOKENS.values())

# the bytes of a label that the id table can map
_DIGITS = b"0123456789"

# the powers of ten from 10 to 10**18, the bound on canonical decimals: a
# value's count of them, plus one, is the width of its digits
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)

# the id table spans labels below this multiple of the node count, so it
# costs no more than the label strings
_TABLE_SPAN = 8

# each color, and the byte of its letter, indexed by color value
_COLORS = tuple(map(Color, range(len(Color))))
_COLOR_LETTERS = np.array([ord(c.name) for c in _COLORS], dtype=np.uint8)


def _drop_comment(line: str) -> str:
    """Cut a line at the first tab-separated field that starts with ``#``."""
    fields = line.split("\t")
    for i, field in enumerate(fields):
        if field.lstrip().startswith("#"):
            return "\t".join(fields[:i])
    return line


def _chunks(path) -> Iterator[tuple[int, bytes]]:
    """Yield ``(lineno, data)``: the file's bytes in pieces of whole lines,
    about ``_CHUNK`` bytes each, with the number of each piece's first
    line. The file is read forward once, so it may be a pipe. As in text
    mode, a UTF-8 byte-order mark at its start is dropped, and each
    ``\\r\\n`` and each lone ``\\r`` is yielded as the line end ``\\n``."""
    with open(path, "rb") as fh:
        lineno, carry = 1, fh.read(3).removeprefix(b"\xef\xbb\xbf")
        while block := fh.read(_CHUNK):
            data = carry + block
            held = data.endswith(b"\r")  # maybe the first half of \r\n
            data = _lf(data[: len(data) - held])
            cut = data.rfind(b"\n") + 1
            carry = data[cut:] + b"\r" * held
            if cut:
                yield lineno, data[:cut]
                lineno += data.count(b"\n", 0, cut)
        if carry:
            yield lineno, _lf(carry)


def _lf(data: bytes) -> bytes:
    """``data`` with each ``\\r\\n`` and each lone ``\\r`` turned into ``\\n``."""
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def _records_of(seps: bytes) -> Optional[int]:
    """The number of ``label<TAB>label`` lines in a chunk whose bytes other
    than label bytes are ``seps``, if they alternate tab and newline,
    starting with a tab; else None."""
    lines, unterminated = divmod(len(seps), 2)
    if seps != b"\t\n" * lines + b"\t" * unterminated:
        return None
    return lines + unterminated


def _plain_fields(data: bytes) -> Optional[list[str]]:
    """The fields of ``data`` split at whitespace, if they are exactly the
    fields the line parser yields, in the same order, else None.

    That holds when every line is ``label<TAB>label``, both labels non-empty
    printable ASCII without space or ``#``: deleting the label bytes then
    leaves tab and newline alternating, starting with a tab, and the fields
    number two per tab. A blank line, a comment or any other byte sends the
    chunk to the line parser."""
    records = _records_of(data.translate(None, _LABEL_BYTES))
    if records is None:
        return None
    fields = data.decode("ascii").split()
    return fields if len(fields) == 2 * records else None


def _canonical(data: bytes, count: int, digits: int) -> Optional[np.ndarray]:
    """The numbers in ``data``, digit strings between tabs and newlines
    that hold ``digits`` digits in all, as int64, if there are ``count`` of
    them, at least one, and each is a canonical decimal below 10**18: no
    leading zero, other than in ``0`` itself. Else None.

    A field is never narrower than its value's digits, and is as wide only
    without a leading zero, so the widths sum to ``digits`` only when every
    field is canonical. An empty field is missing from the count, and a
    field past 2**63 - 1 reads as that value, which the bound excludes."""
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    if not count or len(values) != count or values.max() >= _POWERS_OF_TEN[-1]:
        return None
    widths = np.searchsorted(_POWERS_OF_TEN, values, side="right")
    return values if int(widths.sum()) + count == digits else None


def _decimal_values(labels: Sequence[str]) -> Optional[np.ndarray]:
    """The int64 values of ``labels``, if there is at least one and every
    one is a canonical decimal below 10**18 (see :func:`_canonical`); else
    None."""
    text = "\n".join(labels)
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if data.translate(None, _DIGITS) != b"\n" * (len(labels) - 1):
        return None
    return _canonical(data, len(labels), len(data) - len(labels) + 1)


def _id_table(labels: list[str]) -> Optional[np.ndarray]:
    """``table[int(label)]`` is the id of each label, and -1 where no label
    is, if every label is a canonical decimal below ``_TABLE_SPAN`` times
    the number of labels; else None."""
    values = _decimal_values(labels)
    return None if values is None else _table_of(values)


def _table_of(values: np.ndarray) -> Optional[np.ndarray]:
    """The id table of labels with these values, ids in array order (see
    :func:`_id_table`), or None if the largest is not below ``_TABLE_SPAN``
    times their count. A repeated value keeps one of its ids."""
    if values.max() >= _TABLE_SPAN * len(values):
        return None
    table = np.full(values.max() + 1, -1, dtype=np.int64)
    table[values] = np.arange(len(values))
    return table


def _decimal_ids(data: bytes, table: np.ndarray) -> Optional[np.ndarray]:
    """The flat ``src, dst`` ids of a chunk whose every line is
    ``label<TAB>label``, both labels canonical decimals with an entry in
    ``table`` (see :func:`_id_table`), else None. A label that fails, such
    as ``01`` or ``+1`` beside ``1``, may name another node or none, so its
    chunk goes to the paths that map the label string."""
    seps = data.translate(None, _DIGITS)
    records = _records_of(seps)
    if not records:
        return None
    values = _canonical(data, 2 * records, len(data) - len(seps))
    if values is None or values.max() >= len(table):
        return None
    ids = table[values]
    return ids if ids.min() >= 0 else None


def _decimal_colors(data: bytes) -> Optional[tuple[list[str], np.ndarray, np.ndarray]]:
    """The labels, label values and colors of a chunk whose every line is
    ``label<TAB>color``, the label a canonical decimal (see
    :func:`_canonical`) and the color one of ``R B r b``; else None.

    Deleting the digits must leave a tab, a color letter and a newline per
    line, and deleting the color letters a tab and a newline side by side
    per line, so no digit stands in a color field. A line with no label
    leaves one number fewer than lines."""
    if not data.endswith(b"\n"):
        data += b"\n"
    seps = data.translate(None, _DIGITS)
    lines = len(seps) // 3
    numbers = data.translate(None, _COLOR_BYTES)
    if (seps[::3] != b"\t" * lines or seps[2::3] != b"\n" * lines
            or seps[1::3].translate(None, _COLOR_BYTES)
            or numbers.count(b"\t\n") != lines):
        return None
    values = _canonical(numbers, lines, len(data) - len(seps))
    if values is None:
        return None
    colors = _COLOR_OF_BYTE[np.frombuffer(seps[1::3], dtype=np.uint8)]
    return numbers.decode("ascii").split(), values, colors


def _check_distinct(path, labels: list[str], values: np.ndarray) -> None:
    """Raise the line parser's error for the first label, in file order,
    whose value repeats an earlier one; ``labels[i]`` is on line ``i + 1``."""
    order = np.argsort(values, kind="stable")
    repeats = order[1:][values[order[1:]] == values[order[:-1]]]
    if len(repeats):
        first = int(repeats.min())
        raise _duplicate_color(path, first + 1, labels[first])


def _duplicate_color(path, lineno: int, label: str) -> GraphError:
    """The error for a color entry whose node has one on an earlier line."""
    return GraphError(f"{path}:{lineno}: duplicate color for node {label!r}")


def _records(path, form: str, lineno: int, data: bytes) -> Iterator[tuple[int, str, str]]:
    """The line parser: yield ``(lineno, left, right)`` per record of
    ``data``, whose first line is line ``lineno`` of ``path``, skipping
    blanks and comments; ``form`` names the two fields in the error for a
    line without them. A byte that is not UTF-8 is an error that names its
    line, raised after the lines before it are parsed."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: data.rfind(b"\n", 0, exc.start) + 1]
        yield from _records(path, form, lineno, head)
        lineno += head.count(b"\n")
        raise GraphError(f"{path}:{lineno}: not UTF-8") from None
    for lineno, line in enumerate(text.split("\n"), start=lineno):
        if "#" in line:
            line = _drop_comment(line)
        body = line.strip()
        if not body:
            continue
        fields = body.split("\t")
        if len(fields) != 2:
            raise GraphError(f"{path}:{lineno}: expected '{form}'")
        yield lineno, fields[0].strip(), fields[1].strip()


def _add_plain_colors(colors: dict[str, Color], fields: list[str]) -> bool:
    """Add a plain chunk's ``node, color`` fields to ``colors``. Return
    False, leaving ``colors`` as it was, on an unknown color or a node seen
    before, for the line parser to find and report."""
    try:
        chunk = dict(zip(fields[::2], map(_COLOR_TOKENS.__getitem__, fields[1::2])))
    except KeyError:
        return False
    if 2 * len(chunk) < len(fields) or not chunk.keys().isdisjoint(colors.keys()):
        return False
    colors.update(chunk)
    return True


def _read_colors(path) -> tuple[list[str], np.ndarray, Optional[np.ndarray]]:
    """A color file's labels in file order, their colors as uint8, and the
    labels' id table (see :func:`_id_table`) or None.

    Chunks go through :func:`_decimal_colors` up to the first that fails
    it, and the labels are then checked for duplicates in NumPy. From that
    first chunk on, the labels read so far, once checked, and every later
    chunk go into a dict: the bulk update of a plain chunk, or the line
    parser, which raises the errors. A duplicate is the line parser's
    error on every path."""
    labels, values, codes = [], [], []  # of the chunks read as decimals
    colors = None  # label -> Color, from the first chunk not read as decimals
    for first, data in _chunks(path):
        if colors is None:
            decimal = _decimal_colors(data)
            if decimal is not None:
                labels += decimal[0]
                values.append(decimal[1])
                codes.append(decimal[2])
                continue
            colors = {}
            if labels:
                _check_distinct(path, labels, np.concatenate(values))
                colors = dict(zip(labels, map(_COLORS.__getitem__, np.concatenate(codes).tolist())))
        fields = _plain_fields(data)
        if fields and _add_plain_colors(colors, fields):
            continue
        for lineno, label, color in _records(path, "node<TAB>color", first, data):
            if label in colors:
                raise _duplicate_color(path, lineno, label)
            try:
                colors[label] = Color.parse(color)
            except GraphError as exc:
                raise GraphError(f"{path}:{lineno}: {exc}") from None
    if colors is None:  # every chunk, if any, was read as decimals
        if not labels:
            return [], np.empty(0, dtype=np.uint8), None
        values = np.concatenate(values)
        table = _table_of(values)
        if table is None or np.count_nonzero(table >= 0) < len(labels):
            _check_distinct(path, labels, values)
        return labels, np.concatenate(codes), table
    labels = list(colors)
    return labels, np.fromiter(map(int, colors.values()), dtype=np.uint8), _id_table(labels)


def load_graph(edge_path, color_path) -> tuple[ColoredDigraph, list[str]]:
    """Load a colored digraph from an edge file plus a color file.

    Labels become dense ids in color-file order. Returns the graph and the
    label list (``labels[i]`` is the original name of node ``i``). An edge
    naming a node with no color entry is an error. Each file is read once.
    """
    labels, color_arr, table = _read_colors(color_path)
    if not labels:
        raise GraphError(f"{color_path}: no color records")
    index = None  # label -> id, built for the first chunk the table cannot map

    parts = []  # one int64 array of flat src, dst ids per chunk
    for first, data in _chunks(edge_path):
        if table is not None and (decimal := _decimal_ids(data, table)) is not None:
            parts.append(decimal)
            continue
        if index is None:
            index = {label: i for i, label in enumerate(labels)}
        fields = _plain_fields(data)
        if fields:
            try:
                parts.append(np.array(itemgetter(*fields)(index), dtype=np.int64))
                continue
            except KeyError:
                pass  # the line parser names the line
        ids = []
        for lineno, src, dst in _records(edge_path, "src<TAB>dst", first, data):
            try:
                ids += index[src], index[dst]
            except KeyError as exc:
                raise GraphError(f"{edge_path}:{lineno}: node {exc.args[0]!r} has no "
                                 f"entry in {os.fspath(color_path)}") from None
        parts.append(np.array(ids, dtype=np.int64))
    if not sum(map(len, parts)):
        raise GraphError(f"{edge_path}: no edge records")
    edges = np.concatenate(parts).reshape(-1, 2)
    del parts  # before the graph build copies the edges
    return from_edge_list(edges, color_arr), labels


def table(*blocks: Sequence, header: Optional[str] = None, sep: str = ",") -> str:
    """The text of a table: the ``header`` line, if given, then one line per
    row of each block, a block being a sequence of columns.

    Each field is written as ``str(value)``: an int as its digits, a float
    as its shortest round-trip repr. Columns hold Python values
    (``ndarray.tolist()``), because ``str`` of a NumPy float32 scalar is
    not the repr of the float it holds. A block is one ``%`` operation over
    its cells, not a ``str.format`` call per row, and the cells are
    arguments, so a label that holds ``%`` or ``{}`` is written as read. A
    block ends with its shortest column, so a constant column can be an
    ``itertools.repeat``.
    """
    parts = [] if header is None else [header + "\n"]
    for columns in blocks:
        cells = tuple(chain.from_iterable(zip(*columns)))
        line = sep.join(["%s"] * len(columns)) + "\n"
        parts.append(line * (len(cells) // len(columns)) % cells)
    return "".join(parts)


def write_text(path, text: Union[str, Iterable[Union[str, bytes]]]) -> None:
    """Write ``text``, one string or an iterable of chunks, each a string
    or ASCII bytes, to ``path`` with ``\\n`` line endings, or to stdout
    when ``path`` is None or ``-``."""
    chunks = (text,) if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(c if isinstance(c, str) else c.decode("ascii") for c in chunks)
        return
    with open(path, "wb") as fh:
        fh.writelines(c.encode("utf-8") if isinstance(c, str) else c for c in chunks)


def _ascii_rows(columns: Sequence[np.ndarray], seps: bytes) -> bytes:
    """The ASCII text of the rows of ``columns``, each field followed by its
    column's byte of ``seps``. A uint8 column's field is the byte it holds;
    any other column's is ``str(value)`` of a non-negative integer.

    An integer column fills as many digit places as its largest value has,
    right to left, by repeated division by 10. A place left of the last
    nonzero quotient is padding, and one boolean mask over the whole
    ``(rows, places)`` buffer drops it."""
    widths = [1 if col.dtype == np.uint8 else len(str(col.max())) for col in columns]
    buf = np.empty((len(columns[0]), sum(widths) + len(widths)), dtype=np.uint8)
    keep = np.ones(buf.shape, dtype=bool)
    at = 0
    for col, width, sep in zip(columns, widths, seps):
        if col.dtype == np.uint8:
            buf[:, at] = col
        else:
            value = col
            for place in range(at + width - 1, at, -1):
                quotient = value // 10
                buf[:, place] = value - 10 * quotient
                value = quotient
                np.not_equal(value, 0, out=keep[:, place - 1])
            buf[:, at] = value
            buf[:, at:at + width] += ord("0")
        at += width
        buf[:, at] = sep
        at += 1
    return buf[keep].tobytes()


def write_edge_list(path, g: ColoredDigraph) -> None:
    """Write ``src<TAB>dst`` lines of dense node ids, rendering ``_SLICE``
    edges at a time in NumPy (see :func:`_ascii_rows`). A loaded graph's
    labels go to :func:`write_node_mapping`."""
    write_text(path, (_ascii_rows((g.src[lo:lo + _SLICE], g.dst[lo:lo + _SLICE]), b"\t\n")
                      for lo in range(0, g.n_edges, _SLICE)))


def write_color_file(path, g: ColoredDigraph) -> None:
    """Write ``node<TAB>R|B`` lines, one per dense node id, rendering
    ``_SLICE`` rows at a time in NumPy (see :func:`_ascii_rows`)."""
    write_text(path, (_ascii_rows((np.arange(lo, min(lo + _SLICE, g.n)),
                                   _COLOR_LETTERS[g.colors[lo:lo + _SLICE]]), b"\t\n")
                      for lo in range(0, g.n, _SLICE)))


def write_node_mapping(path, labels: Sequence[str]) -> None:
    """Write ``id<TAB>original_label`` lines recording the dense remapping,
    ``_SLICE`` rows at a time. A slice whose labels are all canonical
    decimals (see :func:`_decimal_values`) is rendered from their values in
    NumPy, any other through :func:`table`, to the same bytes."""
    write_text(path, (_mapping_rows(lo, labels[lo:lo + _SLICE])
                      for lo in range(0, len(labels), _SLICE)))


def _mapping_rows(first: int, labels: Sequence[str]) -> Union[str, bytes]:
    """The node mapping's lines for ``labels``, the first of them node ``first``."""
    values = _decimal_values(labels)
    if values is None:
        return table((range(first, first + len(labels)), labels), sep="\t")
    return _ascii_rows((np.arange(first, first + len(labels)), values), b"\t\n")
