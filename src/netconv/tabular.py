"""Two-table network description: a node table plus a link table.

The tables are delimited text (semicolon by default) with RFC-4180 quoting
adapted to the configured delimiter, held in memory column by column; rows
become records with no row of their own. Reserved columns fill record
fields; every other column is a property:

- node table: ``name`` (required, unique), ``mode``, ``slab``, ``x``, ``y``;
- link table: ``from``, ``relation``, ``to`` (required), ``kind`` (``arc``
  or ``edge``), ``weight`` (1 when missing), ``label``.

``x``, ``y`` and ``weight`` hold numbers; a cell there that is not one raises
``ParseError("<node|link> row <i>: <column> <cell> is not numeric")``. A
property column whose every non-missing cell parses as a number is typed
numeric (stored as reals); every other stays text, so numeric-looking text
values and cells equal to an NA string do not survive a round trip -- the
format is untyped.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from itertools import repeat
from operator import attrgetter
from typing import IO, Optional

from .errors import ExportError, ParseError, SchemaError, StructuralError
from .model import (Interval, LinkKind, LinkRecord, Network, NodeRecord, TemporalQuantity,
                    make_network, node_names)

NODE_NAME_COLUMN = "name"
LINK_REQUIRED_COLUMNS = ("from", "relation", "to")

# The reserved columns of each table: column -> (record field it fills,
# whether it holds numbers). Every other column is a property.
_NODE_COLUMNS = {"name": ("id", False), "mode": ("mode", False), "slab": ("slab", False),
                 "x": ("x", True), "y": ("y", True)}
_LINK_COLUMNS = {"from": ("n1", False), "relation": ("rel", False), "to": ("n2", False),
                 "kind": ("kind", False), "weight": ("weight", True), "label": ("label", False)}
_NA_STRINGS = frozenset({"", "NA", "NaN"})  # cells read as missing


class TableOptions(namedtuple("TableOptions", "delimiter")):
    __slots__ = ()

    def __new__(cls, delimiter: str = ";"):
        if len(delimiter) != 1 or delimiter in '"\r\n':  # '"' quotes cells; \r and \n end rows
            raise ValueError("delimiter must be one character other than '\"', '\\r' and '\\n',"
                             f" got {delimiter!r}")
        return tuple.__new__(cls, (delimiter,))


class Table(namedtuple("Table", "header columns")):
    """A header and one tuple of optional text cells per header column;
    missing cells are None. ``rows`` is derived from the columns."""

    __slots__ = ()

    def __new__(cls, header: tuple[str, ...], columns: tuple[tuple[Optional[str], ...], ...]):
        if len(columns) != len(header) or len(set(map(len, columns))) > 1:
            raise ValueError("a table needs one column per header name, all of one length")
        return tuple.__new__(cls, (header, columns))

    @property
    def rows(self) -> tuple[tuple[Optional[str], ...], ...]:
        return tuple(zip(*self.columns))

    def column(self, name: str) -> tuple[Optional[str], ...]:
        return self.columns[self.header.index(name)]


def _first_repeat(values) -> Optional[str]:
    """The first value that occurs a second time, found in one pass; None if none does."""
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)
    return None


def _read_table(source: IO[str], opts: TableOptions, what: str) -> Table:
    reader = csv.reader(source, delimiter=opts.delimiter, quotechar='"', doublequote=True)
    try:
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError("empty input: missing header row")
            name = _first_repeat(header)
            if name is not None:
                raise ParseError(f"column {name!r} appears twice in the header", line=1)
            rows = []
            for row in reader:
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} cells, found {len(row)}",
                                     line=reader.line_num)
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise ParseError.undecodable(exc, reader.line_num) from None
        except csv.Error as exc:  # a field over csv.field_size_limit; a NUL byte before 3.11
            raise ParseError(str(exc), line=reader.line_num) from None
    except ParseError as exc:  # name the table: "<what> table: line <n>: ..."
        exc.args = (f"{what} table: {exc}",)
        raise
    columns = zip(*rows) if rows else [()] * len(header)
    return Table(tuple(header), tuple(tuple([None if c in _NA_STRINGS else c for c in cells])
                                      for cells in columns))


def read_node_table(source: IO[str], opts: TableOptions = TableOptions()) -> Table:
    """Parse a node table; requires a unique, fully present ``name`` column."""
    table = _read_table(source, opts, "node")
    if NODE_NAME_COLUMN not in table.header:
        raise SchemaError(f"node table is missing the {NODE_NAME_COLUMN!r} column")
    names = table.column(NODE_NAME_COLUMN)
    if None in names:
        raise SchemaError("node table contains a missing name")
    name = _first_repeat(names)
    if name is not None:
        raise SchemaError(f"duplicate node name: {name!r}")
    return table


def read_link_table(source: IO[str], opts: TableOptions = TableOptions()) -> Table:
    """Parse a link table; requires from/relation/to columns."""
    table = _read_table(source, opts, "link")
    missing = [c for c in LINK_REQUIRED_COLUMNS if c not in table.header]
    if missing:
        raise SchemaError(f"link table is missing column(s): {', '.join(missing)}")
    for col in LINK_REQUIRED_COLUMNS:
        if None in table.column(col):
            raise SchemaError(f"link table contains a missing {col!r} value")
    return table


def _numbers(cells: tuple, what: str, name: str, decimal_separator: str) -> list:
    """A column's cells as numbers; the first cell that is not a finite one raises ParseError."""
    values = []
    for i, cell in enumerate(cells, start=1):
        try:
            value = None if cell is None else float(cell.replace(decimal_separator, "."))
            if value is not None and not math.isfinite(value):
                raise ValueError
        except ValueError:
            raise ParseError(f"{what} row {i}: {name} {cell!r} is not numeric") from None
        values.append(value)
    return values


def _decode(table: Table, declared: dict, what: str, decimal_separator: str) -> dict:
    """The table as record-field columns: a declared column is its field's,
    parsed as numbers when it holds them (None cells when the table lacks
    it). Every other column is a property, typed numeric when every present
    cell parses as a number; ``props`` holds each row's property map,
    without the missing cells.
    """
    n = len(table.columns[0]) if table.columns else 0
    columns = dict.fromkeys((field for field, _ in declared.values()), (None,) * n)
    props = columns["props"] = [{} for _ in range(n)]
    for name, cells in zip(table.header, table.columns):
        if name in declared:
            field, number = declared[name]
            columns[field] = _numbers(cells, what, name, decimal_separator) if number else cells
        else:
            try:
                cells = _numbers(cells, what, name, decimal_separator)
            except ParseError:
                pass  # a text column
            for row, value in zip(props, cells):
                if value is not None:
                    row[name] = value
    return columns


def _records(cls, columns: dict) -> list:
    """One ``cls`` record per row, built positionally from ``columns``
    (record field -> cells); a field without a column takes its default."""
    defaults = cls._field_defaults
    return list(map(cls._make, zip(*(columns.get(f, repeat(defaults.get(f))) for f in cls._fields))))


def tables_to_network(
    nodes: Table,
    links: Table,
    directed: bool = True,
    base: int = 1,
    *,
    decimal_separator: str = ".",
) -> Network:
    """Assemble a labeled network from a node table and a link table.

    Every from/to value must occur in the node table's name column. Links
    become arcs when ``directed`` (overridable per row by a ``kind`` column);
    weight defaults to 1.
    """
    cols = _decode(nodes, _NODE_COLUMNS, "node", decimal_separator)
    node_records = _records(NodeRecord, {**cols, "lab": cols["id"]})
    names = set(cols["id"])
    kinds = {None: LinkKind.ARC if directed else LinkKind.EDGE, **{k.value: k for k in LinkKind}}
    cols = _decode(links, _LINK_COLUMNS, "link", decimal_separator)
    for i, (n1, n2, kind) in enumerate(zip(cols["n1"], cols["n2"], cols["kind"]), start=1):
        for endpoint in (n1, n2):
            if endpoint not in names:
                raise StructuralError(f"link row {i} references unknown node {endpoint!r}")
        if kind not in kinds:
            raise ParseError(f"link row {i}: kind must be 'arc' or 'edge'")
    cols["kind"] = [kinds[kind] for kind in cols["kind"]]
    cols["weight"] = [1.0 if w is None else w for w in cols["weight"]]
    link_records = _records(LinkRecord, cols)
    return make_network(node_records, link_records, org=base, directed=directed)


def _cell(value) -> Optional[str]:
    if value is None or type(value) is str:
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, LinkKind):
        return value.value
    if isinstance(value, (list, dict, Interval, TemporalQuantity)):
        raise ExportError(f"structured value {value!r} cannot be written to a table cell")
    return str(value)


def _encode(records, header: list[str], declared: dict, labels: dict) -> Table:
    """Records as a table, built column by column: a declared column's cells
    come from its record field, through ``labels[field]`` when there is one;
    any other column's from the property map."""
    def getter(name):
        if name not in declared:
            return lambda r: r.props.get(name)
        get, label = attrgetter(declared[name][0]), labels.get(declared[name][0])
        return get if label is None else lambda r: label(get(r))

    getters = list(map(getter, header))
    try:
        columns = tuple(tuple([_cell(get(record)) for record in records]) for get in getters)
    except ExportError:  # name the first structured value in row order
        for record in records:
            for get in getters:
                _cell(get(record))
        raise
    return Table(tuple(header), columns)


def network_to_tables(network: Network) -> tuple[Table, Table]:
    """Project a network, labeled or factorized, onto a node table and a link table.

    Codes are written as the labels the network's coding tables give them.
    Scalar properties only, none named as a reserved column of its table;
    re-parsing the tables reproduces the labeled network up to property
    column order. The node table always has ``x`` and ``y``; ``mode``,
    ``slab`` and ``label`` appear when some record has one, ``kind`` when
    arcs and edges mix, ``weight`` when some weight differs from 1.
    """
    coded = network.is_factorized
    node, rel = (node_names(network), network.relations.value_of) if coded else (None, None)
    nodes, links = network.nodes, network.links
    node_props = _prop_names(nodes, _NODE_COLUMNS, "node")
    node_header = [NODE_NAME_COLUMN, *_used(nodes, "mode", "slab"), *node_props, "x", "y"]
    link_header = list(LINK_REQUIRED_COLUMNS)
    if len({l.kind for l in links}) > 1:
        link_header.append("kind")
    if any(l.weight != 1.0 for l in links):
        link_header.append("weight")
    link_header += _used(links, "label") + _prop_names(links, _LINK_COLUMNS, "link")
    return (_encode(nodes, node_header, _NODE_COLUMNS, {"id": node}),
            _encode(links, link_header, _LINK_COLUMNS, {"n1": node, "n2": node, "rel": rel}))


def _used(records, *names: str) -> list[str]:
    return [name for name in names if any(getattr(r, name) is not None for r in records)]


def _prop_names(records, declared: dict, what: str) -> list[str]:
    names = sorted({p for r in records for p in r.props})
    for name in names:
        if name in declared:
            raise ExportError(f"{what} property {name!r} collides with a reserved column")
    return names


def write_table(table: Table, sink: IO[str], opts: TableOptions = TableOptions()) -> None:
    """Write a table with minimal quoting; missing cells become empty."""
    writer = csv.writer(sink, delimiter=opts.delimiter, lineterminator="\n")  # quotes doubled
    writer.writerow(table.header)
    writer.writerows(zip(*table.columns))  # csv writes None as an empty cell


def merge_node_properties(
    network: Network, node_table: Table, *, decimal_separator: str = "."
) -> Network:
    """Attach node-table columns to matching nodes of an existing network.

    Rows are matched by name against each node's label, or else its name
    (its text id, or its code's level in the node table); unmatched rows
    are ignored, and a missing cell leaves the node's value as it was. Used
    to re-attach properties a format such as Pajek NET cannot carry.
    """
    cols = _decode(node_table, _NODE_COLUMNS, "node", decimal_separator)
    row_of = {name: i for i, name in enumerate(cols.pop("id"))}
    props = cols.pop("props")
    name_of = node_names(network)
    nodes = []
    for n in network.nodes:
        i = row_of.get(n.lab or name_of(n.id))
        if i is not None:
            changes = {field: cells[i] for field, cells in cols.items() if cells[i] is not None}
            n = n._replace(**changes, props={**n.props, **props[i]})
        nodes.append(n)
    return network._replace(nodes=tuple(nodes))
