"""Two-table network description: a node table plus a link table.

The tables are delimited text (semicolon by default) with RFC-4180 quoting
adapted to the configured delimiter. Reserved columns fill record fields;
every other column is a property:

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
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import IO, Optional

from .errors import ExportError, ParseError, SchemaError, StructuralError
from .model import (
    Interval,
    LinkKind,
    LinkRecord,
    Network,
    NodeRecord,
    TemporalQuantity,
    make_network,
)

NODE_NAME_COLUMN = "name"
LINK_REQUIRED_COLUMNS = ("from", "relation", "to")

# The reserved columns of each table: column -> (record field it fills,
# whether it holds numbers). Every other column is a property.
_NODE_COLUMNS = {"name": ("id", False), "mode": ("mode", False), "slab": ("slab", False),
                 "x": ("x", True), "y": ("y", True)}
_LINK_COLUMNS = {"from": ("n1", False), "relation": ("rel", False), "to": ("n2", False),
                 "kind": ("kind", False), "weight": ("weight", True), "label": ("label", False)}
_NA_STRINGS = frozenset({"", "NA", "NaN"})  # cells read as missing


@dataclass(frozen=True)
class TableOptions:
    delimiter: str = ";"

    def __post_init__(self):
        if len(self.delimiter) != 1 or self.delimiter == '"':
            message = f"delimiter must be one character other than '\"', got {self.delimiter!r}"
            raise ValueError(message)


@dataclass(frozen=True)
class Table:
    """Header plus rows of optional text cells; missing cells are None."""

    header: tuple[str, ...]
    rows: tuple[tuple[Optional[str], ...], ...] = ()

    def column(self, name: str) -> list[Optional[str]]:
        i = self.header.index(name)
        return [row[i] for row in self.rows]


def _read_table(source: IO[str], opts: TableOptions) -> Table:
    reader = csv.reader(source, delimiter=opts.delimiter, quotechar='"', doublequote=True)
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty input: missing header row")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} cells, found {len(row)}", line=reader.line_num
                )
            rows.append(tuple(None if cell in _NA_STRINGS else cell for cell in row))
    except UnicodeDecodeError as exc:
        raise ParseError.undecodable(exc, reader.line_num) from None
    except csv.Error as exc:  # a field over csv.field_size_limit; a NUL byte before 3.11
        raise ParseError(str(exc), line=reader.line_num) from None
    return Table(header=tuple(header), rows=tuple(rows))


def read_node_table(source: IO[str], opts: TableOptions = TableOptions()) -> Table:
    """Parse a node table; requires a unique, fully present ``name`` column."""
    table = _read_table(source, opts)
    if NODE_NAME_COLUMN not in table.header:
        raise SchemaError(f"node table is missing the {NODE_NAME_COLUMN!r} column")
    names = table.column(NODE_NAME_COLUMN)
    if any(n is None for n in names):
        raise SchemaError("node table contains a missing name")
    seen = set()
    for n in names:
        if n in seen:
            raise SchemaError(f"duplicate node name: {n!r}")
        seen.add(n)
    return table


def read_link_table(source: IO[str], opts: TableOptions = TableOptions()) -> Table:
    """Parse a link table; requires from/relation/to columns."""
    table = _read_table(source, opts)
    missing = [c for c in LINK_REQUIRED_COLUMNS if c not in table.header]
    if missing:
        raise SchemaError(f"link table is missing column(s): {', '.join(missing)}")
    for col in LINK_REQUIRED_COLUMNS:
        if any(v is None for v in table.column(col)):
            raise SchemaError(f"link table contains a missing {col!r} value")
    return table


def _parse_number(cell: str, decimal_separator: str) -> float:
    if decimal_separator != ".":
        cell = cell.replace(decimal_separator, ".")
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {cell!r}")
    return value


def _numbers(cells: list[Optional[str]], what: str, name: str, decimal_separator: str) -> list:
    """A column's cells as numbers; the first cell that is not one raises ParseError."""
    values = []
    for i, cell in enumerate(cells, start=1):
        try:
            values.append(None if cell is None else _parse_number(cell, decimal_separator))
        except ValueError:
            raise ParseError(f"{what} row {i}: {name} {cell!r} is not numeric") from None
    return values


def _decode(table: Table, declared: dict, what: str, decimal_separator: str):
    """Each row's record-field keywords and property map, built column by column.

    A declared column fills its field (None when the cell is missing) and is
    parsed as numbers when it holds them. Any other column is a property,
    typed numeric when every present cell parses as a number; missing cells
    are left out of the property map.
    """
    fields = [{} for _ in table.rows]
    props = [{} for _ in table.rows]
    for j, name in enumerate(table.header):
        values = [row[j] for row in table.rows]
        if name in declared:
            field, number = declared[name]
            if number:
                values = _numbers(values, what, name, decimal_separator)
            for row, value in zip(fields, values):
                row[field] = value
        else:
            try:
                values = _numbers(values, what, name, decimal_separator)
            except ParseError:
                pass  # a text column
            for row, value in zip(props, values):
                if value is not None:
                    row[name] = value
    return zip(fields, props)


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
    node_records = [
        NodeRecord(lab=fields["id"], **fields, props=props)
        for fields, props in _decode(nodes, _NODE_COLUMNS, "node", decimal_separator)
    ]
    names = {n.id for n in node_records}
    default_kind = LinkKind.ARC if directed else LinkKind.EDGE
    link_records = []
    rows = _decode(links, _LINK_COLUMNS, "link", decimal_separator)
    for i, (fields, props) in enumerate(rows, start=1):
        for endpoint in (fields["n1"], fields["n2"]):
            if endpoint not in names:
                raise StructuralError(f"link row {i} references unknown node {endpoint!r}")
        kind = fields.get("kind")
        try:
            fields["kind"] = default_kind if kind is None else LinkKind(kind)
        except ValueError:
            raise ParseError(f"link row {i}: kind must be 'arc' or 'edge'") from None
        if fields.get("weight") is None:
            fields["weight"] = 1.0
        link_records.append(LinkRecord(**fields, props=props))
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


def _encode(records, header: list[str], declared: dict) -> Table:
    """Records as a table, built column by column: a declared column's cells
    come from its record field, any other column's from the property map."""
    getters = [
        attrgetter(declared[name][0]) if name in declared else (lambda r, n=name: r.props.get(n))
        for name in header
    ]
    try:
        columns = [[_cell(get(record)) for record in records] for get in getters]
    except ExportError:  # name the first structured value in row order
        for record in records:
            for get in getters:
                _cell(get(record))
        raise
    return Table(header=tuple(header), rows=tuple(zip(*columns)))


def network_to_tables(network: Network) -> tuple[Table, Table]:
    """Project a labeled network onto a node table and a link table.

    Scalar properties only; re-parsing the tables reproduces the network up
    to property column order. The node table always has ``x`` and ``y``;
    ``mode``, ``slab`` and ``label`` appear when some record has one, ``kind``
    when arcs and edges mix, ``weight`` when some weight differs from 1.
    """
    if network.is_factorized:
        raise ExportError("cannot export a factorized network to tables; defactorize first")
    nodes, links = network.nodes, network.links
    node_header = [NODE_NAME_COLUMN, *_used(nodes, "mode", "slab"), *_prop_names(nodes), "x", "y"]
    link_header = list(LINK_REQUIRED_COLUMNS)
    if len({l.kind for l in links}) > 1:
        link_header.append("kind")
    if any(l.weight != 1.0 for l in links):
        link_header.append("weight")
    link_header += _used(links, "label") + _prop_names(links)
    return _encode(nodes, node_header, _NODE_COLUMNS), _encode(links, link_header, _LINK_COLUMNS)


def _used(records, *names: str) -> list[str]:
    return [name for name in names if any(getattr(r, name) is not None for r in records)]


def _prop_names(records) -> list[str]:
    return sorted({p for r in records for p in r.props})


def write_table(table: Table, sink: IO[str], opts: TableOptions = TableOptions()) -> None:
    """Write a table with minimal quoting; missing cells become empty."""
    writer = csv.writer(sink, delimiter=opts.delimiter, lineterminator="\n")  # quotes doubled
    writer.writerow(table.header)
    for row in table.rows:
        writer.writerow(["" if cell is None else cell for cell in row])


def merge_node_properties(
    network: Network, node_table: Table, *, decimal_separator: str = "."
) -> Network:
    """Attach node-table columns to matching nodes of an existing network.

    Rows are matched by name against each node's label (or its text id);
    unmatched rows are ignored, and a missing cell leaves the node's value
    as it was. Used to re-attach properties a format such as Pajek NET
    cannot carry.
    """
    rows = {}
    for fields, props in _decode(node_table, _NODE_COLUMNS, "node", decimal_separator):
        name = fields.pop("id")
        rows[name] = ({k: v for k, v in fields.items() if v is not None}, props)
    nodes = []
    for n in network.nodes:
        row = rows.get(n.lab or (n.id if isinstance(n.id, str) else None))
        if row is not None:
            fields, props = row
            n = replace(n, **fields, props={**n.props, **props})
        nodes.append(n)
    return replace(network, nodes=tuple(nodes))
