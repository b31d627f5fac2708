"""Two-table network description: a node table plus a link table.

The tables are delimited text (semicolon by default) with RFC-4180 quoting
adapted to the configured delimiter. The node table needs a ``name`` column,
the link table ``from``, ``relation``, ``to``. Columns whose every
non-missing cell parses as a number are typed numeric (stored as reals);
everything else stays text, so numeric-looking text values and cells equal
to an NA string do not survive a round trip -- the format is untyped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
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

# Columns routed to dedicated record fields rather than the property map.
_NODE_RESERVED = {"name", "slab", "mode", "x", "y"}
_LINK_RESERVED = {"from", "relation", "to", "kind", "weight", "label"}


@dataclass(frozen=True)
class TableOptions:
    delimiter: str = ";"
    decimal_separator: str = "."
    na_strings: frozenset[str] = frozenset({"", "NA", "NaN"})

    def __post_init__(self):
        if len(self.delimiter) != 1 or self.delimiter == '"':
            message = f"delimiter must be one character other than '\"', got {self.delimiter!r}"
            raise ValueError(message)
        if len(self.decimal_separator) != 1:
            raise ValueError(f"decimal must be one character, got {self.decimal_separator!r}")


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
            rows.append(tuple(None if cell in opts.na_strings else cell for cell in row))
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


def _numeric_column(cells: list[Optional[str]], decimal_separator: str) -> bool:
    saw_value = False
    for cell in cells:
        if cell is None:
            continue
        saw_value = True
        try:
            _parse_number(cell, decimal_separator)
        except ValueError:
            return False
    return saw_value


def _typed_columns(
    table: Table, reserved_text: set[str], decimal_separator: str
) -> dict[str, list]:
    """Per-column values with numeric inference applied outside reserved names."""
    out: dict[str, list] = {}
    for name in table.header:
        cells = table.column(name)
        if name not in reserved_text and _numeric_column(cells, decimal_separator):
            out[name] = [
                None if c is None else _parse_number(c, decimal_separator) for c in cells
            ]
        else:
            out[name] = cells
    return out


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
    cols = _typed_columns(nodes, {"name", "mode", "slab"}, decimal_separator)
    names = cols[NODE_NAME_COLUMN]
    node_records = []
    for i in range(len(nodes.rows)):
        props = {}
        for col in nodes.header:
            if col in _NODE_RESERVED:
                continue
            v = cols[col][i]
            if v is not None:
                props[col] = v
        node_records.append(
            NodeRecord(
                id=names[i],
                lab=names[i],
                slab=cols["slab"][i] if "slab" in cols else None,
                x=_coord(cols, "x", i),
                y=_coord(cols, "y", i),
                mode=cols["mode"][i] if "mode" in cols else None,
                props=props,
            )
        )

    lcols = _typed_columns(links, {"from", "relation", "to", "kind", "label"}, decimal_separator)
    name_set = set(names)
    link_records = []
    for i in range(len(links.rows)):
        src, rel, dst = lcols["from"][i], lcols["relation"][i], lcols["to"][i]
        for endpoint in (src, dst):
            if endpoint not in name_set:
                raise StructuralError(f"link row {i + 1} references unknown node {endpoint!r}")
        kind = LinkKind.ARC if directed else LinkKind.EDGE
        if "kind" in lcols and lcols["kind"][i] is not None:
            try:
                kind = LinkKind(lcols["kind"][i])
            except ValueError:
                raise ParseError(f"link row {i + 1}: kind must be 'arc' or 'edge'") from None
        weight = 1.0
        if "weight" in lcols and lcols["weight"][i] is not None:
            w = lcols["weight"][i]
            if isinstance(w, str):
                raise ParseError(f"link row {i + 1}: weight {w!r} is not numeric")
            weight = float(w)
        props = {}
        for col in links.header:
            if col in _LINK_RESERVED:
                continue
            v = lcols[col][i]
            if v is not None:
                props[col] = v
        link_records.append(
            LinkRecord(
                kind=kind,
                n1=src,
                n2=dst,
                rel=rel,
                weight=weight,
                label=lcols["label"][i] if "label" in lcols else None,
                props=props,
            )
        )
    return make_network(node_records, link_records, org=base, directed=directed)


def _coord(cols: dict[str, list], name: str, i: int) -> Optional[float]:
    if name not in cols:
        return None
    v = cols[name][i]
    return v if isinstance(v, float) else None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, (list, dict, Interval, TemporalQuantity)):
        raise ExportError(f"structured value {value!r} cannot be written to a table cell")
    return str(value)


def network_to_tables(network: Network) -> tuple[Table, Table]:
    """Project a labeled network onto a node table and a link table.

    Scalar properties only; re-parsing the tables reproduces the network up
    to property column order.
    """
    if network.is_factorized:
        raise ExportError("cannot export a factorized network to tables; defactorize first")

    prop_names = sorted({p for n in network.nodes for p in n.props})
    header = ["name"]
    if any(n.mode is not None for n in network.nodes):
        header.append("mode")
    if any(n.slab is not None for n in network.nodes):
        header.append("slab")
    header += prop_names + ["x", "y"]
    rows = []
    for n in network.nodes:
        row = []
        for col in header:
            if col == "name":
                row.append(str(n.id))
            elif col == "mode":
                row.append(_cell(n.mode) if n.mode is not None else None)
            elif col == "slab":
                row.append(_cell(n.slab) if n.slab is not None else None)
            elif col == "x":
                row.append(None if n.x is None else str(n.x))
            elif col == "y":
                row.append(None if n.y is None else str(n.y))
            else:
                row.append(_cell(n.props[col]) if col in n.props else None)
        rows.append(tuple(row))
    node_table = Table(header=tuple(header), rows=tuple(rows))

    lprop_names = sorted({p for l in network.links for p in l.props})
    mixed = {l.kind for l in network.links} == {LinkKind.ARC, LinkKind.EDGE}
    lheader = ["from", "relation", "to"]
    if mixed:
        lheader.append("kind")
    if any(l.weight != 1.0 for l in network.links):
        lheader.append("weight")
    if any(l.label is not None for l in network.links):
        lheader.append("label")
    lheader += lprop_names
    lrows = []
    for l in network.links:
        row = []
        for col in lheader:
            if col == "from":
                row.append(str(l.n1))
            elif col == "relation":
                row.append(str(l.rel))
            elif col == "to":
                row.append(str(l.n2))
            elif col == "kind":
                row.append(l.kind.value)
            elif col == "weight":
                row.append(str(l.weight))
            elif col == "label":
                row.append(None if l.label is None else l.label)
            else:
                row.append(_cell(l.props[col]) if col in l.props else None)
        lrows.append(tuple(row))
    return node_table, Table(header=tuple(lheader), rows=tuple(lrows))


def write_table(table: Table, sink: IO[str], opts: TableOptions = TableOptions()) -> None:
    """Write a table with minimal quoting; missing cells become empty."""
    writer = csv.writer(
        sink,
        delimiter=opts.delimiter,
        quotechar='"',
        doublequote=True,
        lineterminator="\n",
        quoting=csv.QUOTE_MINIMAL,
    )
    writer.writerow(table.header)
    for row in table.rows:
        writer.writerow(["" if cell is None else cell for cell in row])


def merge_node_properties(
    network: Network, node_table: Table, *, decimal_separator: str = "."
) -> Network:
    """Attach node-table columns to matching nodes of an existing network.

    Rows are matched by name against each node's label (or its text id);
    unmatched rows are ignored. Used to re-attach properties a format such
    as Pajek NET cannot carry.
    """
    cols = _typed_columns(node_table, {"name", "mode", "slab"}, decimal_separator)
    names = cols[NODE_NAME_COLUMN]
    by_name = {name: i for i, name in enumerate(names)}

    nodes = []
    for n in network.nodes:
        key = n.lab or (n.id if isinstance(n.id, str) else None)
        i = by_name.get(key)
        if i is None:
            nodes.append(n)
            continue
        props = dict(n.props)
        for col in node_table.header:
            if col in _NODE_RESERVED:
                continue
            v = cols[col][i]
            if v is not None:
                props[col] = v
        nodes.append(
            replace(
                n,
                mode=cols["mode"][i] if "mode" in cols and cols["mode"][i] is not None else n.mode,
                slab=cols["slab"][i] if "slab" in cols and cols["slab"][i] is not None else n.slab,
                x=_coord(cols, "x", i) if _coord(cols, "x", i) is not None else n.x,
                y=_coord(cols, "y", i) if _coord(cols, "y", i) is not None else n.y,
                props=props,
            )
        )
    return make_network(
        nodes,
        network.links,
        info=network.info,
        relations=network.relations,
        node_coding=network.node_coding,
        property_codings=network.property_codings,
    )
