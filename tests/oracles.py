"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's own code paths: everything here is
plain sorting, linear scanning, and counting, so a bug in the package
cannot hide behind an identically-buggy expectation.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from netconv import (
    CodingTable,
    InfoBlock,
    LevelPolicy,
    LinkKind,
    LinkRecord,
    Network,
    NodeRecord,
    ParseError,
    StructuralError,
    build_coding_table,
)
from netconv.model import EMPTY
from netconv.pajek import _numbered_lines, _tokens
from netconv.tabular import _LINK_COLUMNS, _NA_STRINGS, _NODE_COLUMNS


def sorted_levels(values):
    """Distinct non-missing values in Unicode code point order."""
    seen = set()
    for v in values:
        if v is not None:
            seen.add(v)
    return sorted(seen)


def file_order_levels(values):
    """Distinct non-missing values in first-appearance order."""
    out = []
    for v in values:
        if v is not None and v not in out:
            out.append(v)
    return out


def positional_encode(values, levels, base, missing_code):
    """Encode by linear search of the level list; missing -> missing_code."""
    codes = []
    for v in values:
        if v is None:
            codes.append(missing_code)
        else:
            codes.append(base + levels.index(v))
    return codes


def tq_value_scan(triples, t):
    """Value at time t by scanning every triple; None when uncovered."""
    for s, f, v in triples:
        if s <= t < f:
            return v
    return None


def tq_overlaps(triples):
    """All-pairs interval intersection scan; True when any two overlap."""
    for i in range(len(triples)):
        for j in range(i + 1, len(triples)):
            s1, f1 = triples[i][0], triples[i][1]
            s2, f2 = triples[j][0], triples[j][1]
            if max(s1, s2) < min(f1, f2):
                return True
    return False


def tq_covered_points(triples):
    """Count integer t in [min s, max f) where some triple covers t."""
    if not triples:
        return 0
    lo = min(s for s, _, _ in triples)
    hi = max(f for _, f, _ in triples)
    return sum(1 for t in range(lo, hi) if tq_value_scan(triples, t) is not None)


def tq_bounds_findings(triples, loc, window):
    """All-pairs tq bounds check as ``(rule, location, message)`` tuples.

    Per triple: empty interval, then outside the window (``window`` is
    ``(t_min, t_max)`` or None); then unsorted starts; then the first pair
    ``(i, j)``, by a scan of every pair, whose intervals intersect.
    """
    out = []
    for k, (s, f, _) in enumerate(triples):
        if s >= f:
            out.append(("tq-empty-interval", f"{loc}[{k}]", f"interval [{s}, {f}) is empty"))
        if window is not None and (s < window[0] or f > window[1] + 1):
            out.append(
                (
                    "tq-outside-window",
                    f"{loc}[{k}]",
                    f"[{s}, {f}) leaves window [{window[0]}, {window[1]}]",
                )
            )
    if any(triples[k][0] > triples[k + 1][0] for k in range(len(triples) - 1)):
        out.append(("tq-unsorted", loc, "intervals not sorted by start"))
    for i in range(len(triples)):
        for j in range(i + 1, len(triples)):
            if max(triples[i][0], triples[j][0]) < min(triples[i][1], triples[j][1]):
                out.append(("tq-overlap", loc, f"intervals {i} and {j} overlap"))
                return out
    return out


def pajek_tokens(line: str, lineno: int) -> list[str]:
    """Pajek line tokens by a character scan: whitespace (``str.isspace``)
    separates tokens; a token that opens with a quote runs to the next lone
    quote, and a doubled quote inside it stands for one."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        if line[i].isspace():
            i += 1
            continue
        if line[i] == '"':
            i += 1
            buf = []
            while True:
                if i >= n:
                    raise ParseError("unterminated quoted token", line=lineno)
                if line[i] == '"':
                    if i + 1 < n and line[i + 1] == '"':
                        buf.append('"')
                        i += 2
                        continue
                    i += 1
                    break
                buf.append(line[i])
                i += 1
            out.append("".join(buf))
        else:
            j = i
            while j < n and not line[j].isspace():
                j += 1
            out.append(line[i:j])
            i = j
    return out


# The identifier rewrites as written before they shared one positional
# record rebuild: every record is copied with ``_replace``, so a
# field the rebuild drops or swaps shows up as a difference.


def factorize_network(network, base=1):
    """Labeled network -> integer-coded network, record by record."""
    if base not in (0, 1):
        raise ValueError(f"base must be 0 or 1, got {base}")
    if network.is_factorized:
        raise StructuralError("network is already factorized")
    ids = [str(n.id) for n in network.nodes]
    node_coding = build_coding_table("node", ids, LevelPolicy.FILE_ORDER, base)
    if len(node_coding) != len(ids):
        raise StructuralError("duplicate node identifiers prevent factorization")
    rel_names = list(network.relations.levels) + [
        l.rel for l in network.links if isinstance(l.rel, str)
    ]
    relations = build_coding_table("relation", rel_names, LevelPolicy.SORTED, base)
    property_codings = {
        name: CodingTable(table.name, table.levels, base)
        for name, table in network.property_codings.items()
    }

    def recoded(props):
        """A coded property's int value in its table's range names the same
        level at the new base."""
        out = dict(props)
        for name, v in props.items():
            old = network.property_codings.get(name)
            if old and isinstance(v, int) and not isinstance(v, bool) and old.in_range(v):
                out[name] = property_codings[name].code_of(old.value_of(v))
        return out

    nodes = tuple(
        n._replace(id=node_coding.code_of(str(n.id)), props=recoded(n.props)) for n in network.nodes
    )
    links = tuple(
        l._replace(
            n1=node_coding.code_of(str(l.n1)),
            n2=node_coding.code_of(str(l.n2)),
            rel=relations.code_of(str(l.rel)),
            props=recoded(l.props),
        )
        for l in network.links
    )
    return network._replace(
        info=network.info._replace(org=base),
        nodes=nodes,
        links=links,
        relations=relations,
        node_coding=node_coding,
        property_codings=property_codings,
    )


def defactorize_network(network):
    """Integer-coded network -> labeled network, record by record; the node
    table is emptied, as on every labeled network. A code whose table is
    empty names itself; one a table does not cover raises its CodingError."""
    if not network.is_factorized:
        return network

    def name(table, code):
        return table.value_of(code) if len(table.levels) else str(code)

    nodes = tuple(n._replace(id=name(network.node_coding, n.id)) for n in network.nodes)
    links = tuple(
        l._replace(
            n1=name(network.node_coding, l.n1),
            n2=name(network.node_coding, l.n2),
            rel=name(network.relations, l.rel),
        )
        for l in network.links
    )
    empty = CodingTable("node", (), network.node_coding.base)
    return network._replace(nodes=nodes, links=links, node_coding=empty)


def canonical_order(network):
    """Relation levels sorted and based at info.org; coded links remapped to
    the new codes. A factorized network without a relation table is left as it is."""
    old = network.relations
    if not old.levels and network.is_factorized:
        return network
    new_rel = CodingTable(old.name, tuple(sorted(old.levels)), network.info.org)
    links = network.links
    if new_rel != old and any(isinstance(l.rel, int) for l in links):
        links = tuple(
            l._replace(rel=new_rel.code_of(old.value_of(l.rel))) if isinstance(l.rel, int) else l
            for l in links
        )
    return network._replace(relations=new_rel, links=links)


# The CSV table path as written when a table held rows: one NA-mapped tuple
# per row, transposed back per column to decode, one field dict per row.


@dataclass(frozen=True)
class RowTable:
    """Header plus rows of optional text cells; missing cells are None."""

    header: tuple[str, ...]
    rows: tuple[tuple[Optional[str], ...], ...] = ()

    def column(self, name: str) -> list[Optional[str]]:
        i = self.header.index(name)
        return [row[i] for row in self.rows]


def read_table(source, opts, what) -> RowTable:
    reader = csv.reader(source, delimiter=opts.delimiter, quotechar='"', doublequote=True)
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{what} table: empty input: missing header row")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ParseError(f"{what} table: line {reader.line_num}:"
                                 f" expected {len(header)} cells, found {len(row)}")
            rows.append(tuple(None if cell in _NA_STRINGS else cell for cell in row))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} table: {ParseError.undecodable(exc, reader.line_num)}") from None
    except csv.Error as exc:
        raise ParseError(f"{what} table: line {reader.line_num}: {exc}") from None
    return RowTable(header=tuple(header), rows=tuple(rows))


def _parse_number(cell: str, decimal_separator: str) -> float:
    if decimal_separator != ".":
        cell = cell.replace(decimal_separator, ".")
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {cell!r}")
    return value


def _numbers(cells, what: str, name: str, decimal_separator: str) -> list:
    values = []
    for i, cell in enumerate(cells, start=1):
        try:
            values.append(None if cell is None else _parse_number(cell, decimal_separator))
        except ValueError:
            raise ParseError(f"{what} row {i}: {name} {cell!r} is not numeric") from None
    return values


def _decode(table: RowTable, declared: dict, what: str, decimal_separator: str):
    """Each row's record-field keywords and property map, built column by column."""
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


def tables_to_network(nodes, links, directed=True, base=1, *, decimal_separator="."):
    """A labeled network from two row tables, one record per row dict."""
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


def merge_node_properties(network, node_table: RowTable, *, decimal_separator="."):
    """Node-table cells overlaid on the nodes they name, one row dict per row."""
    rows = {}
    for fields, props in _decode(node_table, _NODE_COLUMNS, "node", decimal_separator):
        name = fields.pop("id")
        rows[name] = ({k: v for k, v in fields.items() if v is not None}, props)
    nodes = []
    for n in network.nodes:
        coded = not isinstance(n.id, str)
        name = network.node_coding.value_of(n.id) if coded and len(network.node_coding) else str(n.id)
        row = rows.get(name)
        if row is not None:
            fields, props = row
            n = n._replace(**fields, props={**n.props, **props})
        nodes.append(n)
    return network._replace(nodes=tuple(nodes))


# The NET reader as written when it staged every line in dicts and tuples
# and built the records in a second loop.


def read_pajek_net(source: IO[str]) -> Network:
    """Parse Pajek NET text into a factorized network.

    The node coding is taken from the vertex labels when they are
    distinct; otherwise there is none. Each relation code is named by its
    declaration or first suffix, else by its digits (a bare ``*arcs :k``
    declares k without naming it); the relation table is those names
    sorted from 1, and each link's code becomes its name's position there.
    """
    n_declared = None
    labels: dict[int, str] = {}
    coords: dict[int, tuple[float, float]] = {}
    declarations: dict[int, Optional[str]] = {}  # None: declared by a bare header
    raw_links: list[tuple[int, int, int, float, LinkKind]] = []  # rel, n1, n2, w, kind
    section = None  # "vertices" | LinkKind
    title = ""

    for lineno, raw in _numbered_lines(source):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("%"):
            continue
        toks = _tokens(line, lineno)
        if toks[0].startswith("*"):
            keyword = toks[0].lower()
            if keyword == "*vertices":
                n_declared = _vertex_count(toks, lineno)
                section = "vertices"
            elif keyword == "*network" and n_declared is None:
                title = " ".join(toks[1:])
            elif keyword in ("*arcs", "*edges"):
                # a header opens a section; ":k" makes k its lines' relation, else 1
                section = LinkKind.ARC if keyword == "*arcs" else LinkKind.EDGE
                section_rel = 1
                if len(toks) >= 2 and toks[1].startswith(":"):
                    try:
                        code = int(toks[1][1:])
                    except ValueError:
                        raise ParseError(f"invalid relation code {toks[1]!r}", line=lineno) from None
                    section_rel = code
                    if len(toks) == 2:
                        declarations.setdefault(code, None)
                        continue
                    name = toks[2]
                    if not name:
                        raise ParseError("empty relation name", line=lineno)
                    if declarations.get(code) not in (None, name):
                        raise ParseError(
                            f"relation code {code} redeclared as {name!r}"
                            f" (was {declarations[code]!r})",
                            line=lineno,
                        )
                    declarations[code] = name
            else:
                raise ParseError(f"unknown section keyword {toks[0]!r}", line=lineno)
            continue

        if n_declared is None:
            raise ParseError("data before *vertices header", line=lineno)
        if section == "vertices":
            try:
                vnum = int(toks[0])
            except ValueError:
                raise ParseError(f"invalid vertex number {toks[0]!r}", line=lineno) from None
            if not 1 <= vnum <= n_declared:
                raise ParseError(
                    f"vertex number {vnum} outside [1, {n_declared}]", line=lineno
                )
            if len(toks) > 1:
                if not toks[1]:
                    raise ParseError("empty vertex label", line=lineno)
                labels[vnum] = toks[1]
            if len(toks) > 3:
                try:
                    coords[vnum] = (float(toks[2]), float(toks[3]))
                except ValueError:
                    pass  # shape parameters, not coordinates
        else:  # *vertices opened a section, so this is a link section
            rel, n1, n2, weight, name = _parse_link_tokens(toks, lineno, section_rel)
            for v in (n1, n2):
                if not 1 <= v <= n_declared:
                    raise ParseError(
                        f"vertex number {v} outside [1, {n_declared}]", line=lineno
                    )
            if name is not None:
                if declarations.get(rel) not in (None, name):
                    raise ParseError(
                        f"relation code {rel} used as {name!r}"
                        f" (declared {declarations[rel]!r})",
                        line=lineno,
                    )
                declarations[rel] = name
            raw_links.append((rel, n1, n2, weight, section))

    if n_declared is None:
        raise ParseError("missing *vertices header")

    nodes = []
    for i in range(1, n_declared + 1):
        lab = labels.get(i, str(i))
        xy = coords.get(i)
        nodes.append(
            NodeRecord(id=i, lab=lab, x=xy[0] if xy else None, y=xy[1] if xy else None)
        )
    node_levels = tuple(n.lab for n in nodes)
    if len(set(node_levels)) != len(node_levels):
        node_levels = ()  # repeated labels: each vertex code names itself
    node_coding = CodingTable("node", node_levels, base=1)

    codes = sorted(set(declarations) | {rel for rel, *_ in raw_links})
    if codes and codes[0] < 1:
        raise ParseError(f"relation code {codes[0]} is below 1")
    names = [declarations.get(code) or str(code) for code in codes]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ParseError(f"relation names are not distinct: duplicate coding table level: {name!r}")
    levels = sorted_levels(names)
    position = {code: levels.index(name) + 1 for code, name in zip(codes, names)}
    relations = CodingTable("relation", tuple(levels), base=1)

    links = tuple(
        LinkRecord(kind=kind, n1=n1, n2=n2, rel=position[rel], weight=weight)
        for rel, n1, n2, weight, kind in raw_links
    )
    directed = any(l.kind is LinkKind.ARC for l in links) or not links
    net = make_network(
        nodes, links, org=1, directed=directed, relations=relations, node_coding=node_coding
    )
    return net._replace(info=net.info._replace(network=title))


def _parse_link_tokens(toks: list[str], lineno: int, rel: int):
    i = 0
    if toks[0].endswith(":"):
        try:
            rel = int(toks[0][:-1])
        except ValueError:
            raise ParseError(f"invalid relation prefix {toks[0]!r}", line=lineno) from None
        i = 1
    if len(toks) < i + 2:
        raise ParseError("link line needs two vertex numbers", line=lineno)
    try:
        n1 = int(toks[i])
        n2 = int(toks[i + 1])
    except ValueError:
        raise ParseError("link endpoints must be vertex numbers", line=lineno) from None
    i += 2
    weight = 1.0
    if i < len(toks) and toks[i] != "l":
        try:
            weight = float(toks[i])
        except ValueError:
            raise ParseError(f"invalid link weight {toks[i]!r}", line=lineno) from None
        i += 1
    name = None
    if i < len(toks):
        if toks[i] != "l" or len(toks) < i + 2:
            raise ParseError("expected relation suffix of the form: l \"name\"", line=lineno)
        name = toks[i + 1]
        if not name:
            raise ParseError("empty relation name", line=lineno)
    return rel, n1, n2, weight, name


def _vertex_count(toks: list[str], lineno: int) -> int:
    """The count a ``*vertices`` header line declares."""
    if len(toks) < 2:
        raise ParseError("*vertices requires a count", line=lineno)
    try:
        return int(toks[1])
    except ValueError:
        raise ParseError(f"invalid vertex count {toks[1]!r}", line=lineno) from None


# The network constructor as written when it built the id set twice and
# checked endpoints and counted relations and modes through network_stats,
# keeping the tables it is given and deriving only a labeled network's
# relation table; the oracle readers above build their networks with it.


def make_network(nodes, links, *, info=None, org=1, directed=True, relations=None,
                 node_coding=None, property_codings=EMPTY):
    nodes = tuple(nodes)
    links = tuple(links)
    ids = [n.id for n in nodes]
    if len(set(ids)) != len(ids):
        dupes = sorted({str(i) for i, count in Counter(ids).items() if count > 1})
        raise StructuralError(f"duplicate node identifier(s): {', '.join(dupes)}")

    factorized = bool(nodes) and isinstance(ids[0], int)
    form = int if factorized else str
    if not set(map(type, ids)) <= {form}:
        raise StructuralError("node identifiers must be all names or all integer codes")
    if "" in ids:
        raise StructuralError("empty node identifier")
    rels = [link.rel for link in links]
    if not set(map(type, rels)) <= {form}:
        raise StructuralError("link relations must be all names or all integer codes,"
                              " matching the node identifiers")
    if "" in rels:
        raise StructuralError("empty link relation")
    base = info.org if info is not None else org
    base = base if base in (0, 1) else 1
    if relations is None:  # a factorized network's codes name themselves: no table is made up
        names = [] if factorized else [l.rel for l in links]
        relations = build_coding_table("relation", names, LevelPolicy.SORTED, base)
    if not factorized or node_coding is None:
        node_coding = CodingTable("node", base=base)

    net = Network(
        info=info if info is not None else InfoBlock(org=org, directed=directed),
        nodes=nodes,
        links=links,
        relations=relations,
        node_coding=node_coding,
        property_codings=property_codings,
    )
    node_set = {n.id for n in net.nodes}
    used = set()
    for i, link in enumerate(net.links):
        if link.n1 not in node_set or link.n2 not in node_set:
            raise StructuralError(f"link {i} references unknown node ({link.n1!r}, {link.n2!r})")
        used.add(link.rel)
    if info is None:
        keys = set()
        for l in links:
            ends = frozenset((l.n1, l.n2)) if l.kind is LinkKind.EDGE else (l.n1, l.n2)
            keys.add((l.kind, l.rel, ends))
        modes = {n.mode for n in nodes if n.mode is not None}
        info = net.info._replace(simple=len(keys) == len(links), multirel=len(used) > 1,
                                 mode=max(1, len(modes)))
        net = net._replace(info=info)
    return net
