"""Pajek NET and CLU files, with multi-relational arc/edge sections.

The NET writer emits, in order: ``*vertices n``, one ``i "label"`` line per
node (coordinates optional), one ``*arcs :r "name"`` declaration per
relation in coding order, then plain ``*arcs`` / ``*edges`` sections whose
lines read ``r: n1 n2 w l "name"``. The reader tolerates ``%`` comments,
blank lines, CRLF endings, case-insensitive keywords, missing relation
prefixes (code 1), and missing ``l "name"`` suffixes.

Pajek carries no property maps, so only identity, label, coordinates,
weight, and relation survive a round trip; the edge-section grammar mirrors
the arc grammar (the format exemplar shows arcs only).
"""

from __future__ import annotations

import math
import re
from typing import IO, NamedTuple

from .coding import CodingTable, LevelPolicy, build_coding_table, code_range_table, encode
from .errors import CodingError, ExportError, ParseError
from .model import (LinkKind, LinkRecord, Network, NodeRecord, make_network, node_names,
                    sorted_relations)


def _quote(text: str) -> str:
    if "\n" in text or "\r" in text:
        raise ExportError(f"label {text!r} contains a line break and cannot be written")
    return '"' + text.replace('"', '""') + '"'


_TOKEN = re.compile(r'\s*(?:"((?:[^"]|"")*)"|([^\s"]\S*)|(\S))')  # quoted | bare | lone quote


def _tokens(line: str, lineno: int) -> list[str]:
    """Whitespace-separated tokens of a line; in a quoted token "" stands for a quote."""
    found = _TOKEN.findall(line)
    if ("", "", '"') in found:
        raise ParseError("unterminated quoted token", line=lineno)
    return [bare or quoted.replace('""', '"') for quoted, bare, _ in found]


def _numbered_lines(source: IO[str]):
    """(line number, line) pairs; bytes the stream cannot decode raise ParseError."""
    lineno = 0
    try:
        for lineno, line in enumerate(source, start=1):
            yield lineno, line
    except UnicodeDecodeError as exc:
        raise ParseError.undecodable(exc, lineno) from None


def _format_weight(w: float) -> str:
    if not math.isfinite(w):
        raise ExportError(f"non-finite link weight {w!r}")
    return str(int(w)) if w == int(w) else str(w)


def write_pajek_net(network: Network, base: int = 1, *, coordinates: bool = False) -> str:
    """Serialize a network as Pajek NET text (LF line endings).

    Pajek numbering is 1-based. A factorized network's node codes are
    written shifted up by one when it is based at 0, and each relation is
    numbered by its place in the relation table, as its ``*arcs :k``
    declaration is, whatever the table's base. A labeled network is numbered
    as :func:`~netconv.factorize.factorize_network` would code it at base
    1, without building the coded copy: each node by its position in node
    order, each relation by its place in the sorted table of the declared
    levels and the relations in use. A node without a label is labeled by
    its name (:func:`~netconv.model.node_names`); a label that two nodes
    share raises, as the reader could not tell them apart. Coordinates are
    emitted only when requested and both x and y are present.
    """
    if base != 1:
        raise ExportError("Pajek NET files are 1-based; base must be 1")
    nodes = network.nodes
    if network.is_factorized:
        shift = 1 - network.info.org
        number = {node.id: node.id + shift for node in nodes}
        if set(number.values()) != set(range(1, len(nodes) + 1)):
            raise ExportError("node codes do not form a contiguous 1-based range")
        relations = network.relations
        rel_code, rel_name = (lambda rel: rel - relations.base + 1), relations.value_of
    else:
        number = {node.id: i for i, node in enumerate(nodes, start=1)}
        relations = sorted_relations(network.relations.levels, network.links, 1)
        rel_code, rel_name = relations.code_of, str

    name_of = node_names(network)
    labels = set()  # the reader names each vertex by its label
    lines = [f"*vertices {len(nodes)}"]
    for node in nodes:
        label = node.lab or name_of(node.id)
        if label in labels:
            raise ExportError(f"vertex label {label!r} names more than one node")
        labels.add(label)
        line = f"{number[node.id]} {_quote(label)}"
        if coordinates and node.x is not None and node.y is not None:
            line += f" {node.x} {node.y}"
        lines.append(line)

    for i, name in enumerate(relations.levels):
        lines.append(f"*arcs :{i + 1} {_quote(name)}")

    # Each relation's "code:" prefix and quoted name, made once per relation.
    tags = {rel: (f"{rel_code(rel)}:", _quote(rel_name(rel)))
            for rel in dict.fromkeys(l.rel for l in network.links)}

    def link_line(link: LinkRecord) -> str:
        code, name = tags[link.rel]
        try:
            ends = f"{number[link.n1]} {number[link.n2]}"
        except KeyError as exc:
            raise ExportError(f"link endpoint {exc.args[0]!r} names no node") from None
        return f"{code} {ends} {_format_weight(link.weight)} l {name}"

    arcs = [l for l in network.links if l.kind is LinkKind.ARC]
    edges = [l for l in network.links if l.kind is LinkKind.EDGE]
    if arcs or not edges:
        lines.append("*arcs")
        lines.extend(map(link_line, arcs))
    if edges:
        lines.append("*edges")
        lines.extend(map(link_line, edges))
    return "\n".join(lines) + "\n"


def read_pajek_net(source: IO[str]) -> Network:
    """Parse Pajek NET text into a factorized network.

    The node coding is taken from the vertex labels (which must therefore be
    distinct); relation declarations become the relation coding table, with
    names synthesized from bare codes when a referenced relation was never
    declared. A repeated vertex line replaces only the label and coordinates
    it gives.
    """
    n = None  # the count of the last *vertices header
    vertices: dict[int, NodeRecord] = {}  # vertex number -> record, as last described
    links: list[LinkRecord] = []
    names: dict[int, str] = {}  # relation code -> its declared or first used name
    kind = None  # the kind of the open link section; None in *vertices

    def check(ends, code=0, name=None, conflict=""):
        """Raise unless each vertex of ``ends`` lies in [1, n] and ``name``,
        when given, is non-empty and the one name of relation ``code``
        (``conflict`` words the clash)."""
        if name == "":
            raise ParseError("empty relation name", line=lineno)
        for v in ends:
            if not 1 <= v <= n:
                raise ParseError(f"vertex number {v} outside [1, {n}]", line=lineno)
        if name is not None and names.setdefault(code, name) != name:
            raise ParseError(f"relation code {code} {conflict.format(name, names[code])}", line=lineno)

    for lineno, line in _numbered_lines(source):
        line = line.lstrip()
        if not line or line[0] == "%":
            continue
        toks = _tokens(line, lineno)
        if toks[0].startswith("*"):
            keyword = toks[0].lower()
            if keyword == "*vertices":
                n, kind = _vertex_count(toks, lineno), None
            elif keyword not in ("*arcs", "*edges"):
                raise ParseError(f"unknown section keyword {toks[0]!r}", line=lineno)
            elif len(toks) > 1 and toks[1].startswith(":"):
                code = _int(toks[1][1:], lineno, "invalid relation code {!r}", toks[1])
                name = toks[2] if len(toks) > 2 else str(code)
                check((), code, name, "redeclared as {!r} (was {!r})")
            else:
                kind = LinkKind.ARC if keyword == "*arcs" else LinkKind.EDGE
        elif n is None:
            raise ParseError("data before *vertices header", line=lineno)
        elif kind is None:
            v = _int(toks[0], lineno, "invalid vertex number {!r}")
            check((v,))
            node = vertices.get(v)
            lab = toks[1] if len(toks) > 1 else node.lab if node else str(v)
            if not lab:
                raise ParseError("empty vertex label", line=lineno)
            x, y = (node.x, node.y) if node else (None, None)
            if len(toks) > 3:
                cx, cy = _number(toks[2]), _number(toks[3])
                if cx is not None and cy is not None:  # else shape parameters
                    x, y = cx, cy
            vertices[v] = NodeRecord(v, lab, x=x, y=y)
        else:
            rel, i = 1, 0
            if toks[0].endswith(":"):
                rel, i = _int(toks[0][:-1], lineno, "invalid relation prefix {!r}", toks[0]), 1
            if len(toks) < i + 2:
                raise ParseError("link line needs two vertex numbers", line=lineno)
            n1 = _int(toks[i], lineno, "link endpoints must be vertex numbers")
            n2 = _int(toks[i + 1], lineno, "link endpoints must be vertex numbers")
            i += 2
            weight = 1.0
            if i < len(toks) and toks[i] != "l":
                weight = _number(toks[i])
                if weight is None:
                    raise ParseError(f"invalid link weight {toks[i]!r}", line=lineno)
                i += 1
            name = None
            if i < len(toks):
                if toks[i] != "l" or len(toks) < i + 2:
                    raise ParseError("expected relation suffix of the form: l \"name\"", line=lineno)
                name = toks[i + 1]
            check((n1, n2), rel, name, "used as {!r} (declared {!r})")
            links.append(LinkRecord(kind, n1, n2, rel, weight))

    if n is None:
        raise ParseError("missing *vertices header")
    nodes = [vertices.get(v) or NodeRecord(v, str(v)) for v in range(1, n + 1)]
    try:
        node_coding = CodingTable("node", tuple(node.lab for node in nodes))
    except ValueError:
        raise ParseError("duplicate vertex labels prevent building the node coding") from None
    codes = {link.rel for link in links}.union(names)
    if codes and min(codes) < 1:
        raise ParseError(f"relation code {min(codes)} is below 1")
    if codes and max(codes) - min(codes) >= lineno:  # the table names every code between
        raise ParseError(f"relation codes {min(codes)} to {max(codes)} span more values"
                         f" than the file's {lineno} lines")
    try:
        relations = code_range_table("relation", codes, names)
    except ValueError as exc:
        raise ParseError(f"relation names are not distinct: {exc}") from None
    directed = any(l.kind is LinkKind.ARC for l in links) or not links
    return make_network(
        nodes, links, org=1, directed=directed, relations=relations, node_coding=node_coding
    )


def _int(text: str, lineno: int, message: str, token: str | None = None) -> int:
    """``int(text)``, else ParseError(message) with ``token`` (default
    ``text``) in its ``{!r}``."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(message.format(text if token is None else token), line=lineno) from None


def _number(token: str) -> float | None:
    """The finite number a token spells, else None."""
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _vertex_count(toks: list[str], lineno: int) -> int:
    """The count a ``*vertices`` header line declares."""
    if len(toks) < 2:
        raise ParseError("*vertices requires a count", line=lineno)
    count = _int(toks[1], lineno, "invalid vertex count {!r}")
    if count < 0:
        raise ParseError(f"invalid vertex count {toks[1]!r}", line=lineno)
    return count


class Partition(NamedTuple):
    """One integer class code per node, aligned with node order; 0 is the
    missing code, as in CLU files. The coding's name is the property
    partitioned on."""

    values: tuple[int, ...] = ()
    coding: CodingTable = CodingTable("")


def partition_from_property(network: Network, property: str) -> Partition:
    """Build a partition from a categorical node property.

    Levels are sorted and coded from 1; nodes without the property get 0.
    The property must be present on at least one node.
    """
    values = []
    for node in network.nodes:
        v = node.mode if property == "mode" else node.props.get(property)
        if v is None:
            values.append(None)
        elif isinstance(v, bool):
            values.append("true" if v else "false")
        elif isinstance(v, (int, float, str)):
            values.append(str(v))
        else:
            raise CodingError(f"property {property!r} holds structured values; not categorical")
    if all(v is None for v in values):
        raise CodingError(f"unknown property {property!r}: absent on every node")
    coding = build_coding_table(property, values, LevelPolicy.SORTED)
    return Partition(tuple(encode(values, coding)), coding)


def _legend_token(level: str) -> str:
    if any(c.isspace() for c in level) or '"' in level:
        return _quote(level)
    return level


def write_pajek_clu(partition: Partition) -> str:
    """Serialize a partition as CLU text: legend comment, header, one value
    per line. The coding may have any base whose range leaves out 0, the
    missing code."""
    if partition.coding.in_range(0):
        raise ExportError("code 0 is the CLU missing code; re-code the partition without it")
    lines = []
    if len(partition.coding):
        pairs = " ".join(
            f"{partition.coding.base + i} {_legend_token(level)}"
            for i, level in enumerate(partition.coding.levels)
        )
        lines.append(f"% {pairs}")
    lines.append(f"*vertices {len(partition.values)}")
    lines.extend(str(v) for v in partition.values)
    return "\n".join(lines) + "\n"


def read_pajek_clu(source: IO[str]) -> Partition:
    """Parse CLU text; the legend comment is optional (levels are then
    synthesized from the codes in use, with 0 read as the missing code)."""
    coding = None
    n_declared = None
    values: list[int] = []
    for lineno, raw in _numbered_lines(source):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        if line.lstrip().startswith("%"):
            if coding is None and n_declared is None:
                coding = _parse_legend(line.lstrip()[1:], lineno)
            continue
        toks = _tokens(line, lineno)
        if toks[0].startswith("*"):
            if toks[0].lower() != "*vertices":
                raise ParseError(f"unexpected header {line!r}", line=lineno)
            n_declared = _vertex_count(toks, lineno)
            continue
        if n_declared is None:
            raise ParseError("values before *vertices header", line=lineno)
        values.append(_int(toks[0], lineno, "invalid partition value {!r}"))

    if n_declared is None:
        raise ParseError("missing *vertices header")
    if len(values) != n_declared:
        raise ParseError(f"expected {n_declared} values, found {len(values)}")
    if coding is None:
        codes = set(values) - {0}
        if codes and max(codes) - min(codes) >= lineno:  # the table names every code between
            raise ParseError(f"partition values {min(codes)} to {max(codes)} span more values"
                             f" than the file's {lineno} lines")
        coding = code_range_table("", codes)
    if coding.in_range(0):
        raise ParseError(f"the coded range [{coding.base}, {coding.base + len(coding) - 1}]"
                         " holds 0, the missing code")
    for i, v in enumerate(values):
        if v != 0 and not coding.in_range(v):
            raise ParseError(f"value {v} at position {i} outside the coded range")
    return Partition(tuple(values), coding)


def _parse_legend(body: str, lineno: int) -> CodingTable | None:
    toks = _tokens(body, lineno)
    if not toks or len(toks) % 2 != 0:
        return None
    codes = []
    levels = []
    for i in range(0, len(toks), 2):
        try:
            codes.append(int(toks[i]))
        except ValueError:
            return None
        levels.append(toks[i + 1])
    if codes != list(range(codes[0], codes[0] + len(codes))):
        return None
    try:
        return CodingTable("", tuple(levels), codes[0])
    except ValueError:
        return None
