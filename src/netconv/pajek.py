"""Pajek NET and CLU files, with multi-relational arc/edge sections.

The NET writer emits, in order: ``*vertices n``, one ``i "label"`` line per
node (coordinates optional), one ``*arcs :r "name"`` declaration per
relation in sorted order, then the links in order, each run of one kind
under a plain ``*arcs`` / ``*edges`` header, as ``r: n1 n2 w l "name"``.
The reader tolerates ``%`` comments, blank lines, CRLF endings, keywords in
any case, missing relation prefixes (the section's relation: k after
``*arcs :k``, else 1), and missing ``l "name"`` suffixes.

Pajek carries no property maps, so only identity, label, coordinates,
weight, and relation survive a round trip.
"""

from __future__ import annotations

import math
import re
from itertools import groupby
from typing import IO

from .coding import CodingTable, LevelPolicy, build_coding_table, encode
from .errors import CodingError, ExportError, ParseError
from .model import (LinkKind, LinkRecord, Network, NodeRecord, code_names, make_network,
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

    Pajek numbering is 1-based, and one numbering serves both identifier
    forms: vertex ``i`` is the i-th node, and each relation is numbered by
    its place in the relation normal form (:func:`~netconv.model.sorted_relations`
    of the declared levels and the relation names in use), which the
    ``*arcs :k`` declarations list. A code is named through its table, or
    by itself without one (:func:`~netconv.model.code_names`), and a node
    without a label is labeled by its name. The reader builds a node table
    only from distinct labels, so a label two nodes share raises where it
    would lose a name: in a labeled network, or in a factorized one with a
    node table. Coordinates are emitted only when both are present and requested.
    """
    if base != 1:
        raise ExportError("Pajek NET files are 1-based; base must be 1")
    nodes = network.nodes
    number = {node.id: i for i, node in enumerate(nodes, start=1)}
    rel_name = code_names(network, network.relations)
    names = {rel: rel_name(rel) for rel in dict.fromkeys(l.rel for l in network.links)}
    relations = sorted_relations(network.relations.levels, names.values(), 1)
    name_of = code_names(network, network.node_coding)
    labels = set()  # the reader names each vertex by its label, when they are distinct
    lines = [f"*vertices {len(nodes)}"]
    for node in nodes:
        label = node.lab or name_of(node.id)
        if label in labels and (network.node_coding or not network.is_factorized):
            raise ExportError(f"vertex label {label!r} names more than one node")
        labels.add(label)
        line = f"{number[node.id]} {_quote(label)}"
        if coordinates and node.x is not None and node.y is not None:
            line += f" {node.x} {node.y}"
        lines.append(line)

    for i, name in enumerate(relations.levels):
        lines.append(f"*arcs :{i + 1} {_quote(name)}")

    # Each relation's "code:" prefix and quoted name, made once per relation.
    tags = {rel: (f"{relations.code_of(name)}:", _quote(name)) for rel, name in names.items()}

    def link_line(link: LinkRecord) -> str:
        code, name = tags[link.rel]
        try:
            ends = f"{number[link.n1]} {number[link.n2]}"
        except KeyError as exc:
            raise ExportError(f"link endpoint {exc.args[0]!r} names no node") from None
        return f"{code} {ends} {_format_weight(link.weight)} l {name}"

    if not network.links:
        lines.append("*arcs")
    for kind, run in groupby(network.links, key=lambda link: link.kind):
        lines.append("*arcs" if kind is LinkKind.ARC else "*edges")
        lines.extend(map(link_line, run))
    return "\n".join(lines) + "\n"


def read_pajek_net(source: IO[str]) -> Network:
    """Parse Pajek NET text into a factorized network.

    The node coding is taken from the vertex labels when they are distinct;
    otherwise there is none, and each vertex code names itself. A relation code
    is a name local to the file: each is named by the name it was declared or
    first used with, or else by itself, and the relation table is those names in
    their normal form (:func:`~netconv.model.sorted_relations`), each link's code
    its name's place there. ``*arcs :k "name"`` (or ``*edges``) declares relation
    k and opens a section of k; a bare ``*arcs :k`` names nothing. A repeated
    vertex line replaces only the label and coordinates it gives. A ``*network``
    line before ``*vertices`` names the network.
    """
    n = None  # the count of the last *vertices header
    vertices: dict[int, NodeRecord] = {}  # vertex number -> record, as last described
    links: list[LinkRecord] = []
    names: dict[int, str] = {}  # relation code -> its declared or first used name
    declared: set[int] = set()  # the relation codes a header declares
    kind = None  # the kind of the open link section; None in *vertices
    section_rel = 1  # the relation of its lines without a prefix
    title = ""  # the network's name, from a *network line before *vertices
    chars = 0  # the characters read, which bound the vertex count

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
        chars += len(line)
        line = line.lstrip()
        if not line or line[0] == "%":
            continue
        toks = _tokens(line, lineno)
        if toks[0].startswith("*"):
            keyword = toks[0].lower()
            if keyword == "*vertices":
                n, kind = _vertex_count(toks, lineno), None
            elif keyword == "*network" and n is None:
                title = " ".join(toks[1:])
            elif keyword not in ("*arcs", "*edges"):
                raise ParseError(f"unknown section keyword {toks[0]!r}", line=lineno)
            else:
                kind, section_rel = LinkKind.ARC if keyword == "*arcs" else LinkKind.EDGE, 1
                if len(toks) > 1 and toks[1].startswith(":"):
                    section_rel = _int(toks[1][1:], lineno, "invalid relation code {!r}", toks[1])
                    declared.add(section_rel)  # a bare header names nothing
                    check((), section_rel, *toks[2:3], conflict="redeclared as {!r} (was {!r})")
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
            rel, i = section_rel, 0
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
    if n > chars:  # each counted vertex becomes a record, listed or not
        raise ParseError(f"vertex numbers 1 to {n} span more values than the file's {chars} characters")
    nodes = [vertices.get(v) or NodeRecord(v, str(v)) for v in range(1, n + 1)]
    try:
        node_coding = CodingTable("node", tuple(node.lab for node in nodes))
    except ValueError:  # repeated labels name no node: each vertex code names itself
        node_coding = CodingTable("node")
    codes = sorted({link.rel for link in links}.union(names, declared))
    if codes and codes[0] < 1:
        raise ParseError(f"relation code {codes[0]} is below 1")
    named = {code: names.get(code, str(code)) for code in codes}
    try:
        CodingTable("relation", tuple(named.values()))
    except ValueError as exc:
        raise ParseError(f"relation names are not distinct: {exc}") from None
    relations = sorted_relations(named.values(), (), 1)
    if any(relations.code_of(name) != code for code, name in named.items()):
        links = [link._replace(rel=relations.code_of(named[link.rel])) for link in links]
    directed = any(l.kind is LinkKind.ARC for l in links) or not links
    network = make_network(nodes, links, org=1, directed=directed, relations=relations,
                           node_coding=node_coding)
    return network._replace(info=network.info._replace(network=title))


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


def _legend_token(level: str) -> str:
    if any(c.isspace() for c in level) or '"' in level:
        return _quote(level)
    return level


def write_pajek_clu(network: Network, property: str) -> str:
    """Serialize a categorical node property as CLU text: legend comment,
    header, one code per node in node order.

    ``mode`` names the node field, any other name a property. Levels are
    sorted and coded from 1, and a node without the property gets 0, the
    missing code. The property must be present on at least one node.
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
    if "" in values:
        raise CodingError(f"property {property!r} holds empty text; not a level")
    coding = build_coding_table(property, values, LevelPolicy.SORTED)
    legend = " ".join(f"{code} {_legend_token(level)}" for code, level in enumerate(coding.levels, 1))
    codes = map(str, encode(values, coding))
    return "\n".join([f"% {legend}", f"*vertices {len(values)}", *codes]) + "\n"


def read_pajek_clu(source: IO[str], network: Network, property: str) -> Network:
    """Parse CLU text onto ``network``: each node, in node order, gets the
    level name its value codes as ``property`` (``mode``: the node field),
    and a node whose value is 0, the missing code, is left as it is.

    The legend comment is optional; without it each value is named by
    itself, and with it each value other than 0 must lie in its coded
    range, which may not hold 0. The file must give one value per node.
    ``info.mode`` is kept as it is, not recounted.
    """
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
    if coding is not None:
        if coding.in_range(0):
            raise ParseError(f"the coded range [{coding.base}, {coding.base + len(coding) - 1}]"
                             " holds 0, the missing code")
        for i, v in enumerate(values):
            if v != 0 and not coding.in_range(v):
                raise ParseError(f"value {v} at position {i} outside the coded range")
    if len(values) != len(network.nodes):
        raise ParseError(f"{len(values)} values for a network of {len(network.nodes)} nodes")
    name_of = coding.value_of if coding is not None else str
    nodes = tuple(
        node if v == 0
        else node._replace(mode=name_of(v)) if property == "mode"
        else node._replace(props={**node.props, property: name_of(v)})
        for node, v in zip(network.nodes, values))
    return network._replace(nodes=nodes)


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
