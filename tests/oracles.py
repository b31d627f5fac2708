"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's own code paths: everything here is
plain sorting, linear scanning, and counting, so a bug in the package
cannot hide behind an identically-buggy expectation.
"""

from __future__ import annotations

from dataclasses import replace

from netconv import (
    CodingError,
    CodingTable,
    LevelPolicy,
    ParseError,
    StructuralError,
    build_coding_table,
    network_stats,
)


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
# record rebuild: every record is copied with ``dataclasses.replace``, so a
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
    nodes = tuple(replace(n, id=node_coding.code_of(str(n.id))) for n in network.nodes)
    links = tuple(
        replace(
            l,
            n1=node_coding.code_of(str(l.n1)),
            n2=node_coding.code_of(str(l.n2)),
            rel=relations.code_of(str(l.rel)),
        )
        for l in network.links
    )
    property_codings = {
        name: CodingTable(table.name, table.levels, base)
        for name, table in network.property_codings.items()
    }
    return replace(
        network,
        info=replace(network.info, org=base),
        nodes=nodes,
        links=links,
        relations=relations,
        node_coding=node_coding,
        property_codings=property_codings,
    )


def defactorize_network(network):
    """Integer-coded network -> labeled network, record by record; the node
    table is emptied, as on every labeled network."""
    if not network.is_factorized:
        return network
    if len(network.node_coding) == 0:
        raise CodingError("cannot invert: network carries no node coding table")
    nodes = tuple(replace(n, id=network.node_coding.value_of(n.id)) for n in network.nodes)
    links = tuple(
        replace(
            l,
            n1=network.node_coding.value_of(l.n1),
            n2=network.node_coding.value_of(l.n2),
            rel=network.relations.value_of(l.rel) if isinstance(l.rel, int) else l.rel,
        )
        for l in network.links
    )
    empty = CodingTable("node", (), network.node_coding.base)
    net = replace(network, nodes=nodes, links=links, node_coding=empty)
    network_stats(net)
    return net


def canonical_order(network):
    """Relation levels sorted; coded links remapped to the new codes."""
    old = network.relations
    new_rel = CodingTable(old.name, tuple(sorted(old.levels)), old.base)
    links = network.links
    if new_rel.levels != old.levels and any(isinstance(l.rel, int) for l in links):
        links = tuple(
            replace(l, rel=new_rel.code_of(old.value_of(l.rel))) if isinstance(l.rel, int) else l
            for l in links
        )
    return replace(network, relations=new_rel, links=links)
