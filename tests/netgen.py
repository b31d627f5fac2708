"""Seeded random-network generator for the round-trip suites.

Each format preserves a different content class, so the generator produces
networks inside the class a given trip can represent exactly:

* ``pajek``   -- labeled, property-free, id == label, weights only; or,
                 on request, factorized without a node table, its
                 labels repeating;
* ``csv``     -- labeled, scalar properties with one type per column, no
                 temporal data (the tables are untyped text);
* ``json``    -- everything the model supports, labeled or factorized.
"""

from __future__ import annotations

import random
import string

from netconv import (
    EventRecord,
    InfoBlock,
    Interval,
    LinkKind,
    LinkRecord,
    NodeRecord,
    TemporalQuantity,
    TimeWindow,
    CodingTable,
    build_coding_table,
    factorize_network,
    make_network,
)

_LETTERS = string.ascii_letters + "áéíóúßžšč"
_CSV_SPICE = ';",'  # exercises quoting
_WEIGHTS = [1.0, 1.0, 2.0, 0.5, 3.25, 7.0, 0.125]


def _name(rng: random.Random, used: set, spice: str = "") -> str:
    while True:
        length = rng.randint(3, 12)
        chars = [rng.choice(_LETTERS) for _ in range(length)]
        if spice and rng.random() < 0.15:
            chars[rng.randrange(length)] = rng.choice(spice)
        s = "".join(chars)
        if s not in used and s not in ("NA", "NaN"):
            used.add(s)
            return s


def _prop_key(rng: random.Random, reserved: set) -> str:
    while True:
        s = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(2, 8)))
        if s not in reserved:
            return s


def _tq(rng: random.Random, window: TimeWindow | None, rich: bool) -> TemporalQuantity:
    lo = window.t_min if window else rng.randint(-20, 20)
    hi = (window.t_max + 1) if window else lo + rng.randint(2, 40)
    triples = []
    t = lo
    for _ in range(rng.randint(1, 4)):
        if t >= hi - 1:
            break
        s = rng.randint(t, min(t + 5, hi - 1))
        f = rng.randint(s + 1, min(s + 8, hi))
        value = _json_value(rng, depth=1) if rich else float(rng.randint(0, 9))
        triples.append((s, f, value))
        t = f
    return TemporalQuantity(tuple(triples))


def _json_value(rng: random.Random, depth: int = 0):
    kinds = ["str", "int", "float", "bool"]
    if depth < 2:
        kinds += ["list", "dict", "interval"]
    kind = rng.choice(kinds)
    if kind == "str":
        return "".join(rng.choice(_LETTERS) for _ in range(rng.randint(1, 8)))
    if kind == "int":
        return rng.randint(-1000, 1000)
    if kind == "float":
        return rng.choice(_WEIGHTS) * rng.randint(1, 20)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "interval":
        lo = float(rng.randint(-10, 10))
        return Interval(lo, lo + rng.randint(0, 10))
    if kind == "list":
        return [_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {
        _prop_key(rng, set()): _json_value(rng, depth + 1) for _ in range(rng.randint(1, 3))
    }


def random_pajek_network(rng: random.Random, max_nodes: int = 200, max_links: int = 200,
                         shared_labels: float = 0.0):
    """A labeled, property-free network whose ids are its labels, and
    whether to write its coordinates. With chance ``shared_labels``, and
    two nodes or more, it is instead factorized at base 1 without a node
    table, each code naming its node, and its labels repeat: node 1 is
    labeled "2" and node 2 is unlabeled, so NET names both "2", and the
    others draw from a few labels or none."""
    used: set = set()
    n = rng.randint(0, max_nodes)
    with_coords = rng.random() < 0.3
    names = [_name(rng, used) for _ in range(n)]
    nodes = [
        NodeRecord(
            id=name,
            lab=name,
            x=float(rng.randint(0, 999)) + 0.5 if with_coords else None,
            y=float(rng.randint(0, 999)) + 0.25 if with_coords else None,
        )
        for name in names
    ]
    rels = [_name(rng, used) for _ in range(rng.randint(1, 4))]
    links = []
    if n:
        for _ in range(rng.randint(0, max_links)):
            links.append(
                LinkRecord(
                    kind=rng.choice((LinkKind.ARC, LinkKind.EDGE)),
                    n1=rng.choice(names),
                    n2=rng.choice(names),
                    rel=rng.choice(rels),
                    weight=rng.choice(_WEIGHTS),
                )
            )
    directed = any(l.kind is LinkKind.ARC for l in links) or not links
    net = make_network(nodes, links, org=1, directed=directed)
    if n < 2 or not shared_labels or rng.random() >= shared_labels:
        return net, with_coords
    coded = factorize_network(net, 1)
    labs = ["2", "", *(rng.choice(["a", "b", "3", ""]) for _ in range(n - 2))]
    nodes = tuple(node._replace(lab=lab) for node, lab in zip(coded.nodes, labs))
    return coded._replace(nodes=nodes, node_coding=CodingTable("node")), with_coords


def with_bare_headers(rng: random.Random, text: str) -> str:
    """NET ``text`` as ``write_pajek_net`` writes it, rewritten in the style
    of Pajek's multi-relational files: each run of links of one kind and
    relation k under a bare ``*arcs :k`` or ``*edges :k`` header, its lines
    without the ``k:`` prefix. A header re-opens the section k's
    declaration named; now and then a used relation's declaration is
    dropped, and the suffix of its first link names it instead. The other
    suffixes are kept now and then. The text reads as the same network."""
    lines = text.splitlines()

    def link_code(line: str):
        head = line.split(" ", 1)[0]
        return head[:-1] if head.endswith(":") and head[:-1].isdigit() else None

    used = {link_code(line) for line in lines} - {None}
    dropped = {line.split()[1][1:] for line in lines if line.startswith("*arcs :")
               and rng.random() < 0.3} & used
    out, kind, section, named = [], None, None, set()
    for line in lines:
        code = link_code(line)
        if line in ("*arcs", "*edges"):
            kind = line
        elif line.startswith("*arcs :") and line.split()[1][1:] in dropped:
            continue
        elif code is None:
            out.append(line)
        else:
            _, n1, n2, weight, suffix = line.split(" ", 4)
            if (kind, code) != section:
                out.append(f"{kind} :{code}")
                section = (kind, code)
            keep = (code in dropped and code not in named) or rng.random() < 0.3
            named.add(code)
            out.append(f"{n1} {n2} {weight}" + (f" {suffix}" if keep else ""))
    return "\n".join(out) + "\n"


def random_csv_network(rng: random.Random, max_nodes: int = 200, max_links: int = 200):
    used: set = set()
    n = rng.randint(0, max_nodes)
    names = [_name(rng, used, spice=_CSV_SPICE) for _ in range(n)]
    modes = [_name(rng, used) for _ in range(rng.randint(1, 3))]

    node_keys = {
        _prop_key(rng, {"name", "mode", "slab", "x", "y"}): rng.choice(("num", "text"))
        for _ in range(rng.randint(0, 3))
    }
    link_keys = {
        _prop_key(rng, {"from", "relation", "to", "kind", "weight", "label"}): rng.choice(
            ("num", "text")
        )
        for _ in range(rng.randint(0, 2))
    }

    def prop_value(kind: str):
        if kind == "num":
            return rng.choice(_WEIGHTS) * rng.randint(1, 30)
        while True:
            s = "".join(rng.choice(_LETTERS) for _ in range(rng.randint(1, 9)))
            if s not in ("NA", "NaN"):  # the untyped table reads these as missing
                return s

    def short_label(name: str):
        s = name[: rng.randint(1, len(name))]
        return None if s in ("NA", "NaN") else s

    nodes = []
    for name in names:
        props = {k: prop_value(t) for k, t in node_keys.items() if rng.random() < 0.7}
        nodes.append(
            NodeRecord(
                id=name,
                lab=name,
                slab=short_label(name) if rng.random() < 0.2 else None,
                x=float(rng.randint(0, 999)) + 0.5 if rng.random() < 0.4 else None,
                y=float(rng.randint(0, 999)) + 0.25 if rng.random() < 0.4 else None,
                mode=rng.choice(modes) if rng.random() < 0.5 else None,
                props=props,
            )
        )

    style = rng.choice(("arcs", "edges", "mixed"))
    directed = {"arcs": True, "edges": False, "mixed": rng.random() < 0.5}[style]
    rels = [_name(rng, used) for _ in range(rng.randint(1, 4))]
    links = []
    if n:
        n_links = rng.randint(0, max_links)
        kinds = {
            "arcs": [LinkKind.ARC],
            "edges": [LinkKind.EDGE],
            "mixed": [LinkKind.ARC, LinkKind.EDGE],
        }[style]
        if style == "mixed" and n_links >= 2:
            forced = [LinkKind.ARC, LinkKind.EDGE]
        else:
            forced = []
        for i in range(n_links):
            kind = forced[i] if i < len(forced) else rng.choice(kinds)
            props = {k: prop_value(t) for k, t in link_keys.items() if rng.random() < 0.7}
            links.append(
                LinkRecord(
                    kind=kind,
                    n1=rng.choice(names),
                    n2=rng.choice(names),
                    rel=rng.choice(rels),
                    weight=rng.choice(_WEIGHTS),
                    label=_name(rng, used) if rng.random() < 0.2 else None,
                    props=props,
                )
            )
    # A lone arc/edge in "mixed" style degenerates to a uniform table; the
    # directed flag must then agree with the single kind on re-parse.
    present = {l.kind for l in links}
    if present == {LinkKind.ARC}:
        directed = True
    elif present == {LinkKind.EDGE}:
        directed = False
    return make_network(nodes, links, org=1, directed=directed)


def random_json_network(rng: random.Random, max_nodes: int = 200, max_links: int = 200):
    used: set = set()
    org = rng.choice((0, 1))
    n = rng.randint(0, max_nodes)
    names = [_name(rng, used) for _ in range(n)]

    window = None
    if rng.random() < 0.5:
        t_min = rng.randint(-5, 5)
        t_max = t_min + rng.randint(1, 30)
        labs = {
            t: _name(rng, used)
            for t in rng.sample(range(t_min, t_max + 1), k=min(3, t_max - t_min))
        }
        window = TimeWindow(t_min, t_max, labs)

    meta = ()
    if rng.random() < 0.4:
        meta = (
            EventRecord(date="2015-06-09", title="created", author="someone"),
            EventRecord(
                date="2019-02-26",
                title="renamed",
                desc="longer description",
                url="https://example.org/x",
                cite="ref",
                copy="CC-BY",
            ),
        )
    info = InfoBlock(
        org=org,
        directed=rng.random() < 0.7,
        network="bib.json" if rng.random() < 0.3 else "",
        title=_name(rng, used) if rng.random() < 0.5 else "",
        time=window,
        meta=meta,
        created="2016-06-01" if rng.random() < 0.6 else None,
        modified="2024-11-30" if rng.random() < 0.4 else None,
        extra={_prop_key(rng, set()): _json_value(rng) for _ in range(rng.randint(0, 2))},
    )
    if info.modified and not info.created:
        info = info._replace(created="2010-01-01")
    if rng.random() < 0.3:
        info.extra["data"] = {"labels": {"en": "network"}, "scale": [1, 2, 3]}

    nodes = []
    for name in names:
        lab = name if rng.random() < 0.7 else _name(rng, used)
        props = {
            _prop_key(rng, {"id", "lab", "slab", "x", "y", "mode", "tq"}): _json_value(rng)
            for _ in range(rng.randint(0, 3))
        }
        nodes.append(
            NodeRecord(
                id=name,
                lab=lab,
                slab=lab[: rng.randint(1, len(lab))] if lab and rng.random() < 0.3 else None,
                x=float(rng.randint(0, 99)) if rng.random() < 0.3 else None,
                y=float(rng.randint(0, 99)) if rng.random() < 0.3 else None,
                mode=rng.choice(("a", "b", "c")) if rng.random() < 0.4 else None,
                tq=_tq(rng, window, rich=True) if rng.random() < 0.4 else None,
                props=props,
            )
        )
    rels = [_name(rng, used) for _ in range(rng.randint(1, 4))]
    links = []
    if n:
        for _ in range(rng.randint(0, max_links)):
            props = {
                _prop_key(rng, {"type", "n1", "n2", "rel", "weight", "label", "tq"}): _json_value(
                    rng
                )
                for _ in range(rng.randint(0, 2))
            }
            links.append(
                LinkRecord(
                    kind=rng.choice((LinkKind.ARC, LinkKind.EDGE)),
                    n1=rng.choice(names),
                    n2=rng.choice(names),
                    rel=rng.choice(rels),
                    weight=rng.choice(_WEIGHTS),
                    label=_name(rng, used) if rng.random() < 0.2 else None,
                    tq=_tq(rng, window, rich=False) if rng.random() < 0.3 else None,
                    props=props,
                )
            )
    property_codings = {}
    if rng.random() < 0.3:
        mode_values = [nd.mode for nd in nodes]
        if any(v is not None for v in mode_values):
            property_codings["mode"] = build_coding_table("mode", mode_values, base=org)
    net = make_network(
        nodes, links, info=info, org=org, property_codings=property_codings
    )
    if rng.random() < 0.4 and n:
        net = factorize_network(net, rng.choice((0, 1)))
    return net


def random_labeled_network(rng: random.Random, max_nodes: int = 200, max_links: int = 200):
    """Labeled network with sorted relations, for factorize round trips."""
    net = random_json_network(rng, max_nodes, max_links)
    if net.is_factorized:
        from netconv import defactorize_network

        net = defactorize_network(net)
    return net
