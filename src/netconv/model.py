"""In-memory network model shared by every reader and writer.

A network N = (V, L, P, W) is a list of node records with properties, a list
of link records with weights, an info block of metadata, and the coding
tables that make the integer-coded (factorized) representation invertible.

Networks are immutable after construction: every record is a named tuple,
and transformations return new instances (``record._replace(field=value)``
copies one with some fields changed). Property values are plain Python
values: None stands for a missing (absent) value, bool/int/float/str for
scalars, lists for subsets and series, dicts for opaque structured values,
plus the two dedicated types :class:`Interval` and :class:`TemporalQuantity`.
"""

from __future__ import annotations

import bisect
import functools
from collections import Counter
from enum import Enum
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .coding import CodingTable, LevelPolicy, build_coding_table, code_range_table
from .errors import StructuralError

# Tagged union of supported property values. Absent is represented by None
# (in property maps: by the key not being present).
PropertyValue = Any


def _fresh(**factories: Callable):
    """Class decorator for a named tuple: a record built without one of the
    fields named in ``factories`` gets a new value from its factory there,
    not the one default object every such record would share."""
    def decorate(cls):
        make, at = cls.__new__, {name: cls._fields.index(name) for name in factories}

        @functools.wraps(make)
        def __new__(cls, *args, **kwargs):
            for name, i in at.items():
                if i >= len(args) and name not in kwargs:
                    kwargs[name] = factories[name]()
            return make(cls, *args, **kwargs)

        cls.__new__ = __new__
        return cls
    return decorate


class Interval(NamedTuple):
    """Closed numeric interval [lo, hi]."""

    lo: float
    hi: float


class TemporalQuantity(tuple):
    """A value defined piecewise over half-open integer time intervals: the
    tuple of its ``(s, f, v)`` triples.

    Each triple (s, f, v) means the value v holds on [s, f). Well-formed
    quantities have s < f, triples sorted by s, and no overlaps; violations
    are representable so validators can report them.
    """

    __slots__ = ()

    def __new__(cls, triples: tuple[tuple[int, int, PropertyValue], ...] = ()):
        return tuple.__new__(cls, triples)

    triples = property(tuple, doc="The triples as a plain tuple.")

    def __repr__(self) -> str:
        return f"TemporalQuantity(triples={tuple(self)!r})"


def tq_value_at(tq: TemporalQuantity, t: int) -> PropertyValue:
    """Value of a temporal quantity at time t; None when no interval covers t.

    Assumes the quantity is well-formed (sorted, disjoint) and binary-searches
    the interval starts.
    """
    i = bisect.bisect_right(tq, t, key=lambda triple: triple[0]) - 1
    if i >= 0 and t < tq[i][1]:  # bisect_right leaves start <= t
        return tq[i][2]
    return None


class LinkKind(str, Enum):
    ARC = "arc"
    EDGE = "edge"


@_fresh(t_labs=dict)
class TimeWindow(NamedTuple):
    """Lifetime [t_min, t_max] of a temporal network with optional point labels."""

    t_min: int
    t_max: int
    t_labs: dict[int, str] = {}


@_fresh(extra=dict)
class EventRecord(NamedTuple):
    """One entry of the dataset's life log (creation, release, publication, ...)."""

    date: str
    title: str
    author: Optional[str] = None
    desc: Optional[str] = None
    url: Optional[str] = None
    cite: Optional[str] = None
    copy: Optional[str] = None
    extra: dict[str, PropertyValue] = {}


@_fresh(extra=dict)
class InfoBlock(NamedTuple):
    """Network-level metadata: flags and provenance.

    ``org`` is the smallest index used by coded identifiers (0 or 1).
    Counts are not stored: :func:`network_stats` derives them from the
    node and link lists.
    """

    org: int = 1
    simple: bool = False
    directed: bool = True
    multirel: bool = False
    mode: int = 1
    network: str = ""
    title: str = ""
    time: Optional[TimeWindow] = None
    meta: tuple[EventRecord, ...] = ()
    created: Optional[str] = None
    modified: Optional[str] = None
    extra: dict[str, PropertyValue] = {}


@_fresh(props=dict)
class NodeRecord(NamedTuple):
    """A node: identity, labels, coordinates, and a free property map.

    ``id`` is text in labeled form or an integer code in factorized form.
    """

    id: str | int
    lab: str = ""
    slab: Optional[str] = None
    x: Optional[float] = None
    y: Optional[float] = None
    mode: Optional[str] = None
    tq: Optional[TemporalQuantity] = None
    props: dict[str, PropertyValue] = {}


@_fresh(props=dict)
class LinkRecord(NamedTuple):
    """A link between two nodes; an arc is directed n1 -> n2, an edge is not."""

    kind: LinkKind
    n1: str | int
    n2: str | int
    rel: str | int
    weight: float = 1.0
    label: Optional[str] = None
    tq: Optional[TemporalQuantity] = None
    props: dict[str, PropertyValue] = {}


@_fresh(info=InfoBlock, property_codings=dict)
class Network(NamedTuple):
    """The complete model: info block, records, and coding tables (a node
    table only when factorized)."""

    info: InfoBlock = InfoBlock()
    nodes: tuple[NodeRecord, ...] = ()
    links: tuple[LinkRecord, ...] = ()
    relations: CodingTable = CodingTable("relation")
    node_coding: CodingTable = CodingTable("node")
    property_codings: dict[str, CodingTable] = {}

    @property
    def is_factorized(self) -> bool:
        """True when node identities are integer codes. Empty networks count
        as labeled."""
        return bool(self.nodes) and isinstance(self.nodes[0].id, int)


class NetworkStats(NamedTuple):
    n_nodes: int
    n_arcs: int
    n_edges: int
    n_relations: int
    n_modes: int


def network_stats(network: Network) -> NetworkStats:
    """Counts computed from the node and link lists, never copied from info.

    n_relations counts distinct relation values referenced by links;
    n_modes counts distinct node modes, 1 when no node carries a mode.
    """
    ids = {n.id for n in network.nodes}
    n_arcs = 0
    n_edges = 0
    rels = set()
    for i, link in enumerate(network.links):
        if link.n1 not in ids or link.n2 not in ids:
            raise StructuralError(f"link {i} references unknown node ({link.n1!r}, {link.n2!r})")
        if link.kind is LinkKind.ARC:
            n_arcs += 1
        else:
            n_edges += 1
        rels.add(link.rel)
    modes = {n.mode for n in network.nodes if n.mode is not None}
    return NetworkStats(len(network.nodes), n_arcs, n_edges, len(rels), max(1, len(modes)))


def parallel_key(kind: LinkKind, rel, n1, n2) -> tuple:
    """Links are parallel when their keys are equal: same kind and relation,
    and the same endpoints, ordered for arcs and unordered for edges."""
    if kind is LinkKind.EDGE:
        return kind, rel, frozenset((n1, n2))
    return kind, rel, n1, n2


def _parallel_links_exist(links: Sequence[LinkRecord]) -> bool:
    seen = set()
    for key in (parallel_key(l.kind, l.rel, l.n1, l.n2) for l in links):
        if key in seen:
            return True
        seen.add(key)
    return False


def sorted_relations(declared: Sequence[str], links: Sequence[LinkRecord], base: int) -> CodingTable:
    """A labeled network's relation table: the ``declared`` levels and the
    relations ``links`` use, sorted, based at ``base``."""
    return build_coding_table("relation", [*declared, *(l.rel for l in links)], LevelPolicy.SORTED, base)


def make_network(
    nodes: Sequence[NodeRecord],
    links: Sequence[LinkRecord],
    *,
    info: Optional[InfoBlock] = None,
    org: int = 1,
    directed: bool = True,
    relations: Optional[CodingTable] = None,
    node_coding: Optional[CodingTable] = None,
    property_codings: Optional[dict[str, CodingTable]] = None,
) -> Network:
    """Assemble a network and derive the relation table it was not given.

    A network holds one identifier form: every node id and link relation
    is text when the first node id is (labeled), and an ``int``, not a
    ``bool``, when it is a code (factorized); any other id or relation
    raises :class:`StructuralError`.
    A given ``info`` is kept as it is; otherwise the simple/multirel/mode
    flags are computed from content. A missing relation table is derived:
    labeled, by :func:`sorted_relations` at the base ``org`` (1 unless 0 or
    1); factorized, by :func:`~netconv.coding.code_range_table`. A given node
    table is kept only when the ids are codes; otherwise it is empty, at that base.
    """
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
    rels = [link.rel for link in links]
    if not set(map(type, rels)) <= {form}:
        raise StructuralError("link relations must be all names or all integer codes,"
                              " matching the node identifiers")
    base = info.org if info is not None else org
    base = base if base in (0, 1) else 1
    if relations is None and factorized and rels:
        relations = code_range_table("relation", rels)
    elif relations is None:
        relations = sorted_relations((), links, base)
    if node_coding is None or not factorized:
        node_coding = CodingTable("node", base=base)

    net = Network(
        info=info if info is not None else InfoBlock(org=org, directed=directed),
        nodes=nodes,
        links=links,
        relations=relations,
        node_coding=node_coding,
        property_codings=dict(property_codings or {}),
    )
    stats = network_stats(net)  # raises on an endpoint that names no node
    if info is None:
        simple, multirel = not _parallel_links_exist(links), stats.n_relations > 1
        info = net.info._replace(simple=simple, multirel=multirel, mode=stats.n_modes)
        net = net._replace(info=info)
    return net


def recode(network: Network, node: Callable, rel: Callable, **changes) -> Network:
    """Rebuild every record of ``network`` with each node id and link
    endpoint mapped through ``node`` and each link relation through
    ``rel``; ``changes`` replace other :class:`Network` fields."""
    nodes = tuple(NodeRecord._make((node(n.id), *n[1:])) for n in network.nodes)
    links = tuple(LinkRecord._make((l.kind, node(l.n1), node(l.n2), rel(l.rel), *l[4:]))
                  for l in network.links)
    return network._replace(nodes=nodes, links=links, **changes)


def canonical_order(network: Network) -> Network:
    """Normalize a network for deterministic emission.

    Relation levels are sorted by Unicode code point (coded links are
    remapped to the new codes); node and link order are preserved.
    Idempotent.
    """
    old = network.relations
    new = CodingTable(old.name, tuple(sorted(old.levels)), old.base)
    if new.levels == old.levels or not network.is_factorized:
        return network._replace(relations=new)
    return recode(network, lambda code: code, lambda code: new.code_of(old.value_of(code)),
                  relations=new)
