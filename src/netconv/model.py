"""In-memory network model shared by every reader and writer.

A network N = (V, L, P, W) is a list of node records with properties, a list
of link records with weights, an info block of metadata, and the coding
tables that make the integer-coded (factorized) representation invertible.

Networks are immutable after construction: every record is a named tuple,
and transformations return new instances (``record._replace(field=value)``
copies one with some fields changed). A record built without one of its
maps holds :data:`EMPTY`, the one read-only empty dict; a map the caller
gives is kept as given. Property values are plain Python
values: None stands for a missing (absent) value, bool/int/float/str for
scalars, lists for subsets and series, dicts for opaque structured values,
plus the two dedicated types :class:`Interval` and :class:`TemporalQuantity`.
"""

from __future__ import annotations

import bisect
from collections import Counter
from enum import Enum
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .coding import CodingTable, LevelPolicy, build_coding_table, code_range_table
from .errors import StructuralError

# Tagged union of supported property values. Absent is represented by None
# (in property maps: by the key not being present).
PropertyValue = Any


class _Empty(dict):
    """The type of :data:`EMPTY`: an empty dict whose every mutator raises
    TypeError. Copies and pickles give back :data:`EMPTY` itself."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a record's default map is read-only; give the record a map of its own")

    __setitem__ = __delitem__ = __ior__ = update = setdefault = pop = popitem = clear = _refuse

    def __reduce__(self):
        return "EMPTY"


EMPTY = _Empty()  # the map of every record built without one


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


class TimeWindow(NamedTuple):
    """Lifetime [t_min, t_max] of a temporal network with optional point labels."""

    t_min: int
    t_max: int
    t_labs: dict[int, str] = EMPTY


class EventRecord(NamedTuple):
    """One entry of the dataset's life log (creation, release, publication, ...)."""

    date: str
    title: str
    author: Optional[str] = None
    desc: Optional[str] = None
    url: Optional[str] = None
    cite: Optional[str] = None
    copy: Optional[str] = None
    extra: dict[str, PropertyValue] = EMPTY


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
    extra: dict[str, PropertyValue] = EMPTY


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
    props: dict[str, PropertyValue] = EMPTY


class LinkRecord(NamedTuple):
    """A link between two nodes; an arc is directed n1 -> n2, an edge is not."""

    kind: LinkKind
    n1: str | int
    n2: str | int
    rel: str | int
    weight: float = 1.0
    label: Optional[str] = None
    tq: Optional[TemporalQuantity] = None
    props: dict[str, PropertyValue] = EMPTY


class Network(NamedTuple):
    """The complete model: info block, records, and coding tables (a node
    table only when factorized)."""

    info: InfoBlock = InfoBlock()
    nodes: tuple[NodeRecord, ...] = ()
    links: tuple[LinkRecord, ...] = ()
    relations: CodingTable = CodingTable("relation")
    node_coding: CodingTable = CodingTable("node")
    property_codings: dict[str, CodingTable] = EMPTY

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
    nodes, links = network.nodes, network.links
    _check_ends(links, {n.id for n in nodes})
    n_arcs = sum(l.kind is LinkKind.ARC for l in links)
    return NetworkStats(len(nodes), n_arcs, len(links) - n_arcs, len({l.rel for l in links}),
                        _n_modes(nodes))


def _check_ends(links: Sequence[LinkRecord], ids: set) -> None:
    """Raise StructuralError at the first link with an endpoint outside ``ids``."""
    for i, link in enumerate(links):
        if link.n1 not in ids or link.n2 not in ids:
            raise StructuralError(f"link {i} references unknown node ({link.n1!r}, {link.n2!r})")


def _n_modes(nodes: Sequence[NodeRecord]) -> int:
    return max(1, len({n.mode for n in nodes if n.mode is not None}))


def parallel_key(kind: LinkKind, rel, n1, n2) -> tuple:
    """Links are parallel when their keys are equal: same kind and relation,
    and the same endpoints, ordered for arcs and unordered for edges."""
    if kind is LinkKind.EDGE:
        return kind, rel, frozenset((n1, n2))
    return kind, rel, n1, n2


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
    property_codings: dict[str, CodingTable] = EMPTY,
) -> Network:
    """Assemble a network and derive the relation table it was not given.

    A network holds one identifier form: every node id and link relation
    is text when the first node id is (labeled), and an ``int``, not a
    ``bool``, when it is a code (factorized); an empty name, or any other
    id or relation, raises :class:`StructuralError`.
    A given ``info`` is kept as it is; otherwise the simple/multirel/mode
    flags are computed from content. A missing relation table is derived:
    labeled, the links' relations sorted, at the base ``org`` (1 unless 0 or
    1); factorized, by :func:`~netconv.coding.code_range_table`. A given node
    table is kept only when the ids are codes. A missing one names each code
    by itself when the codes run from that base without a gap; otherwise, and
    on a labeled network, the node table is empty, at that base.
    """
    nodes = tuple(nodes)
    links = tuple(links)
    ids = [n.id for n in nodes]
    id_set = set(ids)
    if len(id_set) != len(ids):
        dupes = sorted({str(i) for i, count in Counter(ids).items() if count > 1})
        raise StructuralError(f"duplicate node identifier(s): {', '.join(dupes)}")

    factorized = bool(nodes) and isinstance(ids[0], int)
    form = int if factorized else str
    if not set(map(type, id_set)) <= {form}:
        raise StructuralError("node identifiers must be all names or all integer codes")
    if "" in id_set:
        raise StructuralError("empty node identifier")
    rels = [link.rel for link in links]
    if not set(map(type, rels)) <= {form}:  # every link: True == 1 would hide in a set
        raise StructuralError("link relations must be all names or all integer codes,"
                              " matching the node identifiers")
    used = set(rels)
    if "" in used:
        raise StructuralError("empty link relation")
    base = info.org if info is not None else org
    base = base if base in (0, 1) else 1
    if relations is None:
        relations = (code_range_table("relation", used) if factorized and used
                     else CodingTable("relation", tuple(sorted(used)), base))
    if not factorized or node_coding is None:
        # the ids are distinct, so codes from base to base + n - 1 leave no gap
        contiguous = factorized and min(ids) == base and max(ids) == base + len(ids) - 1
        node_coding = code_range_table("node", ids) if contiguous else CodingTable("node", base=base)
    _check_ends(links, id_set)
    if info is None:
        simple = len({parallel_key(l.kind, l.rel, l.n1, l.n2) for l in links}) == len(links)
        info = InfoBlock(org=org, simple=simple, directed=directed, multirel=len(used) > 1,
                         mode=_n_modes(nodes))
    return Network(info, nodes, links, relations, node_coding, property_codings)


def node_names(network: Network) -> Callable[[str | int], str]:
    """A node id's name: its code's level in the node table (a code the
    table does not cover raises CodingError); a labeled id is its own."""
    return network.node_coding.value_of if network.is_factorized else str


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

    Relation levels are sorted by Unicode code point and based at
    ``info.org`` (coded links are remapped to the new codes); node and link
    order are preserved. Idempotent.
    """
    old = network.relations
    new = CodingTable(old.name, tuple(sorted(old.levels)), network.info.org)
    if new == old or not network.is_factorized:
        return network._replace(relations=new)
    return recode(network, lambda code: code, lambda code: new.code_of(old.value_of(code)),
                  relations=new)
