"""Cross-format structural checking with uniform, deterministic reports.

Problems are never raised; they are collected as findings ordered by
input location, each carrying a stable rule identifier from :data:`RULES`.
Two levels exist: ``lenient`` mirrors what legacy tools accept, ``strict``
upgrades a document's declared-counter mismatches and additionally
enforces metadata recommendations.
The strict error set is always a superset of the lenient one.

Each rule about the network itself is coded once, in :class:`Checker`,
which takes the fields of one record at a time. :func:`check_network` and
:func:`check_temporal` drive it over a network's records, and the NetsJSON
walk drives it over each node and link object's fields as it reads them,
whether or not it builds records; the walk itself checks only what
depends on the JSON text. Every finding is located by a ``$.`` path into
the network's NetsJSON form.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .coding import CodingTable
from .model import (
    EventRecord,
    InfoBlock,
    Interval,
    LinkKind,
    Network,
    TimeWindow,
    parallel_key,
)

_STRUCTURED = (Interval, dict, list)  # the property values that can hold an interval

# Published registry of rule identifiers. Finding construction is checked
# against this mapping, so reports can never cite an unregistered rule.
RULES: dict[str, str] = {
    "json-malformed": "input is not well-formed JSON",
    "member-missing": "a required member is absent",
    "member-type": "a member has the wrong type",
    "member-reserved": "a reserved member name is used inside info",
    "version-unsupported": "the netsJSON tag is not 'basic'",
    "org-invalid": "the smallest index is neither 0 nor 1",
    "mode-invalid": "the number of node modes is below 1",
    "count-nodes-mismatch": "declared node count differs from the node list",
    "count-links-mismatch": "declared arc/edge counts differ from the link list",
    "date-invalid": "a date does not parse as an ISO calendar date",
    "dates-order": "modification precedes creation, or creation is missing",
    "dates-missing": "creation or modification date absent (strict)",
    "time-window-invalid": "the time window is empty (Tmin > Tmax)",
    "tlab-key-invalid": "a time label key is not an integer time point",
    "tlab-outside-window": "a time label lies outside the time window",
    "event-date-invalid": "an event record has no parseable date",
    "event-title-empty": "an event record has no title",
    "id-invalid": "a node identifier is empty or below the smallest index",
    "id-kind-mixed": "text and integer node identifiers are mixed",
    "id-duplicate": "a node identifier occurs more than once",
    "slab-longer-than-label": "a short label is longer than the label",
    "interval-invalid": "an interval has its bounds reversed",
    "node-unlisted": "a node code is missing from the node coding",
    "endpoint-unresolved": "a link endpoint names no known node",
    "link-type-invalid": "a link type is neither 'arc' nor 'edge'",
    "relation-unlisted": "a link relation is missing from the relation coding",
    "multirel-violated": "multirel is off but several relations are used",
    "simple-violated": "simple is on but parallel links exist",
    "directed-kind-mismatch": "the directed flag disagrees with the link kinds",
    "tq-malformed": "a temporal quantity triple has the wrong shape",
    "tq-empty-interval": "a temporal interval is empty (start >= finish)",
    "tq-unsorted": "temporal intervals are not sorted by start",
    "tq-overlap": "two temporal intervals overlap",
    "tq-outside-window": "a temporal interval leaves the time window",
    "tq-no-window": "temporal quantities used without a time window",
    "tq-missing": "temporal network element without a temporal quantity (strict)",
}


class Severity(str, Enum):
    WARNING = "warning"
    ERROR = "error"


class Level(str, Enum):
    LENIENT = "lenient"
    STRICT = "strict"


class Finding(namedtuple("Finding", "severity rule location message")):
    """One problem: its severity, a registered rule, a ``$.`` locator and a message."""

    __slots__ = ()

    def __new__(cls, severity: Severity, rule: str, location: str, message: str):
        if rule not in RULES:
            raise ValueError(f"unregistered rule id: {rule!r}")
        return tuple.__new__(cls, (severity, rule, location, message))


class ValidationReport(NamedTuple):
    findings: tuple[Finding, ...]
    level: Level

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.ERROR)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    def to_text(self) -> str:
        return "\n".join(
            f"{f.severity.value}: [{f.rule}] {f.location}: {f.message}" for f in self.findings
        )

    def to_json_lines(self) -> str:
        """One JSON object per finding, its members the finding's fields
        (``severity`` as its value)."""
        import json

        return "\n".join(json.dumps(f._asdict(), ensure_ascii=False) for f in self.findings)


def parse_iso_date(text: str) -> Optional[datetime.date]:
    import datetime  # on first use: NET and CSV input carry no dates
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        return None


def _bound(x: float) -> str:
    text = repr(x)
    return text[:-2] if text.endswith(".0") else text  # whole numbers as documents write them


class Checker:
    """The network rules, each coded once, applied one record at a time.

    Each step checks the fields of one record (or one member of the info
    block), located at ``where``, and appends its findings to ``out`` with
    the ``$.`` locators of the network's NetsJSON form; no step needs a
    built record. The checker holds the state that spans records.
    Structural steps: ``info_org(org)``, ``info_mode(mode)``,
    ``info_event(event, where)``, ``info_dates(created, modified)``,
    ``node(node_id, lab, slab, where)``, ``link(kind, n1, n2, rel,
    where)``, ``props(props, where)`` and ``links_end()``; temporal steps:
    ``info_time(window)``, ``tlab(t, where)``, ``tq(triples, what,
    where)`` and ``tq_end()``. ``tq`` takes a record's ``(s, f, v)``
    triples, None when it has no tq, and ``what`` is ``"node"`` or
    ``"link"``. Info steps come first, ``tlab`` after ``info_time``, and
    ``link`` after every ``node``.

    What a NetsJSON document may lack is None: ``flags`` (the info block
    whose flags are checked), ``relations`` (the table links must be
    covered by), ``node_coding`` (the table node codes must be covered by)
    and ``ids`` (the node ids endpoints resolve against). No rule runs on a
    record field that is None.
    """

    def __init__(self, level: Level):
        self.level, self.out = level, []
        self.org, self.window, self.need_tq = 1, None, False
        self.tq_bounds = (-float("inf"), float("inf"))  # (Tmin, Tmax + 1): where tq intervals lie
        self.flags: Optional[InfoBlock] = None
        self.relations: Optional[CodingTable] = None
        self.node_coding: Optional[CodingTable] = None
        self.ids: Optional[set] = set()
        self.id_kind, self.mixed = None, False  # the type of the last id; whether it changed
        self.rels, self.link_kinds, self.link_keys = set(), set(), set()
        self.any_tq = False

    def err(self, rule: str, location: str, message: str, severity=Severity.ERROR) -> None:
        self.out.append(Finding(severity, rule, location, message))

    # -- structural steps -----------------------------------------------------

    def info_org(self, org: int) -> None:
        self.org = org
        if org not in (0, 1):
            self.err("org-invalid", "$.info.org", f"smallest index must be 0 or 1, got {org}")

    def info_mode(self, mode: int) -> None:
        if mode < 1:
            self.err("mode-invalid", "$.info.mode", f"mode count must be at least 1, got {mode}")

    def info_event(self, event: EventRecord, where: str) -> None:
        if not event.date or parse_iso_date(event.date) is None:
            self.err("event-date-invalid", where, f"event date {event.date or None!r}")  # '' as absent
        if not event.title:
            self.err("event-title-empty", where, "event has no title")

    def info_dates(self, created: Optional[str], modified: Optional[str]) -> None:
        for member, value in (("created", created), ("modified", modified)):
            if value is not None and parse_iso_date(value) is None:
                self.err("date-invalid", f"$.info.{member}", f"{value!r} is not an ISO date")
        if modified is None:
            return
        if created is None:
            self.err("dates-order", "$.info.modified", "modified present without created")
            return
        c, m = parse_iso_date(created), parse_iso_date(modified)
        if c and m and m < c:
            self.err("dates-order", "$.info.modified", f"modified {m} precedes created {c}")

    def node(self, node_id, lab: str, slab: Optional[str], where: str) -> None:
        err = self.err
        if node_id is not None:
            kind = type(node_id)
            if kind is str:
                if not node_id:
                    err("id-invalid", f"{where}.id", "empty node identifier")
            elif node_id < self.org:
                err("id-invalid", f"{where}.id", f"code {node_id} below smallest index {self.org}")
            elif self.node_coding is not None and not self.node_coding.in_range(node_id):
                err("node-unlisted", f"{where}.id", f"code {node_id} not covered by info.nodeCoding")
            if node_id in self.ids:
                err("id-duplicate", f"{where}.id", f"identifier {node_id!r} already used")
            self.ids.add(node_id)
            if kind is not self.id_kind:
                if self.id_kind is not None:
                    err("id-kind-mixed", f"{where}.id", "text and integer identifiers are mixed")
                    self.mixed = True
                self.id_kind = kind
        if slab is not None and len(slab) > len(lab):
            err("slab-longer-than-label", f"{where}.slab", "short label longer than label")

    def link(self, kind: LinkKind, n1, n2, rel, where: str) -> None:
        ids = self.ids
        if ids is not None and (n1 not in ids or n2 not in ids):
            for member, end in (("n1", n1), ("n2", n2)):
                if end is not None and end not in ids:
                    self.err("endpoint-unresolved", f"{where}.{member}", f"{end!r} names no node")
        self.link_kinds.add(kind)
        if rel is None:
            return
        table = self.relations
        if table is not None and not (rel in table if isinstance(rel, str) else table.in_range(rel)):
            self.err("relation-unlisted", f"{where}.rel", f"{rel!r} not covered by info.relations")
        self.rels.add(rel)
        if self.flags is not None and self.flags.simple and n1 is not None and n2 is not None:
            key = parallel_key(kind, rel, n1, n2)
            if key in self.link_keys:
                self.err("simple-violated", where, "parallel link in a network flagged simple")
            self.link_keys.add(key)

    def props(self, props: dict, where: str) -> None:
        for key in sorted(props) if len(props) > 1 else props:
            value = props[key]  # a sound interval has no finding
            if type(value) in _STRUCTURED and (type(value) is not Interval or value.lo > value.hi):
                self.intervals(value, f"{where}.{key}")

    def intervals(self, value, where: str) -> None:
        if isinstance(value, Interval):
            if value.lo > value.hi:
                message = f"interval bounds reversed: lo={_bound(value.lo)} > hi={_bound(value.hi)}"
                self.err("interval-invalid", where, message)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                self.intervals(item, f"{where}[{i}]")
        elif isinstance(value, dict):
            for k in sorted(value):
                self.intervals(value[k], f"{where}.{k}")

    def links_end(self) -> None:
        flags = self.flags
        if flags is None:
            return
        if not flags.multirel and len(self.rels) > 1:
            self.err("multirel-violated", "$.links", f"{len(self.rels)} relations but multirel is off")
        if flags.directed and LinkKind.EDGE in self.link_kinds:
            message = "directed network contains edges"
            self.err("directed-kind-mismatch", "$.links", message, Severity.WARNING)
        elif not flags.directed and LinkKind.ARC in self.link_kinds:
            message = "undirected network contains arcs"
            self.err("directed-kind-mismatch", "$.links", message, Severity.WARNING)

    # -- temporal steps -------------------------------------------------------

    def info_time(self, window: Optional[TimeWindow]) -> None:
        self.window = window
        if window is not None:
            self.tq_bounds = (window.t_min, window.t_max + 1)
        self.need_tq = self.level is Level.STRICT and window is not None
        if window is not None and window.t_min > window.t_max:
            message = f"Tmin {window.t_min} exceeds Tmax {window.t_max}"
            self.err("time-window-invalid", "$.info.time", message)

    def tlab(self, t: int, where: str) -> None:
        t_min, t_max = self.window.t_min, self.window.t_max
        if not t_min <= t <= t_max:
            self.err("tlab-outside-window", where, f"label for {t} outside [{t_min}, {t_max}]")

    def tq(self, triples: Optional[Sequence], what: str, where: str) -> None:
        if triples is not None:
            self.any_tq = True
            lo, hi = self.tq_bounds
            for s, f, _ in triples:  # sorted, disjoint, non-empty and inside: no finding
                if not lo <= s < f <= hi:
                    self._tq_findings(triples, where + ".tq")
                    return
                lo = f
        elif self.need_tq:
            self.err("tq-missing", where, f"temporal network {what} lacks a tq")

    def _tq_findings(self, triples: Sequence, loc: str) -> None:
        """Report a tq that failed ``tq``'s test: per triple
        ``tq-empty-interval`` and ``tq-outside-window``, then ``tq-unsorted``,
        then ``tq-overlap`` naming the first overlapping pair ``(i, j)`` in
        index order. O(k log k) for k triples; the sort is skipped when the
        starts are sorted."""
        (lo, hi), window = self.tq_bounds, self.window
        spans = []  # (s, k, f) of each non-empty interval: an empty one overlaps nothing
        for k, (s, f, _) in enumerate(triples):
            if s >= f:
                self.err("tq-empty-interval", f"{loc}[{k}]", f"interval [{s}, {f}) is empty")
            else:
                spans.append((s, k, f))
            if s < lo or f > hi:
                leaves = f"leaves window [{window.t_min}, {window.t_max}]"
                self.err("tq-outside-window", f"{loc}[{k}]", f"[{s}, {f}) {leaves}")
        if any(a[0] > b[0] for a, b in zip(triples, triples[1:])):
            self.err("tq-unsorted", loc, "intervals not sorted by start")
            spans.sort()
        # In (start, index) order an interval overlaps another exactly when the
        # next one starts before it ends or an earlier one ends after it starts.
        first, reach = len(triples), -float("inf")  # least overlapping index; largest finish
        for (s, k, f), after in zip(spans, spans[1:] + [(float("inf"),)]):
            if after[0] < f or reach > s:
                first = min(first, k)
            reach = max(reach, f)
        if first < len(triples):  # the first later interval that overlaps it completes the pair
            s, f, _ = triples[first]
            j = next(j for j in range(first + 1, len(triples))
                     if max(s, triples[j][0]) < min(f, triples[j][1]))
            self.err("tq-overlap", loc, f"intervals {first} and {j} overlap")

    def tq_end(self) -> None:
        if self.any_tq and self.window is None:
            message = "temporal quantities present but no time window declared"
            self.err("tq-no-window", "$.info", message, Severity.WARNING)


def check_network(network: Network, level: Level = Level.LENIENT) -> ValidationReport:
    """Verify the structural invariants of a network and its flags.

    Every rule keeps one severity across levels; the report records ``level``.
    A network stores no counts, so the ``count-*`` rules are reported only
    against a document's declared ones, by the NetsJSON walk.
    """
    info = network.info
    check = Checker(level)
    check.flags, check.relations = info, network.relations
    check.node_coding = network.node_coding or None  # no node table: the empty one
    check.info_org(info.org)
    check.info_mode(info.mode)
    for i, event in enumerate(info.meta):
        check.info_event(event, f"$.info.meta[{i}]")
    check.info_dates(info.created, info.modified)
    for i, node in enumerate(network.nodes):
        check.node(node.id, node.lab, node.slab, f"$.nodes[{i}]")
        check.props(node.props, f"$.nodes[{i}]")
    for i, link in enumerate(network.links):
        check.link(link.kind, link.n1, link.n2, link.rel, f"$.links[{i}]")
        check.props(link.props, f"$.links[{i}]")
    check.links_end()
    return ValidationReport(tuple(check.out), level)


def check_temporal(network: Network, level: Level = Level.LENIENT) -> ValidationReport:
    """Check temporal quantities against their invariants and the time window.

    Strict level additionally requires a tq on every node and link once the
    network declares a time window (that is what marks it as temporal).
    """
    check, window = Checker(level), network.info.time
    check.info_time(window)
    for t in window.t_labs if window is not None else ():
        check.tlab(t, f"$.info.time.Tlabs.{t}")
    for what, records in (("node", network.nodes), ("link", network.links)):
        for i, record in enumerate(records):
            check.tq(record.tq, what, f"$.{what}s[{i}]")
    check.tq_end()
    return ValidationReport(tuple(check.out), level)


def check_all(network: Network, level: Level = Level.LENIENT) -> ValidationReport:
    """Every rule about the network itself: structural and temporal checks combined."""
    merged = check_network(network, level).findings + check_temporal(network, level).findings
    return ValidationReport(merged, level)

