"""Cross-format structural checking with uniform, deterministic reports.

Problems are never raised; they are collected as findings ordered by
input location, each carrying a stable rule identifier from :data:`RULES`.
Two levels exist: ``lenient`` mirrors what legacy tools accept, ``strict``
upgrades a document's declared-counter mismatches and additionally
enforces metadata recommendations.
The strict error set is always a superset of the lenient one.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Optional

from .model import (
    Interval,
    LinkKind,
    Network,
)

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


@dataclass(frozen=True)
class Finding:
    severity: Severity
    rule: str
    location: str
    message: str

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unregistered rule id: {self.rule!r}")


@dataclass(frozen=True)
class ValidationReport:
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
        import json

        return "\n".join(
            json.dumps(
                {
                    "severity": f.severity.value,
                    "rule": f.rule,
                    "location": f.location,
                    "message": f.message,
                },
                ensure_ascii=False,
            )
            for f in self.findings
        )


def parse_iso_date(text: str) -> Optional[datetime.date]:
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        return None


def _bound(x: float) -> str:
    text = repr(x)
    return text[:-2] if text.endswith(".0") else text  # whole numbers as documents write them


def _scan_intervals(value, location: str, out: list[Finding]) -> None:
    if isinstance(value, Interval):
        if value.lo > value.hi:
            out.append(
                Finding(
                    Severity.ERROR,
                    "interval-invalid",
                    location,
                    f"interval bounds reversed: lo={_bound(value.lo)} > hi={_bound(value.hi)}",
                )
            )
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _scan_intervals(item, f"{location}[{i}]", out)
    elif isinstance(value, dict):
        for k in sorted(value):
            _scan_intervals(value[k], f"{location}.{k}", out)


def check_network(network: Network, level: Level = Level.LENIENT) -> ValidationReport:
    """Verify the structural invariants of a network and its flags.

    Every rule keeps one severity across levels; the report records ``level``.
    A network stores no counts, so the ``count-*`` rules are reported only
    against a document's declared ones, by the NetsJSON walk.
    """
    out: list[Finding] = []
    info = network.info
    err = lambda rule, loc, msg: out.append(Finding(Severity.ERROR, rule, loc, msg))
    warn = lambda rule, loc, msg: out.append(Finding(Severity.WARNING, rule, loc, msg))

    if info.org not in (0, 1):
        err("org-invalid", "info.org", f"smallest index must be 0 or 1, got {info.org}")
    if info.mode < 1:
        err("mode-invalid", "info.mode", f"mode count must be at least 1, got {info.mode}")
    for attr in ("created", "modified"):
        value = getattr(info, attr)
        if value is not None and parse_iso_date(value) is None:
            err("date-invalid", f"info.{attr}", f"{value!r} is not an ISO date")
    if info.modified is not None:
        if info.created is None:
            err("dates-order", "info.modified", "modified present without created")
        else:
            c, m = parse_iso_date(info.created), parse_iso_date(info.modified)
            if c and m and m < c:
                err("dates-order", "info.modified", f"modified {m} precedes created {c}")
    for i, event in enumerate(info.meta):
        if not event.date or parse_iso_date(event.date) is None:
            err("event-date-invalid", f"info.meta[{i}]", f"event date {event.date!r}")
        if not event.title:
            err("event-title-empty", f"info.meta[{i}]", "event has no title")

    ids: set = set()
    kinds: set = set()
    for i, node in enumerate(network.nodes):
        loc = f"nodes[{i}]"
        kinds.add(type(node.id))
        if isinstance(node.id, str):
            if not node.id:
                err("id-invalid", loc, "empty node identifier")
        elif node.id < info.org:
            err("id-invalid", loc, f"code {node.id} below smallest index {info.org}")
        if node.id in ids:
            err("id-duplicate", loc, f"identifier {node.id!r} already used")
        ids.add(node.id)
        if node.slab is not None and len(node.slab) > len(node.lab):
            err("slab-longer-than-label", loc, f"short label {node.slab!r} longer than label")
        for name in sorted(node.props):
            _scan_intervals(node.props[name], f"{loc}.{name}", out)
    if len(kinds) > 1:
        err("id-kind-mixed", "nodes", "text and integer identifiers are mixed")

    rels_seen = set()
    link_keys = set()
    for i, link in enumerate(network.links):
        loc = f"links[{i}]"
        for endpoint in (link.n1, link.n2):
            if endpoint not in ids:
                err("endpoint-unresolved", loc, f"endpoint {endpoint!r} is not a node")
        if isinstance(link.rel, str):
            if link.rel not in network.relations:
                err("relation-unlisted", loc, f"relation {link.rel!r} not in the coding table")
        elif not network.relations.in_range(link.rel):
            err("relation-unlisted", loc, f"relation code {link.rel} outside the coding table")
        rels_seen.add(link.rel)
        ends = frozenset((link.n1, link.n2)) if link.kind is LinkKind.EDGE else (link.n1, link.n2)
        key = (link.kind, link.rel, ends)
        if key in link_keys and info.simple:
            err("simple-violated", loc, "parallel link in a network flagged simple")
        link_keys.add(key)
        for name in sorted(link.props):
            _scan_intervals(link.props[name], f"{loc}.{name}", out)
    if not info.multirel and len(rels_seen) > 1:
        err(
            "multirel-violated",
            "links",
            f"{len(rels_seen)} relations used but multirel is off",
        )
    has_edges = any(l.kind is LinkKind.EDGE for l in network.links)
    has_arcs = any(l.kind is LinkKind.ARC for l in network.links)
    if info.directed and has_edges:
        warn("directed-kind-mismatch", "links", "directed network contains edges")
    elif not info.directed and has_arcs:
        warn("directed-kind-mismatch", "links", "undirected network contains arcs")

    return ValidationReport(tuple(out), level)


def check_tq_bounds(triples, loc: str, window, out: list[Finding]) -> None:
    """Append the findings on one temporal quantity's ``(s, f, v)`` triples.

    Per triple ``tq-empty-interval`` and ``tq-outside-window``, then
    ``tq-unsorted``, then ``tq-overlap`` naming the first overlapping pair
    in index order. One pass, O(k) for k triples: on sorted input that pair
    is the first non-empty interval and the next non-empty one, when that
    starts before the first ends (empty intervals overlap nothing). Only
    unsorted input, already an error, falls back to the O(k^2) pair scan.
    """
    err = lambda rule, where, msg: out.append(Finding(Severity.ERROR, rule, where, msg))
    unsorted = False
    overlap = prev_s = last = None  # last: (position, finish) of the latest non-empty interval
    for k, (s, f, _) in enumerate(triples):
        if s >= f:
            err("tq-empty-interval", f"{loc}[{k}]", f"interval [{s}, {f}) is empty")
        else:
            if overlap is None and last is not None and s < last[1]:
                overlap = (last[0], k)
            last = (k, f)
        if window is not None and (s < window.t_min or f > window.t_max + 1):
            leaves = f"leaves window [{window.t_min}, {window.t_max}]"
            err("tq-outside-window", f"{loc}[{k}]", f"[{s}, {f}) {leaves}")
        unsorted = unsorted or (prev_s is not None and prev_s > s)
        prev_s = s
    if unsorted:
        err("tq-unsorted", loc, "intervals not sorted by start")
        pairs = combinations(enumerate(triples), 2)
        overlap = next(
            ((i, j) for (i, (s1, f1, _)), (j, (s2, f2, _)) in pairs if max(s1, s2) < min(f1, f2)),
            None,
        )
    if overlap is not None:
        err("tq-overlap", loc, f"intervals {overlap[0]} and {overlap[1]} overlap")


def check_temporal(network: Network, level: Level = Level.LENIENT) -> ValidationReport:
    """Check temporal quantities against their invariants and the time window.

    Strict level additionally requires a tq on every node and link once the
    network declares a time window (that is what marks it as temporal).
    """
    out: list[Finding] = []
    window = network.info.time
    if window is not None:
        if window.t_min > window.t_max:
            out.append(
                Finding(
                    Severity.ERROR,
                    "time-window-invalid",
                    "info.time",
                    f"Tmin {window.t_min} exceeds Tmax {window.t_max}",
                )
            )
        for t in sorted(window.t_labs):
            if not window.t_min <= t <= window.t_max:
                out.append(
                    Finding(
                        Severity.ERROR,
                        "tlab-outside-window",
                        "info.time.Tlabs",
                        f"label for {t} outside [{window.t_min}, {window.t_max}]",
                    )
                )
    any_tq = any(n.tq is not None for n in network.nodes) or any(
        l.tq is not None for l in network.links
    )
    if window is None and any_tq:
        out.append(
            Finding(
                Severity.WARNING,
                "tq-no-window",
                "info",
                "temporal quantities present but no time window declared",
            )
        )
    strict_temporal = level is Level.STRICT and window is not None
    for group, records in (("nodes", network.nodes), ("links", network.links)):
        for i, record in enumerate(records):
            loc = f"{group}[{i}].tq"
            if record.tq is not None:
                check_tq_bounds(record.tq.triples, loc, window, out)
            elif strict_temporal:
                out.append(
                    Finding(
                        Severity.ERROR,
                        "tq-missing",
                        f"{group}[{i}]",
                        "temporal network element lacks a temporal quantity",
                    )
                )
    return ValidationReport(tuple(out), level)


def check_all(network: Network, level: Level = Level.LENIENT) -> ValidationReport:
    """Structural and temporal checks combined, as run by the CLI pipeline."""
    merged = check_network(network, level).findings + check_temporal(network, level).findings
    return ValidationReport(merged, level)

