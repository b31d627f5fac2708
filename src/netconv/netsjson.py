"""NetsJSON basic documents: parsing, serialization, and schema checking.

A document is a JSON object with four required members -- ``netsJSON``
(the version tag, always ``"basic"``), ``info``, ``nodes``, and ``links``
-- plus an optional opaque ``data`` subtree. Unknown members on info, node,
and link objects are user-defined properties and round-trip unchanged
(object keys normalized to sorted order).

Concrete schema points this implementation fixes:

* temporal quantities are arrays of ``[s, f, v]`` triples, the value
  holding on the half-open interval ``[s, f)``;
* intervals are objects ``{"lo": a, "hi": b}``;
* ``Tlabs`` keys must be integer time points (as JSON object keys they are
  strings and are parsed as integers);
* coding tables travel inside ``info`` under ``relations``, ``nodeCoding``
  and ``propertyCodings`` (level arrays based at ``org``), each written when
  non-empty; only a factorized network has a node table -- carrying the
  tables is what keeps the coded form invertible instead of dropping them
  as lost metadata;
* the top-level ``data`` member is preserved verbatim but never
  interpreted; the name is reserved and may not appear inside ``info``.

Reading and checking are one walk over the decoded document. The walk
checks what depends on the JSON text: well-formedness, member presence
and types, the version tag, ``Tlabs`` keys, link types, tq shape, the
declared counters, and (strict) the presence of the dates. It hands the
fields of each node and link, as soon as it has read them, to
:class:`~netconv.validation.Checker`, which codes every rule about the
network itself, and builds the records only when a network is asked for.
A well-formed record costs one test per member and per tq triple; only a
value that fails it reaches the code that words every finding.
Each finding carries a ``$.`` JSON-path locator, in document order. The
validator reports every finding, and its walk builds no record;
:func:`check_netsjson` returns that report together with the network, so
a caller needs the walk only once. The parser raises on the
first finding of a rule in :data:`PARSE_FATAL` (``json-malformed``,
``member-*``, ``version-unsupported``, ``tlab-key-invalid``, ``id-*``,
``endpoint-unresolved``, ``link-type-invalid``, ``tq-malformed``); the
other rules are semantic, and the parser returns the network despite them.
The walk type-checks the coding tables a document carries and passes them on;
:func:`~netconv.model.make_network` keeps ``nodeCoding`` only when ids are
codes. A factorized document without ``nodeCoding`` or ``relations`` gets
no table in its place: each of its codes names itself, and the writer
writes no table the document lacked.

Serialization is a normal form: member order is fixed, user keys are
sorted, and writing the parse of a written document reproduces it byte for
byte. In compact mode the defaults ``"type": "arc"`` and ``"weight": 1``
are suppressed.
"""

from __future__ import annotations

import json
import math
from typing import IO, Any, Optional

from .coding import CodingTable
from .errors import ExportError, ParseError, SchemaError, StructuralError, TemporalError
from .model import (
    EMPTY,
    EventRecord,
    InfoBlock,
    Interval,
    LinkKind,
    LinkRecord,
    Network,
    NodeRecord,
    TemporalQuantity,
    TimeWindow,
    canonical_order,
    make_network,
    network_stats,
)
from .validation import Checker, Finding, Level, Severity, ValidationReport

_INFO_MEMBERS = {*InfoBlock._fields[:-1],  # fields but the last (extra); then the document's own
                 "nNodes", "nArcs", "nEdges", "relations", "nodeCoding", "propertyCodings"}  # fmt: skip
_INFO_DEFAULTS = InfoBlock._field_defaults
_NODE_MEMBERS, _LINK_MEMBERS, _EVENT_MEMBERS = (  # fields but the last (props); kind as "type"
    {"type" if name == "kind" else name for name in cls._fields[:-1]}
    for cls in (NodeRecord, LinkRecord, EventRecord))
_EVENT_TEXT = tuple(k for k, v in EventRecord._field_defaults.items() if v is None)  # author, ..., copy
# The writer leaves out a member that holds its field's default (props and extra aside).
_NODE_OMITTED, _LINK_OMITTED, _EVENT_OMITTED = (
    {name: v for name, v in cls._field_defaults.items() if name != cls._fields[-1]}
    for cls in (NodeRecord, LinkRecord, EventRecord))
_INFO_OMITTED = {name: _INFO_DEFAULTS[name]
                 for name in ("network", "title", "time", "meta", "created", "modified")}
_COMPACT_LINK_OMITTED = {**_LINK_OMITTED, "kind": LinkKind.ARC}  # pretty mode keeps type and weight
_PRETTY_LINK_OMITTED = {name: v for name, v in _LINK_OMITTED.items() if name != "weight"}
_NESTED = (dict, list)  # the JSON values _value_from_json rebuilds
_NUMBERS = (int, float)  # the exact types of a JSON number (a bool is neither)
_tuple_new = tuple.__new__  # builds an Interval without its keyword-parsing __new__

# Rules whose findings make parse_netsjson raise, with the class it raises.
PARSE_FATAL: dict[str, type] = {
    "json-malformed": SchemaError, "member-missing": SchemaError, "member-type": SchemaError,
    "member-reserved": SchemaError, "version-unsupported": SchemaError,
    "tlab-key-invalid": SchemaError, "id-invalid": SchemaError, "id-kind-mixed": SchemaError,
    "id-duplicate": StructuralError, "endpoint-unresolved": StructuralError,
    "link-type-invalid": SchemaError, "tq-malformed": TemporalError,
}  # fmt: skip


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not valid JSON")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text} is beyond float range")
    return value


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_text(v: Any) -> bool:
    return isinstance(v, str)


# -- JSON value <-> property value -------------------------------------------


def _value_from_json(v: Any) -> Any:
    if isinstance(v, dict):
        lo, hi = v.get("lo"), v.get("hi")
        if len(v) == 2 and type(lo) in _NUMBERS and type(hi) in _NUMBERS:  # {"lo": n, "hi": n}
            return _tuple_new(Interval, (float(lo), float(hi)))
        return {k: _value_from_json(v[k]) for k in v}
    if isinstance(v, list):
        return [_value_from_json(item) for item in v]
    return v


def _value_to_json(v: Any) -> Any:
    if isinstance(v, Interval):
        return {"lo": v.lo, "hi": v.hi}
    if isinstance(v, TemporalQuantity):
        return [[s, f, _value_to_json(x)] for s, f, x in v]
    if isinstance(v, dict):
        return {k: _value_to_json(v[k]) for k in sorted(v)}
    if isinstance(v, list):
        return [_value_to_json(item) for item in v]
    return v


# -- parsing and checking: one walk ---------------------------------------------


def parse_netsjson(source: IO[str]) -> Network:
    """Parse a NetsJSON basic document into a network.

    Node identifiers may be text (labeled form) or integers at or above
    info.org (factorized form) but not mixed. The coding tables are read as
    :func:`~netconv.model.make_network` keeps and derives them. The first
    parse-fatal finding is raised as
    ``[rule] locator: message``; :func:`validate_netsjson_document` reports
    every finding.
    """
    report, network = check_netsjson(source)
    for f in report.findings:
        if f.rule in PARSE_FATAL:
            raise PARSE_FATAL[f.rule](f"[{f.rule}] {f.location}: {f.message}")
    return network


def validate_netsjson_document(source: IO[str], strict: bool = False) -> ValidationReport:
    """Schema-check a document and report every finding.

    All problems become findings with JSON-path locators resolvable against
    the input; nothing is raised for bad content. Strict mode additionally
    enforces counter consistency as errors, presence of the creation and
    modification dates, and (once a time window marks the network as
    temporal) a tq on every node and link.
    """
    return check_netsjson(source, strict, build=False)[0]


def check_netsjson(
    source: IO[str], strict: bool = False, build: bool = True
) -> tuple[ValidationReport, Optional[Network]]:
    """Decode a document and walk it once.

    Returns the :func:`validate_netsjson_document` report and, when
    ``build`` is true and no finding is parse-fatal, the network
    :func:`parse_netsjson` returns (else None).
    """
    level = Level.STRICT if strict else Level.LENIENT
    try:
        doc = json.loads(source.read(), parse_constant=_reject_constant, parse_float=_finite_float)
    except UnicodeDecodeError as exc:
        message = str(ParseError.undecodable(exc))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        message = str(exc)
    else:
        walk = _Walk(level, build)
        records = walk.document(doc)
        network = make_network(**records) if records is not None else None
        return ValidationReport(tuple(walk.out), level), network
    malformed = Finding(Severity.ERROR, "json-malformed", "$", message)
    return ValidationReport((malformed,), level), None


# -- serialization -------------------------------------------------------------


def write_netsjson(network: Network, pretty: bool = False) -> str:
    """Serialize a network as a NetsJSON basic document (deterministic bytes).

    Counters are recomputed and relation codes rebased at ``org``
    (:func:`~netconv.model.canonical_order`) before writing. Compact mode
    (the default) suppresses the ``type``/``weight`` defaults; pretty mode
    indents by two spaces and keeps them.
    """
    network = canonical_order(network)
    stats = network_stats(network)
    info = network.info
    time = info.time and {"Tmin": info.time.t_min, "Tmax": info.time.t_max}
    if info.time and info.time.t_labs:
        time["Tlabs"] = {str(t): info.time.t_labs[t] for t in sorted(info.time.t_labs)}
    meta = tuple(_record_to_json(e, _EVENT_OMITTED, _EVENT_MEMBERS, "event extra entry")
                 for e in info.meta)
    members = _record_to_json(info._replace(time=time, meta=meta, extra=EMPTY), _INFO_OMITTED, (), "")
    raw_info: dict[str, Any] = {"org": members.pop("org"), "nNodes": stats.n_nodes,
                                "nArcs": stats.n_arcs, "nEdges": stats.n_edges, **members}
    for member, table in (("relations", network.relations), ("nodeCoding", network.node_coding)):
        if table:
            raw_info[member] = list(table.levels)
    if network.property_codings:
        raw_info["propertyCodings"] = {
            name: list(network.property_codings[name].levels)
            for name in sorted(network.property_codings)
        }
    extra = dict(info.extra)
    data = extra.pop("data", None)
    _put_extra(raw_info, extra, _INFO_MEMBERS, "info extra entry")
    link_omitted = _PRETTY_LINK_OMITTED if pretty else _COMPACT_LINK_OMITTED

    doc: dict[str, Any] = {
        "netsJSON": "basic",
        "info": raw_info,
        "nodes": [_record_to_json(n, _NODE_OMITTED, _NODE_MEMBERS, "node property")
                  for n in network.nodes],
        "links": [_record_to_json(l, link_omitted, _LINK_MEMBERS, "link property")
                  for l in network.links],
    }
    if data is not None:
        doc["data"] = _value_to_json(data)

    try:
        if pretty:
            return json.dumps(doc, ensure_ascii=False, indent=2, allow_nan=False) + "\n"
        return json.dumps(doc, ensure_ascii=False, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError as exc:
        raise ExportError(f"network holds a non-finite number: {exc}") from None


def _put_extra(out: dict, extra: dict, reserved, what: str) -> dict:
    """``out`` with ``extra``'s entries added in key order; one in ``reserved`` raises."""
    for key in sorted(extra):
        if key in reserved:
            raise ExportError(f"{what} {key!r} collides with a schema member")
        out[key] = _value_to_json(extra[key])
    return out


def _record_to_json(record: tuple, omitted: dict, reserved, what: str) -> dict:
    """A record's members in field order, ``kind`` as ``type``, but for each
    field whose value equals its entry in ``omitted``; then the entries of
    its last field's map (``props`` or ``extra``)."""
    out: dict[str, Any] = {}
    for name, value in zip(record._fields[:-1], record):
        if name not in omitted or value != omitted[name]:
            out["type" if name == "kind" else name] = value if name != "tq" else _value_to_json(value)
    return _put_extra(out, record[-1], reserved, what)


class _Walk:
    """One pass over a decoded document. It checks what depends on the JSON
    text and hands the fields of each node and link (and each member of the
    info block) to a :class:`~netconv.validation.Checker` as soon as it has
    read them, so findings go to ``out`` in document order. Only when
    ``build`` is true does it build the node and link records, and then
    :meth:`document` returns make_network's keyword arguments; it returns
    None when ``build`` is false or after a parse-fatal finding. A member
    that fails its type check is read as the default (None, ``""``, or an
    empty tq), so no network rule runs on a value the schema rejected.
    Decoded JSON holds exact types, so record loops test ``type(v) is str``.
    """

    def __init__(self, level: Level, build: bool):
        self.level, self.build = level, build
        self.check = Checker(level)
        self.out, self.err = self.check.out, self.check.err  # one list for both, in document order

    def typed(self, obj: dict, key: str, ok, what: str, where: str, default=None):
        """obj[key] if present and ok; else default (and member-type if present)."""
        if key not in obj:
            return default
        if ok(obj[key]):
            return obj[key]
        self.err("member-type", f"{where}.{key}", f"{key} must be {what}")
        return default

    def number(self, obj: dict, key: str, where: str, default: Optional[float]):
        value = self.typed(obj, key, lambda v: type(v) in _NUMBERS, "a number", where)
        try:
            return default if value is None else float(value)
        except OverflowError:
            self.err("member-type", f"{where}.{key}", f"{key} is beyond the range of a float")
            return default

    def value(self, value: Any, where: str, key: Any) -> Any:
        """The property value of a JSON value; None, with a finding, when there is none."""
        try:
            return _value_from_json(value)
        except (OverflowError, RecursionError) as exc:  # a bound beyond float range, deep nesting
            loc = f"{where}[{key}]" if type(key) is int else f"{where}.{key}"
            self.err("member-type", loc, f"value cannot be read: {exc}")
            return None

    def coding(self, obj: dict, member: str, name: str, where: str) -> Optional[CodingTable]:
        """The table of obj[member] when that is an array of distinct text levels."""
        text_list = lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)
        levels = self.typed(obj, member, text_list, "an array of text levels", where)
        if levels is None:
            return None
        try:
            return CodingTable(name, tuple(levels), self.check.org)
        except ValueError as exc:  # an empty or repeated level
            self.err("member-type", f"{where}.{member}", str(exc))
            return None

    def document(self, doc: Any) -> Optional[dict]:
        if not isinstance(doc, dict):
            self.err("member-type", "$", "document root must be an object")
            return None
        for member in ("netsJSON", "info", "nodes", "links"):
            if member not in doc:
                self.err("member-missing", "$", f"required member {member!r} is absent")
        if "netsJSON" in doc and doc["netsJSON"] != "basic":
            self.err("version-unsupported", "$.netsJSON", f"got {doc['netsJSON']!r}, expected 'basic'")
        raw_info = self.typed(doc, "info", lambda v: isinstance(v, dict), "an object", "$")
        raw_nodes = self.typed(doc, "nodes", lambda v: isinstance(v, list), "an array", "$")
        raw_links = self.typed(doc, "links", lambda v: isinstance(v, list), "an array", "$")

        check = self.check
        check.flags = info = self.info(raw_info, doc) if raw_info is not None else None
        nodes = self.nodes(raw_nodes or [])
        id_type = None if check.mixed else check.id_kind or str  # what rel must be
        if raw_nodes is None:  # nothing to resolve endpoints or relation kinds against
            check.ids = id_type = None
        links = self.links(raw_links or [], id_type)
        if raw_info is not None:  # info findings that need the records come after info.org
            tail = len(self.out)
            self.counters(raw_info, len(raw_nodes or ()), self.n_arcs, self.n_edges)
            check.tq_end()
            found = self.out[tail:]
            del self.out[tail:]
            self.out[self.counters_at : self.counters_at] = found
        if not self.build or any(f.rule in PARSE_FATAL for f in self.out):
            return None

        return dict(nodes=nodes, links=links, info=info, relations=check.relations,
                    node_coding=check.node_coding, property_codings=self.property_codings)  # fmt: skip

    # -- info ------------------------------------------------------------------

    def info(self, raw: dict, doc: dict) -> InfoBlock:
        err, typed, check = self.err, self.typed, self.check
        org = typed(raw, "org", _is_int, "an integer", "$.info", _INFO_DEFAULTS["org"])
        check.info_org(org)
        self.counters_at = len(self.out)
        simple, directed, multirel = (
            typed(raw, m, lambda v: isinstance(v, bool), "a boolean", "$.info", _INFO_DEFAULTS[m])
            for m in ("simple", "directed", "multirel")
        )
        mode = typed(raw, "mode", _is_int, "an integer", "$.info", _INFO_DEFAULTS["mode"])
        check.info_mode(mode)
        network, title = (typed(raw, m, _is_text, "text", "$.info", _INFO_DEFAULTS[m])
                          for m in ("network", "title"))  # fmt: skip
        window = self.time(raw["time"]) if "time" in raw else None
        meta = self.meta(raw["meta"]) if "meta" in raw else ()
        created, modified = self.dates(raw)

        check.relations = self.coding(raw, "relations", "relation", "$.info") or None  # empty: absent
        check.node_coding = self.coding(raw, "nodeCoding", "node", "$.info") or None
        codings = typed(raw, "propertyCodings", lambda v: isinstance(v, dict), "an object", "$.info")
        self.property_codings = {
            name: self.coding(codings, name, name, "$.info.propertyCodings") for name in codings or ()
        }
        if "data" in raw:
            err("member-reserved", "$.info.data", "'data' belongs at the top level")

        skip = _INFO_MEMBERS | {"data"}
        extra = {k: self.value(v, "$.info", k) for k, v in raw.items()
                 if k not in skip and v is not None}  # fmt: skip
        if "data" in doc:
            extra["data"] = self.value(doc["data"], "$", "data")
        return InfoBlock(org=org, simple=simple, directed=directed, multirel=multirel, mode=mode,
                         network=network, title=title, time=window, meta=meta,
                         created=created, modified=modified, extra=extra)  # fmt: skip

    def counters(self, raw: dict, n_nodes: int, n_arcs: int, n_edges: int) -> None:
        severity = Severity.ERROR if self.level is Level.STRICT else Severity.WARNING
        for counter, actual in (("nNodes", n_nodes), ("nArcs", n_arcs), ("nEdges", n_edges)):
            if counter not in raw:
                continue
            where = f"$.info.{counter}"
            if not _is_int(raw[counter]):
                self.err("member-type", where, f"{counter} must be an integer")
            elif raw[counter] != actual:
                message = f"declared {raw[counter]}, counted {actual}"
                if counter == "nNodes":
                    self.err("count-nodes-mismatch", where, message, severity)
                else:
                    self.err("count-links-mismatch", where, message, severity)

    def time(self, raw: Any) -> Optional[TimeWindow]:
        if not isinstance(raw, dict) or not _is_int(raw.get("Tmin")) or not _is_int(raw.get("Tmax")):
            self.err("member-type", "$.info.time", "time must be an object with integer Tmin and Tmax")
            return None
        labs, located = {}, []  # located: each time point with its key as written
        raw_labs = self.typed(raw, "Tlabs", lambda v: isinstance(v, dict), "an object", "$.info.time")
        for key, label in (raw_labs or {}).items():
            where = f"$.info.time.Tlabs.{key}"
            try:
                t = int(key)
            except ValueError:
                self.err("tlab-key-invalid", where, f"key {key!r} is not an integer time point")
                continue
            if not isinstance(label, str):
                self.err("member-type", where, "Tlabs value must be text")
                label = ""
            labs[t] = label
            located.append((t, where))
        window = TimeWindow(t_min=raw["Tmin"], t_max=raw["Tmax"], t_labs=labs)
        self.check.info_time(window)
        for t, where in located:
            self.check.tlab(t, where)
        return window

    def meta(self, raw: Any) -> tuple[EventRecord, ...]:
        if not isinstance(raw, list):
            self.err("member-type", "$.info.meta", "meta must be an array of events")
            return ()
        events = []
        for i, event in enumerate(raw):
            where = f"$.info.meta[{i}]"
            if not isinstance(event, dict):
                self.err("member-type", where, "event must be an object")
                continue
            date, title = (self.typed(event, m, _is_text, "text", where, "") for m in ("date", "title"))
            text = {name: self.typed(event, name, _is_text, "text", where) for name in _EVENT_TEXT}
            extra = {k: self.value(v, where, k) for k, v in event.items()
                     if k not in _EVENT_MEMBERS and v is not None}  # fmt: skip
            events.append(EventRecord(date, title, **text, extra=extra))
            self.check.info_event(events[-1], where)
        return tuple(events)

    def dates(self, raw: dict) -> tuple[Optional[str], Optional[str]]:
        def missing(member: str) -> None:
            if member not in raw and self.level is Level.STRICT:
                message = f"recommended member {member!r} is absent"
                self.err("dates-missing", "$.info", message, Severity.WARNING)

        created, modified = (self.typed(raw, m, _is_text, "text", "$.info") for m in ("created", "modified"))
        missing("created")  # each where the member's own date findings would be
        self.check.info_dates(created, modified)
        missing("modified")
        return created, modified

    # -- records ---------------------------------------------------------------

    def tq(self, raw: Any, where: str) -> list:
        """A tq's ``[s, f, v]`` triples: ``raw`` itself when each has integer
        bounds and a scalar value; else checked one by one, nested values
        converted, and none after tq-malformed."""
        if type(raw) is not list:
            self.err("tq-malformed", where, "tq must be an array of [s, f, v] triples")
            return []
        for t in raw:
            if not (type(t) is list and len(t) == 3 and type(t[0]) is type(t[1]) is int
                    and type(t[2]) not in _NESTED):  # fmt: skip
                break
        else:
            return raw
        triples = []
        for k, triple in enumerate(raw):
            if type(triple) is not list or len(triple) != 3:
                self.err("tq-malformed", f"{where}[{k}]", "triple must be a 3-element array")
                return []
            s, f, value = triple
            if type(s) is not int or type(f) is not int:
                self.err("tq-malformed", f"{where}[{k}]", "interval bounds must be integers")
                return []
            triples.append((s, f, self.value(value, where, k) if type(value) in _NESTED else value))
        return triples

    def props(self, raw: dict, reserved: set, where: str) -> dict:
        props = {}
        for key, value in raw.items():
            if key not in reserved and value is not None:
                props[key] = self.value(value, where, key) if type(value) in _NESTED else value
        return props

    def nodes(self, raw_nodes: list) -> list[NodeRecord]:
        """Node records; none when ``build`` is false. The members a node
        seldom has go to their helpers only when one is present."""
        err, typed, number, check, build = self.err, self.typed, self.number, self.check, self.build
        nodes = []
        for i, raw in enumerate(raw_nodes):
            loc = f"$.nodes[{i}]"
            if type(raw) is not dict:
                err("member-type", loc, "node must be an object")
                continue
            node_id = raw.get("id")
            if "id" not in raw:
                err("member-missing", loc, "node has no id")
            elif type(node_id) is not int and type(node_id) is not str:
                err("member-type", f"{loc}.id", "id must be text or an integer")
                node_id = None
            lab = raw.get("lab", "")
            if type(lab) is not str:
                lab = typed(raw, "lab", _is_text, "text", loc, "")
            slab = mode = x = y = None
            if "slab" in raw or "mode" in raw or "x" in raw or "y" in raw:
                slab, mode = typed(raw, "slab", _is_text, "text", loc), typed(raw, "mode", _is_text, "text", loc)
                x, y = number(raw, "x", loc, None), number(raw, "y", loc, None)
            tq = self.tq(raw["tq"], loc + ".tq") if "tq" in raw else None
            props = self.props(raw, _NODE_MEMBERS, loc)
            check.node(node_id, lab, slab, loc)
            check.tq(tq, "node", loc)
            if props:
                check.props(props, loc)
            if build:
                tq = None if tq is None else TemporalQuantity(map(tuple, tq))
                nodes.append(NodeRecord._make((node_id, lab, slab, x, y, mode, tq, props)))
        return nodes

    def ends(self, raw: dict, loc: str, id_type) -> tuple:
        """A link's ``n1``, ``n2`` and ``rel``, each None after its finding."""
        ends = []
        for member in ("n1", "n2"):
            end = raw.get(member)
            if member not in raw:
                self.err("member-missing", loc, f"link has no {member}")
            elif type(end) is not int and type(end) is not str:
                self.err("member-type", f"{loc}.{member}", "endpoint must be text or an integer")
                end = None
            ends.append(end)
        rel = raw.get("rel")
        if "rel" not in raw:
            self.err("member-missing", loc, "link has no rel")
        elif type(rel) is not int and type(rel) is not str:
            self.err("member-type", f"{loc}.rel", "rel must be text or an integer")
            rel = None
        elif id_type is not None and type(rel) is not id_type:
            self.err("member-type", f"{loc}.rel", "rel must match the node identifier kind")
            rel = None
        elif rel == "":
            self.err("member-type", f"{loc}.rel", "rel must be non-empty text")
            rel = None
        return (*ends, rel)

    def links(self, raw_links: list, id_type) -> list[LinkRecord]:
        """Link records, none when ``build`` is false; ``id_type`` is the type
        rel must have, None when any will do. Counts arcs and edges. A link
        whose ends and rel pass one type test skips :meth:`ends`."""
        err, number, check, build = self.err, self.number, self.check, self.build
        links, n_arcs, n_edges = [], 0, 0
        for i, raw in enumerate(raw_links):
            loc = f"$.links[{i}]"
            if type(raw) is not dict:
                err("member-type", loc, "link must be an object")
                continue
            kind = raw.get("type", "arc")
            if kind == "edge":
                kind, n_edges = LinkKind.EDGE, n_edges + 1
            else:
                if kind != "arc":
                    err("link-type-invalid", f"{loc}.type", f"got {kind!r}")
                kind, n_arcs = LinkKind.ARC, n_arcs + 1
            n1, n2, rel = raw.get("n1"), raw.get("n2"), raw.get("rel")
            if not (type(n1) is type(n2) is type(rel) is id_type and rel != ""):
                n1, n2, rel = self.ends(raw, loc, id_type)
            weight = raw.get("weight", 1.0)
            if type(weight) is not float:
                weight = number(raw, "weight", loc, 1.0)
            label = self.typed(raw, "label", _is_text, "text", loc) if "label" in raw else None
            tq = self.tq(raw["tq"], loc + ".tq") if "tq" in raw else None
            props = self.props(raw, _LINK_MEMBERS, loc)
            check.link(kind, n1, n2, rel, loc)
            check.tq(tq, "link", loc)
            if props:
                check.props(props, loc)
            if build:
                tq = None if tq is None else TemporalQuantity(map(tuple, tq))
                links.append(LinkRecord._make((kind, n1, n2, rel, weight, label, tq, props)))
        self.n_arcs, self.n_edges = n_arcs, n_edges
        check.links_end()
        return links
