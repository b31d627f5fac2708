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
  and ``propertyCodings`` (level arrays based at ``org``); ``nodeCoding``
  is written only when it is not derivable from the node list -- carrying
  the tables is what keeps the coded form invertible instead of dropping
  them as lost metadata;
* the top-level ``data`` member is preserved verbatim but never
  interpreted; the name is reserved and may not appear inside ``info``.

Serialization is a normal form: member order is fixed, user keys are
sorted, and writing the parse of a written document reproduces it byte for
byte. In compact mode the defaults ``"type": "arc"`` and ``"weight": 1``
are suppressed.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import IO, Any, Optional

from .coding import CodingTable, LevelPolicy, build_coding_table
from .errors import ExportError, SchemaError, TemporalError
from .model import (
    EventRecord,
    InfoBlock,
    Interval,
    LinkKind,
    LinkRecord,
    Network,
    NodeRecord,
    TemporalQuantity,
    TimeWindow,
    make_network,
    network_stats,
)
from .validation import (
    Finding,
    Level,
    Severity,
    ValidationReport,
    check_tq_bounds,
    parse_iso_date,
)

_INFO_MEMBERS = {
    "org",
    "nNodes",
    "nArcs",
    "nEdges",
    "simple",
    "directed",
    "multirel",
    "mode",
    "network",
    "title",
    "time",
    "meta",
    "created",
    "modified",
    "relations",
    "nodeCoding",
    "propertyCodings",
}
_NODE_MEMBERS = {"id", "lab", "slab", "x", "y", "mode", "tq"}
_LINK_MEMBERS = {"type", "n1", "n2", "rel", "weight", "label", "tq"}
_EVENT_MEMBERS = ("date", "title", "author", "desc", "url", "cite", "copy")


def _reject_constant(name: str):
    raise SchemaError(f"non-finite number {name} is not valid JSON")


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# -- JSON value <-> property value -------------------------------------------


def _value_from_json(v: Any) -> Any:
    if isinstance(v, dict):
        if set(v) == {"lo", "hi"} and _is_number(v["lo"]) and _is_number(v["hi"]):
            return Interval(float(v["lo"]), float(v["hi"]))
        return {k: _value_from_json(v[k]) for k in v}
    if isinstance(v, list):
        return [_value_from_json(item) for item in v]
    return v


def _value_to_json(v: Any) -> Any:
    if isinstance(v, Interval):
        return {"lo": v.lo, "hi": v.hi}
    if isinstance(v, TemporalQuantity):
        return [[s, f, _value_to_json(x)] for s, f, x in v.triples]
    if isinstance(v, dict):
        return {k: _value_to_json(v[k]) for k in sorted(v)}
    if isinstance(v, list):
        return [_value_to_json(item) for item in v]
    return v


def _tq_from_json(v: Any, locator: str) -> TemporalQuantity:
    if not isinstance(v, list):
        raise TemporalError(f"{locator}: tq must be an array of [s, f, v] triples")
    triples = []
    for k, triple in enumerate(v):
        if not isinstance(triple, list) or len(triple) != 3:
            raise TemporalError(f"{locator}[{k}]: triple must be a 3-element array")
        s, f, value = triple
        if not _is_int(s) or not _is_int(f):
            raise TemporalError(f"{locator}[{k}]: interval bounds must be integers")
        triples.append((s, f, _value_from_json(value)))
    return TemporalQuantity(tuple(triples))


# -- parsing ------------------------------------------------------------------


def parse_netsjson(source: IO[str]) -> Network:
    """Parse a NetsJSON basic document into a network.

    Node identifiers may be text (labeled form) or integers at or above
    info.org (factorized form) but not mixed. Counters are reconciled with
    the lists; use :func:`validate_netsjson_document` to report mismatches.
    """
    try:
        doc = json.load(source, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not well-formed JSON: {exc}") from None
    return network_from_document(doc)


def network_from_document(doc: Any) -> Network:
    """Build the network of a decoded document, as :func:`parse_netsjson` does."""
    if not isinstance(doc, dict):
        raise SchemaError("document root must be a JSON object")
    missing = [m for m in ("netsJSON", "info", "nodes", "links") if m not in doc]
    if missing:
        raise SchemaError(f"missing required member(s): {', '.join(missing)}")
    if doc["netsJSON"] != "basic":
        raise SchemaError(f"unsupported netsJSON version {doc['netsJSON']!r}")
    if not isinstance(doc["info"], dict):
        raise SchemaError("info must be an object")
    if not isinstance(doc["nodes"], list) or not isinstance(doc["links"], list):
        raise SchemaError("nodes and links must be arrays")

    raw_info = doc["info"]
    org = _require(raw_info, "org", _is_int, "an integer", default=1)
    info = InfoBlock(
        org=org,
        simple=_require(raw_info, "simple", lambda v: isinstance(v, bool), "a boolean", default=False),
        directed=_require(raw_info, "directed", lambda v: isinstance(v, bool), "a boolean", default=True),
        multirel=_require(raw_info, "multirel", lambda v: isinstance(v, bool), "a boolean", default=False),
        mode=_require(raw_info, "mode", _is_int, "an integer", default=1),
        network=_require(raw_info, "network", lambda v: isinstance(v, str), "text", default=""),
        title=_require(raw_info, "title", lambda v: isinstance(v, str), "text", default=""),
        time=_time_from_json(raw_info.get("time")),
        meta=_meta_from_json(raw_info.get("meta")),
        created=_require(raw_info, "created", lambda v: isinstance(v, str), "text", default=None),
        modified=_require(raw_info, "modified", lambda v: isinstance(v, str), "text", default=None),
    )
    for counter in ("nNodes", "nArcs", "nEdges"):
        if counter in raw_info and not _is_int(raw_info[counter]):
            raise SchemaError(f"info.{counter} must be an integer")

    extra = {}
    for key in raw_info:
        if key in _INFO_MEMBERS or key in ("nNodes", "nArcs", "nEdges"):
            continue
        if key == "data":
            raise SchemaError("'data' is reserved for the top-level member")
        value = _value_from_json(raw_info[key])
        if value is not None:
            extra[key] = value
    if "data" in doc:
        extra["data"] = _value_from_json(doc["data"])
    info = replace(info, extra=extra)

    nodes, factorized = _nodes_from_json(doc["nodes"], org)
    links = _links_from_json(doc["links"], factorized)

    safe_base = org if org in (0, 1) else 1
    relations = _coding_from_json(raw_info.get("relations"), "relations", "relation", org)
    if relations is None:
        if factorized:
            codes = {l.rel for l in links}
            if codes:
                lo, hi = min(codes), max(codes)
                relations = CodingTable(
                    "relation", tuple(str(c) for c in range(lo, hi + 1)), lo
                )
            else:
                relations = CodingTable("relation", (), safe_base)
        else:
            relations = build_coding_table(
                "relation", [l.rel for l in links], LevelPolicy.SORTED, safe_base
            )
    node_coding = _coding_from_json(raw_info.get("nodeCoding"), "nodeCoding", "node", org)
    if node_coding is None and not factorized:
        node_coding = build_coding_table(
            "node", [str(n.id) for n in nodes], LevelPolicy.FILE_ORDER, safe_base
        )
    property_codings = {}
    raw_pc = raw_info.get("propertyCodings")
    if raw_pc is not None:
        if not isinstance(raw_pc, dict):
            raise SchemaError("info.propertyCodings must be an object")
        for name in raw_pc:
            table = _coding_from_json(raw_pc[name], f"propertyCodings.{name}", name, org)
            property_codings[name] = table

    return make_network(
        nodes,
        links,
        info=info,
        relations=relations,
        node_coding=node_coding if node_coding is not None else CodingTable("node", (), safe_base),
        property_codings=property_codings,
    )


def _require(obj: dict, key: str, pred, what: str, default):
    if key not in obj:
        return default
    if not pred(obj[key]):
        raise SchemaError(f"info.{key} must be {what}")
    return obj[key]


def _time_from_json(v: Any) -> Optional[TimeWindow]:
    if v is None:
        return None
    if not isinstance(v, dict) or not _is_int(v.get("Tmin")) or not _is_int(v.get("Tmax")):
        raise SchemaError("info.time must be an object with integer Tmin and Tmax")
    labs = {}
    raw = v.get("Tlabs", {})
    if not isinstance(raw, dict):
        raise SchemaError("info.time.Tlabs must be an object")
    for key in raw:
        try:
            t = int(key)
        except ValueError:
            raise SchemaError(f"info.time.Tlabs key {key!r} is not an integer time point") from None
        if not isinstance(raw[key], str):
            raise SchemaError(f"info.time.Tlabs[{key}] must be text")
        labs[t] = raw[key]
    return TimeWindow(t_min=v["Tmin"], t_max=v["Tmax"], t_labs=labs)


def _meta_from_json(v: Any) -> tuple[EventRecord, ...]:
    if v is None:
        return ()
    if not isinstance(v, list):
        raise SchemaError("info.meta must be an array of event objects")
    events = []
    for i, raw in enumerate(v):
        if not isinstance(raw, dict):
            raise SchemaError(f"info.meta[{i}] must be an object")
        fields = {}
        for name in _EVENT_MEMBERS:
            if name in raw:
                if not isinstance(raw[name], str):
                    raise SchemaError(f"info.meta[{i}].{name} must be text")
                fields[name] = raw[name]
        extra = {
            k: _value_from_json(raw[k])
            for k in raw
            if k not in _EVENT_MEMBERS and raw[k] is not None
        }
        events.append(
            EventRecord(
                date=fields.get("date", ""),
                title=fields.get("title", ""),
                author=fields.get("author"),
                desc=fields.get("desc"),
                url=fields.get("url"),
                cite=fields.get("cite"),
                copy=fields.get("copy"),
                extra=extra,
            )
        )
    return tuple(events)


def _coding_from_json(v: Any, member: str, name: str, base: int) -> Optional[CodingTable]:
    if v is None:
        return None
    if not isinstance(v, list) or not all(isinstance(lv, str) for lv in v):
        raise SchemaError(f"info.{member} must be an array of text levels")
    try:
        return CodingTable(name, tuple(v), base)
    except ValueError as exc:
        raise SchemaError(f"info.{member}: {exc}") from None


def _nodes_from_json(raw_nodes: list, org: int) -> tuple[list[NodeRecord], bool]:
    nodes = []
    kinds = set()
    for i, raw in enumerate(raw_nodes):
        loc = f"nodes[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{loc} must be an object")
        if "id" not in raw:
            raise SchemaError(f"{loc} has no id")
        node_id = raw["id"]
        if _is_int(node_id):
            kinds.add(int)
            if node_id < org:
                raise SchemaError(f"{loc}: code {node_id} below smallest index {org}")
        elif isinstance(node_id, str):
            kinds.add(str)
            if not node_id:
                raise SchemaError(f"{loc}: empty node identifier")
        else:
            raise SchemaError(f"{loc}: id must be text or an integer")
        if len(kinds) > 1:
            raise SchemaError("text and integer node identifiers are mixed")
        lab = raw.get("lab", "")
        if not isinstance(lab, str):
            raise SchemaError(f"{loc}.lab must be text")
        slab = raw.get("slab")
        if slab is not None and not isinstance(slab, str):
            raise SchemaError(f"{loc}.slab must be text")
        coords = {}
        for axis in ("x", "y"):
            if axis in raw and raw[axis] is not None:
                if not _is_number(raw[axis]):
                    raise SchemaError(f"{loc}.{axis} must be a number")
                coords[axis] = float(raw[axis])
        mode = raw.get("mode")
        if mode is not None and not isinstance(mode, str):
            raise SchemaError(f"{loc}.mode must be text")
        tq = _tq_from_json(raw["tq"], f"{loc}.tq") if "tq" in raw else None
        props = {}
        for key in raw:
            if key in _NODE_MEMBERS:
                continue
            value = _value_from_json(raw[key])
            if value is not None:
                props[key] = value
        nodes.append(
            NodeRecord(
                id=node_id,
                lab=lab,
                slab=slab,
                x=coords.get("x"),
                y=coords.get("y"),
                mode=mode,
                tq=tq,
                props=props,
            )
        )
    return nodes, kinds == {int}


def _links_from_json(raw_links: list, factorized: bool) -> list[LinkRecord]:
    links = []
    for i, raw in enumerate(raw_links):
        loc = f"links[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{loc} must be an object")
        kind_text = raw.get("type", "arc")
        try:
            kind = LinkKind(kind_text)
        except ValueError:
            raise SchemaError(f"{loc}.type must be 'arc' or 'edge', got {kind_text!r}") from None
        endpoint_type = int if factorized else str
        ends = {}
        for member in ("n1", "n2"):
            if member not in raw:
                raise SchemaError(f"{loc} has no {member}")
            v = raw[member]
            ok = _is_int(v) if endpoint_type is int else isinstance(v, str)
            if not ok:
                raise SchemaError(
                    f"{loc}.{member} must match the node identifier kind"
                )
            ends[member] = v
        if "rel" not in raw:
            raise SchemaError(f"{loc} has no rel")
        rel = raw["rel"]
        rel_ok = _is_int(rel) if factorized else isinstance(rel, str)
        if not rel_ok:
            raise SchemaError(f"{loc}.rel must match the document's identifier kind")
        weight = raw.get("weight", 1)
        if not _is_number(weight):
            raise SchemaError(f"{loc}.weight must be a number")
        label = raw.get("label")
        if label is not None and not isinstance(label, str):
            raise SchemaError(f"{loc}.label must be text")
        tq = _tq_from_json(raw["tq"], f"{loc}.tq") if "tq" in raw else None
        props = {}
        for key in raw:
            if key in _LINK_MEMBERS:
                continue
            value = _value_from_json(raw[key])
            if value is not None:
                props[key] = value
        links.append(
            LinkRecord(
                kind=kind,
                n1=ends["n1"],
                n2=ends["n2"],
                rel=rel,
                weight=float(weight),
                label=label,
                tq=tq,
                props=props,
            )
        )
    return links


# -- serialization -------------------------------------------------------------


def write_netsjson(network: Network, pretty: bool = False) -> str:
    """Serialize a network as a NetsJSON basic document (deterministic bytes).

    Counters are recomputed before writing. Compact mode (the default)
    suppresses the ``type``/``weight`` defaults; pretty mode indents by two
    spaces and keeps them.
    """
    stats = network_stats(network)
    info = network.info
    raw_info: dict[str, Any] = {
        "org": info.org,
        "nNodes": stats.n_nodes,
        "nArcs": stats.n_arcs,
        "nEdges": stats.n_edges,
        "simple": info.simple,
        "directed": info.directed,
        "multirel": info.multirel,
        "mode": info.mode,
    }
    if info.network:
        raw_info["network"] = info.network
    if info.title:
        raw_info["title"] = info.title
    if info.time is not None:
        time_obj: dict[str, Any] = {"Tmin": info.time.t_min, "Tmax": info.time.t_max}
        if info.time.t_labs:
            time_obj["Tlabs"] = {str(t): info.time.t_labs[t] for t in sorted(info.time.t_labs)}
        raw_info["time"] = time_obj
    if info.meta:
        raw_info["meta"] = [_event_to_json(e) for e in info.meta]
    if info.created is not None:
        raw_info["created"] = info.created
    if info.modified is not None:
        raw_info["modified"] = info.modified
    if len(network.relations):
        raw_info["relations"] = list(network.relations.levels)
    derivable_coding = (
        not network.is_factorized
        and network.node_coding.base == info.org
        and network.node_coding.levels == tuple(str(n.id) for n in network.nodes)
    )
    if len(network.node_coding) and not derivable_coding:
        raw_info["nodeCoding"] = list(network.node_coding.levels)
    if network.property_codings:
        raw_info["propertyCodings"] = {
            name: list(network.property_codings[name].levels)
            for name in sorted(network.property_codings)
        }
    data = None
    for key in sorted(info.extra):
        if key == "data":
            data = info.extra[key]
        elif key in _INFO_MEMBERS or key in ("nNodes", "nArcs", "nEdges"):
            raise ExportError(f"info extra entry {key!r} collides with a schema member")
        else:
            raw_info[key] = _value_to_json(info.extra[key])

    doc: dict[str, Any] = {
        "netsJSON": "basic",
        "info": raw_info,
        "nodes": [_node_to_json(n) for n in network.nodes],
        "links": [_link_to_json(l, pretty) for l in network.links],
    }
    if data is not None:
        doc["data"] = _value_to_json(data)

    try:
        if pretty:
            return json.dumps(doc, ensure_ascii=False, indent=2, allow_nan=False) + "\n"
        return json.dumps(doc, ensure_ascii=False, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError as exc:
        raise ExportError(f"network holds a non-finite number: {exc}") from None


def _event_to_json(event: EventRecord) -> dict:
    out: dict[str, Any] = {}
    for name in _EVENT_MEMBERS:
        value = getattr(event, name)
        if name in ("date", "title"):
            out[name] = value
        elif value is not None:
            out[name] = value
    for key in sorted(event.extra):
        out[key] = _value_to_json(event.extra[key])
    return out


def _node_to_json(node: NodeRecord) -> dict:
    out: dict[str, Any] = {"id": node.id}
    if node.lab:
        out["lab"] = node.lab
    if node.slab is not None:
        out["slab"] = node.slab
    if node.x is not None:
        out["x"] = node.x
    if node.y is not None:
        out["y"] = node.y
    if node.mode is not None:
        out["mode"] = node.mode
    if node.tq is not None:
        out["tq"] = _value_to_json(node.tq)
    for key in sorted(node.props):
        if key in _NODE_MEMBERS:
            raise ExportError(f"node property {key!r} collides with a schema member")
        out[key] = _value_to_json(node.props[key])
    return out


def _link_to_json(link: LinkRecord, keep_defaults: bool) -> dict:
    out: dict[str, Any] = {}
    if keep_defaults or link.kind is not LinkKind.ARC:
        out["type"] = link.kind.value
    out["n1"] = link.n1
    out["n2"] = link.n2
    out["rel"] = link.rel
    if keep_defaults or link.weight != 1.0:
        out["weight"] = link.weight
    if link.label is not None:
        out["label"] = link.label
    if link.tq is not None:
        out["tq"] = _value_to_json(link.tq)
    for key in sorted(link.props):
        if key in _LINK_MEMBERS:
            raise ExportError(f"link property {key!r} collides with a schema member")
        out[key] = _value_to_json(link.props[key])
    return out


# -- document validation --------------------------------------------------------


def validate_netsjson_document(source: IO[str], strict: bool = False) -> ValidationReport:
    """Schema-check a document without constructing a network.

    All problems become findings with JSON-path locators resolvable against
    the input; nothing is raised for bad content. Strict mode additionally
    enforces counter consistency as errors, presence of the creation and
    modification dates, and (once a time window marks the network as
    temporal) a tq on every node and link.
    """
    return load_netsjson_document(source, strict)[1]


def load_netsjson_document(source: IO[str], strict: bool = False) -> tuple[Any, ValidationReport]:
    """Decode a document once and schema-check it.

    Returns the decoded value (None when the text is not well-formed JSON)
    and the :func:`validate_netsjson_document` report; pass the value to
    :func:`network_from_document` when the report has no errors.
    """
    level = Level.STRICT if strict else Level.LENIENT
    try:
        doc = json.loads(source.read(), parse_constant=_reject_constant)
    except (json.JSONDecodeError, SchemaError) as exc:
        malformed = Finding(Severity.ERROR, "json-malformed", "$", str(exc))
        return None, ValidationReport((malformed,), level)
    return doc, _check_document(doc, level)


def _check_document(doc: Any, level: Level) -> ValidationReport:
    out: list[Finding] = []
    err = lambda rule, loc, msg: out.append(Finding(Severity.ERROR, rule, loc, msg))
    warn = lambda rule, loc, msg: out.append(Finding(Severity.WARNING, rule, loc, msg))

    if not isinstance(doc, dict):
        err("member-type", "$", "document root must be an object")
        return ValidationReport(tuple(out), level)

    for member in ("netsJSON", "info", "nodes", "links"):
        if member not in doc:
            err("member-missing", "$", f"required member {member!r} is absent")
    if "netsJSON" in doc and doc["netsJSON"] != "basic":
        err("version-unsupported", "$.netsJSON", f"got {doc['netsJSON']!r}, expected 'basic'")

    info = doc.get("info")
    if info is not None and not isinstance(info, dict):
        err("member-type", "$.info", "info must be an object")
        info = None
    nodes = doc.get("nodes")
    if nodes is not None and not isinstance(nodes, list):
        err("member-type", "$.nodes", "nodes must be an array")
        nodes = None
    links = doc.get("links")
    if links is not None and not isinstance(links, list):
        err("member-type", "$.links", "links must be an array")
        links = None

    org = 1
    window = None
    relations = None
    if info is not None:
        org, window, relations = _validate_info(info, level, len(nodes or []), links or [], out)

    node_ids: set = set()
    temporal = level is Level.STRICT and window is not None
    if nodes is not None:
        kinds = set()
        for i, raw in enumerate(nodes):
            loc = f"$.nodes[{i}]"
            if not isinstance(raw, dict):
                err("member-type", loc, "node must be an object")
                continue
            if "id" not in raw:
                err("member-missing", loc, "node has no id")
            else:
                node_id = raw["id"]
                if _is_int(node_id):
                    kinds.add(int)
                    if node_id < org:
                        err("id-invalid", f"{loc}.id", f"code {node_id} below smallest index {org}")
                elif isinstance(node_id, str):
                    kinds.add(str)
                    if not node_id:
                        err("id-invalid", f"{loc}.id", "empty node identifier")
                else:
                    err("member-type", f"{loc}.id", "id must be text or an integer")
                    node_id = None
                if node_id is not None:
                    if node_id in node_ids:
                        err("id-duplicate", f"{loc}.id", f"identifier {node_id!r} already used")
                    node_ids.add(node_id)
                if len(kinds) > 1:
                    err("id-kind-mixed", f"{loc}.id", "text and integer identifiers are mixed")
                    kinds = {next(iter(kinds))}
            for member in ("lab", "slab", "mode"):
                if member in raw and not isinstance(raw[member], str):
                    err("member-type", f"{loc}.{member}", f"{member} must be text")
            if (
                isinstance(raw.get("slab"), str)
                and isinstance(raw.get("lab", ""), str)
                and len(raw["slab"]) > len(raw.get("lab", ""))
            ):
                err("slab-longer-than-label", f"{loc}.slab", "short label longer than label")
            for axis in ("x", "y"):
                if axis in raw and not _is_number(raw[axis]):
                    err("member-type", f"{loc}.{axis}", f"{axis} must be a number")
            if "tq" in raw:
                _validate_raw_tq(raw["tq"], f"{loc}.tq", window, out)
            elif temporal:
                err("tq-missing", loc, "temporal network node lacks a tq")
            for key in sorted(set(raw) - _NODE_MEMBERS):
                _scan_raw_intervals(raw[key], f"{loc}.{key}", out)

    if links is not None:
        rels_seen = set()
        link_keys = set()
        n_arcs = n_edges = 0
        declared_simple = bool(info.get("simple")) if isinstance(info, dict) else False
        for i, raw in enumerate(links):
            loc = f"$.links[{i}]"
            if not isinstance(raw, dict):
                err("member-type", loc, "link must be an object")
                continue
            kind_text = raw.get("type", "arc")
            if kind_text not in ("arc", "edge"):
                err("link-type-invalid", f"{loc}.type", f"got {kind_text!r}")
                kind_text = "arc"
            if kind_text == "arc":
                n_arcs += 1
            else:
                n_edges += 1
            ends = []
            for member in ("n1", "n2"):
                if member not in raw:
                    err("member-missing", loc, f"link has no {member}")
                    continue
                v = raw[member]
                if not (_is_int(v) or isinstance(v, str)):
                    err("member-type", f"{loc}.{member}", "endpoint must be text or an integer")
                    continue
                ends.append(v)
                if nodes is not None and v not in node_ids:
                    err("endpoint-unresolved", f"{loc}.{member}", f"{v!r} names no node")
            if "rel" not in raw:
                err("member-missing", loc, "link has no rel")
            else:
                rel = raw["rel"]
                if not (_is_int(rel) or isinstance(rel, str)):
                    err("member-type", f"{loc}.rel", "rel must be text or an integer")
                else:
                    rels_seen.add(rel)
                    if relations is not None:
                        listed = (
                            1 <= rel - org + 1 <= len(relations)
                            if _is_int(rel)
                            else rel in relations
                        )
                        if not listed:
                            err(
                                "relation-unlisted",
                                f"{loc}.rel",
                                f"{rel!r} not covered by info.relations",
                            )
                    if len(ends) == 2:
                        key_ends = (
                            frozenset(ends) if kind_text == "edge" else tuple(ends)
                        )
                        key = (kind_text, rel, key_ends)
                        if key in link_keys and declared_simple:
                            err("simple-violated", loc, "parallel link in a network flagged simple")
                        link_keys.add(key)
            if "weight" in raw and not _is_number(raw["weight"]):
                err("member-type", f"{loc}.weight", "weight must be a number")
            if "label" in raw and not isinstance(raw["label"], str):
                err("member-type", f"{loc}.label", "label must be text")
            if "tq" in raw:
                _validate_raw_tq(raw["tq"], f"{loc}.tq", window, out)
            elif temporal:
                err("tq-missing", loc, "temporal network link lacks a tq")
            for key in sorted(set(raw) - _LINK_MEMBERS):
                _scan_raw_intervals(raw[key], f"{loc}.{key}", out)

        if isinstance(info, dict):
            if info.get("multirel") is False and len(rels_seen) > 1:
                err("multirel-violated", "$.links", f"{len(rels_seen)} relations but multirel is off")
            directed = info.get("directed")
            if directed is True and n_edges:
                warn("directed-kind-mismatch", "$.links", "directed network contains edges")
            elif directed is False and n_arcs:
                warn("directed-kind-mismatch", "$.links", "undirected network contains arcs")

    return ValidationReport(tuple(out), level)


def _validate_info(
    info: dict, level: Level, n_nodes: int, links: list, out: list[Finding]
) -> tuple[int, Optional[TimeWindow], Optional[list]]:
    err = lambda rule, loc, msg: out.append(Finding(Severity.ERROR, rule, loc, msg))
    count_sev = Severity.ERROR if level is Level.STRICT else Severity.WARNING

    org = 1
    if "org" in info:
        if not _is_int(info["org"]):
            err("member-type", "$.info.org", "org must be an integer")
        else:
            org = info["org"]
            if org not in (0, 1):
                err("org-invalid", "$.info.org", f"smallest index must be 0 or 1, got {org}")
    n_arcs = sum(
        1
        for l in links
        if isinstance(l, dict) and l.get("type", "arc") != "edge"
    )
    n_edges = sum(1 for l in links if isinstance(l, dict) and l.get("type") == "edge")
    for counter, actual in (("nNodes", n_nodes), ("nArcs", n_arcs), ("nEdges", n_edges)):
        if counter not in info:
            continue
        if not _is_int(info[counter]):
            err("member-type", f"$.info.{counter}", f"{counter} must be an integer")
        elif info[counter] != actual:
            rule = "count-nodes-mismatch" if counter == "nNodes" else "count-links-mismatch"
            out.append(
                Finding(
                    count_sev,
                    rule,
                    f"$.info.{counter}",
                    f"declared {info[counter]}, counted {actual}",
                )
            )
    for member in ("simple", "directed", "multirel"):
        if member in info and not isinstance(info[member], bool):
            err("member-type", f"$.info.{member}", f"{member} must be a boolean")
    if "mode" in info:
        if not _is_int(info["mode"]):
            err("member-type", "$.info.mode", "mode must be an integer")
        elif info["mode"] < 1:
            err("mode-invalid", "$.info.mode", f"mode count must be at least 1, got {info['mode']}")
    for member in ("network", "title"):
        if member in info and not isinstance(info[member], str):
            err("member-type", f"$.info.{member}", f"{member} must be text")

    window = None
    if "time" in info:
        raw = info["time"]
        if not isinstance(raw, dict) or not _is_int(raw.get("Tmin")) or not _is_int(raw.get("Tmax")):
            err("member-type", "$.info.time", "time must be an object with integer Tmin and Tmax")
        else:
            window = TimeWindow(raw["Tmin"], raw["Tmax"])
            if window.t_min > window.t_max:
                err(
                    "time-window-invalid",
                    "$.info.time",
                    f"Tmin {window.t_min} exceeds Tmax {window.t_max}",
                )
            labs = raw.get("Tlabs", {})
            if not isinstance(labs, dict):
                err("member-type", "$.info.time.Tlabs", "Tlabs must be an object")
            else:
                for key in labs:
                    try:
                        t = int(key)
                    except ValueError:
                        err(
                            "tlab-key-invalid",
                            f"$.info.time.Tlabs.{key}",
                            f"key {key!r} is not an integer time point",
                        )
                        continue
                    if not window.t_min <= t <= window.t_max:
                        err(
                            "tlab-outside-window",
                            f"$.info.time.Tlabs.{key}",
                            f"label for {t} outside [{window.t_min}, {window.t_max}]",
                        )

    if "meta" in info:
        raw = info["meta"]
        if not isinstance(raw, list):
            err("member-type", "$.info.meta", "meta must be an array of events")
        else:
            for i, event in enumerate(raw):
                loc = f"$.info.meta[{i}]"
                if not isinstance(event, dict):
                    err("member-type", loc, "event must be an object")
                    continue
                date = event.get("date")
                if not isinstance(date, str) or parse_iso_date(date) is None:
                    err("event-date-invalid", loc, f"event date {date!r}")
                title = event.get("title")
                if not isinstance(title, str) or not title:
                    err("event-title-empty", loc, "event has no title")

    for member in ("created", "modified"):
        if member in info:
            if not isinstance(info[member], str):
                err("member-type", f"$.info.{member}", f"{member} must be text")
            elif parse_iso_date(info[member]) is None:
                err("date-invalid", f"$.info.{member}", f"{info[member]!r} is not an ISO date")
        elif level is Level.STRICT:
            out.append(
                Finding(
                    Severity.WARNING,
                    "dates-missing",
                    "$.info",
                    f"recommended member {member!r} is absent",
                )
            )
    if isinstance(info.get("created"), str) and isinstance(info.get("modified"), str):
        c, m = parse_iso_date(info["created"]), parse_iso_date(info["modified"])
        if c and m and m < c:
            err("dates-order", "$.info.modified", f"modified {m} precedes created {c}")
    elif "modified" in info and "created" not in info:
        err("dates-order", "$.info.modified", "modified present without created")

    relations = None
    if "relations" in info:
        raw = info["relations"]
        if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
            err("member-type", "$.info.relations", "relations must be an array of text levels")
        else:
            relations = raw
    for member in ("nodeCoding",):
        if member in info:
            raw = info[member]
            if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
                err("member-type", f"$.info.{member}", f"{member} must be an array of text levels")
    if "propertyCodings" in info and not isinstance(info["propertyCodings"], dict):
        err("member-type", "$.info.propertyCodings", "propertyCodings must be an object")
    if "data" in info:
        err("member-reserved", "$.info.data", "'data' belongs at the top level")

    return org, window, relations


def _validate_raw_tq(raw: Any, loc: str, window: Optional[TimeWindow], out: list[Finding]) -> None:
    err = lambda rule, where, msg: out.append(Finding(Severity.ERROR, rule, where, msg))
    if not isinstance(raw, list):
        err("tq-malformed", loc, "tq must be an array of [s, f, v] triples")
        return
    for k, triple in enumerate(raw):
        if not isinstance(triple, list) or len(triple) != 3:
            err("tq-malformed", f"{loc}[{k}]", "triple must be a 3-element array")
            return
        if not _is_int(triple[0]) or not _is_int(triple[1]):
            err("tq-malformed", f"{loc}[{k}]", "interval bounds must be integers")
            return
    check_tq_bounds(raw, loc, window, out)


def _scan_raw_intervals(value: Any, loc: str, out: list[Finding]) -> None:
    if isinstance(value, dict):
        if set(value) == {"lo", "hi"} and _is_number(value["lo"]) and _is_number(value["hi"]):
            if value["lo"] > value["hi"]:
                out.append(
                    Finding(
                        Severity.ERROR,
                        "interval-invalid",
                        loc,
                        f"interval bounds reversed: lo={value['lo']} > hi={value['hi']}",
                    )
                )
            return
        for key in sorted(value):
            _scan_raw_intervals(value[key], f"{loc}.{key}", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _scan_raw_intervals(item, f"{loc}[{i}]", out)
