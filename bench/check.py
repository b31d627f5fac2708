"""Independent output checker for the benchmark workloads (stdlib only).

It does not import ``netconv``: every expectation is derived from the facts
the generator wrote and from the documented file formats.  Each check
returns ``None`` when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path


def _net_tokens(line: str) -> list[str]:
    """Whitespace-separated tokens; double-quoted tokens double inner quotes."""
    out, i, n = [], 0, len(line)
    while i < n:
        if line[i] == " ":
            i += 1
        elif line[i] == '"':
            buf, i = [], i + 1
            while True:
                if i >= n:
                    raise ValueError("unterminated quote")
                if line[i] == '"':
                    if i + 1 < n and line[i + 1] == '"':
                        buf.append('"')
                        i += 2
                        continue
                    i += 1
                    break
                buf.append(line[i])
                i += 1
            if i < n and line[i] != " ":
                raise ValueError("text glued to a quoted token")
            out.append("".join(buf))
        else:
            j = line.find(" ", i)
            j = n if j < 0 else j
            out.append(line[i:j])
            i = j
    return out


def check_net(text: str, facts: dict) -> str | None:
    """Pajek NET: vertex count, labels, relation declarations, and the
    relation, endpoints, weight and relation suffix of every link line."""
    names, rels, links = facts["names"], facts["relations"], facts["links"]
    if not text.endswith("\n"):
        return "output does not end with a newline"
    lines = text[:-1].split("\n")
    expected_len = 1 + len(names) + len({r for _, _, r, _ in links}) + 1 + len(links)
    if len(lines) != expected_len:
        return f"{len(lines)} lines, expected {expected_len}"
    try:
        toks = [_net_tokens(line) for line in lines]
    except ValueError as exc:
        return f"unreadable line: {exc}"
    if toks[0] != ["*vertices", str(len(names))]:
        return f"bad vertices header {lines[0]!r}"
    for i, name in enumerate(names):
        if toks[1 + i] != [str(i + 1), name]:
            return f"vertex line {i + 1} is {lines[1 + i]!r}, expected label {name!r}"
    at = 1 + len(names)
    used = sorted({rels[r] for _, _, r, _ in links})  # the tables declare used relations only
    for k, rel in enumerate(used):
        if toks[at + k] != ["*arcs", f":{k + 1}", rel]:
            return f"relation declaration {k + 1} is {lines[at + k]!r}"
    at += len(used)
    if toks[at] != ["*arcs"]:
        return f"expected the *arcs section, got {lines[at]!r}"
    code = {rel: k + 1 for k, rel in enumerate(used)}
    for k, (i, j, r, w) in enumerate(links):
        t = toks[at + 1 + k]
        rel = rels[r]
        ok = (
            len(t) == 6
            and t[0] == f"{code[rel]}:"
            and t[1:3] == [str(i + 1), str(j + 1)]
            and _is_number(t[3], w)
            and t[4:] == ["l", rel]
        )
        if not ok:
            return f"link line {k + 1} is {lines[at + 1 + k]!r}"
    return None


def _is_number(token: str, value: float) -> bool:
    try:
        return float(token) == value
    except ValueError:
        return False


def _same(a, b) -> bool:
    """JSON equality that keeps booleans apart from numbers."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def check_netsjson(text: str, facts: dict) -> str | None:
    """NetsJSON written from a factorized NET: counters and flags, coding
    tables, node ids and labels, and the endpoints, relation code and
    weight of every link."""
    names, rels, links = facts["names"], facts["relations"], facts["links"]
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"not JSON: {exc}"
    if not isinstance(doc, dict) or doc.keys() != {"netsJSON", "info", "nodes", "links"}:
        return "document members differ from netsJSON/info/nodes/links"
    code = {rel: k + 1 for k, rel in enumerate(sorted(rels))}
    keys = {(code[rels[r]], i, j) for i, j, r, _ in links}
    info = {
        "org": 1,
        "nNodes": len(names),
        "nArcs": len(links),
        "nEdges": 0,
        "simple": len(keys) == len(links),
        "directed": True,
        "multirel": len({r for _, _, r, _ in links}) > 1,
        "mode": 1,
        "relations": sorted(rels),
        "nodeCoding": names,
    }
    if doc["netsJSON"] != "basic":
        return f"netsJSON tag {doc['netsJSON']!r}"
    if not _same(doc["info"], info):
        return "info block differs (counters, flags or coding tables)"
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or len(nodes) != len(names):
        return "node count differs"
    for i, name in enumerate(names):
        if not _same(nodes[i], {"id": i + 1, "lab": name}):
            return f"node {i} is {nodes[i]!r}"
    out_links = doc["links"]
    if not isinstance(out_links, list) or len(out_links) != len(links):
        return "link count differs"
    for k, (i, j, r, w) in enumerate(links):
        want = {"n1": i + 1, "n2": j + 1, "rel": code[rels[r]]}
        if w != 1:
            want["weight"] = w
        if not _same(out_links[k], want):
            return f"link {k} is {out_links[k]!r}, expected {want!r}"
    return None


def _cell(value) -> str:
    """Table cell text of a scalar JSON value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _table(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline=""), delimiter=";"))


def check_tables(nodes_text: str, links_text: str, facts: dict) -> str | None:
    """Node and link tables written from a factorized NetsJSON document:
    headers and every row."""
    names, props, rels, links = facts["names"], facts["props"], facts["relations"], facts["links"]
    try:
        node_rows, link_rows = _table(nodes_text), _table(links_text)
    except csv.Error as exc:
        return f"unreadable table: {exc}"
    prop_names = sorted({key for p in props for key in p})
    if not node_rows or node_rows[0] != ["name", *prop_names, "x", "y"]:
        return f"node header is {node_rows[:1]!r}"
    if len(node_rows) != 1 + len(names):
        return f"{len(node_rows) - 1} node rows, expected {len(names)}"
    for i, name in enumerate(names):
        want = [name, *(_cell(props[i].get(key)) for key in prop_names), "", ""]
        if node_rows[1 + i] != want:
            return f"node row {i + 1} is {node_rows[1 + i]!r}, expected {want!r}"
    weighted = any(w != 1 for _, _, _, w, _ in links)
    header = ["from", "relation", "to", *(["weight"] if weighted else []), "since"]
    if not link_rows or link_rows[0] != header:
        return f"link header is {link_rows[:1]!r}"
    if len(link_rows) != 1 + len(links):
        return f"{len(link_rows) - 1} link rows, expected {len(links)}"
    for k, (i, j, r, w, since) in enumerate(links):
        want = [names[i], rels[r], names[j], *([str(float(w))] if weighted else []), str(since)]
        if link_rows[1 + k] != want:
            return f"link row {k + 1} is {link_rows[1 + k]!r}, expected {want!r}"
    return None


def check_findings(status: int, report: str, facts: dict) -> str | None:
    """``validate --report json`` of the temporal document: exit status 0 and
    warning findings whose rules are exactly the planted set."""
    if status != 0:
        return f"exit status {status}, expected 0"
    rules = set()
    for line in report.splitlines():
        try:
            finding = json.loads(line)
        except ValueError:
            return f"finding line is not JSON: {line!r}"
        if not isinstance(finding, dict) or finding.get("severity") != "warning":
            return f"unexpected finding {line!r}"
        rules.add(finding.get("rule"))
    if rules != set(facts["planted"]):
        return f"finding rules {sorted(rules, key=str)}, planted {facts['planted']}"
    return None


OUTPUTS = {
    "csv-to-net": ("out.net",),
    "net-to-json": ("out.json",),
    "json-validate": ("stderr",),
    "json-to-csv": ("out_nodes.csv", "out_links.csv"),
}


def clear(workload: str, outdir: Path) -> None:
    """Remove the outputs of an earlier invocation, so a run that writes
    nothing cannot pass on stale files."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name in OUTPUTS[workload]:
        (outdir / name).unlink(missing_ok=True)


def check(workload: str, status: int, outdir: Path, facts: dict) -> str | None:
    """Check one invocation of ``workload`` whose outputs are in ``outdir``."""
    def read(name: str) -> str:
        return (outdir / name).read_text(encoding="utf-8")

    try:
        if workload == "json-validate":
            return check_findings(status, read("stderr"), facts)
        if status != 0:
            return f"exit status {status}, expected 0"
        if workload == "csv-to-net":
            return check_net(read("out.net"), facts)
        if workload == "net-to-json":
            return check_netsjson(read("out.json"), facts)
        return check_tables(read("out_nodes.csv"), read("out_links.csv"), facts)
    except (OSError, UnicodeDecodeError) as exc:
        return f"unreadable output: {exc}"
