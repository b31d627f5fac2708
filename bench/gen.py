"""Seeded input generator for the benchmark workloads (stdlib only).

``generate(workload, seed, directory, n)`` writes the input files of one
workload into ``directory`` and returns the facts the independent checker
needs (names, relation names, link endpoints and weights, planted finding
rules).  The facts are also written next to the inputs as ``facts.json``.
The same (workload, seed, n) always gives the same bytes.

Every input stays inside what its format can carry: NET files hold labels,
relations and weights only; tables hold scalar cells; the NetsJSON files
hold well-formed temporal quantities and intervals.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

RELATIONS = ("cites", "knows", "works_with")  # sorted; three relations
_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "ze", "qu", "ble", "dor")
_KINDS = ("author", "paper", "venue", "org")
_WEIGHTS = (1, 1, 1, 2, 3, 0.5, 1.25, 2.75)
_WINDOW = (0, 99)  # Tmin, Tmax of the temporal document
# Warning-only findings the temporal document plants at strict level: the
# modification date is absent, and a directed network carries edges.
PLANTED_RULES = ("dates-missing", "directed-kind-mismatch")


def _names(rng: random.Random, n: int) -> list[str]:
    """n distinct names; a few carry spaces, quotes or semicolons, so table
    cells need quoting and NET labels need doubled quotes."""
    out = []
    for i in range(n):
        stem = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        r = rng.random()
        if r < 0.03:
            stem += " " + rng.choice(_SYLLABLES)
        elif r < 0.05:
            stem += '"' + rng.choice(_SYLLABLES) + '"'
        elif r < 0.07:
            stem += ";" + rng.choice(_SYLLABLES)
        out.append(f"{stem}_{i}")
    rng.shuffle(out)
    return out


def _links(rng: random.Random, n: int) -> list[list]:
    """4n links as [from index, to index, relation index, weight]."""
    return [
        [rng.randrange(n), rng.randrange(n), rng.randrange(len(RELATIONS)), rng.choice(_WEIGHTS)]
        for _ in range(4 * n)
    ]


def _note(rng: random.Random) -> str | None:
    r = rng.random()
    if r < 0.2:
        return None
    words = " ".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 4)))
    if r < 0.3:
        return f'{words}; "{rng.choice(_SYLLABLES)}"'
    return words


def _csv_to_net(rng: random.Random, n: int, d: Path) -> dict:
    names = _names(rng, n)
    links = _links(rng, n)
    with open(d / "nodes.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, delimiter=";", lineterminator="\n")
        w.writerow(["name", "kind", "year", "score", "note"])
        for name in names:
            year = "" if rng.random() < 0.05 else str(rng.randint(1950, 2024))
            score = f"{rng.randint(0, 999) / 100:.2f}"
            w.writerow([name, rng.choice(_KINDS), year, score, _note(rng) or ""])
    with open(d / "links.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, delimiter=";", lineterminator="\n")
        w.writerow(["from", "relation", "to", "weight"])
        for i, j, r, wt in links:
            w.writerow([names[i], RELATIONS[r], names[j], wt])
    return {"names": names, "relations": list(RELATIONS), "links": links}


def _pajek_quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def _net_to_json(rng: random.Random, n: int, d: Path) -> dict:
    names = _names(rng, n)
    links = _links(rng, n)
    lines = [f"*vertices {n}"]
    lines += [f"{i + 1} {_pajek_quote(name)}" for i, name in enumerate(names)]
    lines += [f"*arcs :{k + 1} {_pajek_quote(rel)}" for k, rel in enumerate(RELATIONS)]
    lines.append("*arcs")
    for i, j, r, wt in links:
        line = f"{r + 1}: {i + 1} {j + 1} {wt}"
        if rng.random() < 0.9:  # the relation suffix is optional
            line += f" l {_pajek_quote(RELATIONS[r])}"
        lines.append(line)
    (d / "in.net").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"names": names, "relations": list(RELATIONS), "links": links}


def _tq(rng: random.Random) -> list[list[int]]:
    """Four sorted, disjoint, non-empty [s, f, v] triples inside the window."""
    points = sorted(rng.sample(range(_WINDOW[0], _WINDOW[1] + 2), 8))
    return [[points[k], points[k + 1], rng.randint(0, 9)] for k in range(0, 8, 2)]


def _interval(rng: random.Random) -> dict:
    lo = rng.randint(0, 500)
    return {"lo": lo, "hi": lo + rng.randint(0, 500)}


def _json_validate(rng: random.Random, n: int, d: Path) -> dict:
    names = _names(rng, n)
    nodes = [
        {"id": name, "lab": name, "tq": _tq(rng), "kind": rng.choice(_KINDS), "active": _interval(rng)}
        for name in names
    ]
    links = []
    for i, j, r, wt in _links(rng, n):
        link = {"n1": names[i], "n2": names[j], "rel": RELATIONS[r], "tq": _tq(rng), "span": _interval(rng)}
        if rng.random() < 0.1:
            link = {"type": "edge", **link}
        if wt != 1:
            link["weight"] = wt
        links.append(link)
    n_edges = sum(1 for link in links if link.get("type") == "edge")
    info = {
        "org": 1,
        "nNodes": n,
        "nArcs": len(links) - n_edges,
        "nEdges": n_edges,
        "simple": False,
        "directed": True,
        "multirel": True,
        "mode": 1,
        "network": f"bench-{rng.randrange(10**6)}",
        "title": "benchmark temporal network",
        "time": {"Tmin": _WINDOW[0], "Tmax": _WINDOW[1], "Tlabs": {"0": "start", str(_WINDOW[1]): "end"}},
        "meta": [
            {"date": "2020-05-01", "title": "collected"},
            {"date": "2021-03-04", "title": "released", "author": "bench"},
        ],
        "created": "2021-03-04",
        "relations": list(RELATIONS),
    }
    doc = {"netsJSON": "basic", "info": info, "nodes": nodes, "links": links}
    (d / "in.json").write_text(json.dumps(doc, ensure_ascii=False) + "\n", encoding="utf-8")
    return {"n_nodes": n, "n_links": len(links), "planted": list(PLANTED_RULES)}


def _json_to_csv(rng: random.Random, n: int, d: Path) -> dict:
    names = _names(rng, n)
    props = []
    for _ in range(n):
        p = {"kind": rng.choice(_KINDS), "score": rng.randint(0, 999) / 100}
        if rng.random() < 0.95:
            p["year"] = rng.randint(1950, 2024)
        if rng.random() < 0.5:
            p["flag"] = rng.random() < 0.5
        note = _note(rng)
        if note is not None:
            p["note"] = note
        props.append(p)
    links = _links(rng, n)
    for link in links:
        link.append(rng.randint(1990, 2024))  # the "since" link property
    doc_links = []
    for i, j, r, wt, since in links:
        link = {"n1": i + 1, "n2": j + 1, "rel": r + 1}
        if wt != 1:
            link["weight"] = wt
        link["since"] = since
        doc_links.append(link)
    info = {
        "org": 1,
        "nNodes": n,
        "nArcs": len(links),
        "nEdges": 0,
        "simple": False,
        "directed": True,
        "multirel": True,
        "mode": 1,
        "relations": list(RELATIONS),
        "nodeCoding": names,
    }
    nodes = [{"id": i + 1, "lab": name, **props[i]} for i, name in enumerate(names)]
    doc = {"netsJSON": "basic", "info": info, "nodes": nodes, "links": doc_links}
    (d / "in.json").write_text(json.dumps(doc, ensure_ascii=False) + "\n", encoding="utf-8")
    return {"names": names, "props": props, "relations": list(RELATIONS), "links": links}


GENERATORS = {
    "csv-to-net": _csv_to_net,
    "net-to-json": _net_to_json,
    "json-validate": _json_validate,
    "json-to-csv": _json_to_csv,
}


def generate(workload: str, seed: int, directory: Path, n: int) -> dict:
    """Write the inputs of ``workload`` at size n into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}:{n}")
    facts = GENERATORS[workload](rng, n, directory)
    (directory / "facts.json").write_text(json.dumps(facts, ensure_ascii=False), encoding="utf-8")
    return facts
