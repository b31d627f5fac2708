"""The NetsJSON walk's findings, pinned on seeded single-mutation documents.

A small temporal document (20 nodes, 80 links, a 4-triple tq and an
interval property on every record) is mutated in one place at a time: a
member of the wrong type, null or missing; a malformed tq triple; a nested
tq value; unsorted, empty, overlapping or out-of-window tq intervals; a bad
interval property; a bogus link type; a rel of the wrong identifier kind.
``tests/data/walk_findings.jsonl`` holds, for each document, the findings
at both levels and the SHA-256 of ``write_netsjson(parse_netsjson(doc))``
(null when the document does not parse), as recorded before the walk's
fast paths were written. Regenerate it only on purpose, with::

    PYTHONPATH=src python tests/test_walk_findings.py > tests/data/walk_findings.jsonl
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from netconv import NetconvError, check_netsjson, parse_netsjson, validate_netsjson_document, write_netsjson

EXPECTED = Path(__file__).parent / "data" / "walk_findings.jsonl"
RELATIONS = ["cites", "knows", "likes"]
WINDOW = (0, 99)


def base_document(rng: random.Random, coded: bool) -> dict:
    """20 nodes and 80 links, every record with a 4-triple tq and an interval."""

    def tq():
        points = sorted(rng.sample(range(WINDOW[0], WINDOW[1] + 2), 8))
        return [[points[k], points[k + 1], rng.randint(0, 9)] for k in range(0, 8, 2)]

    def interval():
        lo = rng.choice([rng.randint(0, 500), rng.randint(0, 500) / 4])
        return {"lo": lo, "hi": lo + rng.randint(0, 500)}

    ids = list(range(1, 21)) if coded else [f"v{i}" for i in range(20)]
    nodes = [{"id": i, "lab": f"node {i}", "kind": rng.choice("ab"), "active": interval(), "tq": tq()}
             for i in ids]  # fmt: skip
    links = []
    for _ in range(80):
        r = rng.randrange(3)
        link = {"n1": rng.choice(ids), "n2": rng.choice(ids), "rel": r + 1 if coded else RELATIONS[r],
                "tq": tq(), "span": interval()}  # fmt: skip
        if rng.random() < 0.2:
            link = {"type": "edge", **link}
        if rng.random() < 0.3:
            link["weight"] = rng.choice([2, 0.5, 3.25])
        if rng.random() < 0.2:
            link["label"] = "l"
        links.append(link)
    info = {"org": 1, "nNodes": 20, "nArcs": sum(l.get("type") != "edge" for l in links),
            "nEdges": sum(l.get("type") == "edge" for l in links), "directed": True, "multirel": True,
            "time": {"Tmin": WINDOW[0], "Tmax": WINDOW[1]}, "created": "2021-03-04",
            "relations": RELATIONS}  # fmt: skip
    return {"netsJSON": "basic", "info": info, "nodes": nodes, "links": links}


WRONG = [[1], {"a": 1}, True, 1.5, 7, "t", None]  # wrong-type (or null) member values
LINK_MEMBERS = ["n1", "n2", "rel", "type", "weight", "label", "tq"]
NODE_MEMBERS = ["id", "lab", "slab", "x", "y", "mode", "tq"]


def _member(rng, doc):
    what = rng.choice(["nodes", "links"])
    record = rng.choice(doc[what])
    member = rng.choice(LINK_MEMBERS if what == "links" else NODE_MEMBERS)
    if rng.random() < 0.3:
        record.pop(member, None)
    else:
        record[member] = rng.choice(WRONG + ([10**400] if member in ("weight", "x", "y") else []))


def _triple(rng, doc):
    tq = rng.choice(doc[rng.choice(["nodes", "links"])])["tq"]
    k = rng.choice([0, rng.randrange(1, len(tq))])
    tq[k] = rng.choice([
        "s", 3, None, tq[k][:2], tq[k] + [1], [float(tq[k][0]), tq[k][1], 0],
        [tq[k][0], str(tq[k][1]), 0], [True, tq[k][1], 0],
    ])  # fmt: skip


def _nested(rng, doc):
    tq = rng.choice(doc[rng.choice(["nodes", "links"])])["tq"]
    k = rng.randrange(len(tq))
    tq[k][2] = rng.choice([[1, 2], {"b": 1, "a": [3]}, {"lo": 1, "hi": 2}, {"lo": 5, "hi": 2},
                           [{"lo": 10**400, "hi": 1}]])  # fmt: skip


def _bounds(rng, doc):
    record = rng.choice(doc[rng.choice(["nodes", "links"])])
    kinds = ["unsorted", "empty", "overlap", "outside", "none", "point", "no window", "narrow window"]
    tq, kind = record["tq"], rng.choice(kinds)
    if kind == "unsorted":
        tq.reverse()
    elif kind == "empty":
        k = rng.randrange(len(tq))
        tq[k][1] = tq[k][0] - rng.randint(0, 1)
    elif kind == "overlap":
        k = rng.randrange(1, len(tq))
        tq[k][0] = tq[k - 1][1] - 1
    elif kind == "outside":
        k = rng.choice([0, len(tq) - 1])
        if k == 0:
            tq[0][0] = WINDOW[0] - rng.randint(1, 5)
        else:
            tq[k][1] = WINDOW[1] + rng.randint(2, 5)
    elif kind == "none":
        record["tq"] = []
    elif kind == "no window":
        del doc["info"]["time"]
    elif kind == "narrow window":
        doc["info"]["time"]["Tmax"] = WINDOW[1] - 2
    else:
        tq[:] = [[5, 6, 0], [6, 7, 1], [7, 7, 2], [7, 9, 3]]


def _interval(rng, doc):
    what = rng.choice(["nodes", "links"])
    record = rng.choice(doc[what])
    key = "active" if what == "nodes" else "span"
    record[key] = rng.choice([
        {"lo": 9, "hi": 2}, {"lo": 2.5, "hi": 2}, {"lo": True, "hi": 2}, {"lo": 1, "hi": False},
        {"lo": 1, "hi": 10**400}, {"lo": -(10**400), "hi": 1}, {"lo": 1, "hi": 2, "c": 3},
        {"hi": 2, "lo": 1}, {"lo": 1}, [{"lo": 3, "hi": 1}, {"lo": 1, "hi": 3}],
        {"z": {"lo": 3, "hi": 1}, "a": {"lo": 4, "hi": 0}},
    ])  # fmt: skip
    if rng.random() < 0.3:
        record["extra"] = {"lo": 8, "hi": 1}


def _link_type(rng, doc):
    rng.choice(doc["links"])["type"] = rng.choice(["bogus", "Arc", "", 1, None, ["arc"]])


def _rel_kind(rng, doc):
    link = rng.choice(doc["links"])
    coded = type(doc["nodes"][0]["id"]) is int
    link["rel"] = rng.choice([*(["cites", 7] if coded else [1, 0, "unlisted"]), ""])


MUTATIONS = [_member, _triple, _nested, _bounds, _interval, _link_type, _rel_kind]
PER_MUTATION = 44  # 7 mutations x 44 = 308 documents


def documents():
    """(name, document text) for every mutated document, in a fixed order."""
    for mutate in MUTATIONS:
        for seed in range(PER_MUTATION):
            rng = random.Random(f"{mutate.__name__}:{seed}")
            doc = base_document(rng, coded=seed % 4 == 3)
            mutate(rng, doc)
            yield f"{mutate.__name__[1:]}-{seed}", json.dumps(doc)


def record(text: str) -> dict:
    """What the walk makes of one document: findings at both levels and the
    hash of the written parse (None when it does not parse)."""
    out = {}
    for level, strict in (("lenient", False), ("strict", True)):
        report = validate_netsjson_document(io.StringIO(text), strict=strict)
        out[level] = [[f.severity.value, f.rule, f.location, f.message] for f in report.findings]
    try:
        written = write_netsjson(parse_netsjson(io.StringIO(text)))
    except NetconvError:
        out["written"] = None
    else:
        out["written"] = hashlib.sha256(written.encode("utf-8")).hexdigest()
    return out


@functools.cache
def _expected() -> dict:
    lines = EXPECTED.read_text(encoding="utf-8").splitlines()
    return {entry.pop("name"): entry for entry in map(json.loads, lines)}


CASES = list(documents())


def test_corpus_covers_the_mutations():
    expected = _expected()
    assert list(expected) == [name for name, _ in CASES]
    rules = {f[1] for entry in expected.values() for f in entry["strict"]}
    assert {"member-type", "member-missing", "tq-malformed", "tq-empty-interval", "tq-unsorted",
            "tq-overlap", "tq-outside-window", "interval-invalid", "link-type-invalid",
            "tq-missing", "tq-no-window", "endpoint-unresolved", "relation-unlisted"} <= rules  # fmt: skip
    assert 0 < sum(entry["written"] is None for entry in expected.values()) < len(CASES)


@pytest.mark.parametrize("name,text", CASES, ids=[name for name, _ in CASES])
def test_walk_reproduces_pinned_findings(name, text):
    expected = _expected()[name]
    assert record(text) == expected
    for level, strict in (("lenient", False), ("strict", True)):  # the building walk reports the same
        report, _ = check_netsjson(io.StringIO(text), strict=strict)
        assert [[f.severity.value, f.rule, f.location, f.message] for f in report.findings] == expected[level]


if __name__ == "__main__":
    for name, text in CASES:
        print(json.dumps({"name": name, **record(text)}, ensure_ascii=False))
