"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. All comparisons are exact; the formats carry no tolerances.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import time

import pytest

import oracles
from conftest import DATA, normalize_layout
from corpus import CORPUS, corpus_path
from netconv import (
    Level,
    TemporalQuantity,
    canonical_order,
    check_temporal,
    defactorize_network,
    factorize_network,
    network_stats,
    network_to_tables,
    parse_netsjson,
    read_link_table,
    read_node_table,
    read_pajek_net,
    tables_to_network,
    tq_value_at,
    validate_netsjson_document,
    write_netsjson,
    write_pajek_clu,
    write_pajek_net,
    write_table,
)
from netconv.cli import main


def ok(n: int, text: str) -> None:
    print(f"\nCRITERION {n}: PASS - {text}")


def test_criterion_1_golden_net(tmp_path):
    """csv -> net conversion reproduces the golden NET file byte-for-byte
    after layout normalization, in under a second."""
    nodes = tmp_path / "bibNodes.csv"
    links = tmp_path / "bibLinks.csv"
    out = tmp_path / "bib.net"
    shutil.copy(DATA / "bibNodes.csv", nodes)
    shutil.copy(DATA / "bibLinks.csv", links)

    started = time.perf_counter()
    status = main(
        [
            "convert",
            "--from",
            "csv",
            "--to",
            "net",
            "--base",
            "1",
            "--directed",
            "--nodes",
            str(nodes),
            "--links",
            str(links),
            "-o",
            str(out),
        ]
    )
    elapsed = time.perf_counter() - started
    assert status == 0
    produced = normalize_layout(out.read_text(encoding="utf-8"))
    golden = normalize_layout((DATA / "bib.golden.net").read_text(encoding="utf-8"))
    assert produced == golden
    assert elapsed < 1.0, f"conversion took {elapsed:.3f}s"
    ok(1, f"golden NET file matched byte-for-byte after normalization ({elapsed:.3f}s)")


def test_criterion_2_counts(bib_canonical):
    """The fixture yields exactly the declared counts and sorted relations."""
    assert network_stats(bib_canonical) == (16, 19, 0, 5, 6)
    assert bib_canonical.relations.levels == (
        "authorOf",
        "cites",
        "containedIn",
        "editorOf",
        "publishedBy",
    )
    declarations = [
        line
        for line in write_pajek_net(bib_canonical).splitlines()
        if line.startswith("*arcs :")
    ]
    assert declarations == [
        '*arcs :1 "authorOf"',
        '*arcs :2 "cites"',
        '*arcs :3 "containedIn"',
        '*arcs :4 "editorOf"',
        '*arcs :5 "publishedBy"',
    ]
    ok(2, "16 nodes, 19 arcs, 0 edges, 5 sorted relations, 6 modes")


def test_criterion_3_partition_goldens(bib_network, bib_node_table):
    """Mode and sex partitions match the pre-built brute-force oracle."""
    for prop, missing in (("mode", 0), ("sex", 0)):
        column = bib_node_table.column(prop)
        levels = oracles.sorted_levels(column)
        expected = tuple(oracles.positional_encode(column, levels, 1, missing))
        legend, _, *values = write_pajek_clu(bib_network, prop).splitlines()
        assert tuple(map(int, values)) == expected
        assert legend == "% " + " ".join(f"{code} {level}" for code, level in enumerate(levels, 1))
    legend, _, *values = write_pajek_clu(bib_network, "sex").splitlines()
    assert legend == "% 1 f 2 m"
    assert values[6:] == ["0"] * 10
    ok(3, "mode and sex partitions equal the brute-force oracle; missing -> 0")


def test_criterion_4_round_trip_suite():
    """>= 500 random networks (up to 200 nodes/links) survive every
    format round trip with exact structural equality; NET text also when
    its labels repeat and when its sections open under bare headers."""
    from netgen import (
        random_csv_network,
        random_json_network,
        random_labeled_network,
        random_pajek_network,
        with_bare_headers,
    )

    rng = random.Random(20240601)
    per_kind = 140
    total = 0

    for _ in range(per_kind):
        net = random_csv_network(rng, 200, 200)
        node_t, link_t = network_to_tables(net)
        sink_n, sink_l = io.StringIO(), io.StringIO()
        write_table(node_t, sink_n)
        write_table(link_t, sink_l)
        back = tables_to_network(
            read_node_table(io.StringIO(sink_n.getvalue())),
            read_link_table(io.StringIO(sink_l.getvalue())),
            directed=net.info.directed,
            base=net.info.org,
        )
        assert back == net
        total += 1

    for _ in range(per_kind):
        net = random_json_network(rng, 200, 200)
        doc = write_netsjson(net)
        assert parse_netsjson(io.StringIO(doc)) == net
        total += 1

    for _ in range(per_kind):
        net, with_coords = random_pajek_network(rng, 200, 200, shared_labels=0.2)
        written = write_pajek_net(net, coordinates=with_coords)
        # NET labels an unlabeled node by its name
        named = net._replace(nodes=tuple(n._replace(lab=n.lab or str(n.id)) for n in net.nodes))
        for text in (written, with_bare_headers(rng, written)):
            back = defactorize_network(read_pajek_net(io.StringIO(text)))
            assert back == canonical_order(defactorize_network(named))
        total += 1

    for _ in range(per_kind):
        net = random_labeled_network(rng, 200, 200)
        assert defactorize_network(factorize_network(net, net.info.org)) == net
        total += 1

    assert total >= 500
    ok(4, f"{total} random networks round-tripped exactly across all four trips")


def test_criterion_5_temporal_suite():
    """check_temporal enforces the tq invariants; tq_value_at agrees with a
    linear-scan oracle on >= 10^4 random probes."""
    from netconv import NodeRecord, TimeWindow, make_network

    def with_window(triples, window=(1, 10)):
        net = make_network(
            [NodeRecord(id="a", lab="a", tq=TemporalQuantity(tuple(triples)))], []
        )
        return net._replace(info=net.info._replace(time=TimeWindow(*window)))

    assert check_temporal(with_window([(1, 5, 1)])).findings == ()
    cases = {
        "tq-empty-interval": [(5, 5, 1)],
        "tq-unsorted": [(4, 6, 1), (1, 3, 2)],
        "tq-overlap": [(1, 5, 1), (3, 8, 2)],
        "tq-outside-window": [(1, 12, 1)],
    }
    for rule, triples in cases.items():
        report = check_temporal(with_window(triples))
        assert rule in {f.rule for f in report.findings}, rule

    rng = random.Random(31337)
    probes = 0
    while probes < 10_500:
        triples = []
        t = rng.randint(-40, 0)
        for _ in range(rng.randint(0, 7)):
            s = t + rng.randint(0, 5)
            f = s + rng.randint(1, 7)
            triples.append((s, f, rng.choice(["v", 1, 2.5, True])))
            t = f + rng.randint(0, 3)
        tq = TemporalQuantity(tuple(triples))
        for _ in range(25):
            at = rng.randint(-50, 60)
            assert tq_value_at(tq, at) == oracles.tq_value_scan(triples, at)
            probes += 1
    ok(5, f"tq invariants enforced; {probes} probes agree with the linear oracle")


def test_criterion_6_netsjson_normal_form():
    """write . parse . write == write over a corpus including the hand-built
    temporal document exercising every basic-format member."""
    from netgen import random_json_network

    docs = [
        (DATA / "temporal_full.json").read_text(encoding="utf-8"),
        json.dumps(
            {"netsJSON": "basic", "info": {}, "nodes": [], "links": []}
        ),
    ]
    with open(DATA / "bibNodes.csv", encoding="utf-8", newline="") as n_stream:
        nodes = read_node_table(n_stream)
    with open(DATA / "bibLinks.csv", encoding="utf-8", newline="") as l_stream:
        links = read_link_table(l_stream)
    bib = canonical_order(tables_to_network(nodes, links))
    docs.append(write_netsjson(bib))
    docs.append(write_netsjson(factorize_network(bib, 1), pretty=True))
    rng = random.Random(808)
    for _ in range(25):
        docs.append(write_netsjson(random_json_network(rng, 60, 60)))

    checked = 0
    for raw in docs:
        for pretty in (False, True):
            once = write_netsjson(parse_netsjson(io.StringIO(raw)), pretty=pretty)
            twice = write_netsjson(parse_netsjson(io.StringIO(once)), pretty=pretty)
            assert twice == once
            checked += 1
    # The hand-built document exercises every member, including node/link tq.
    full = parse_netsjson(io.StringIO(docs[0]))
    assert full.info.time is not None and full.info.time.t_labs
    assert full.info.meta and full.info.created and full.info.modified
    assert all(n.tq is not None for n in full.nodes)
    assert all(l.tq is not None for l in full.links)
    ok(6, f"serialization is a normal form on {checked} document/mode pairs")


def test_criterion_7_validator_corpus(capsys):
    """>= 20 corrupted documents: designated finding, designated exit code,
    deterministic reports, and strict-error-superset monotonicity."""
    assert len(CORPUS) >= 20
    for rule, (lenient_exit, strict_exit) in CORPUS.items():
        path = corpus_path(rule)
        runs = {}
        for level, expected in (("lenient", lenient_exit), ("strict", strict_exit)):
            capsys.readouterr()
            status = main(
                ["validate", str(path), "--level", level, "--report", "json"]
            )
            err = capsys.readouterr().err
            assert status == expected, f"{rule} at {level}: exit {status} != {expected}"
            capsys.readouterr()
            again = main(["validate", str(path), "--level", level, "--report", "json"])
            err2 = capsys.readouterr().err
            assert (status, err) == (again, err2), f"{rule} at {level}: nondeterministic"
            runs[level] = [json.loads(line) for line in err.splitlines() if line]
        strict_rules = {f["rule"] for f in runs["strict"]}
        assert rule in strict_rules, f"{rule}: designated finding absent"
        lenient_errors = {
            (f["rule"], f["location"]) for f in runs["lenient"] if f["severity"] == "error"
        }
        strict_errors = {
            (f["rule"], f["location"]) for f in runs["strict"] if f["severity"] == "error"
        }
        assert lenient_errors <= strict_errors, f"{rule}: monotonicity violated"
    ok(7, f"{len(CORPUS)} corrupted documents hit their rules and exit codes")
