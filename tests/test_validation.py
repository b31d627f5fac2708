from __future__ import annotations

import ast
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from corpus import CORPUS, corpus_path
from conftest import DATA, deadline
from netconv import (
    Level,
    LinkKind,
    LinkRecord,
    NetconvError,
    NodeRecord,
    RULES,
    TemporalQuantity,
    TimeWindow,
    check_all,
    check_network,
    check_temporal,
    make_network,
    netsjson,
    parse_netsjson,
    validate_netsjson_document,
    validation,
    write_netsjson,
)
from test_netsjson import resolve_json_path


def rules_of(report):
    return [f.rule for f in report.findings]


def simple_net(**info_changes):
    net = make_network(
        [NodeRecord(id="a", lab="a"), NodeRecord(id="b", lab="b")],
        [LinkRecord(kind=LinkKind.ARC, n1="a", n2="b", rel="r")],
    )
    if info_changes:
        net = net._replace(info=net.info._replace(**info_changes))
    return net


class TestCheckNetwork:
    def test_bibliographic_fixture_clean(self, bib_network):
        for level in Level:
            assert check_network(bib_network, level).findings == ()

    def test_empty_clean(self):
        assert check_network(make_network([], [])).findings == ()

    def test_simple_flag_with_parallel_arcs(self):
        net = make_network(
            [NodeRecord(id="1", lab="1"), NodeRecord(id="2", lab="2")],
            [
                LinkRecord(kind=LinkKind.ARC, n1="1", n2="2", rel="authorOf"),
                LinkRecord(kind=LinkKind.ARC, n1="1", n2="2", rel="authorOf"),
            ],
        )
        net = net._replace(info=net.info._replace(simple=True))
        assert "simple-violated" in rules_of(check_network(net))

    def test_parallel_edges_compare_unordered(self):
        net = make_network(
            [NodeRecord(id="1", lab="1"), NodeRecord(id="2", lab="2")],
            [
                LinkRecord(kind=LinkKind.EDGE, n1="1", n2="2", rel="r"),
                LinkRecord(kind=LinkKind.EDGE, n1="2", n2="1", rel="r"),
            ],
            directed=False,
        )
        net = net._replace(info=net.info._replace(simple=True))
        assert "simple-violated" in rules_of(check_network(net))

    def test_reversed_arcs_and_an_edge_are_not_parallel(self):
        links = [
            LinkRecord(kind=LinkKind.ARC, n1="1", n2="2", rel="r"),
            LinkRecord(kind=LinkKind.ARC, n1="2", n2="1", rel="r"),
            LinkRecord(kind=LinkKind.EDGE, n1="1", n2="2", rel="r"),
        ]
        net = make_network([NodeRecord(id="1", lab="1"), NodeRecord(id="2", lab="2")], links)
        assert net.info.simple is True  # make_network derives the flag from the same key
        assert "simple-violated" not in rules_of(check_network(net))
        report = validate_netsjson_document(io.StringIO(write_netsjson(net)))
        assert "simple-violated" not in rules_of(report)

    def test_multirel_flag(self):
        net = make_network(
            [NodeRecord(id="a", lab="a"), NodeRecord(id="b", lab="b")],
            [
                LinkRecord(kind=LinkKind.ARC, n1="a", n2="b", rel="r"),
                LinkRecord(kind=LinkKind.ARC, n1="a", n2="b", rel="s"),
            ],
        )
        net = net._replace(info=net.info._replace(multirel=False))
        assert "multirel-violated" in rules_of(check_network(net))

    def test_directed_with_edges_warns(self):
        net = make_network(
            [NodeRecord(id="a", lab="a"), NodeRecord(id="b", lab="b")],
            [LinkRecord(kind=LinkKind.EDGE, n1="a", n2="b", rel="r")],
            directed=True,
        )
        report = check_network(net)
        assert "directed-kind-mismatch" in rules_of(report)
        assert not report.has_errors

    def test_org_and_mode(self):
        assert "org-invalid" in rules_of(check_network(simple_net(org=3)))
        assert "mode-invalid" in rules_of(check_network(simple_net(mode=0)))

    def test_dates(self):
        assert "date-invalid" in rules_of(check_network(simple_net(created="never")))
        assert "dates-order" in rules_of(check_network(simple_net(modified="2020-01-01")))
        bad = simple_net(created="2021-01-01", modified="2020-01-01")
        assert "dates-order" in rules_of(check_network(bad))


class TestCheckTemporal:
    def window_net(self, tq_triples, window=(1, 10)):
        tq = TemporalQuantity(tuple(tq_triples))
        net = make_network([NodeRecord(id="a", lab="a", tq=tq)], [])
        return net._replace(info=net.info._replace(time=TimeWindow(*window)))

    def test_contained_tq_clean(self):
        assert check_temporal(self.window_net([(1, 5, 1)])).findings == ()

    def test_empty_interval(self):
        assert "tq-empty-interval" in rules_of(check_temporal(self.window_net([(5, 5, 1)])))

    def test_overlap_matches_oracle(self):
        triples = [(1, 5, 1), (3, 8, 2)]
        assert oracles.tq_overlaps(triples)
        assert "tq-overlap" in rules_of(check_temporal(self.window_net(triples)))

    def test_unsorted(self):
        report = check_temporal(self.window_net([(4, 6, 1), (1, 3, 2)]))
        assert "tq-unsorted" in rules_of(report)

    def test_outside_window(self):
        report = check_temporal(self.window_net([(1, 12, 1)]))
        assert "tq-outside-window" in rules_of(report)

    def test_no_window_warns(self):
        net = make_network(
            [NodeRecord(id="a", lab="a", tq=TemporalQuantity(((1, 2, 1),)))], []
        )
        report = check_temporal(net)
        assert rules_of(report) == ["tq-no-window"]
        assert not report.has_errors

    def test_strict_requires_tq(self):
        net = self.window_net([(1, 5, 1)])
        net = net._replace(nodes=net.nodes + (NodeRecord(id="b", lab="b"),))
        assert "tq-missing" in rules_of(check_temporal(net, Level.STRICT))
        assert "tq-missing" not in rules_of(check_temporal(net, Level.LENIENT))

    @staticmethod
    def assert_tq_matches_oracle(triples, window):
        """The tq findings of ``check_temporal`` and of the NetsJSON walk are
        those of the all-pairs oracle, in order."""

        def tq_findings(report, loc):
            assert all(f.severity.value == "error" for f in report.findings if loc in f.location)
            return [(f.rule, f.location, f.message) for f in report.findings if loc in f.location]

        expected = oracles.tq_bounds_findings(triples, "$.nodes[0].tq", window)
        net = make_network([NodeRecord(id="a", lab="a", tq=TemporalQuantity(tuple(triples)))], [])
        info = {}
        if window is not None:
            net = net._replace(info=net.info._replace(time=TimeWindow(*window)))
            info["time"] = {"Tmin": window[0], "Tmax": window[1]}
        assert tq_findings(check_temporal(net), "$.nodes[0].tq") == expected
        doc = {"netsJSON": "basic", "info": info, "nodes": [{"id": "a", "tq": triples}]}
        doc["links"] = []
        report = validate_netsjson_document(io.StringIO(json.dumps(doc)))
        assert tq_findings(report, "$.nodes[0].tq") == expected

    @given(
        st.lists(st.tuples(st.integers(-4, 8), st.integers(-4, 8), st.integers(0, 2)), max_size=40),
        st.booleans(),
        st.none() | st.tuples(st.integers(-3, 3), st.integers(2, 8)),
    )
    @settings(max_examples=400)
    @example([(1, 3, 0), (3, 5, 0), (4, 6, 0)], False, None)  # touching intervals do not overlap
    @example([(1, 5, 0), (2, 2, 0), (3, 4, 0)], False, None)  # empty interval between a pair
    @example([(1, 1, 0), (1, 3, 0), (1, 4, 0)], False, (1, 3))  # equal starts, one empty
    @example([(6, 8, 0), (1, 7, 0), (-2, 2, 0), (0, 1, 0)], False, (0, 8))  # unsorted
    def test_tq_findings_match_all_pairs_oracle(self, triples, by_start, window):
        """The tq check gives the all-pairs scan's findings in order, on
        model values and on raw JSON alike."""
        if by_start:
            triples = sorted(triples, key=lambda t: t[0])
        self.assert_tq_matches_oracle(triples, window)

    @given(
        st.lists(st.tuples(st.integers(-1, 3), st.integers(-1, 3)), max_size=40),
        st.lists(st.integers(0, 39), max_size=4),
        st.none() | st.tuples(st.integers(-3, 3), st.integers(10, 80)),
    )
    @settings(max_examples=200)
    def test_tq_chain_findings_match_all_pairs_oracle(self, steps, swaps, window):
        """Chains of intervals that mostly follow one another: disjoint,
        touching, empty or reversed (a length of -1), now and then reaching
        back into the one before (a gap of -1), with a few adjacent triples
        swapped: long unsorted runs whose first overlap may lie far down."""
        triples, end = [], 0
        for gap, length in steps:
            start = end + gap
            end = start + max(length, 0)
            triples.append((start, start + length, 0))
        for k in swaps:
            if k + 1 < len(triples):
                triples[k], triples[k + 1] = triples[k + 1], triples[k]
        self.assert_tq_matches_oracle(triples, window)

    def test_long_unsorted_tq_is_checked_in_linearithmic_time(self):
        """20,000 disjoint triples with the first two swapped: unsorted, no
        overlap. An all-pairs scan takes minutes here."""
        triples = [[2 * k, 2 * k + 1, k] for k in range(20000)]
        triples[0], triples[1] = triples[1], triples[0]
        doc = {"netsJSON": "basic", "info": {"time": {"Tmin": 0, "Tmax": 40000}},
               "nodes": [{"id": "a", "tq": triples}], "links": []}
        with deadline(20):
            started = time.perf_counter()
            report = validate_netsjson_document(io.StringIO(json.dumps(doc)))
            elapsed = time.perf_counter() - started
        assert [(f.rule, f.location) for f in report.findings] == [
            ("tq-unsorted", "$.nodes[0].tq")
        ]
        assert elapsed < 1  # about 0.05 s, JSON decoding included

    def test_tlabs_outside_window(self):
        net = make_network([], [])
        net = net._replace(info=net.info._replace(time=TimeWindow(1, 5, {9: "late"})))
        assert "tlab-outside-window" in rules_of(check_temporal(net))


class TestReportProperties:
    def test_deterministic(self, bib_network):
        net = simple_net(org=5, mode=0)
        first = check_all(net, Level.STRICT)
        second = check_all(net, Level.STRICT)
        assert first == second

    def test_every_rule_registered(self):
        for rule in CORPUS:
            assert rule in RULES

    def test_strict_errors_superset_on_corpus(self):
        for rule in CORPUS:
            text = corpus_path(rule).read_text(encoding="utf-8")
            lenient = validate_netsjson_document(io.StringIO(text), strict=False)
            strict = validate_netsjson_document(io.StringIO(text), strict=True)
            lenient_errors = {(f.rule, f.location) for f in lenient.errors}
            strict_errors = {(f.rule, f.location) for f in strict.errors}
            assert lenient_errors <= strict_errors, rule

    def test_strict_locators_resolve_across_corpus(self):
        import json

        from test_netsjson import resolve_json_path

        for rule in CORPUS:
            text = corpus_path(rule).read_text(encoding="utf-8")
            try:
                doc = json.loads(text)
            except json.JSONDecodeError:
                continue  # unparseable input has nothing to resolve against
            report = validate_netsjson_document(io.StringIO(text), strict=True)
            for finding in report.findings:
                resolve_json_path(doc, finding.location)

    def test_strict_clean_network_round_trips_without_new_findings(self, bib_canonical):
        import io as _io

        from netconv import (
            defactorize_network,
            network_to_tables,
            parse_netsjson,
            read_link_table,
            read_node_table,
            read_pajek_net,
            tables_to_network,
            write_netsjson,
            write_pajek_net,
            write_table,
        )

        assert check_all(bib_canonical, Level.STRICT).findings == ()

        via_json = parse_netsjson(_io.StringIO(write_netsjson(bib_canonical)))
        via_net = read_pajek_net(_io.StringIO(write_pajek_net(bib_canonical)))
        nt, lt = network_to_tables(bib_canonical)
        sink_n, sink_l = _io.StringIO(), _io.StringIO()
        write_table(nt, sink_n)
        write_table(lt, sink_l)
        via_csv = tables_to_network(
            read_node_table(_io.StringIO(sink_n.getvalue())),
            read_link_table(_io.StringIO(sink_l.getvalue())),
            directed=True,
        )
        for net in (via_json, via_net, defactorize_network(via_net), via_csv):
            assert check_all(net, Level.STRICT).findings == ()

    def test_renderers(self):
        report = check_network(simple_net(org=3))
        assert "[org-invalid]" in report.to_text()
        import json

        line = json.loads(report.to_json_lines().splitlines()[0])
        assert line["rule"] == "org-invalid" and line["severity"] == "error"

    def test_unregistered_rule_rejected(self):
        from netconv import Finding, Severity

        with pytest.raises(ValueError):
            Finding(Severity.ERROR, "made-up-rule", "x", "y")


# The rules about the network itself: coded once, in validation.Checker.
NETWORK_RULES = {
    "org-invalid", "mode-invalid", "date-invalid", "dates-order", "event-date-invalid",
    "event-title-empty", "time-window-invalid", "tlab-outside-window", "id-invalid",
    "id-duplicate", "id-kind-mixed", "slab-longer-than-label", "node-unlisted",
    "endpoint-unresolved", "relation-unlisted", "multirel-violated", "simple-violated",
    "directed-kind-mismatch", "tq-no-window", "tq-missing",
}  # fmt: skip
# Rules the NetsJSON walk reports that no network can break on its own.
DOCUMENT_ONLY_RULES = {"count-nodes-mismatch", "count-links-mismatch", "dates-missing"}


def emitted_rules(module) -> set[str]:
    """Registered rule ids a module passes to ``Finding`` or an ``err`` helper."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    found = set()
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name in ("Finding", "err"):
                found |= {a.value for a in call.args if isinstance(a, ast.Constant) and a.value in RULES}
    return found


class TestEachRuleCodedOnce:
    def test_walk_and_checker_emit_disjoint_rules(self):
        walk, checker = emitted_rules(netsjson), emitted_rules(validation)
        assert not walk & checker
        assert NETWORK_RULES <= checker
        assert walk | checker == set(RULES)

    def test_check_all_locators_resolve_against_netsjson_form(self):
        """On every corpus document the parser accepts, check_all cites $. paths
        into the parsed network's NetsJSON form, and finds the document's rule
        unless only a document can break it."""
        for path in [corpus_path(rule) for rule in CORPUS] + [DATA / "temporal_full.json"]:
            try:
                network = parse_netsjson(io.StringIO(path.read_text(encoding="utf-8")))
            except NetconvError:
                continue
            doc = json.loads(write_netsjson(network))
            report = check_all(network, Level.STRICT)
            for finding in check_all(network, Level.LENIENT).findings + report.findings:
                resolve_json_path(doc, finding.location)
            if path.stem in CORPUS and path.stem not in DOCUMENT_ONLY_RULES:
                assert path.stem in rules_of(report), path.name

    def test_hand_built_network_cites_netsjson_paths(self):
        net = make_network(
            [NodeRecord(id="a", lab="a", slab="abcd"), NodeRecord(id="b", lab="b")],
            [
                LinkRecord(kind=LinkKind.ARC, n1="a", n2="b", rel="r"),
                LinkRecord(kind=LinkKind.EDGE, n1="b", n2="a", rel="r"),
            ],
        )
        report = check_all(net._replace(info=net.info._replace(created="2020-13-01")))
        assert report.to_text().splitlines() == [
            "error: [date-invalid] $.info.created: '2020-13-01' is not an ISO date",
            "error: [slab-longer-than-label] $.nodes[0].slab: short label longer than label",
            "warning: [directed-kind-mismatch] $.links: directed network contains edges",
        ]
