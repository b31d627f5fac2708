from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import outcome
from netconv import (
    CodingTable,
    InfoBlock,
    LinkKind,
    LinkRecord,
    NetconvError,
    Network,
    NodeRecord,
    StructuralError,
    TemporalQuantity,
    canonical_order,
    check_network,
    make_network,
    network_stats,
    tq_value_at,
    write_netsjson,
)


def net_of(names, link_triples, directed=True):
    nodes = [NodeRecord(id=n, lab=n) for n in names]
    kind = LinkKind.ARC if directed else LinkKind.EDGE
    links = [LinkRecord(kind=kind, n1=a, n2=b, rel=r) for a, r, b in link_triples]
    return make_network(nodes, links, directed=directed)


class TestNetworkStats:
    def test_bibliographic_fixture(self, bib_network):
        assert network_stats(bib_network) == (16, 19, 0, 5, 6)

    def test_empty(self):
        assert network_stats(Network()) == (0, 0, 0, 0, 1)

    def test_single_edge(self):
        net = net_of(["a", "b"], [("a", "knows", "b")], directed=False)
        assert network_stats(net) == (2, 0, 1, 1, 1)

    def test_dangling_endpoint_counted_reported_and_refused(self):
        # counting checks nothing; check_network reports the endpoint, make_network refuses it
        net = Network(
            nodes=(NodeRecord(id="a", lab="a"),),
            links=(LinkRecord(kind=LinkKind.ARC, n1="a", n2="ghost", rel="r"),),
            relations=CodingTable("relation", ("r",)),
        )
        assert network_stats(net) == (1, 1, 0, 1, 1)
        findings = check_network(net).findings
        assert [(f.rule, f.location) for f in findings] == [("endpoint-unresolved", "$.links[0].n2")]
        assert '"n2":"ghost"' in write_netsjson(net)
        with pytest.raises(StructuralError) as caught:
            make_network(net.nodes, net.links)
        assert str(caught.value) == "link 0 references unknown node ('a', 'ghost')"

    def test_counters_reconciled_by_make_network(self, bib_network):
        # A given info block is kept as it is; the counts come from the lists.
        info = InfoBlock(title="bib", simple=True)
        net = make_network(bib_network.nodes, bib_network.links, info=info)
        assert net.info == info
        assert network_stats(net)[:3] == (16, 19, 0)


class TestTqValueAt:
    def test_inside_single_interval(self):
        tq = TemporalQuantity(((1, 5, 2.0),))
        assert tq_value_at(tq, 3) == 2.0

    def test_half_open_right_endpoint(self):
        tq = TemporalQuantity(((1, 5, 2.0),))
        assert tq_value_at(tq, 5) is None

    def test_gap_between_intervals(self):
        triples = ((1, 3, 1), (4, 6, 7))
        expected = oracles.tq_value_scan(triples, 3)
        assert expected is None
        assert tq_value_at(TemporalQuantity(triples), 3) is None

    def test_empty_absent_everywhere(self):
        tq = TemporalQuantity()
        for t in range(-5, 6):
            assert tq_value_at(tq, t) is None

    def test_agrees_with_linear_scan(self):
        rng = random.Random(7)
        for _ in range(300):
            triples = []
            t = rng.randint(-50, 0)
            for _ in range(rng.randint(0, 6)):
                s = t + rng.randint(0, 4)
                f = s + rng.randint(1, 6)
                triples.append((s, f, rng.randint(0, 99)))
                t = f
            tq = TemporalQuantity(tuple(triples))
            for _ in range(20):
                probe = rng.randint(-60, 60)
                assert tq_value_at(tq, probe) == oracles.tq_value_scan(triples, probe)

    @given(st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 8)), max_size=6))
    def test_coverage_equals_interval_lengths(self, raw):
        # Build a valid (sorted, disjoint) quantity from offsets.
        triples = []
        t = None
        for start, span in sorted(raw):
            s = start if t is None else max(start, t)
            triples.append((s, s + span, 1))
            t = s + span
        tq = TemporalQuantity(tuple(triples))
        total = sum(f - s for s, f, _ in triples)
        assert total == oracles.tq_covered_points(triples)
        if triples:
            lo = min(s for s, _, _ in triples)
            hi = max(f for _, f, _ in triples)
            covered = sum(1 for t in range(lo, hi) if tq_value_at(tq, t) is not None)
            assert covered == total


class TestCanonicalOrder:
    def test_two_element_sort(self):
        net = net_of(["a", "b"], [("a", "cites", "b"), ("a", "authorOf", "b")])
        assert canonical_order(net).relations.levels == ("authorOf", "cites")

    def test_idempotent(self, bib_network):
        once = canonical_order(bib_network)
        assert canonical_order(once) == once

    def test_bibliographic_relation_coding(self, bib_canonical):
        assert bib_canonical.relations.levels == (
            "authorOf",
            "cites",
            "containedIn",
            "editorOf",
            "publishedBy",
        )

    def test_preserves_node_and_link_order(self, bib_network):
        ordered = canonical_order(bib_network)
        assert [n.id for n in ordered.nodes] == [n.id for n in bib_network.nodes]
        assert [(l.n1, l.n2) for l in ordered.links] == [
            (l.n1, l.n2) for l in bib_network.links
        ]

    def test_remaps_coded_relations(self):
        # Unsorted coded table: b=1, a=2; sorting must flip the codes.
        net = Network(
            nodes=(NodeRecord(id=1, lab="x"), NodeRecord(id=2, lab="y")),
            links=(
                LinkRecord(kind=LinkKind.ARC, n1=1, n2=2, rel=1),
                LinkRecord(kind=LinkKind.ARC, n1=2, n2=1, rel=2),
            ),
            relations=CodingTable("relation", ("b", "a"), 1),
            node_coding=CodingTable("node", ("x", "y"), 1),
        )
        ordered = canonical_order(net)
        assert ordered.relations.levels == ("a", "b")
        assert [l.rel for l in ordered.links] == [2, 1]

    @pytest.mark.parametrize("org, rels, codes", [
        (1, [3], [1]),  # a table based above org
        (1, [0, 2], [1, 3]),  # below org
        (0, [2, 4], [0, 2]),  # above org, with a gap
    ])  # fmt: skip
    def test_coded_relation_table_rebased_at_org(self, org, rels, codes):
        nodes = [NodeRecord(org), NodeRecord(org + 1)]
        links = [LinkRecord(LinkKind.ARC, org, org + 1, r) for r in rels]
        net = make_network(nodes, links, org=org)
        ordered = canonical_order(net)
        assert ordered.relations == CodingTable("relation", net.relations.levels, org)
        assert [l.rel for l in ordered.links] == codes
        assert canonical_order(ordered) == ordered


class TestMakeNetwork:
    def test_node_table_kept_only_on_coded_ids(self):
        table = CodingTable("node", ("x", "y"), 0)
        labeled = make_network([NodeRecord("x"), NodeRecord("y")], [], org=0, node_coding=table)
        coded = make_network([NodeRecord(0), NodeRecord(1)], [], org=0, node_coding=table)
        assert labeled.node_coding == make_network([], [], org=0).node_coding
        assert labeled.node_coding == CodingTable("node", (), 0)
        assert coded.node_coding == table

    @pytest.mark.parametrize("org, ids, levels", [
        (1, [1, 2], ("1", "2")),
        (0, [1, 0], ("0", "1")),  # each code from org, named by itself
        (1, [3, 2], ()),  # code 1 unused: no table
        (1, [1, 10**9], ()),  # a gap: no table, whose size would follow the largest code
    ])  # fmt: skip
    def test_coded_ids_without_a_node_table_get_one_when_contiguous(self, org, ids, levels):
        net = make_network([NodeRecord(i) for i in ids], [], org=org)
        assert net.node_coding == CodingTable("node", levels, org)

    def test_duplicate_node_ids_rejected(self):
        nodes = [NodeRecord(id="a", lab="a"), NodeRecord(id="a", lab="a2")]
        with pytest.raises(StructuralError, match="duplicate"):
            make_network(nodes, [])

    @pytest.mark.parametrize(
        "ids, listed",
        [
            (["m", "b", "z", "b", "m", "q", "m", "a", "z"], "b, m, z"),
            ([2, 10, 2, 10, 10, 3], "10, 2"),  # sorted as text, each id once
        ],
    )
    def test_duplicate_message_lists_each_id_once_sorted(self, ids, listed):
        nodes = [NodeRecord(id=i, lab=f"n{k}") for k, i in enumerate(ids)]
        with pytest.raises(StructuralError) as excinfo:
            make_network(nodes, [])
        assert str(excinfo.value) == f"duplicate node identifier(s): {listed}"

    @pytest.mark.parametrize(
        "ids, rels, levels, base",
        [
            (["a", "b"], ["s", "r"], ("r", "s"), 1),  # names: sorted
            ([1, 2], [4, 2], ("2", "3", "4"), 2),  # codes: each code names itself
            ([1, 2], [], (), 1),
        ],
    )
    def test_relations_derived_by_relation_type(self, ids, rels, levels, base):
        nodes = [NodeRecord(id=i, lab=str(i)) for i in ids]
        links = [LinkRecord(LinkKind.ARC, ids[0], ids[1], r) for r in rels]
        relations = make_network(nodes, links).relations
        assert (relations.levels, relations.base) == (levels, base)

    @pytest.mark.parametrize("rels", [[None], ["r", None], ["r", 2], [True]])
    def test_missing_or_mixed_relation_rejected(self, rels):
        nodes = [NodeRecord(id="a", lab="a"), NodeRecord(id="b", lab="b")]
        links = [LinkRecord(LinkKind.ARC, "a", "b", r) for r in rels]
        with pytest.raises(StructuralError, match="all names or all integer codes"):
            make_network(nodes, links)

    @pytest.mark.parametrize(
        "ids, rels",
        [([1, 2], ["s", "r"]), (["a", "b"], [2]), ([1, 2], [2, True])],
        ids=["names-on-codes", "code-on-names", "bool-on-codes"],
    )
    def test_relation_of_other_identifier_form_rejected(self, ids, rels):
        nodes = [NodeRecord(id=i, lab=str(i)) for i in ids]
        links = [LinkRecord(LinkKind.ARC, ids[0], ids[1], r) for r in rels]
        with pytest.raises(StructuralError, match="all names or all integer codes"):
            make_network(nodes, links)

    @pytest.mark.parametrize(
        "ids", [["a", 1], [1, "a"], [2, True]], ids=["code-after-name", "name-after-code", "bool"]
    )
    def test_node_ids_of_both_forms_rejected(self, ids):
        nodes = [NodeRecord(id=i) for i in ids]
        links = [LinkRecord(LinkKind.ARC, ids[0], ids[1], "r" if ids[0] == "a" else 1)]
        with pytest.raises(StructuralError, match="node identifiers must be all names or all integer codes"):
            make_network(nodes, links)

    def test_flags_computed_without_info(self):
        net = net_of(["a", "b"], [("a", "r", "b"), ("a", "s", "b")])
        assert net.info.multirel is True
        assert net.info.simple is True
        net2 = net_of(["a", "b"], [("a", "r", "b"), ("a", "r", "b")])
        assert net2.info.simple is False


def make_network_case(rng: random.Random) -> tuple[list, list, dict]:
    """Records and keywords for one ``make_network`` call: ids of one form,
    now and then with a repeat, a bool, an empty name or an id of the other
    form; links
    with now and then a dangling endpoint, a bool, empty or other-form
    relation; an org outside {0, 1}; a given or absent info block,
    relation table and node table."""
    coded = rng.random() < 0.5
    names, rels = ([0, 1, 2, 3, 5], [1, 2, 4]) if coded else (["a", "b", "c", "d"], ["r", "s", "t"])
    odd_ids = [True, False, "a", "", 1, 99, "zz"]
    ids = rng.sample(names, rng.randint(0 if rng.random() < 0.1 else 1, len(names)))
    if ids and rng.random() < 0.2:
        ids[rng.randrange(len(ids))] = rng.choice(ids + odd_ids)
    nodes = [NodeRecord(i, mode=rng.choice([None, None, "p", "q"])) for i in ids]
    ends = ids + ["zz", 99] if rng.random() < 0.2 else ids or names
    odd_rels = [True, False, "", None, 1, "r"]
    links = [LinkRecord(rng.choice(list(LinkKind)), rng.choice(ends), rng.choice(ends),
                        rng.choice(odd_rels if rng.random() < 0.05 else rels))
             for _ in range(rng.randint(0, 6))]
    kwargs = {"org": rng.choice([0, 1, 1, 2, -1]), "directed": rng.random() < 0.5}
    if rng.random() < 0.3:
        kwargs["info"] = InfoBlock(org=rng.choice([0, 1, 2]), title="given")
    if rng.random() < 0.3:
        kwargs["relations"] = CodingTable("relation", ("r",), rng.choice([0, 1]))
    if rng.random() < 0.3:
        kwargs["node_coding"] = CodingTable("node", ("x", "y", "z"), rng.choice([0, 1]))
    if rng.random() < 0.1:
        kwargs["property_codings"] = {"kind": CodingTable("kind", ("k",))}
    return nodes, links, kwargs


class TestMakeNetworkMatchesOracle:
    """The one-pass constructor against the multi-pass one it replaced
    (``oracles``): the same network, by ``==`` and by ``repr``, or the same
    error class and message."""

    def test_seeded_cases(self):
        rng = random.Random(22)
        for _ in range(2000):
            nodes, links, kwargs = make_network_case(rng)
            ours = outcome(make_network, nodes, links, **kwargs)
            oracle = outcome(oracles.make_network, nodes, links, **kwargs)
            assert ours == oracle and repr(ours) == repr(oracle), (nodes, links, kwargs)

    def test_true_relation_next_to_code_one(self):
        nodes = [NodeRecord(1), NodeRecord(2)]
        links = [LinkRecord(LinkKind.ARC, 1, 2, 1), LinkRecord(LinkKind.ARC, 2, 1, True)]
        expected = (StructuralError, "link relations must be all names or all integer codes,"
                    " matching the node identifiers")
        assert outcome(make_network, nodes, links) == expected
        assert outcome(oracles.make_network, nodes, links) == expected

    def test_seeded_cases_raise_only_netconv_errors(self):
        rng = random.Random(22)
        for _ in range(2000):
            nodes, links, kwargs = make_network_case(rng)
            result = outcome(make_network, nodes, links, **kwargs)
            assert isinstance(result, Network) or issubclass(result[0], NetconvError), result


class TestEmptyNames:
    """An empty name is refused as a StructuralError, with or without a
    relation table, rather than let out as a ValueError or built into a
    network that no reader accepts."""

    @pytest.mark.parametrize("relations", [None, CodingTable("relation", ("r",))])
    def test_empty_relation(self, relations):
        links = [LinkRecord(LinkKind.ARC, "a", "a", "")]
        expected = (StructuralError, "empty link relation")
        assert outcome(make_network, [NodeRecord("a")], links, relations=relations) == expected
        assert outcome(oracles.make_network, [NodeRecord("a")], links, relations=relations) == expected

    @pytest.mark.parametrize("relations", [None, CodingTable("relation", ("r",))])
    def test_empty_node_id(self, relations):
        nodes = [NodeRecord(""), NodeRecord("b")]
        links = [LinkRecord(LinkKind.ARC, "", "b", "r")]
        expected = (StructuralError, "empty node identifier")
        assert outcome(make_network, nodes, links, relations=relations) == expected
        assert outcome(oracles.make_network, nodes, links, relations=relations) == expected

    def test_empty_node_id_before_relation_form(self):
        nodes = [NodeRecord("")]
        links = [LinkRecord(LinkKind.ARC, "", "", 1)]
        assert outcome(make_network, nodes, links) == (StructuralError, "empty node identifier")
