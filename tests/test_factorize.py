from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import outcome
from netconv import (
    CodingTable,
    LinkKind,
    LinkRecord,
    Network,
    NodeRecord,
    StructuralError,
    build_coding_table,
    canonical_order,
    defactorize_network,
    factorize_network,
    make_network,
    parse_netsjson,
    read_pajek_net,
    write_netsjson,
    write_pajek_net,
)
from netgen import random_json_network, random_labeled_network, random_pajek_network

SEEDS = st.integers(0, 2**32 - 1)
UNUSED_RELATIONS = st.sets(st.text(min_size=1, max_size=3), max_size=3)


class TestFactorize:
    def test_bibliographic_first_link(self, bib_canonical):
        coded = factorize_network(bib_canonical, base=1)
        first = coded.links[0]
        # Batagelj -> Generalized Blockmodeling, authorOf
        assert (first.rel, first.n1, first.n2) == (1, 1, 10)
        assert coded.node_coding.value_of(10) == "Generalized Blockmodeling"
        assert coded.info.org == 1

    def test_empty_network(self):
        coded = factorize_network(Network(), base=1)
        assert coded.nodes == () and coded.links == ()
        assert len(coded.node_coding) == 0 and len(coded.relations) == 0

    def test_base_zero_shifts_codes_by_one(self, bib_canonical):
        one = factorize_network(bib_canonical, base=1)
        zero = factorize_network(bib_canonical, base=0)
        assert [n.id for n in zero.nodes] == [n.id - 1 for n in one.nodes]
        assert [(l.n1, l.n2, l.rel) for l in zero.links] == [
            (l.n1 - 1, l.n2 - 1, l.rel - 1) for l in one.links
        ]
        assert zero.info.org == 0

    def test_coded_property_values_keep_their_levels(self):
        kind = CodingTable("kind", ("paper", "author", "venue"))
        nodes = [NodeRecord(i, props={"kind": v}) for i, v in zip("abcdef", (1, 3, 2, 10, True, "x"))]
        links = [LinkRecord(LinkKind.ARC, "a", "b", "r", props={"kind": 2, "w": 1})]
        net = make_network(nodes, links, property_codings={"kind": kind})
        zero = factorize_network(net, 0)
        assert [n.props["kind"] for n in zero.nodes] == [0, 2, 1, 10, True, "x"]
        assert zero.links[0].props == {"kind": 1, "w": 1}
        assert zero.property_codings["kind"].value_of(zero.nodes[0].props["kind"]) == "paper"
        one = factorize_network(defactorize_network(zero), 1)
        assert [n.props for n in one.nodes] == [n.props for n in net.nodes]
        assert one.links[0].props == links[0].props

    def test_labels_preserved(self, bib_canonical):
        coded = factorize_network(bib_canonical, base=1)
        assert coded.nodes[0].lab == "Batagelj, Vladimir"
        assert coded.nodes[0].id == 1

    def test_already_factorized_rejected(self, bib_canonical):
        coded = factorize_network(bib_canonical, base=1)
        with pytest.raises(StructuralError):
            factorize_network(coded, base=1)

    def test_bad_base_rejected(self, bib_canonical):
        with pytest.raises(ValueError):
            factorize_network(bib_canonical, base=2)

    def test_duplicate_ids_rejected(self):
        # make_network rejects the duplicate; a network built directly reaches factorize
        net = Network(nodes=(NodeRecord("a"), NodeRecord("b"), NodeRecord("a")))
        with pytest.raises(StructuralError) as excinfo:
            factorize_network(net)
        assert str(excinfo.value) == "duplicate node identifiers prevent factorization"


class TestDefactorize:
    def test_restores_labels(self, bib_canonical):
        coded = factorize_network(bib_canonical, base=1)
        labeled = defactorize_network(coded)
        assert labeled.nodes[9].id == "Generalized Blockmodeling"
        assert labeled == bib_canonical

    def test_empty_network(self):
        assert defactorize_network(Network()) == Network()

    @pytest.mark.parametrize("base", [0, 1])
    def test_node_table_emptied(self, bib_canonical, base):
        labeled = defactorize_network(factorize_network(bib_canonical, base))
        assert labeled.node_coding == CodingTable("node", (), base)

    def test_missing_node_table_names_codes_by_themselves(self):
        net = Network(nodes=(NodeRecord(id=1, lab="a"), NodeRecord(id=10**9)))
        labeled = defactorize_network(net)
        assert labeled.nodes == (NodeRecord(id="1", lab="a"), NodeRecord(id="1000000000"))
        assert labeled.node_coding == CodingTable("node")

    def test_round_trip_identity_random(self):
        rng = random.Random(991)
        for _ in range(40):
            net = random_labeled_network(rng, max_nodes=50, max_links=50)
            assert defactorize_network(factorize_network(net, net.info.org)) == net

    def test_round_trip_other_base_changes_only_org(self):
        rng = random.Random(992)
        for _ in range(10):
            net = random_labeled_network(rng, max_nodes=30, max_links=30)
            if net.info.org != 1:
                continue
            back = defactorize_network(factorize_network(net, 0))
            assert back.info.org == 0
            assert [n.id for n in back.nodes] == [n.id for n in net.nodes]
            assert back.links == net.links


class TestMatchesRecordCopies:
    """The transforms give the networks that copying each record with
    ``_replace`` gives (``oracles``), field for field, so a field
    dropped or swapped in the shared rebuild shows even where it would be
    swapped back on the way home."""

    @given(seed=SEEDS, unused=UNUSED_RELATIONS, base=st.sampled_from((0, 1)))
    @settings(max_examples=100, deadline=None)
    def test_labeled_networks(self, seed, unused, base):
        net = random_labeled_network(random.Random(seed), max_nodes=30, max_links=40)
        declared = [*net.relations.levels, *unused]  # levels no link uses
        net = net._replace(relations=build_coding_table("relation", declared, base=net.info.org))
        coded = factorize_network(net, base)
        assert coded == oracles.factorize_network(net, base)
        assert defactorize_network(coded) == oracles.defactorize_network(coded)
        assert canonical_order(coded) == oracles.canonical_order(coded)
        assert canonical_order(net) == oracles.canonical_order(net)

    @given(seed=SEEDS, unused=UNUSED_RELATIONS)
    @settings(max_examples=100, deadline=None)
    def test_coded_net_networks_with_unsorted_relations(self, seed, unused):
        rng = random.Random(seed)
        text = write_pajek_net(random_pajek_network(rng, 30, 40)[0], coordinates=True)
        coded = read_pajek_net(io.StringIO(text))
        levels = list(dict.fromkeys([*coded.relations.levels, *sorted(unused)]))
        rng.shuffle(levels)
        coded = coded._replace(relations=CodingTable("relation", tuple(levels), coded.relations.base))
        assert canonical_order(coded) == oracles.canonical_order(coded)
        assert defactorize_network(coded) == oracles.defactorize_network(coded)
        # the NET writer sorts the relations itself, in either identifier form
        written = outcome(write_pajek_net, coded)
        assert written == outcome(write_pajek_net, canonical_order(coded))
        assert written == outcome(write_pajek_net, defactorize_network(coded))


class TestNodeTableOnlyWhenFactorized:
    """Only a network whose node ids are codes carries a node table; every
    labeled network a reader or defactorize_network returns carries the
    empty one, based at org."""

    @given(seed=SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_labeled_networks(self, seed):
        net = random_json_network(random.Random(seed), max_nodes=30, max_links=30)
        assert (len(net.node_coding) > 0) == net.is_factorized
        labeled = defactorize_network(net)
        empty = CodingTable("node", (), labeled.info.org)
        assert labeled.node_coding == empty
        assert parse_netsjson(io.StringIO(write_netsjson(labeled))).node_coding == empty

    def test_tables(self, bib_network):
        assert bib_network.node_coding == CodingTable("node", (), 1)
