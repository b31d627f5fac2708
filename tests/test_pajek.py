from __future__ import annotations

import io
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import normalize_layout, outcome
from netconv import (
    CodingError,
    CodingTable,
    ExportError,
    LinkKind,
    LinkRecord,
    Network,
    NodeRecord,
    ParseError,
    canonical_order,
    defactorize_network,
    factorize_network,
    make_network,
    network_stats,
    read_pajek_clu,
    read_pajek_net,
    write_pajek_clu,
    write_pajek_net,
)
from netconv.model import recode
from netconv.pajek import _tokens
from netgen import random_csv_network, random_labeled_network, random_pajek_network

# Frozen from the brute-force oracle over the bundled node table.
SEX_VALUES = (2, 2, 1, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
MODE_VALUES = (4, 4, 4, 4, 4, 4, 3, 3, 3, 1, 2, 2, 2, 6, 5, 5)


class TestWriteNet:
    def test_matches_golden_reference(self, bib_canonical, bib_golden_net):
        ours = write_pajek_net(bib_canonical)
        assert normalize_layout(ours) == normalize_layout(bib_golden_net)

    def test_empty_network(self):
        assert write_pajek_net(Network()) == "*vertices 0\n*arcs\n"

    def test_single_undirected_edge(self):
        net = make_network(
            [NodeRecord(id="1", lab="1"), NodeRecord(id="2", lab="2")],
            [LinkRecord(kind=LinkKind.EDGE, n1="1", n2="2", rel="rel")],
            directed=False,
        )
        expected = (
            "*vertices 2\n"
            '1 "1"\n'
            '2 "2"\n'
            '*arcs :1 "rel"\n'
            "*edges\n"
            '1: 1 2 1 l "rel"\n'
        )
        assert write_pajek_net(net) == expected

    def test_link_order_kept(self):
        """Each run of links of one kind is written, in link order, under its own header."""
        net = read_pajek_net(io.StringIO("*vertices 2\n*edges\n1 2\n*arcs\n1 2\n*edges\n2 1\n"))
        assert write_pajek_net(net) == (
            '*vertices 2\n1 "1"\n2 "2"\n*arcs :1 "1"\n*edges\n1: 1 2 1 l "1"\n'
            '*arcs\n1: 1 2 1 l "1"\n*edges\n1: 2 1 1 l "1"\n')

    def test_relation_declarations_increase_from_one(self, bib_canonical):
        text = write_pajek_net(bib_canonical)
        codes = [int(m) for m in re.findall(r"^\*arcs :(\d+)", text, re.M)]
        assert codes == list(range(1, len(codes) + 1))

    def test_coordinates_flag(self, bib_canonical):
        off = write_pajek_net(bib_canonical)
        on = write_pajek_net(bib_canonical, coordinates=True)
        assert '1 "Batagelj, Vladimir"\n' in off
        assert '1 "Batagelj, Vladimir" 809.1 653.7\n' in on

    def test_embedded_quotes_doubled(self):
        net = make_network([NodeRecord(id='say "hi"', lab='say "hi"')], [])
        assert '1 "say ""hi"""' in write_pajek_net(net)

    def test_newline_in_label_rejected(self):
        net = make_network([NodeRecord(id="a\nb", lab="a\nb")], [])
        with pytest.raises(ExportError):
            write_pajek_net(net)

    def test_base_zero_network_shifted_up(self, bib_canonical):
        zero = factorize_network(bib_canonical, base=0)
        assert write_pajek_net(zero) == write_pajek_net(bib_canonical)

    def test_requested_base_zero_rejected(self, bib_canonical):
        with pytest.raises(ExportError):
            write_pajek_net(bib_canonical, base=0)

    def test_non_contiguous_codes_numbered_by_position(self):
        net = make_network([NodeRecord(id=10**9, lab="z"), NodeRecord(id=1)],
                           [LinkRecord(LinkKind.EDGE, 1, 10**9, 1)], relations=CodingTable("r", ("s",)))
        assert write_pajek_net(net) == '*vertices 2\n1 "z"\n2 "1"\n*arcs :1 "s"\n*edges\n1: 2 1 1 l "s"\n'

    def test_declarations_written_sorted(self):
        text = '*vertices 2\n1 "a"\n2 "b"\n*arcs :1 "z"\n*arcs :2 "a"\n*arcs\n1: 1 2\n2: 2 1\n'
        written = write_pajek_net(read_pajek_net(io.StringIO(text)))
        assert written == ('*vertices 2\n1 "a"\n2 "b"\n*arcs :1 "a"\n*arcs :2 "z"\n*arcs\n'
                           '2: 1 2 1 l "z"\n1: 2 1 1 l "a"\n')

    def test_non_finite_weight_rejected(self):
        link = LinkRecord(LinkKind.ARC, "a", "a", "r", weight=float("nan"))
        net = make_network([NodeRecord(id="a", lab="a")], [link])
        with pytest.raises(ExportError) as excinfo:
            write_pajek_net(net)
        assert str(excinfo.value) == "non-finite link weight nan"

    def test_unresolved_endpoint_rejected(self):
        for ids, link in (
            (["a", "b"], LinkRecord(LinkKind.ARC, "a", "c", "r")),
            ([1, 2], LinkRecord(LinkKind.ARC, 1, 3, 1)),
        ):
            nodes = tuple(NodeRecord(id=i, lab=str(i)) for i in ids)
            net = Network(nodes=nodes, links=(link,), relations=CodingTable("relation", ("r",)))
            with pytest.raises(ExportError, match="names no node"):
                write_pajek_net(net)

    @pytest.mark.parametrize("nodes,label", [
        ([NodeRecord(id="a", lab="x"), NodeRecord(id="b"), NodeRecord(id="c", lab="x")], "x"),
        ([NodeRecord(id="a", lab="b"), NodeRecord(id="b")], "b"),
        ([NodeRecord(id=1, lab="2"), NodeRecord(id=2)], "2"),
    ])  # fmt: skip
    def test_repeated_vertex_label_rejected(self, nodes, label):
        """The reader builds a node table only from distinct labels, so a
        label two nodes share (a lab, or a node's name standing in for a
        missing lab) would lose a name: in a labeled network, or in a
        factorized one with a node table (here the codes 1 and 2 name the
        nodes "1" and "2")."""
        coding = CodingTable("node", ("1", "2")) if isinstance(nodes[0].id, int) else None
        with pytest.raises(ExportError) as excinfo:
            write_pajek_net(make_network(nodes, [], node_coding=coding))
        assert str(excinfo.value) == f"vertex label {label!r} names more than one node"

    def test_shared_label_without_node_table_written(self):
        """Without a node table each code names its node, so a shared label
        loses no name: the labels are written as they are (an unlabeled
        node's name "2" too) and read back without a node table."""
        nodes = [NodeRecord(id=1, lab="2"), NodeRecord(id=2), NodeRecord(id=3, lab="x"),
                 NodeRecord(id=4, lab="x")]
        text = write_pajek_net(make_network(nodes, [LinkRecord(LinkKind.EDGE, 1, 2, 1)]))
        assert text == ('*vertices 4\n1 "2"\n2 "2"\n3 "x"\n4 "x"\n'
                        '*arcs :1 "1"\n*edges\n1: 1 2 1 l "1"\n')
        back = read_pajek_net(io.StringIO(text))
        assert back.node_coding == CodingTable("node") and back.is_factorized
        assert [(n.id, n.lab) for n in back.nodes] == [(1, "2"), (2, "2"), (3, "x"), (4, "x")]
        assert write_pajek_net(back) == text

    def test_relation_table_based_above_org_numbered_as_declared(self):
        text = '*vertices 2\n*arcs :2 "a"\n*arcs\n2: 1 2\n'
        ours = write_pajek_net(read_pajek_net(io.StringIO(text)))
        assert ours == '*vertices 2\n1 "1"\n2 "2"\n*arcs :1 "a"\n*arcs\n1: 1 2 1 l "a"\n'
        assert write_pajek_net(read_pajek_net(io.StringIO(ours))) == ours

    @given(seed=st.integers(0, 2**32 - 1), org=st.sampled_from([0, 1]), lift=st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_relation_table_base_does_not_change_the_text(self, seed, org, lift):
        """A factorized network whose relation table is based above org writes
        the NET text of the same network based at org, and reads back as it."""
        net, with_coords = random_pajek_network(random.Random(seed), max_nodes=30, max_links=30)
        coded = factorize_network(net, org)
        table = coded.relations
        lifted = recode(coded, lambda i: i, lambda rel: rel + lift,
                        relations=CodingTable(table.name, table.levels, table.base + lift))
        text = write_pajek_net(lifted, coordinates=with_coords)
        assert text == write_pajek_net(coded, coordinates=with_coords)
        assert defactorize_network(read_pajek_net(io.StringIO(text))) == canonical_order(net)

    def test_labeled_nodes_numbered_by_position(self):
        net = make_network(
            [NodeRecord(id="z"), NodeRecord(id="a", lab="A")],
            [LinkRecord(LinkKind.ARC, "a", "z", "s"), LinkRecord(LinkKind.ARC, "z", "a", "r")],
            relations=CodingTable("relation", ("t", "s", "r")),
        )
        assert write_pajek_net(net) == (
            '*vertices 2\n1 "z"\n2 "A"\n'
            '*arcs :1 "r"\n*arcs :2 "s"\n*arcs :3 "t"\n'
            '*arcs\n2: 2 1 1 l "s"\n1: 1 2 1 l "r"\n'
        )


NET_SOURCES = {
    "json": random_labeled_network,
    "csv": random_csv_network,
    "pajek": lambda rng, n, m: random_pajek_network(rng, n, m)[0],
}


def written(network, coordinates: bool) -> str:
    """The NET text of ``network``, or the message of the error it raises."""
    try:
        return write_pajek_net(network, coordinates=coordinates)
    except ExportError as exc:
        return f"ExportError: {exc}"


class TestLabeledWriteMatchesFactorized:
    """A labeled network is written as its base-1 factorization is: the
    writer numbers nodes and relations itself instead of building that copy."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        source=st.sampled_from(sorted(NET_SOURCES)),
        coordinates=st.booleans(),
        unlabeled=st.floats(0, 1),
        unused=st.sets(st.text(min_size=1, max_size=3), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_networks(self, seed, source, coordinates, unlabeled, unused):
        rng = random.Random(seed)
        net = NET_SOURCES[source](rng, 30, 40)
        nodes = [n._replace(lab="") if rng.random() < unlabeled else n for n in net.nodes]
        declared = [*unused, *net.relations.levels]  # levels no link uses, out of order
        relations = CodingTable("relation", tuple(dict.fromkeys(declared)), net.relations.base)
        net = net._replace(nodes=tuple(nodes), relations=relations)
        assert written(net, coordinates) == written(factorize_network(net, 1), coordinates)


class TestReadNet:
    def test_golden_text(self, bib_golden_net):
        net = read_pajek_net(io.StringIO(bib_golden_net))
        # NET files carry no node modes, so the mode count stays 1.
        assert network_stats(net) == (16, 19, 0, 5, 1)
        assert net.is_factorized
        assert net.node_coding.value_of(10) == "Generalized Blockmodeling"
        assert net.relations.levels == (
            "authorOf",
            "cites",
            "containedIn",
            "editorOf",
            "publishedBy",
        )

    def test_empty(self):
        net = read_pajek_net(io.StringIO("*vertices 0\n*arcs\n"))
        assert net == make_network([], [], org=1, directed=True)

    def test_arc_line_fields(self):
        text = '*vertices 10\n*arcs :2 "cites"\n*arcs\n2: 9 10 1 l "cites"\n'
        net = read_pajek_net(io.StringIO(text))
        link = net.links[0]
        assert link.kind is LinkKind.ARC
        assert (link.n1, link.n2, link.weight) == (9, 10, 1.0)
        assert net.relations.value_of(link.rel) == "cites"

    def test_vertex_count_up_to_the_characters(self):
        """A counted vertex no line lists is named by its number; a file holds
        as many of them as it has characters (here 13)."""
        nodes = read_pajek_net(io.StringIO("*vertices 13\n")).nodes
        assert [node.lab for node in nodes] == [str(v) for v in range(1, 14)]

    def test_vertex_out_of_range_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            read_pajek_net(io.StringIO('*vertices 1\n1 "a"\n2 "b"\n'))

    def test_link_endpoint_out_of_range(self):
        with pytest.raises(ParseError, match="outside"):
            read_pajek_net(io.StringIO("*vertices 1\n*arcs\n1 2\n"))

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown section"):
            read_pajek_net(io.StringIO("*vertices 0\n*matrix\n"))

    @pytest.mark.parametrize("text, title", [
        ("*Network EAT\n*vertices 1\n", "EAT"),
        ("*network\n*vertices 1\n", ""),
        ('% a comment\n*network a\n*NETWORK "b  c"  d\n*vertices 0\n*arcs\n', "b  c d"),
        ("*vertices 1\n", ""),
    ])  # fmt: skip
    def test_network_line_before_vertices_names_the_network(self, text, title):
        net = read_pajek_net(io.StringIO(text))
        assert net.info.network == title
        assert net.info._replace(network="") == read_pajek_net(io.StringIO("*vertices 1\n")).info

    def test_redeclared_relation_code_conflicts(self):
        text = '*vertices 0\n*arcs :1 "a"\n*arcs :1 "b"\n'
        with pytest.raises(ParseError, match="redeclared"):
            read_pajek_net(io.StringIO(text))

    def test_tolerances(self):
        text = (
            "% a comment\r\n"
            "\r\n"
            "*Vertices 2\r\n"
            ' 1 "a"\r\n'
            "\r\n"
            "*ARCS\r\n"
            "1 2\r\n"
        )
        net = read_pajek_net(io.StringIO(text))
        assert network_stats(net) == (2, 1, 0, 1, 1)
        assert net.links[0].rel == 1  # missing prefix defaults to relation 1
        assert net.nodes[1].lab == "2"  # synthesized label

    @pytest.mark.parametrize("text, labels", [
        ('*Vertices 3\n1 "x"\n2 "x"\n3 "y"\n*Edges\n1 2\n', ["x", "x", "y"]),
        ('*vertices 3\n1 "2"\n3 "x"\n', ["2", "2", "x"]),  # unlisted vertex 2 is labeled "2"
    ])  # fmt: skip
    def test_repeated_labels_read_without_node_table(self, text, labels):
        """Labels that repeat name no node: the network gets no node table,
        each vertex code names itself, and the labels stay in lab."""
        net = read_pajek_net(io.StringIO(text))
        assert net.is_factorized and net.node_coding == CodingTable("node")
        assert [(n.id, n.lab) for n in net.nodes] == list(zip([1, 2, 3], labels))

    @pytest.mark.parametrize("text, relations, links", [
        ('*Vertices 2\n1 "a"\n2 "b"\n*Arcs :1 "likes"\n1 2\n*Edges :2 "knows"\n1 2\n'
         '*Arcs :1\n2 1\n', ("knows", "likes"), [("arc", 2, 1, 2), ("edge", 1, 1, 2), ("arc", 2, 2, 1)]),
        ('*Vertices 2\n1 "a"\n2 "b"\n*Arcs :2\n1 2 l "likes"\n', ("likes",), [("arc", 1, 1, 2)]),
        ('*vertices 1\n*arcs :3\n*arcs :1 "a"\n', ("3", "a"), []),  # a bare code no link uses
        ('*vertices 1\n*edges :2\n*arcs :2 "b"\n1 1\n', ("b",), [("arc", 1, 1, 1)]),
    ])  # fmt: skip
    def test_bare_header_names_nothing(self, text, relations, links):
        """A bare ``*arcs :k`` or ``*edges :k`` declares k and opens its
        section but names nothing: k keeps the name it is declared or first
        used with, anywhere in the file, else its own."""
        net = read_pajek_net(io.StringIO(text))
        assert net.relations == CodingTable("relation", relations)
        assert [(l.kind.value, l.rel, l.n1, l.n2) for l in net.links] == links

    def test_undeclared_relation_name_synthesized(self):
        """An undeclared code names itself, and its link is numbered by the
        name's place in the relation table."""
        net = read_pajek_net(io.StringIO("*vertices 2\n*arcs\n3: 1 2\n"))
        assert net.relations == CodingTable("relation", ("3",)) and net.links[0].rel == 1

    @pytest.mark.parametrize("text, message", [
        ("*vertices\n", "line 1: *vertices requires a count"),
        ("*vertices two\n", "line 1: invalid vertex count 'two'"),
        ("*vertices -3\n", "line 1: invalid vertex count '-3'"),
        ("*vertices 1\n*arcs :x\n", "line 2: invalid relation code ':x'"),
        ('*vertices 2\n*arcs :1 "a"\n*arcs\n1: 1 2 1 l "b"\n',
         "line 4: relation code 1 used as 'b' (declared 'a')"),
        ('*vertices 1\n*arcs :0 "z"\n', "relation code 0 is below 1"),
        ("*vertices 1\n*edges\n-1: 1 1\n", "relation code -1 is below 1"),
        ('*vertices 1\n*arcs :1 "a"\n*arcs :3 "a"\n',
         "relation names are not distinct: duplicate coding table level: 'a'"),
        ('*vertices 1\n*arcs :2 ""\n', "line 2: empty relation name"),
        ('*vertices 1\n*arcs\n1: 1 1 1 l ""\n', "line 3: empty relation name"),
        ('*vertices 1\n*arcs :1 "2"\n*arcs\n2: 1 1\n',
         "relation names are not distinct: duplicate coding table level: '2'"),
        ("*vertices 1\n1 1\n*arcs\nx: 1 1\n", "line 4: invalid relation prefix 'x:'"),
        ("*vertices 1\n*arcs\n1\n", "line 3: link line needs two vertex numbers"),
        ("*vertices 1\n*edges\n1 one\n", "line 3: link endpoints must be vertex numbers"),
        ("*vertices 1\n*arcs\n1 1 heavy\n", "line 3: invalid link weight 'heavy'"),
        ("*vertices 2\n*arcs\n1 2 nan\n", "line 3: invalid link weight 'nan'"),
        ("*vertices 2\n*arcs\n1 2 inf\n", "line 3: invalid link weight 'inf'"),
        ('*vertices 2\n*edges\n1: 1 2 -Infinity l "a"\n', "line 3: invalid link weight '-Infinity'"),
        ("*vertices 2\n*arcs\n1 2 1e999\n", "line 3: invalid link weight '1e999'"),
        ("*vertices 1\n*arcs\n1 1 2 x\n", 'line 3: expected relation suffix of the form: l "name"'),
        ("*vertices 1\n*arcs\n1 1 l\n", 'line 3: expected relation suffix of the form: l "name"'),
        ("1 1\n", "line 1: data before *vertices header"),
        ("*vertices 1\n*network late\n", "line 2: unknown section keyword '*network'"),
        ("*network a\n*vertices 1\n*vertices 1\n*Network b\n",
         "line 4: unknown section keyword '*Network'"),
        ("% only a comment\n", "missing *vertices header"),
        ("*vertices 100\n", "vertex numbers 1 to 100 span more values than the file's 14 characters"),
        ("*vertices 14\n", "vertex numbers 1 to 14 span more values than the file's 13 characters"),
    ])  # fmt: skip
    def test_rejection(self, text, message):
        with pytest.raises(ParseError) as excinfo:
            read_pajek_net(io.StringIO(text))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("text, levels, base", [
        ("*vertices 1\n", (), 1),
        ("*vertices 1\n*arcs\n3: 1 1\n5: 1 1\n", ("3", "5"), 1),
        ('*vertices 1\n*arcs :4 "d"\n*arcs\n2: 1 1\n', ("2", "d"), 1),
        ('*vertices 1\n*arcs :2 "b"\n*arcs :3 "c"\n', ("b", "c"), 1),
        ("*vertices 1\n*arcs\n1: 1 1\n4: 1 1\n", ("1", "4"), 1),
        # codes far wider apart than the file has lines
        ('*vertices 2\n1 "a"\n2 "b"\n*arcs\n1: 1 2\n4000000: 1 2\n', ("1", "4000000"), 1),
        ('*vertices 1\n*arcs :1 "a"\n*arcs :5 "b"\n', ("a", "b"), 1),
        ("*vertices 1\n*edges\n1: 1 1\n1000000000000000000: 1 1\n",
         ("1", "1000000000000000000"), 1),
    ])  # fmt: skip
    def test_relations_named_by_their_codes(self, text, levels, base):
        """Each code is named by its declared or first used name, or else by
        itself; the table is those names sorted, based at 1, with no name
        for a code the file does not give."""
        assert read_pajek_net(io.StringIO(text)).relations == CodingTable("relation", levels, base)

    @pytest.mark.parametrize("text, links", [
        ('*Vertices 3\n1 "a"\n2 "b"\n3 "c"\n*Arcs :1 "likes"\n1 2\n*Arcs :2 "hates"\n2 3\n',
         [("arc", "a", "b", "likes"), ("arc", "b", "c", "hates")]),
        ('*Vertices 3\n1 "a"\n2 "b"\n3 "c"\n*Edges\n1 2\n*Arcs :2 "hates"\n2 3\n',
         [("edge", "a", "b", "1"), ("arc", "b", "c", "hates")]),
        # a prefix wins, and a plain header opens a section of relation 1
        ('*vertices 2\n*edges :2 "b"\n1: 1 2\n2 1\n*arcs\n1 2\n',
         [("edge", "1", "2", "1"), ("edge", "2", "1", "b"), ("arc", "1", "2", "1")]),
    ], ids=["declarations", "after-edges", "prefix-and-plain"])  # fmt: skip
    def test_declaration_opens_a_section(self, text, links):
        """``*arcs :k "name"`` (or ``*edges``) opens a section whose lines
        without a prefix belong to relation k."""
        net = read_pajek_net(io.StringIO(text))
        label, relation = net.node_coding.value_of, net.relations.value_of
        assert [(l.kind.value, label(l.n1), label(l.n2), relation(l.rel)) for l in net.links] == links

    @pytest.mark.parametrize("text, rels", [
        ('*vertices 1\n*arcs :1 "a"\n*arcs :2 "b"\n*arcs\n2: 1 1\n1: 1 1\n', [2, 1]),
        ('*vertices 1\n*arcs :1 "b"\n*arcs :2 "a"\n*arcs\n2: 1 1\n1: 1 1\n', [1, 2]),
        ('*vertices 1\n*arcs\n7: 1 1 1 l "z"\n3: 1 1\n7: 1 1\n', [2, 1, 2]),
        ("*vertices 1\n*arcs\n1: 1 1\n4000000: 1 1\n", [1, 2]),
    ])  # fmt: skip
    def test_links_numbered_by_their_names_place(self, text, rels):
        """A link's code becomes its relation's place in the table; codes
        already in place are kept."""
        assert [link.rel for link in read_pajek_net(io.StringIO(text)).links] == rels

    @pytest.mark.parametrize("numbers", ["nan 0.5", "0.5 inf", "-Infinity 1", "1 1e999"])
    def test_non_finite_coordinates_are_shape_parameters(self, numbers):
        net = read_pajek_net(io.StringIO(f'*vertices 1\n1 "a" 2 3\n1 "a" {numbers}\n'))
        assert (net.nodes[0].x, net.nodes[0].y) == (2.0, 3.0)

    def test_empty_input(self):
        with pytest.raises(ParseError, match="vertices"):
            read_pajek_net(io.StringIO(""))
        with pytest.raises(ParseError, match="vertices"):
            read_pajek_clu(io.StringIO(""), Network(), "p")

    def test_round_trip_random_property_free(self):
        rng = random.Random(4321)
        for _ in range(30):
            net, with_coords = random_pajek_network(rng, max_nodes=40, max_links=40)
            text = write_pajek_net(net, coordinates=with_coords)
            back = defactorize_network(read_pajek_net(io.StringIO(text)))
            assert back == canonical_order(net)


# Generated NET texts draw each token from its good tokens or, on a bad
# line, now and then from the bad tokens TestReadNet.test_rejection covers,
# so one line can hold two faults. No pool holds a non-finite number or a
# negative count: the reader rejects those where the oracle read them.
COUNT = (["0", "1", "2", "3", "4", "-0", "+2", "03"], ["two", "2.5", "-"])
LABEL = (['"a"', "b", '"two words"', '"say ""hi"""', '"2"'], ['""'])
COORDINATE = (["0.5", "1", "-2", "1e3", "0", "+.5"], ["box", "ic", "x_fact"])
CODE = (["1", "2", "3"], ["0", "-1", "x", "", "1.5"])
NAME = (['"a"', '"b"', "c", '"two words"', '"2"'], ['""'])
WEIGHT = (["1", "2.5", "-1", "0", "1e3", "1_0"], ["heavy", "x", "1,5"])
SUFFIX = (["l {}", "l {} extra"], ["l", "x", "{}"])
VERTICES = ["*vertices", "*Vertices", "*VERTICES", "*vErTiCeS"]
SECTIONS = ["*arcs", "*edges", "*Arcs", "*EDGES", "*aRcS"]
OTHER_LINES = ["% a comment", "%", '% an "open quote', "", "  ", "\t", '1 "open', "*matrix",
               "*network name", "*Network", '*NETWORK "two words"  x', "*arcslist", "1 1"]


@st.composite
def net_text(draw) -> str:
    """A NET text: a *vertices header, vertex lines, relation declarations,
    then link sections, each opened by a plain header or a declaration;
    keywords in any case; optional labels, coordinates, shape parameters,
    relation prefixes, weights and suffixes; blank lines and CRLF. Now and
    then the labels are vertex numbers, so they repeat and clash with an
    unlabeled vertex's made-up label; a declaration may be bare, and may
    re-open a named section. Then a few lines put anywhere: comments, bad
    lines, and repeated *vertices headers and vertex lines."""
    rng = draw(st.randoms(use_true_random=True))
    bad_lines = rng.choice([0, 0, 0.05, 0.2])  # the share of lines that may hold bad tokens
    bad = 0.0  # the share of bad tokens on the line being made
    n = 0 if rng.random() < bad_lines else rng.randint(1, 4)
    vertex = ([str(v) for v in range(1, n + 1)] or ["1"], ["0", str(n + 1), "x", "+1", "1.0"])
    shared = rng.random() < 0.3  # labels drawn from the vertex numbers

    def pick(tokens: tuple[list[str], list[str]]) -> str:
        return rng.choice(tokens[rng.random() < bad])

    def optional(text: str) -> str:
        return rng.choice(["", " " + text])

    def vertices_header() -> str:
        count = rng.choice([str(n)] * 3 + [pick(COUNT)])
        return rng.choice(VERTICES) + (optional(count) if rng.random() < bad else " " + count)

    def vertex_line() -> str:
        v = pick(vertex)
        coordinates = f" {pick(COORDINATE)} {pick(COORDINATE)}" + optional(pick(COORDINATE))
        label = f'"{rng.choice(vertex[0])}"' if shared else f'"v{v}"'
        label = pick(LABEL) if rng.random() < 0.2 else label
        return v + optional(label + rng.choice(["", coordinates]))

    declared = []  # the codes declared so far, which a later header may re-open

    def declaration() -> str:
        if declared and rng.random() < 0.3:  # re-open a declared section, naming nothing
            return rng.choice(SECTIONS) + f" :{rng.choice(declared)}"
        declared.append(pick(CODE))
        return rng.choice(SECTIONS) + f" :{declared[-1]}" + optional(pick(NAME))

    def link_line() -> str:
        ends = [pick(vertex) for _ in range(rng.randint(0, 1) if rng.random() < bad / 4 else 2)]
        if rng.random() < bad / 4:
            ends[-1:] = ["one"]
        suffix = pick(SUFFIX).format(pick(NAME))
        return (optional(pick(CODE) + ":") + " " + " ".join(ends)
                + optional(pick(WEIGHT)) + optional(suffix))

    def make_line(make) -> str:
        nonlocal bad
        bad = 0.5 if rng.random() < bad_lines else 0.0
        return make()

    lines = [] if rng.random() < bad_lines else [make_line(vertices_header)]
    lines += [make_line(vertex_line) for _ in range(rng.randint(0, 5))]
    lines += [make_line(declaration) for _ in range(rng.choice([0, 0, 1, 2, 3]))]
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        lines.append(rng.choice(SECTIONS) if rng.random() < 0.5 else make_line(declaration))
        lines += [make_line(link_line) for _ in range(rng.randint(0, 4))]
    for _ in range(rng.choice([0, 0, 1, 2])):
        extra = rng.choice([vertices_header, vertex_line, declaration, link_line, None])
        lines.insert(rng.randint(0, len(lines)), make_line(extra) if extra else rng.choice(OTHER_LINES))
    text = "".join(rng.choice(["", " ", "\t"]) + line + rng.choice(["\n", "\n", "\r\n"])
                   for line in lines)
    return text[:-1] if text and rng.random() < 0.5 else text


class TestReadNetMatchesOracle:
    """The one-pass NET reader against the staging reader it replaced
    (``oracles``): the same network, by ``==`` and by ``repr``, or the same
    error class and message."""

    @given(text=net_text())
    @example('*vertices 3\n3 "c"\n*vertices 2\n*vertices 3\n')
    @example('*vertices 2\n1 "a" 1 2\n1 box 3\n1\n*arcs\n1 2\n*vertices 1\n')
    @example('*vertices 1\n5 ""\n')  # two faults on a line: the first is reported
    @example("*vertices 1\n*arcs\n5 x\n")
    @example("*vertices 1\n*arcs\n1 5 heavy\n")
    @example('*vertices 1\n*arcs\n1 5 l ""\n')
    @example('*vertices 1\n*arcs :1 "a"\n*arcs\n1 5 l "b"\n')
    @example('*vertices 2\n1 "2"\n*arcs :0 "z"\n')  # faults found after the last line
    @example('*vertices 1\n*arcs :0 "a"\n*arcs :1 "a"\n')
    @example('*Vertices 2\n*Edges\n1 2\n*Arcs :2 "b"\n2 1\n3: 1 1\n*arcs\n1 2\n')
    @example('*Vertices 3\n1 "x"\n2 "x"\n3 "y"\n*Edges\n1 2\n')  # labels repeat
    @example('*vertices 2\n1 "2"\n*arcs :1 "a"\n*edges :1\n2 1\n*arcs :3\n')  # bare headers
    @example('*vertices 2\n*arcs :2\n1 2 l "likes"\n*arcs :2 "x"\n')  # named, then redeclared
    @settings(max_examples=1000, deadline=None)
    def test_same_network_or_error(self, text):
        ours = outcome(read_pajek_net, io.StringIO(text))
        oracle = outcome(oracles.read_pajek_net, io.StringIO(text))
        assert ours == oracle and repr(ours) == repr(oracle)


class TestNetFixedPoint:
    """NET is a fixed point of read after write: every network the reader
    returns reads back equal from what the writer writes, apart from
    info.network, which the writer does not keep. Its text then writes back
    as it was."""

    @given(text=net_text())
    @example("*vertices 2\n*edges\n1 2\n*arcs\n1 2\n*edges\n2 1\n")  # kinds interleave
    @example('*vertices 2\n*arcs :2 "b"\n1 2\n*edges :1 "a"\n2 1\n1 2\n')  # sections of a relation
    @example('*vertices 1\n*arcs :1 "a"\n*arcs :3 "b"\n')  # a gap between declared codes
    @example('*vertices 1\n*arcs :2 "a"\n*arcs :1 "b"\n*arcs\n1: 1 1\n2: 1 1\n')  # unsorted
    @example("*vertices 2\n*edges\n5: 1 2\n1: 2 1\n*arcs :3\n")  # undeclared codes, gaps
    @example('*vertices 2\n*arcs\n4: 1 2 l "a"\n2: 2 1 2.5 l "b"\n9: 1 1\n')  # suffix-named
    @example('*vertices 3\n1 "2"\n2 "x"\n3 "x"\n*edges\n1 3\n')  # labels repeat
    @example('*vertices 2\n*arcs :1 "a"\n1 2\n*edges :2 "b"\n*arcs :1\n2 1\n')  # re-opened
    @settings(max_examples=500, deadline=None)
    def test_read_write_read(self, text):
        net = outcome(read_pajek_net, io.StringIO(text))
        if isinstance(net, Network):
            text = write_pajek_net(net, coordinates=True)
            back = read_pajek_net(io.StringIO(text))
            assert back == net._replace(info=net.info._replace(network=""))
            assert write_pajek_net(back, coordinates=True) == text


# Pieces of NET lines: quotes, doubled quotes, letters, and ASCII and Unicode
# whitespace (str.isspace counts \x1c, \x85 and \u3000 as whitespace).
LINE_PIECES = ['"', '""', "a", "b", "Z", " ", "\t", "\x0b", "\x0c", "\r", "\n"]
LINE_PIECES += ["\x1c", "\x85", "\u3000"]


def tokens_or_error(tokenize, line):
    try:
        return tokenize(line, 7)
    except ParseError as exc:
        return str(exc)


class TestTokens:
    """The regex tokenizer splits every line as the character-scan oracle does."""

    @given(st.lists(st.sampled_from(LINE_PIECES), max_size=30).map("".join))
    @example('1 "a""b" c"d\u3000"" "x y"')
    @example('"open ""quote')
    @settings(max_examples=1000, deadline=None)
    def test_matches_character_scan(self, line):
        assert tokens_or_error(_tokens, line) == tokens_or_error(oracles.pajek_tokens, line)

    def test_doubled_quote_and_unterminated_token(self):
        assert _tokens('1 "a""b" c"d ""', 1) == ["1", 'a"b', 'c"d', ""]
        with pytest.raises(ParseError, match='^line 4: unterminated quoted token$'):
            _tokens('1 "a" "b', 4)


class TestUndecodableInput:
    """Bytes that are not UTF-8 raise ParseError naming their line, also
    past the first block the text stream decodes."""

    @pytest.mark.parametrize("bad_line", [1, 3, 2000])
    def test_net(self, bad_line):
        lines = [b"*vertices 3000"] + [b'%d "v%d"' % (i, i) for i in range(1, 3001)] + [b"*arcs"]
        lines[bad_line - 1] += b"\xff"
        with pytest.raises(ParseError, match=rf"^line {bad_line}: input is not valid utf-8"):
            read_pajek_net(utf8_stream(b"\n".join(lines) + b"\n"))

    @pytest.mark.parametrize("bad_line", [1, 3, 2000])
    def test_clu(self, bad_line):
        lines = [b"*vertices 3000"] + [b"1"] * 3000
        lines[bad_line - 1] += b"\xe9"
        with pytest.raises(ParseError, match=rf"^line {bad_line}: input is not valid utf-8"):
            read_pajek_clu(utf8_stream(b"\n".join(lines) + b"\n"), Network(), "p")


def utf8_stream(data: bytes) -> io.TextIOWrapper:
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def codes_of(clu: str) -> tuple[int, ...]:
    """The values of CLU text the writer made: its lines after the legend and the header."""
    return tuple(int(v) for v in clu.splitlines()[2:])


def plain_nodes(n: int) -> Network:
    """A network of n labeled nodes that carry nothing but their names."""
    return make_network([NodeRecord(str(i)) for i in range(n)], [])


def without(network: Network, prop: str) -> Network:
    """``network`` with ``prop`` (``mode``: the node field) taken off every node."""
    nodes = tuple(n._replace(mode=None) if prop == "mode"
                  else n._replace(props={k: v for k, v in n.props.items() if k != prop})
                  for n in network.nodes)  # fmt: skip
    return network._replace(nodes=nodes)


def read_values(text: str) -> list:
    """Each node's ``p`` after reading ``text`` onto as many plain nodes as it declares."""
    n = int(re.search(r"\*vertices (\d+)", text).group(1))
    return [node.props.get("p") for node in read_pajek_clu(io.StringIO(text), plain_nodes(n), "p").nodes]


LEVEL_CHARACTERS = st.characters(blacklist_characters="\r\n")  # a CLU legend is one line


class TestPartition:
    def test_sex_partition_matches_oracle(self, bib_network, bib_node_table):
        column = bib_node_table.column("sex")
        levels = oracles.sorted_levels(column)
        expected = tuple(oracles.positional_encode(column, levels, 1, 0))
        clu = write_pajek_clu(bib_network, "sex")
        assert codes_of(clu) == expected == SEX_VALUES
        assert levels == ["f", "m"] and clu.startswith("% 1 f 2 m\n")

    def test_mode_partition_matches_oracle(self, bib_network, bib_node_table):
        column = bib_node_table.column("mode")
        levels = oracles.sorted_levels(column)
        expected = tuple(oracles.positional_encode(column, levels, 1, 0))
        clu = write_pajek_clu(bib_network, "mode")
        assert codes_of(clu) == expected == MODE_VALUES
        assert levels == ["book", "journal", "paper", "person", "publisher", "series"]
        assert codes_of(clu)[0] == 4  # first node is a person

    def test_single_node(self):
        net = make_network([NodeRecord(id="a", lab="a", mode="m")], [])
        assert codes_of(write_pajek_clu(net, "mode")) == (1,)

    def test_unknown_property(self, bib_network):
        with pytest.raises(CodingError, match="unknown property"):
            write_pajek_clu(bib_network, "shoe_size")

    def test_boolean_property(self):
        nodes = [NodeRecord(id=i, lab=i, props=props)
                 for i, props in (("a", {"p": True}), ("b", {}), ("c", {"p": False}))]  # fmt: skip
        net = make_network(nodes, [])
        assert write_pajek_clu(net, "p") == "% 1 false 2 true\n*vertices 3\n2\n0\n1\n"

    def test_structured_property_rejected(self):
        net = make_network([NodeRecord(id="a", lab="a", props={"p": [1]})], [])
        with pytest.raises(CodingError) as excinfo:
            write_pajek_clu(net, "p")
        assert str(excinfo.value) == "property 'p' holds structured values; not categorical"

    @pytest.mark.parametrize("property", ["p", "mode"])
    def test_empty_text_rejected(self, property):
        """A coding table's levels are non-empty text, and 0 already codes a missing value."""
        nodes = [NodeRecord(id="a", mode="", props={"p": ""}), NodeRecord(id="b", mode="m", props={"p": "x"})]
        with pytest.raises(CodingError) as excinfo:
            write_pajek_clu(make_network(nodes, []), property)
        assert str(excinfo.value) == f"property {property!r} holds empty text; not a level"


class TestCluFiles:
    def test_write_sex_partition(self, bib_network):
        text = write_pajek_clu(bib_network, "sex")
        lines = text.splitlines()
        assert lines[0] == "% 1 f 2 m"
        assert lines[1] == "*vertices 16"
        assert len(lines) == 18
        assert tuple(int(v) for v in lines[2:]) == SEX_VALUES

    def test_write_mode_legend(self, bib_network):
        legend = write_pajek_clu(bib_network, "mode").splitlines()[0]
        assert legend == "% 1 book 2 journal 3 paper 4 person 5 publisher 6 series"

    def test_empty_partition(self):
        """An empty network has no partition to write, and reads one of no values."""
        with pytest.raises(CodingError, match="^unknown property 'p': absent on every node$"):
            write_pajek_clu(Network(), "p")
        assert read_pajek_clu(io.StringIO("*vertices 0\n"), Network(), "p") == Network()

    def test_round_trip(self, bib_network):
        for prop in ("sex", "mode"):
            text = write_pajek_clu(bib_network, prop)
            back = read_pajek_clu(io.StringIO(text), without(bib_network, prop), prop)
            assert back == bib_network

    def test_read_bare_values(self):
        assert read_values("*vertices 2\n1\n1\n") == ["1", "1"]

    def test_comment_after_header_is_no_legend(self):
        assert read_values("*vertices 2\n% 1 x 2 y\n2\n1\n") == ["2", "1"]

    @pytest.mark.parametrize("legend", [
        "% x a",  # a code that is not an integer
        "% 1 a 3 b",  # codes with a gap
        "% 1 a 2 a",  # a repeated level
    ])  # fmt: skip
    def test_unusable_legend_read_as_a_comment(self, legend):
        assert read_values(f"{legend}\n*vertices 2\n1\n3\n") == ["1", "3"]

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="expected 2 values"):
            read_pajek_clu(io.StringIO("*vertices 2\n1\n"), plain_nodes(2), "p")

    def test_vertex_count_not_a_number_reports_line(self):
        with pytest.raises(ParseError, match=r"line 2: invalid vertex count 'x'"):
            read_pajek_clu(io.StringIO("% 1 a\n*vertices x\n1\n"), plain_nodes(1), "p")

    @pytest.mark.parametrize("text, message", [
        ("*vertices\n", "line 1: *vertices requires a count"),
        ("*vertices -3\n", "line 1: invalid vertex count '-3'"),
        ("*vertices 1\n*partition sex\n1\n", "line 2: unexpected header '*partition sex'"),
        ("1\n*vertices 1\n", "line 1: values before *vertices header"),
        ("*vertices 1\nred\n", "line 2: invalid partition value 'red'"),
        ("*vertices 2\n1\n", "expected 2 values, found 1"),
        ("% 1 a 2 b\n*vertices 2\n1\n3\n", "value 3 at position 1 outside the coded range"),
        ("% 1 a 2 b\n*vertices 1\n-1\n", "value -1 at position 0 outside the coded range"),
        ("% 0 a 1 b\n*vertices 2\n0\n1\n", "the coded range [0, 1] holds 0, the missing code"),
        ("% 1 a\n*vertices 3\n1\n0\n1\n", "3 values for a network of 2 nodes"),
    ])  # fmt: skip
    def test_rejection(self, text, message):
        """Every row but the last would be refused onto any network; the
        network read onto has two nodes."""
        with pytest.raises(ParseError) as excinfo:
            read_pajek_clu(io.StringIO(text), plain_nodes(2), "p")
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("text, values", [
        ("*vertices 2\n-1\n1\n", ["-1", "1"]),  # a range that would hold 0
        ("*vertices 2\n1\n4000000\n", ["1", "4000000"]),  # spans wider than the file
        ("% legend\n*vertices 2\n1000000000000000000\n1\n", ["1000000000000000000", "1"]),
        ("*vertices 2\n\n1\n\n6\n", ["1", "6"]),
    ])  # fmt: skip
    def test_legendless_values_name_themselves(self, text, values):
        """Without a legend no coded range is made up: each value is its own
        level name, whatever the values span."""
        assert read_values(text) == values

    @pytest.mark.parametrize("values, levels, base", [
        ("0\n0\n", (), 1),
        ("4\n0\n2\n", ("2", "3", "4"), 2),
        ("-2\n-1\n", ("-2", "-1"), -2),
        ("3\n1\n", ("1", "2", "3"), 1),  # as many as lines
    ])  # fmt: skip
    def test_bare_values_coded_by_their_range(self, values, levels, base):
        coding = CodingTable("p", levels, base)
        expected = [coding.value_of(int(v)) if v != "0" else None for v in values.split()]
        assert read_values(f"*vertices {values.count(chr(10))}\n{values}") == expected

    def test_legend_with_spaces_quoted(self):
        nodes = [NodeRecord("a", props={"kind": "two words"}), NodeRecord("b", props={"kind": "one"})]
        net = make_network(nodes, [])
        text = write_pajek_clu(net, "kind")
        assert text.startswith('% 1 one 2 "two words"\n')
        assert read_pajek_clu(io.StringIO(text), without(net, "kind"), "kind") == net

    @pytest.mark.parametrize("text", [
        "*vertices 2\n2\n3\n",
        "% 2 a 3 b\n*vertices 2\n2\n3\n",
        "*vertices 2\n-2\n-1\n",
    ])  # fmt: skip
    def test_codings_without_zero_round_trip(self, text):
        net = read_pajek_clu(io.StringIO(text), plain_nodes(2), "p")
        assert read_pajek_clu(io.StringIO(write_pajek_clu(net, "p")), plain_nodes(2), "p") == net

    def test_missing_code_leaves_a_node_as_it_is(self):
        nodes = [NodeRecord("a", props={"p": "old", "q": 1}), NodeRecord("b", props={"q": 2})]
        net = read_pajek_clu(io.StringIO("% 1 x\n*vertices 2\n0\n1\n"), make_network(nodes, []), "p")
        assert [n.props for n in net.nodes] == [{"p": "old", "q": 1}, {"q": 2, "p": "x"}]

    def test_mode_is_the_node_field(self):
        plain = plain_nodes(3)
        net = read_pajek_clu(io.StringIO("% 1 book 2 paper\n*vertices 3\n2\n1\n2\n"), plain, "mode")
        assert [(n.mode, n.props) for n in net.nodes] == [("paper", {}), ("book", {}), ("paper", {})]
        assert net.info == plain.info  # info.mode is not recounted

    @settings(max_examples=200, deadline=None)
    @given(prop=st.sampled_from(["mode", "p"]),
           values=st.lists(st.none() | st.text(LEVEL_CHARACTERS, min_size=1), min_size=1,
                           max_size=12).filter(lambda vs: any(v is not None for v in vs)))
    def test_written_partition_reads_back_onto_its_network(self, prop, values):
        nodes = [NodeRecord(str(i), mode=v) if prop == "mode"
                 else NodeRecord(str(i), props={"p": v, "q": i} if v is not None else {"q": i})
                 for i, v in enumerate(values)]  # fmt: skip
        net = make_network(nodes, [])
        text = write_pajek_clu(net, prop)
        assert read_pajek_clu(io.StringIO(text), without(net, prop), prop) == net
