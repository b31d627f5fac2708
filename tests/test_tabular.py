from __future__ import annotations

import csv
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import deadline, outcome
from netconv import (
    CodingTable,
    ExportError,
    LinkKind,
    LinkRecord,
    Network,
    NodeRecord,
    ParseError,
    SchemaError,
    StructuralError,
    Table,
    TableOptions,
    canonical_order,
    factorize_network,
    make_network,
    merge_node_properties,
    network_stats,
    network_to_tables,
    read_link_table,
    read_node_table,
    tables_to_network,
    write_table,
)
from netconv.tabular import _read_table
from netgen import random_csv_network, random_labeled_network

NO_LINKS = Table(("from", "relation", "to"), ((), (), ()))


def roundtrip_tables(network):
    nt, lt = network_to_tables(network)
    sink_n, sink_l = io.StringIO(), io.StringIO()
    write_table(nt, sink_n)
    write_table(lt, sink_l)
    nodes = read_node_table(io.StringIO(sink_n.getvalue()))
    links = read_link_table(io.StringIO(sink_l.getvalue()))
    return tables_to_network(
        nodes, links, directed=network.info.directed, base=network.info.org
    )


class TestTable:
    @pytest.mark.parametrize("header, columns", [
        (("name",), ()),
        (("name",), (("a",), ("b",))),
        (("name", "x"), (("a", "b"), ("1",))),
    ])  # fmt: skip
    def test_columns_must_match_header(self, header, columns):
        with pytest.raises(ValueError) as excinfo:
            Table(header, columns)
        assert str(excinfo.value) == "a table needs one column per header name, all of one length"

    def test_rows_and_column_derive_from_columns(self):
        table = Table(("name", "x"), (("a", "b"), ("1", None)))
        assert table.rows == (("a", "1"), ("b", None))
        assert table.column("x") == ("1", None)


class TestReadNodeTable:
    def test_fixture_shape(self, bib_node_table):
        assert len(bib_node_table.rows) == 16
        assert len(bib_node_table.header) == 11
        assert bib_node_table.rows[0][0] == "Batagelj, Vladimir"

    def test_header_only(self):
        table = read_node_table(io.StringIO("name;mode\n"))
        assert table.rows == ()

    def test_na_cells_become_missing(self, bib_node_table):
        springer = bib_node_table.rows[15]
        header = bib_node_table.header
        assert springer[header.index("sex")] is None
        assert springer[header.index("year")] is None
        assert springer[header.index("x")] == "884.6"
        assert springer[header.index("y")] == "174.0"

    def test_ragged_row_reports_line(self):
        with pytest.raises(ParseError, match="^node table: line 3"):
            read_node_table(io.StringIO("name;mode\na;person\nb\n"))

    def test_missing_name_column(self):
        with pytest.raises(SchemaError, match="name"):
            read_node_table(io.StringIO("label;mode\na;b\n"))

    def test_duplicate_names(self):
        with pytest.raises(SchemaError, match="duplicate"):
            read_node_table(io.StringIO("name\na\na\n"))

    def test_empty_input(self):
        with pytest.raises(ParseError, match="^node table: empty input: missing header row$"):
            read_node_table(io.StringIO(""))

    @pytest.mark.parametrize("bad_line", [1, 2, 2500])
    def test_undecodable_bytes_report_line(self, bad_line):
        lines = [b"name;x"] + [b"n%d;%d" % (i, i) for i in range(1, 3000)]
        lines[bad_line - 1] += b"\xff"
        with pytest.raises(ParseError, match=rf"^node table: line {bad_line}: input is not valid utf-8"):
            read_node_table(utf8_stream(b"\n".join(lines) + b"\n"))

    def test_field_over_size_limit_reports_line(self):
        old = csv.field_size_limit(10)
        try:
            with pytest.raises(ParseError, match="^node table: line 3: field larger than field limit"):
                read_node_table(io.StringIO("name\na\n" + "b" * 20 + "\n"))
        finally:
            csv.field_size_limit(old)


class TestReadLinkTable:
    def test_fixture_shape(self, bib_link_table):
        assert len(bib_link_table.rows) == 19

    def test_header_only(self):
        table = read_link_table(io.StringIO("from;relation;to\n"))
        assert table.rows == ()

    def test_quoted_and_bare_cells(self, bib_link_table):
        assert bib_link_table.rows[18] == ("Psychometrika", "publishedBy", "Springer")

    def test_missing_required_column(self):
        with pytest.raises(SchemaError, match="relation"):
            read_link_table(io.StringIO("from;to\na;b\n"))

    def test_undecodable_bytes_report_line(self):
        data = "from;relation;to\na;r;b\nc;r\u00e9l;d\n".encode("latin-1")
        with pytest.raises(ParseError, match="^link table: line 3: input is not valid utf-8"):
            read_link_table(utf8_stream(data))


def utf8_stream(data: bytes) -> io.TextIOWrapper:
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


class TestTablesToNetwork:
    def test_bibliographic_stats(self, bib_network):
        assert network_stats(bib_network) == (16, 19, 0, 5, 6)

    def test_springer_node_typing(self, bib_network):
        springer = bib_network.nodes[15]
        assert springer.x == 884.6 and springer.y == 174.0
        assert springer.mode == "publisher"
        assert springer.props["country"] == "US"
        assert "sex" not in springer.props

    def test_numeric_columns_parse_as_reals(self, bib_network):
        paper = bib_network.nodes[6]
        assert paper.props["year"] == 1982.0
        assert paper.props["vol"] == 47.0
        assert paper.props["fPage"] == 413.0

    def test_empty_tables(self):
        net = tables_to_network(Table(("name",), ((),)), NO_LINKS, directed=True)
        assert net == make_network([], [], org=1, directed=True)

    def test_unknown_endpoint_names_row(self):
        nodes = Table(("name",), (("a",),))
        links = Table(("from", "relation", "to"), (("a",), ("r",), ("Unknown Person",)))
        with pytest.raises(StructuralError, match="row 1"):
            tables_to_network(nodes, links)

    def test_undirected_flag(self, bib_node_table, bib_link_table):
        net = tables_to_network(bib_node_table, bib_link_table, directed=False)
        assert network_stats(net).n_edges == 19


class TestRejections:
    """Each rejection of the table readers, from the tables' text to the
    exception and its message."""

    @pytest.mark.parametrize("nodes, links, error, message", [
        ("name;x\n;1\n", "from;relation;to\n", SchemaError, "node table contains a missing name"),
        ("name;x\na;1\na;2\n", "from;relation;to\n", SchemaError, "duplicate node name: 'a'"),
        ("x\n1\n", "from;relation;to\n", SchemaError, "node table is missing the 'name' column"),
        ("name\na\n", "from;to\na;a\n", SchemaError, "link table is missing column(s): relation"),
        ("name\na\n", "from;relation;to\na;;a\n", SchemaError,
         "link table contains a missing 'relation' value"),
        ("name;x\na;inf\n", "from;relation;to\n", ParseError, "node row 1: x 'inf' is not numeric"),
        ("name\na\n", "from;relation;to;weight\na;r;a;1\na;r;a;-nan\n", ParseError,
         "link row 2: weight '-nan' is not numeric"),
        ("name\na\n", "from;relation;to;kind\na;r;a;arc\na;r;a;loop\n", ParseError,
         "link row 2: kind must be 'arc' or 'edge'"),
        ("name\na\n", "from;relation;to\na;r;b\n", StructuralError,
         "link row 1 references unknown node 'b'"),
        ("name\na\n", "from;relation;to\na;r\n", ParseError,
         "link table: line 2: expected 3 cells, found 2"),
        ("name;p;p;x;x\na;1;2;3;4\n", "from;relation;to\n", ParseError,
         "node table: line 1: column 'p' appears twice in the header"),
        ("name\na\n", "from;relation;to;to\na;r;zz;a\n", ParseError,
         "link table: line 1: column 'to' appears twice in the header"),
    ])  # fmt: skip
    def test_message(self, nodes, links, error, message):
        with pytest.raises(error) as excinfo:
            node_table = read_node_table(io.StringIO(nodes))
            tables_to_network(node_table, read_link_table(io.StringIO(links)))
        assert str(excinfo.value) == message

    def test_repeated_column_of_a_wide_header_found_in_one_pass(self):
        """100,000 distinct column names, then the first one again: the scan
        that compared each name with all before it takes minutes here."""
        header = ";".join(["name"] + [f"c{i}" for i in range(100_000)] + ["c0"])
        with deadline(20), pytest.raises(ParseError) as excinfo:
            read_node_table(io.StringIO(header + "\n"))
        assert str(excinfo.value) == "node table: line 1: column 'c0' appears twice in the header"


class TestNetworkToTables:
    def test_bibliographic_round_trip(self, bib_network):
        assert roundtrip_tables(bib_network) == bib_network

    def test_empty_network(self):
        nt, lt = network_to_tables(Network())
        assert nt.rows == () and lt.rows == ()
        assert "name" in nt.header

    def test_single_node_with_x(self):
        net = make_network([NodeRecord(id="a", lab="a", x=1.0)], [])
        nt, lt = network_to_tables(net)
        assert len(nt.rows) == 1
        assert nt.rows[0][nt.header.index("x")] == "1.0"
        assert nt.rows[0][nt.header.index("y")] is None
        assert lt.rows == ()

    def test_scalar_of_another_type_written_through_str(self):
        net = make_network([NodeRecord(id="a", lab="a", props={"share": Fraction(1, 3)})], [])
        nt, _ = network_to_tables(net)
        assert nt.rows[0][nt.header.index("share")] == "1/3"

    def test_structured_value_named_in_row_order(self):
        net = make_network(
            [NodeRecord(id="a", lab="a", props={"b": [1]}), NodeRecord(id="c", lab="c", props={"a": {}})],
            [],
        )
        with pytest.raises(ExportError, match=r"^structured value \[1\] cannot"):
            network_to_tables(net)

    def test_column_order_error_kept_when_row_order_pass_finds_none(self):
        # the row-order pass reads each value again; when it finds no structured value,
        # the error the column pass raised is the one that propagates
        class Changing(dict):
            reads = 0

            def get(self, key, default=None):
                self.reads += 1
                return [1] if self.reads == 1 else "x"

        net = make_network([NodeRecord(id="a", lab="a", props=Changing(p="x"))], [])
        with pytest.raises(ExportError) as excinfo:
            network_to_tables(net)
        assert str(excinfo.value) == "structured value [1] cannot be written to a table cell"

    @pytest.mark.parametrize("what, props, message", [
        ("node", {"name": "b"}, "node property 'name' collides with a reserved column"),
        ("node", {"x": 1.0}, "node property 'x' collides with a reserved column"),
        ("link", {"from": "b"}, "link property 'from' collides with a reserved column"),
        ("link", {"kind": "edge"}, "link property 'kind' collides with a reserved column"),
    ])  # fmt: skip
    def test_reserved_column_property_rejected(self, what, props, message):
        node_props, link_props = (props, {}) if what == "node" else ({}, props)
        net = make_network([NodeRecord(id="a", lab="a", props=node_props)],
                           [LinkRecord(LinkKind.ARC, "a", "a", "r", props=link_props)])
        with pytest.raises(ExportError) as excinfo:
            network_to_tables(net)
        assert str(excinfo.value) == message


class TestFactorizedToTables:
    """A factorized network writes the tables of its labeled form, without a copy."""

    @given(seed=st.integers(0, 2**32 - 1), base=st.sampled_from([0, 1]))
    @settings(max_examples=150, deadline=None)
    def test_same_tables_as_labeled(self, seed, base):
        rng = random.Random(seed)
        for net in (random_csv_network(rng, 30, 60), random_labeled_network(rng, 30, 60)):
            coded = factorize_network(net, base)
            assert outcome(network_to_tables, coded) == outcome(network_to_tables, net)

    def test_bibliographic_tables(self, bib_canonical):
        for base in (0, 1):
            coded = canonical_order(factorize_network(bib_canonical, base))
            assert network_to_tables(coded) == network_to_tables(bib_canonical)

    def test_without_node_table_names_codes_by_themselves(self, bib_canonical):
        coded = factorize_network(bib_canonical, 1)._replace(node_coding=CodingTable("node"))
        names = network_to_tables(coded)[0].column("name")
        assert names == tuple(str(code) for code in range(1, len(coded.nodes) + 1))


class TestQuotingAndRoundTrips:
    def test_quoting_survives_delimiter_quote_newline(self):
        hairy = ['semi;colon', 'quo"te', "new\nline", "plain"]
        table = Table(("name",), (tuple(hairy),))
        sink = io.StringIO()
        write_table(table, sink)
        back = read_node_table(io.StringIO(sink.getvalue()))
        assert [r[0] for r in back.rows] == hairy

    def test_second_round_trip_is_identity(self, bib_network):
        once = roundtrip_tables(bib_network)
        assert roundtrip_tables(once) == once

    def test_link_count_preserved(self, bib_network):
        _, lt = network_to_tables(bib_network)
        assert len(lt.rows) == len(bib_network.links)

    def test_random_networks_round_trip(self):
        rng = random.Random(40)
        for _ in range(30):
            net = random_csv_network(rng, max_nodes=40, max_links=40)
            assert roundtrip_tables(net) == net

    def test_custom_delimiter_and_decimal(self):
        text = "name,x,y\na,\"1,5\",\"2,25\"\n"
        opts = TableOptions(delimiter=",")
        table = read_node_table(io.StringIO(text), opts)
        net = tables_to_network(table, NO_LINKS, decimal_separator=",")
        assert net.nodes[0].x == 1.5 and net.nodes[0].y == 2.25

    def test_missing_relation_rejected(self):
        # read_link_table rejects the empty cell; a table built in code reaches the model
        nodes = Table(("name",), (("a", "b"),))
        links = Table(("from", "relation", "to"), (("a",), (None,), ("b",)))
        with pytest.raises(StructuralError, match="all names or all integer codes"):
            tables_to_network(nodes, links)

    @pytest.mark.parametrize("delimiter", [";;", "", '"', "\n", "\r"])
    def test_delimiter_must_be_one_character_other_than_quote(self, delimiter):
        message = f"delimiter must be one character other than '\"', '\\r' and '\\n', got {delimiter!r}"
        with pytest.raises(ValueError) as excinfo:
            TableOptions(delimiter=delimiter)
        assert str(excinfo.value) == message

    def test_decimal_separator_is_not_an_option(self):
        # tables_to_network and merge_node_properties take it; the reader never reads numbers
        with pytest.raises(TypeError):
            TableOptions(decimal_separator=",")

    def test_na_strings_are_not_an_option(self):
        with pytest.raises(TypeError):
            TableOptions(na_strings=frozenset())
        table = read_node_table(io.StringIO("name;note\na;NA\nb;NaN\nc;\nd;na\n"))
        assert table.column("note") == (None, None, None, "na")

    def test_weight_and_kind_columns(self):
        nodes = Table(("name",), (("a", "b"),))
        links = Table(
            ("from", "relation", "to", "kind", "weight"),
            (("a", "b"), ("r", "r"), ("b", "a"), ("edge", "arc"), ("2.5", None)),
        )
        net = tables_to_network(nodes, links, directed=True)
        assert net.links[0].kind is LinkKind.EDGE and net.links[0].weight == 2.5
        assert net.links[1].kind is LinkKind.ARC and net.links[1].weight == 1.0


def table(text: str) -> Table:
    return read_node_table(io.StringIO(text))


class TestNumberColumns:
    """x, y and weight always hold numbers; a text cell there is an error
    naming the cell, where a property column would just stay text."""

    def test_text_in_x(self):
        nodes = table("name;x;y\na;left;1\nb;2;2\n")
        with pytest.raises(ParseError) as excinfo:
            tables_to_network(nodes, NO_LINKS)
        assert str(excinfo.value) == "node row 1: x 'left' is not numeric"

    def test_text_weight_names_its_row(self):
        nodes = Table(("name",), (("a", "b"),))
        links = Table(
            ("from", "relation", "to", "weight"), (("a", "b"), ("r", "r"), ("b", "a"), ("2", "heavy"))
        )
        with pytest.raises(ParseError) as excinfo:
            tables_to_network(nodes, links)
        assert str(excinfo.value) == "link row 2: weight 'heavy' is not numeric"

    def test_text_property_column_stays_text(self):
        net = tables_to_network(table("name;size\na;1\nb;big\n"), NO_LINKS)
        assert [n.props["size"] for n in net.nodes] == ["1", "big"]


class TestMergeNodeProperties:
    BASE = make_network(
        [
            NodeRecord(id="a", lab="a", mode="m0", x=1.0, props={"color": "red", "size": 3.0}),
            NodeRecord(id="b", lab="b"),
        ],
        [],
    )

    def test_fields_and_properties_overlaid(self):
        rows = table("name;mode;slab;x;y;color;year\na;person;A;2.5;3;blue;1999\n")
        merged = merge_node_properties(self.BASE, rows)
        a = merged.nodes[0]
        assert (a.mode, a.slab, a.x, a.y) == ("person", "A", 2.5, 3.0)
        assert a.props == {"color": "blue", "size": 3.0, "year": 1999.0}
        assert merged.nodes[1] == self.BASE.nodes[1]

    def test_unmatched_rows_ignored(self):
        merged = merge_node_properties(self.BASE, table("name;mode;color\nzz;person;green\n"))
        assert merged == self.BASE

    def test_missing_cells_keep_existing_values(self):
        rows = table("name;mode;slab;x;y;color\nb;;;;;\na;NA;;;;\n")
        assert merge_node_properties(self.BASE, rows) == self.BASE

    def test_decimal_separator(self):
        rows = read_node_table(io.StringIO("name;x\nb;0,5\n"))
        merged = merge_node_properties(self.BASE, rows, decimal_separator=",")
        assert merged.nodes[1].x == 0.5

    def test_text_x_rejected(self):
        with pytest.raises(ParseError, match="^node row 2: x 'left' is not numeric$"):
            merge_node_properties(self.BASE, table("name;x\nb;1\na;left\n"))



# Cells the generated tables draw from: quoted cells (the delimiter, a quote,
# a line break), the NA strings, numbers in both decimal forms, cells that
# are no number, and link kinds good and bad.
NAMES = ["a", "b", "c;d", 'q"u', "n\nl", "e f"]
TEXT = ["", "NA", "NaN", "red", "c;d", 'q"u', "n\nl", "na", "1"]
NUMBER = ["", "NA", "1", "2.5", "-3", "1e3", "1,5", " 4 "]
NOT_A_NUMBER = ["left", "inf", "-nan", "1.2.3"]
CELLS = {
    "mode": TEXT, "slab": TEXT, "x": NUMBER, "y": NUMBER, "relation": ["r", "s"],
    "kind": ["arc", "edge", "", "NA", "loop"], "weight": NUMBER, "label": TEXT,
    "count": NUMBER, "note": TEXT,
}  # fmt: skip
NODE_COLUMNS = ["mode", "slab", "x", "y", "count", "note"]
LINK_COLUMNS = ["kind", "weight", "label", "count", "note"]
NOW_AND_THEN = st.sampled_from([False] * 7 + [True])


@st.composite
def table_text(draw, columns: dict, optional: list) -> str:
    """A table's text: ``columns`` (name -> cells) plus some ``optional``
    ones, in any order, with now and then a non-number in a numeric column
    and a ragged row."""
    n = len(next(iter(columns.values())))
    for name in draw(st.lists(st.sampled_from(optional), unique=True)):
        cells = columns[name] = draw(st.lists(st.sampled_from(CELLS[name]), min_size=n, max_size=n))
        if n and CELLS[name] is NUMBER and draw(NOW_AND_THEN):
            cells[draw(st.integers(0, n - 1))] = draw(st.sampled_from(NOT_A_NUMBER))
    header = draw(st.permutations(list(columns)))
    rows = [list(row) for row in zip(*(columns[name] for name in header))]
    if draw(NOW_AND_THEN):
        rows.insert(draw(st.integers(0, n)), ["a"] * (len(header) + draw(st.sampled_from([-1, 1]))))
    sink = io.StringIO()
    writer = csv.writer(sink, delimiter=";", lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerows([header, *rows])
    return sink.getvalue()


@st.composite
def table_pair(draw) -> tuple[str, str]:
    """A node table and a link table whose endpoints are mostly its names;
    now and then a name is missing or repeated, an endpoint unknown and a
    relation missing."""
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=5))
    if names and draw(NOW_AND_THEN):
        names[draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from(["", "NA", names[0]]))
    ends = [[draw(st.sampled_from(names)) for _ in range(draw(st.integers(0, 6 if names else 0)))]]
    ends.append([draw(st.sampled_from(names)) for _ in ends[0]])
    relation = [draw(st.sampled_from(CELLS["relation"])) for _ in ends[0]]
    for cells, odd in ((ends[0], "zz"), (ends[1], "zz"), (relation, "NA")):
        if cells and draw(NOW_AND_THEN):
            cells[draw(st.integers(0, len(cells) - 1))] = odd
    links = {"from": ends[0], "relation": relation, "to": ends[1]}
    return draw(table_text({"name": names}, NODE_COLUMNS)), draw(table_text(links, LINK_COLUMNS))


MERGE_BASE = make_network(
    [NodeRecord(id=name, lab=name, mode="m", slab="s", x=1.0, props={"note": "old", "size": 3.0})
     if i % 2 else NodeRecord(id=name, lab=name) for i, name in enumerate(NAMES)],
    [],
)


class TestColumnsMatchRowOracle:
    """The column-held table path against the row-wise one it replaced
    (``oracles``): the same tables, network or merge, or the same error.
    Results are compared by ``repr`` too, so an int where a float was shows."""

    @given(
        texts=table_pair(),
        directed=st.booleans(),
        base=st.sampled_from([0, 1]),
        decimal=st.sampled_from([".", ","]),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_network_or_error(self, texts, directed, base, decimal):
        opts = TableOptions()
        tables, expected = (
            [outcome(read, io.StringIO(text), opts, what) for text, what in zip(texts, ("node", "link"))]
            for read in (_read_table, oracles.read_table)
        )
        for table, oracle in zip(tables, expected):
            if isinstance(oracle, tuple):
                assert table == oracle
                return
            assert table.header == oracle.header and table.rows == oracle.rows
            assert [table.column(c) for c in table.header] == [
                tuple(oracle.column(c)) for c in oracle.header
            ]
        kwargs = dict(directed=directed, base=base, decimal_separator=decimal)
        network = outcome(tables_to_network, *tables, **kwargs)
        oracle = outcome(oracles.tables_to_network, *expected, **kwargs)
        assert network == oracle and repr(network) == repr(oracle)
        merged = outcome(merge_node_properties, MERGE_BASE, tables[0], decimal_separator=decimal)
        oracle = outcome(oracles.merge_node_properties, MERGE_BASE, expected[0],
                         decimal_separator=decimal)
        assert merged == oracle and repr(merged) == repr(oracle)
