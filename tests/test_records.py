"""The value contract of the model's records and the other small value types.

Records, coding tables, tables, table options and findings are immutable
values: no field can be set or deleted, equality and hash follow the fields
(leaving out the descriptive ``name`` of a coding table), ``repr`` shows every
field, a copy or a pickle round trip is equal to the original, and a record
built without a map holds the one read-only empty map ``EMPTY``, so no record
holds a default dict that a change could carry into another.
"""

from __future__ import annotations

import copy
import inspect
import io
import pickle

import pytest

from netconv import (
    CodingTable,
    EventRecord,
    Finding,
    InfoBlock,
    Interval,
    Level,
    LinkKind,
    LinkRecord,
    Network,
    NodeRecord,
    Severity,
    Table,
    TableOptions,
    TemporalQuantity,
    TimeWindow,
    ValidationReport,
    make_network,
    merge_node_properties,
    read_node_table,
    read_pajek_net,
)
from netconv.model import EMPTY

# Each sample built twice gives equal values; the text is its repr.
SAMPLES = {
    "Interval(lo=1.0, hi=2.0)": lambda: Interval(1.0, 2.0),
    "TemporalQuantity(triples=((1, 2, 'a'),))": lambda: TemporalQuantity(((1, 2, "a"),)),
    "TimeWindow(t_min=1, t_max=5, t_labs={2: 'x'})": lambda: TimeWindow(1, 5, {2: "x"}),
    "EventRecord(date='2020-01-01', title='t', author='me', desc=None, url=None, cite=None,"
    " copy=None, extra={})": lambda: EventRecord("2020-01-01", "t", author="me"),
    "InfoBlock(org=0, simple=False, directed=True, multirel=False, mode=1, network='',"
    " title='T', time=None, meta=(), created=None, modified=None, extra={})":
        lambda: InfoBlock(org=0, title="T"),
    "NodeRecord(id='a', lab='A', slab=None, x=1.0, y=None, mode=None, tq=None, props={'p': 1})":
        lambda: NodeRecord("a", "A", x=1.0, props={"p": 1}),
    "LinkRecord(kind=<LinkKind.EDGE: 'edge'>, n1='a', n2='b', rel='r', weight=2.0, label=None,"
    " tq=None, props={})": lambda: LinkRecord(LinkKind.EDGE, "a", "b", "r", 2.0),
    "Network(info=InfoBlock(org=1, simple=False, directed=True, multirel=False, mode=1,"
    " network='', title='', time=None, meta=(), created=None, modified=None, extra={}),"
    " nodes=(), links=(), relations=CodingTable(name='relation', levels=(), base=1),"
    " node_coding=CodingTable(name='node', levels=(), base=1), property_codings={})": Network,
    "CodingTable(name='node', levels=('a', 'b'), base=0)":
        lambda: CodingTable("node", ("a", "b"), 0),
    "Table(header=('name',), columns=(('a',),))": lambda: Table(("name",), (("a",),)),
    "TableOptions(delimiter=';')": TableOptions,
    "Finding(severity=<Severity.ERROR: 'error'>, rule='org-invalid', location='$.info.org',"
    " message='m')": lambda: Finding(Severity.ERROR, "org-invalid", "$.info.org", "m"),
    "ValidationReport(findings=(), level=<Level.STRICT: 'strict'>)":
        lambda: ValidationReport((), Level.STRICT),
}
HOLDS_A_DICT = {TimeWindow, EventRecord, InfoBlock, NodeRecord, LinkRecord, Network}


def fields_of(value) -> list[str]:
    """The field names of a value: its constructor's parameters."""
    return list(inspect.signature(type(value)).parameters)


@pytest.fixture(params=list(SAMPLES), ids=lambda text: text.split("(")[0])
def sample(request):
    return request.param, SAMPLES[request.param]


def test_repr_shows_every_field(sample):
    text, build = sample
    assert repr(build()) == text


def test_no_field_can_be_set_or_deleted(sample):
    value = sample[1]()
    for name in fields_of(value):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_equal_values_hash_equal(sample):
    a, b = sample[1](), sample[1]()
    assert a == b and not a != b
    if type(a) in HOLDS_A_DICT:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_copies_and_pickles_are_equal(sample):
    value = sample[1]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value) and repr(twin) == repr(value)


@pytest.mark.parametrize("changed", [
    (Interval(1.0, 2.0), Interval(1.0, 3.0)),
    (TemporalQuantity(((1, 2, "a"),)), TemporalQuantity(((1, 2, "b"),))),
    (NodeRecord("a"), NodeRecord("a", "A")),
    (LinkRecord(LinkKind.ARC, "a", "b", "r"), LinkRecord(LinkKind.EDGE, "a", "b", "r")),
    (Network(), Network(info=InfoBlock(org=0))),
    (CodingTable("t", ("a",)), CodingTable("t", ("a",), 0)),
    (Table(("name",), (("a",),)), Table(("name",), (("b",),))),
    (Finding(Severity.ERROR, "org-invalid", "$", "m"), Finding(Severity.WARNING, "org-invalid", "$", "m")),
])  # fmt: skip
def test_a_changed_field_makes_values_unequal(changed):
    a, b = changed
    assert a != b and not a == b


@pytest.mark.parametrize("pair", [
    (CodingTable("node", ("a", "b"), 0), CodingTable("other", ("a", "b"), 0)),
    (CodingTable("p", ("x",)), CodingTable("", ("x",))),
])  # fmt: skip
def test_names_are_left_out_of_equality_and_hash(pair):
    a, b = pair
    assert a == b and not a != b
    assert hash(a) == hash(b)


def _assign(m):
    m["k"] = 1


def _delete(m):
    del m["k"]


def _merge(m):
    m |= {"k": 1}


# Every way to change a dict in place.
MUTATORS = (_assign, _delete, _merge, lambda m: m.update(k=1), lambda m: m.setdefault("k", 1),
            lambda m: m.pop("k", None), lambda m: m.popitem(), lambda m: m.clear())


@pytest.mark.parametrize("build, get", [
    (lambda: NodeRecord("a"), lambda r: r.props),
    (lambda: NodeRecord(id="a", lab="A"), lambda r: r.props),
    (lambda: LinkRecord(LinkKind.ARC, "a", "b", "r"), lambda r: r.props),
    (lambda: EventRecord("2020-01-01", "t"), lambda r: r.extra),
    (lambda: InfoBlock(), lambda r: r.extra),
    (lambda: InfoBlock(org=0), lambda r: r.extra),
    (lambda: TimeWindow(1, 5), lambda r: r.t_labs),
    (lambda: Network(), lambda r: r.property_codings),
    (lambda: Network(nodes=()), lambda r: r.info.extra),
])  # fmt: skip
def test_records_built_with_defaults_share_no_dict(build, get):
    """The one map records built with defaults share is ``EMPTY``, and no
    change reaches it, so none can pass from one record to another."""
    first, second = build(), build()
    assert get(first) == {} and get(first) is get(second) is EMPTY
    for mutate in MUTATORS:
        with pytest.raises(TypeError):
            mutate(get(first))
    assert get(second) == {}


def test_a_given_map_is_kept():
    props, codings = {"p": 1}, {}
    assert NodeRecord("a", props=props).props is props
    assert make_network([], [], property_codings=codings).property_codings is codings


def test_net_records_hold_the_shared_map_and_take_merged_properties():
    net = read_pajek_net(io.StringIO('*vertices 2\n1 "a"\n2 "b"\n*arcs\n1 2\n'))
    assert all(r.props is EMPTY for r in (*net.nodes, *net.links))
    assert net.info.extra is EMPTY and net.property_codings is EMPTY
    merged = merge_node_properties(net, read_node_table(io.StringIO("name;year\na;1982\n")))
    assert [n.props for n in merged.nodes] == [{"year": 1982.0}, {}] and EMPTY == {}


def test_temporal_quantity_has_length_and_iterates_over_its_triples():
    triples = ((1, 2, "a"), (3, 5, 1.5))
    tq = TemporalQuantity(triples)
    assert len(tq) == 2 and list(tq) == list(triples) and tq.triples == triples
    assert len(TemporalQuantity()) == 0 and list(TemporalQuantity()) == []
