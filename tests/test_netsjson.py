from __future__ import annotations

import io
import json
import random
import re
from pathlib import Path

import pytest

import oracles
from conftest import DATA
from netconv import (
    CodingTable,
    EventRecord,
    ExportError,
    InfoBlock,
    Interval,
    LinkKind,
    LinkRecord,
    NetconvError,
    Network,
    NodeRecord,
    SchemaError,
    TemporalError,
    TemporalQuantity,
    canonical_order,
    check_netsjson,
    network_stats,
    parse_netsjson,
    read_pajek_net,
    tq_value_at,
    validate_netsjson_document,
    write_netsjson,
)
from netconv.cli import main
from netconv.netsjson import PARSE_FATAL
from netgen import random_json_network

MINIMAL = json.dumps(
    {
        "netsJSON": "basic",
        "info": {"org": 1, "nNodes": 2, "nArcs": 1, "nEdges": 0, "directed": True},
        "nodes": [{"id": 1, "lab": "a"}, {"id": 2, "lab": "b"}],
        "links": [{"type": "arc", "n1": 1, "n2": 2, "rel": 1}],
    }
)


LABELED = json.dumps(
    {
        "netsJSON": "basic",
        "info": {"org": 1, "directed": True},
        "nodes": [{"id": "a"}, {"id": "b"}],
        "links": [{"n1": "a", "n2": "b", "rel": "r"}],
    }
)


def _parsable(path: Path) -> bool:
    try:
        parse_netsjson(io.StringIO(path.read_text(encoding="utf-8")))
    except NetconvError:
        return False
    return True


# Every JSON document under tests/data that parse_netsjson accepts.
PARSABLE_DOCUMENTS = [str(p.relative_to(DATA)) for p in sorted(DATA.rglob("*.json")) if _parsable(p)]


def parse(text: str) -> Network:
    return parse_netsjson(io.StringIO(text))


def resolve_json_path(doc, path: str):
    """Follow a $.a.b[2].c locator; raises when it does not resolve."""
    assert path.startswith("$")
    cur = doc
    for key, idx in re.findall(r"\.([^.\[\]]+)|\[(\d+)\]", path[1:]):
        if idx:
            cur = cur[int(idx)]
        else:
            if key not in cur:
                raise KeyError(f"{path}: {key!r} missing")
            cur = cur[key]
    return cur


class TestParse:
    def test_minimal_document(self):
        net = parse(MINIMAL)
        assert len(net.nodes) == 2 and len(net.links) == 1
        assert net.is_factorized
        assert net.links[0].kind is LinkKind.ARC
        assert net.info.directed is True

    def test_node_tq(self):
        doc = json.dumps(
            {
                "netsJSON": "basic",
                "info": {"org": 1},
                "nodes": [{"id": 1, "lab": "a", "tq": [[1, 5, 1]]}],
                "links": [],
            }
        )
        node = parse(doc).nodes[0]
        assert node.tq == TemporalQuantity(((1, 5, 1),))
        for t in (0, 1, 4, 5, 7):
            assert tq_value_at(node.tq, t) == oracles.tq_value_scan([(1, 5, 1)], t)

    def test_bibliographic_round_trip(self, bib_canonical):
        doc = write_netsjson(bib_canonical)
        assert parse(doc) == bib_canonical

    def test_counters_reconciled(self):
        doc = MINIMAL.replace('"nNodes": 2', '"nNodes": 9')
        assert network_stats(parse(doc)).n_nodes == 2

    def test_missing_member(self):
        bad = json.dumps({"netsJSON": "basic", "info": {}, "nodes": []})
        with pytest.raises(SchemaError, match="links"):
            parse(bad)

    def test_unsupported_version(self):
        bad = MINIMAL.replace('"basic"', '"general"')
        with pytest.raises(SchemaError, match="unsupported"):
            parse(bad)

    def test_mixed_id_kinds(self):
        bad = json.dumps(
            {
                "netsJSON": "basic",
                "info": {},
                "nodes": [{"id": 1}, {"id": "b"}],
                "links": [],
            }
        )
        with pytest.raises(SchemaError, match="mixed"):
            parse(bad)

    def test_malformed_tq_names_locator(self):
        bad = json.dumps(
            {
                "netsJSON": "basic",
                "info": {},
                "nodes": [{"id": "a"}, {"id": "b", "tq": [[1, 5]]}],
                "links": [],
            }
        )
        with pytest.raises(TemporalError, match=r"nodes\[1\].tq\[0\]"):
            parse(bad)

    def test_tlabs_keys_parsed_as_integers(self):
        doc = json.dumps(
            {
                "netsJSON": "basic",
                "info": {"time": {"Tmin": 0, "Tmax": 9, "Tlabs": {"3": "three"}}},
                "nodes": [],
                "links": [],
            }
        )
        assert parse(doc).info.time.t_labs == {3: "three"}
        bad = doc.replace('"3"', '"x3"')
        with pytest.raises(SchemaError, match="integer time point"):
            parse(bad)

    def test_data_preserved_opaquely(self):
        doc = json.dumps(
            {
                "netsJSON": "basic",
                "info": {},
                "nodes": [],
                "links": [],
                "data": {"semiring": ["min", "plus"]},
            }
        )
        net = parse(doc)
        assert net.info.extra["data"] == {"semiring": ["min", "plus"]}
        assert json.loads(write_netsjson(net))["data"] == {"semiring": ["min", "plus"]}

    def test_data_inside_info_rejected(self):
        bad = json.dumps(
            {"netsJSON": "basic", "info": {"data": 1}, "nodes": [], "links": []}
        )
        with pytest.raises(SchemaError, match="reserved"):
            parse(bad)

    def test_interval_and_user_objects(self):
        doc = json.dumps(
            {
                "netsJSON": "basic",
                "info": {},
                "nodes": [
                    {"id": "a", "span": {"lo": 1, "hi": 2}, "meta": {"b": 1, "a": 2}}
                ],
                "links": [],
            }
        )
        node = parse(doc).nodes[0]
        assert node.props["span"] == Interval(1.0, 2.0)
        assert node.props["meta"] == {"a": 2, "b": 1}

    def test_nan_rejected(self):
        bad = MINIMAL.replace('"rel": 1', '"rel": 1, "weight": NaN')
        with pytest.raises(SchemaError):
            parse(bad)

    @pytest.mark.parametrize("anchor, member", [
        ('"lab": "a"', '"x": 1e999'),
        ('"rel": 1', '"weight": -1e999'),
        ('"lab": "a"', '"size": 1e999'),
        ('"rel": 1', '"tq": [[1, 2, -1e999]]'),
        ('"lab": "b"', '"span": {"lo": 0.5, "hi": 1e999}'),
    ])  # fmt: skip
    def test_number_beyond_float_range_rejected(self, anchor, member, tmp_path):
        bad = MINIMAL.replace(anchor, f"{anchor}, {member}")
        number = member.split()[-1].strip("]}")
        message = f"[json-malformed] $: number {number} is beyond float range"
        with pytest.raises(SchemaError) as excinfo:
            parse(bad)
        assert str(excinfo.value) == message
        (tmp_path / "doc.json").write_text(bad, encoding="utf-8")
        assert main(["validate", str(tmp_path / "doc.json")]) == 1

    def test_undecodable_bytes_rejected_with_line(self):
        data = MINIMAL.replace('"lab": "b"', '\n"lab": "b\u00e9"').encode("latin-1")
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        expected = r"^\[json-malformed\] \$: line 2: input is not valid utf-8"
        with pytest.raises(SchemaError, match=expected):
            parse_netsjson(stream)


class TestWrite:
    def test_empty_network(self):
        doc = json.loads(write_netsjson(Network()))
        assert doc["info"]["nNodes"] == 0
        assert doc["nodes"] == [] and doc["links"] == []

    def test_deterministic(self, bib_canonical):
        assert write_netsjson(bib_canonical) == write_netsjson(bib_canonical)
        assert write_netsjson(bib_canonical, pretty=True) == write_netsjson(
            bib_canonical, pretty=True
        )

    def test_member_order_fixed(self, bib_canonical):
        doc = write_netsjson(bib_canonical)
        keys = list(json.loads(doc))
        assert keys == ["netsJSON", "info", "nodes", "links"]

    def test_compact_suppresses_defaults(self):
        net = parse(MINIMAL)
        compact = write_netsjson(net)
        assert '"type"' not in compact and '"weight"' not in compact
        pretty = write_netsjson(net, pretty=True)
        assert '"type": "arc"' in pretty and '"weight": 1.0' in pretty
        assert parse(compact) == parse(pretty) == net

    @pytest.mark.parametrize("name", PARSABLE_DOCUMENTS)
    @pytest.mark.parametrize("pretty", [False, True])
    def test_normal_form_on_every_parsable_document(self, name, pretty):
        once = write_netsjson(parse((DATA / name).read_text(encoding="utf-8")), pretty=pretty)
        assert write_netsjson(parse(once), pretty=pretty) == once

    def test_relation_codes_written_from_org(self):
        """A NET file that declares only relation 2 reads to a table based at
        2; the writer rebases it, so each rel is its place in relations."""
        net = read_pajek_net(io.StringIO('*vertices 1\n1 "a"\n*arcs :2 "x"\n*arcs\n2: 1 1\n'))
        text = write_netsjson(net)
        doc = json.loads(text)
        assert (doc["info"]["relations"], doc["links"][0]["rel"]) == (["x"], 1)
        assert validate_netsjson_document(io.StringIO(text)).findings == ()
        assert write_netsjson(canonical_order(net)) == text

    def test_labeled_node_coding_not_carried(self):
        doc = json.loads(LABELED)
        doc["info"]["nodeCoding"] = ["b", "a"]
        net = parse(json.dumps(doc))
        assert net.node_coding == CodingTable("node", (), 1)
        assert write_netsjson(net) == write_netsjson(parse(LABELED))  # no nodeCoding

    def test_labeled_node_coding_still_type_checked(self):
        doc = json.loads(LABELED)
        doc["info"]["nodeCoding"] = ["a", "a"]
        report = validate_netsjson_document(io.StringIO(json.dumps(doc)))
        assert [(f.rule, f.location) for f in report.findings] == [("member-type", "$.info.nodeCoding")]

    def test_user_object_keys_sorted(self):
        doc = json.dumps(
            {
                "netsJSON": "basic",
                "info": {},
                "nodes": [{"id": "a", "meta": {"zz": 1, "aa": 2}}],
                "links": [],
            }
        )
        written = write_netsjson(parse(doc))
        assert written.index('"aa"') < written.index('"zz"')

    def test_round_trip_random(self):
        rng = random.Random(77)
        for _ in range(30):
            net = random_json_network(rng, max_nodes=40, max_links=40)
            for pretty in (False, True):
                doc = write_netsjson(net, pretty=pretty)
                assert parse(doc) == net
                assert write_netsjson(parse(doc), pretty=pretty) == doc


class TestWriteRejections:
    """Each rejection of the NetsJSON writer, from the network to the message."""

    @pytest.mark.parametrize("network, message", [
        (Network(info=InfoBlock(extra={"title": "t"})),
         "info extra entry 'title' collides with a schema member"),
        (Network(nodes=(NodeRecord("a", props={"lab": "b"}),)),
         "node property 'lab' collides with a schema member"),
        (Network(nodes=(NodeRecord("a"),),
                 links=(LinkRecord(LinkKind.ARC, "a", "a", "r", props={"rel": "s"}),)),
         "link property 'rel' collides with a schema member"),
        (Network(info=InfoBlock(meta=(EventRecord("2020-01-02", "t", extra={"date": "x"}),))),
         "event extra entry 'date' collides with a schema member"),
        (Network(info=InfoBlock(meta=(EventRecord("2020-01-02", "t", extra={"url": "u"}),))),
         "event extra entry 'url' collides with a schema member"),
    ])  # fmt: skip
    def test_message(self, network, message):
        with pytest.raises(ExportError) as excinfo:
            write_netsjson(network)
        assert str(excinfo.value) == message

    def test_non_finite_number(self):
        # the message ends with json's own wording, which differs across Python versions
        with pytest.raises(ExportError, match=r"^network holds a non-finite number: "):
            write_netsjson(Network(nodes=(NodeRecord("a", x=float("inf")),)))


class TestValidateDocument:
    def validate(self, text: str, strict: bool = False):
        return validate_netsjson_document(io.StringIO(text), strict=strict)

    def test_minimal_valid(self):
        assert self.validate(MINIMAL).findings == ()

    def test_time_not_an_object(self):
        doc = json.loads(MINIMAL)
        doc["info"]["time"] = 5
        assert self.validate(json.dumps(doc)).to_text() == (
            "error: [member-type] $.info.time: time must be an object with integer Tmin and Tmax"
        )

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize(
        "text",
        [
            MINIMAL,
            MINIMAL.replace('"nNodes": 2', '"nNodes": 3'),  # semantic: the network is built
            MINIMAL.replace('"n2": 2', '"n2": 9'),  # parse-fatal: no network
            "{ nope",
        ],
    )
    def test_check_returns_validate_report_and_parse_network(self, text, strict):
        report, network = check_netsjson(io.StringIO(text), strict)
        assert report == self.validate(text, strict)
        fatal = any(f.rule in PARSE_FATAL for f in report.errors)
        assert network == (None if fatal else parse(text))
        assert check_netsjson(io.StringIO(text), strict, build=False) == (report, None)

    def test_temporal_document_strict_clean(self, data_dir):
        raw = (data_dir / "temporal_full.json").read_text(encoding="utf-8")
        report = self.validate(raw, strict=True)
        assert report.findings == ()

    def test_counter_mismatch_severity_by_level(self):
        doc = MINIMAL.replace('"nNodes": 2', '"nNodes": 3')
        lenient = self.validate(doc)
        strict = self.validate(doc, strict=True)
        assert [f.rule for f in lenient.findings] == ["count-nodes-mismatch"]
        assert lenient.findings[0].severity.value == "warning"
        assert strict.findings[0].severity.value == "error"

    def test_missing_links_member(self):
        report = self.validate('{"netsJSON": "basic", "info": {}, "nodes": []}')
        assert any(
            f.rule == "member-missing" and "links" in f.message for f in report.findings
        )

    def test_malformed_json(self):
        report = self.validate("{ nope")
        assert [f.rule for f in report.findings] == ["json-malformed"]

    def test_undecodable_bytes_are_a_malformed_finding(self):
        data = MINIMAL.replace('"lab": "b"', '\n"lab": "b\u00e9"').encode("latin-1")
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        report = validate_netsjson_document(stream)
        assert [(f.rule, f.location) for f in report.findings] == [("json-malformed", "$")]
        assert report.findings[0].message.startswith("line 2: input is not valid utf-8")

    def test_locators_resolve_against_input(self, data_dir):
        raw = (data_dir / "temporal_full.json").read_text(encoding="utf-8")
        corrupted = raw.replace('"nArcs": 2', '"nArcs": 5').replace(
            '[[2, 6, "active"]]', '[[2, 6, "active"], [4, 9, 1]]'
        ).replace('"10": "end"', '"10": "end", "011": "late"')  # a key int() reads as 11
        report = self.validate(corrupted, strict=True)
        assert "tlab-outside-window" in {f.rule for f in report.findings}
        doc = json.loads(corrupted)
        for finding in report.findings:
            resolve_json_path(doc, finding.location)  # must not raise

    def test_strict_warns_on_missing_dates(self):
        report = self.validate(MINIMAL, strict=True)
        dated = [f for f in report.findings if f.rule == "dates-missing"]
        assert len(dated) == 2
        assert all(f.severity.value == "warning" for f in dated)
        assert not report.has_errors
        assert not any(f.rule == "dates-missing" for f in self.validate(MINIMAL).findings)

    def test_strict_requires_tq_when_temporal(self):
        doc = json.dumps(
            {
                "netsJSON": "basic",
                "info": {
                    "time": {"Tmin": 0, "Tmax": 5},
                    "created": "2020-01-01",
                    "modified": "2020-01-02",
                },
                "nodes": [{"id": "a", "tq": [[0, 2, 1]]}, {"id": "b"}],
                "links": [],
            }
        )
        strict = self.validate(doc, strict=True)
        assert [f.rule for f in strict.findings] == ["tq-missing"]
        assert self.validate(doc).findings == ()

    def test_link_tq_checked_as_node_tq_is(self):
        doc = json.dumps(
            {
                "netsJSON": "basic",
                "info": {
                    "time": {"Tmin": 0, "Tmax": 5},
                    "created": "2020-01-01",
                    "modified": "2020-01-02",
                },
                "nodes": [{"id": "a", "tq": [[0, 2, 1]]}, {"id": "b", "tq": [[0, 2, 1]]}],
                "links": [
                    {"n1": "a", "n2": "b", "rel": "r", "tq": [[0, 3, 1], [2, 4, 2]]},
                    {"n1": "b", "n2": "a", "rel": "r"},
                ],
            }
        )
        overlap = ("tq-overlap", "$.links[0].tq", "intervals 0 and 1 overlap")
        missing = ("tq-missing", "$.links[1]", "temporal network link lacks a tq")
        found = lambda report: [(f.rule, f.location, f.message) for f in report.findings]
        assert found(self.validate(doc, strict=True)) == [overlap, missing]
        assert found(self.validate(doc)) == [overlap]
