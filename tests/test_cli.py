from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import gc
import io
import json
import os
import random
import shutil
import stat
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import DATA, normalize_layout
from corpus import CORPUS, corpus_path
from netconv import (
    CodingError,
    Level,
    NetconvError,
    TableOptions,
    canonical_order,
    check_all,
    defactorize_network,
    factorize_network,
    network_to_tables,
    parse_netsjson,
    read_link_table,
    read_node_table,
    read_pajek_net,
    tables_to_network,
    validate_netsjson_document,
    write_pajek_net,
    write_table,
)
from netconv.cli import FORMATS, build_parser, main
from netconv import netsjson
from netconv.netsjson import PARSE_FATAL, check_netsjson
from netgen import random_csv_network, random_pajek_network


@pytest.fixture()
def bib_paths(tmp_path):
    nodes = tmp_path / "bibNodes.csv"
    links = tmp_path / "bibLinks.csv"
    shutil.copy(DATA / "bibNodes.csv", nodes)
    shutil.copy(DATA / "bibLinks.csv", links)
    return nodes, links


def convert_bib_to_net(bib_paths, tmp_path):
    nodes, links = bib_paths
    out = tmp_path / "bib.net"
    status = main(
        [
            "convert",
            "--from",
            "csv",
            "--to",
            "net",
            "--nodes",
            str(nodes),
            "--links",
            str(links),
            "-o",
            str(out),
        ]
    )
    assert status == 0
    return out


class TestConvert:
    def test_csv_to_net_matches_golden(self, bib_paths, tmp_path):
        out = convert_bib_to_net(bib_paths, tmp_path)
        produced = out.read_text(encoding="utf-8")
        golden = (DATA / "bib.golden.net").read_text(encoding="utf-8")
        assert normalize_layout(produced) == normalize_layout(golden)

    def test_net_json_net_round_trip_bytes(self, bib_paths, tmp_path):
        net_path = convert_bib_to_net(bib_paths, tmp_path)
        json_path = tmp_path / "bib.json"
        back_path = tmp_path / "bib2.net"
        assert main(["convert", "-i", str(net_path), "-o", str(json_path)]) == 0
        assert main(["convert", "-i", str(json_path), "-o", str(back_path)]) == 0
        assert back_path.read_bytes() == net_path.read_bytes()

    def test_empty_csv_pair(self, tmp_path):
        nodes = tmp_path / "n.csv"
        links = tmp_path / "l.csv"
        nodes.write_text("name\n", encoding="utf-8")
        links.write_text("from;relation;to\n", encoding="utf-8")
        out = tmp_path / "empty.net"
        status = main(
            ["convert", "--nodes", str(nodes), "--links", str(links), "-o", str(out)]
        )
        assert status == 0
        assert out.read_text(encoding="utf-8") == "*vertices 0\n*arcs\n"

    def test_net_output_base_zero_rejected(self, bib_paths, tmp_path, capsys, monkeypatch):
        nodes, links = bib_paths
        monkeypatch.chdir(tmp_path)
        for target in (["--to", "net"], ["-o", "x.net"]):
            argv = ["convert", "--base", "0", "--nodes", str(nodes), "--links", str(links), *target]
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: Pajek NET output requires --base 1\n"
        assert not (tmp_path / "x.net").exists()

    def test_csv_to_csv_rejected(self, bib_paths, tmp_path, capsys):
        nodes, links = bib_paths
        argv = ["convert", "--from", "csv", "--to", "csv", "--nodes", str(nodes), "--links", str(links)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: csv-to-csv conversion is not supported\n"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.net"
        bad.write_text("*vertices 1\n2 \"out of range\"\n", encoding="utf-8")
        status = main(["convert", "-i", str(bad), "-o", str(tmp_path / "o.json")])
        assert status == 2
        assert "error" in capsys.readouterr().err

    def test_no_partial_output_on_validation_failure(self, tmp_path, capsys):
        doc = {
            "netsJSON": "basic",
            "info": {"org": 5},
            "nodes": [{"id": "a"}],
            "links": [],
        }
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "never.net"
        status = main(["convert", "-i", str(src), "-o", str(out)])
        assert status == 1
        assert not out.exists()
        assert "org-invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664)], ids=["022", "002"])
    def test_output_mode_follows_umask(self, umask, mode, bib_paths, tmp_path):
        previous = os.umask(umask)
        try:
            out = convert_bib_to_net(bib_paths, tmp_path)
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == mode

    @pytest.mark.parametrize("mode", [0o600, 0o640], ids=["600", "640"])
    def test_existing_output_keeps_its_mode(self, mode, bib_paths, tmp_path):
        out = tmp_path / "bib.net"
        out.write_text("old\n", encoding="utf-8")
        out.chmod(mode)
        previous = os.umask(0o022)
        try:
            convert_bib_to_net(bib_paths, tmp_path)
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert out.read_text(encoding="utf-8").startswith("*vertices 16\n")

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "dangling"])
    def test_output_written_through_symbolic_link(self, existing, bib_paths, tmp_path):
        target = tmp_path / "real" / "target.net"
        target.parent.mkdir()
        if existing:
            target.write_text("old\n", encoding="utf-8")
            target.chmod(0o600)
        (tmp_path / "bib.net").symlink_to(target)
        out = convert_bib_to_net(bib_paths, tmp_path)
        assert out.is_symlink() and os.readlink(out) == str(target)
        assert target.read_text(encoding="utf-8").startswith("*vertices 16\n")
        assert [p.name for p in target.parent.iterdir()] == ["target.net"]  # no temporaries
        if existing:
            assert stat.S_IMODE(target.stat().st_mode) == 0o600

    def test_csv_pair_written_together_or_not_at_all(self, tmp_path, capsys):
        shutil.copy(DATA / "bib.golden.net", tmp_path / "bib.net")
        nodes = tmp_path / "n.csv"
        nodes.write_text("old\n", encoding="utf-8")
        argv = ["convert", "-i", str(tmp_path / "bib.net"), "--to", "csv", "--nodes", str(nodes)]
        assert main([*argv, "--links", str(tmp_path / "missing_dir" / "l.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
        assert nodes.read_text(encoding="utf-8") == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bib.net", "n.csv"]  # no temporaries

    def test_stdout_output(self, bib_paths, capsys):
        nodes, links = bib_paths
        status = main(
            ["convert", "--to", "net", "--nodes", str(nodes), "--links", str(links)]
        )
        assert status == 0
        assert capsys.readouterr().out.startswith("*vertices 16\n")

    def test_factorize_flag_produces_coded_json(self, bib_paths, tmp_path):
        nodes, links = bib_paths
        out = tmp_path / "bib.json"
        status = main(
            [
                "convert",
                "--to",
                "netsjson",
                "--factorize",
                "--nodes",
                str(nodes),
                "--links",
                str(links),
                "-o",
                str(out),
            ]
        )
        assert status == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["nodes"][0]["id"] == 1
        assert doc["info"]["nodeCoding"][0] == "Batagelj, Vladimir"

    def test_csv_output(self, bib_paths, tmp_path):
        net_path = convert_bib_to_net(bib_paths, tmp_path)
        out_nodes = tmp_path / "out_nodes.csv"
        out_links = tmp_path / "out_links.csv"
        status = main(
            [
                "convert",
                "-i",
                str(net_path),
                "--to",
                "csv",
                "--nodes",
                str(out_nodes),
                "--links",
                str(out_links),
            ]
        )
        assert status == 0
        assert out_nodes.read_text(encoding="utf-8").splitlines()[0] == "name;x;y"
        assert len(out_links.read_text(encoding="utf-8").splitlines()) == 20

    def test_csv_json_csv_fixed_point(self, bib_paths, tmp_path):
        nodes, links = bib_paths
        first_json = tmp_path / "a.json"
        assert (
            main(
                [
                    "convert",
                    "--to",
                    "netsjson",
                    "--nodes",
                    str(nodes),
                    "--links",
                    str(links),
                    "-o",
                    str(first_json),
                ]
            )
            == 0
        )
        n2 = tmp_path / "n2.csv"
        l2 = tmp_path / "l2.csv"
        assert (
            main(
                ["convert", "-i", str(first_json), "--to", "csv", "--nodes", str(n2), "--links", str(l2)]
            )
            == 0
        )
        second_json = tmp_path / "b.json"
        assert (
            main(
                [
                    "convert",
                    "--to",
                    "netsjson",
                    "--nodes",
                    str(n2),
                    "--links",
                    str(l2),
                    "-o",
                    str(second_json),
                ]
            )
            == 0
        )
        assert second_json.read_bytes() == first_json.read_bytes()


class TestValidate:
    def test_valid_document_strict(self, bib_paths, tmp_path, capsys):
        net_path = convert_bib_to_net(bib_paths, tmp_path)
        json_path = tmp_path / "bib.json"
        assert main(["convert", "-i", str(net_path), "-o", str(json_path)]) == 0
        assert main(["validate", str(json_path), "--level", "strict"]) == 0
        # strict only warns about the recommended dates being absent
        assert "dates-missing" in capsys.readouterr().err
        capsys.readouterr()
        assert main(["validate", str(json_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_corrupted_counter(self, bib_paths, tmp_path, capsys):
        net_path = convert_bib_to_net(bib_paths, tmp_path)
        json_path = tmp_path / "bib.json"
        assert main(["convert", "-i", str(net_path), "-o", str(json_path)]) == 0
        text = json_path.read_text(encoding="utf-8").replace('"nNodes":16', '"nNodes":15')
        json_path.write_text(text, encoding="utf-8")
        status = main(["validate", str(json_path), "--level", "strict"])
        assert status == 1
        assert "count-nodes-mismatch" in capsys.readouterr().err

    def test_nonexistent_path(self, tmp_path):
        assert main(["validate", str(tmp_path / "missing.json")]) == 2

    def test_net_file(self, bib_paths, tmp_path, capsys):
        net_path = convert_bib_to_net(bib_paths, tmp_path)
        assert main(["validate", str(net_path), "--level", "strict"]) == 0
        broken = tmp_path / "broken.net"
        broken.write_text("*vertices 1\n5 \"out of range\"\n", encoding="utf-8")
        assert main(["validate", str(broken)]) == 1
        assert "error" in capsys.readouterr().err

    def test_csv_pair(self, bib_paths):
        nodes, links = bib_paths
        status = main(
            ["validate", str(nodes), "--format", "csv", "--links", str(links)]
        )
        assert status == 0

    def test_report_json_lines(self, tmp_path, capsys):
        doc = tmp_path / "bad.json"
        doc.write_text('{"netsJSON": "basic"}', encoding="utf-8")
        status = main(["validate", str(doc), "--report", "json"])
        assert status == 1
        lines = capsys.readouterr().err.strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert all(p["rule"] == "member-missing" for p in parsed)

    def test_netsjson_from_stdin(self, monkeypatch, capsys):
        clean = '{"netsJSON": "basic", "info": {}, "nodes": [{"id": "a"}], "links": []}'
        malformed = '{"netsJSON": '
        for text, status, err in ((clean, 0, ""), (malformed, 1, "error: [json-malformed] $: ")):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
            assert main(["validate", "-", "--format", "netsjson"]) == status
            assert capsys.readouterr().err.startswith(err)

    @pytest.mark.parametrize("report", ["text", "json"])
    @pytest.mark.parametrize("level", ["lenient", "strict"])
    @pytest.mark.parametrize(
        "path",
        [corpus_path(rule) for rule in CORPUS] + [DATA / "temporal_full.json"],
        ids=lambda p: p.name,
    )
    def test_netsjson_prints_the_walk_report(self, path, level, report, capsys):
        with open(path, encoding="utf-8", newline="") as stream:
            expected = validate_netsjson_document(stream, strict=level == "strict")
        text = expected.to_json_lines() if report == "json" else expected.to_text()
        status = main(["validate", str(path), "--level", level, "--report", report])
        assert status == (1 if expected.has_errors else 0)
        assert capsys.readouterr().err == (text + "\n" if text else "")

    def test_directed_kind_mismatch_reported_once(self, capsys):
        assert main(["validate", str(corpus_path("directed-kind-mismatch"))]) == 0
        assert capsys.readouterr().err.count("[directed-kind-mismatch]") == 1

    def test_main_restores_collector_state(self):
        try:
            for enabled in (True, False):
                gc.enable() if enabled else gc.disable()
                main(["validate", str(DATA / "temporal_full.json")])
                assert gc.isenabled() is enabled
        finally:
            gc.enable()


def valid_document(**info) -> dict:
    return {
        "netsJSON": "basic",
        "info": {"org": 1, **info},
        "nodes": [{"id": "a"}, {"id": "b"}],
        "links": [{"n1": "a", "n2": "b", "rel": "r"}],
    }


def with_member(doc: dict, path: tuple, value) -> dict:
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


# Documents the schema check used to pass that then failed to parse (an
# exception, or a crash while building), each with the locator of the
# member-type finding they now get.
SCHEMA_PASSED_PARSE_FAILED = {
    "tlabs-value-number": (
        valid_document(time={"Tmin": 0, "Tmax": 9, "Tlabs": {"3": 5}}),
        "$.info.time.Tlabs.3",
    ),
    "event-url-number": (
        valid_document(meta=[{"date": "2020-01-01", "title": "release", "url": 5}]),
        "$.info.meta[0].url",
    ),
    "relations-repeated-level": (valid_document(relations=["r", "r"]), "$.info.relations"),
    "property-coding-not-array": (
        valid_document(propertyCodings={"k": 5}),
        "$.info.propertyCodings.k",
    ),
    "info-null": (with_member(valid_document(), ("info",), None), "$.info"),
    "rel-integer-in-labeled": (
        with_member(valid_document(), ("links", 0, "rel"), 1),
        "$.links[0].rel",
    ),
    "rel-empty": (with_member(valid_document(), ("links", 0, "rel"), ""), "$.links[0].rel"),
    "x-beyond-float": (
        with_member(valid_document(), ("nodes", 0, "x"), 10**400),
        "$.nodes[0].x",
    ),
    "interval-bound-beyond-float": (
        with_member(valid_document(), ("nodes", 0, "span"), {"lo": 1, "hi": 10**400}),
        "$.nodes[0].span",
    ),
}


class TestValidateNeverRaises:
    @pytest.mark.parametrize("name", sorted(SCHEMA_PASSED_PARSE_FAILED))
    def test_schema_gap_documents_report_member_type(self, name, tmp_path, capsys):
        doc, locator = SCHEMA_PASSED_PARSE_FAILED[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for level in ("lenient", "strict"):
            assert main(["validate", str(path), "--level", level]) == 1
            lines = capsys.readouterr().err.splitlines()
            assert f"error: [member-type] {locator}: " in "\n".join(lines)
            assert all(line.startswith(("error: ", "warning: ")) for line in lines)

    @pytest.mark.parametrize(
        "argv, name, status",
        [
            (["validate", "{}"], "bad.json", 1),
            (["convert", "-i", "{}", "-o", "{}.net"], "bad.json", 2),
            (["validate", "{}"], "bad.net", 1),
            (["convert", "-i", "{}", "-o", "{}.json"], "bad.net", 2),
            (["info", "{}"], "bad.net", 2),
            (["partition", "-i", "{}", "--format", "net", "--property", "p"], "bad.net", 2),
            (["validate", "{}", "--format", "csv", "--links", "{}"], "bad.csv", 1),
            (["convert", "--nodes", "{}", "--links", "{}", "--to", "net"], "bad.csv", 2),
        ],
    )
    def test_undecodable_input_one_error_line(self, argv, name, status, tmp_path, capsys):
        text = {
            "bad.json": '{"netsJSON": "basic", "info": {}, "nodes": [{"id": "\u00e9"}], "links": []}',
            "bad.net": '*vertices 1\n1 "\u00e9"\n',
            "bad.csv": "name;relation;from;to\n\u00e9;r;a;b\n",
        }[name]
        path = tmp_path / name
        path.write_bytes(text.encode("latin-1"))
        assert main([arg.replace("{}", str(path)) for arg in argv]) == status
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "input is not valid utf-8" in err


# Member names the mutations below draw from, so they hit the schema.
SCHEMA_KEYS = sorted(
    {"netsJSON", "info", "nodes", "links", "data", "org", "nNodes", "nArcs", "nEdges",
     "simple", "directed", "multirel", "mode", "network", "title", "time", "Tmin", "Tmax",
     "Tlabs", "meta", "date", "url", "created", "modified", "relations", "nodeCoding",
     "propertyCodings", "id", "lab", "slab", "x", "y", "tq", "type", "n1", "n2", "rel",
     "weight", "label", "lo", "hi", "3", "k"}
)  # fmt: skip
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 12)
    | st.sampled_from([0.5, 1e308, 10**400])
    | st.sampled_from(["", "a", "b", "r", "arc", "edge", "2020-01-01", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(SCHEMA_KEYS), inner, max_size=3),
    max_leaves=6,
)


def corpus_texts() -> dict[str, str]:
    paths = [corpus_path(rule) for rule in CORPUS] + [DATA / "temporal_full.json"]
    texts = {path.name: path.read_text(encoding="utf-8") for path in paths}
    return texts | {"array-root": "[]", "null-root": "null"}


def mutation_seeds() -> list:
    seeds = []
    for text in corpus_texts().values():
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, (dict, list)):  # a mutation needs a container to change
            seeds.append(doc)
    factorized = valid_document(relations=["r"], nodeCoding=["a", "b"])
    factorized["nodes"] = [{"id": 1, "tq": [[0, 2, {"lo": 1, "hi": 2}]]}, {"id": 2}]
    factorized["links"] = [{"n1": 1, "n2": 2, "rel": 1, "type": "edge", "span": {"lo": 2, "hi": 1}}]
    return seeds + [valid_document(), factorized]


def containers(value, out):
    if isinstance(value, (dict, list)):
        out.append(value)
        for item in value.values() if isinstance(value, dict) else value:
            containers(item, out)
    return out


def assert_parse_raises_exactly_on_fatal_findings(text: str) -> None:
    report = validate_netsjson_document(io.StringIO(text))
    fatal = [f for f in report.errors if f.rule in PARSE_FATAL]
    if not fatal:
        parse_netsjson(io.StringIO(text))  # must not raise
        return
    with pytest.raises(PARSE_FATAL[fatal[0].rule]) as excinfo:
        parse_netsjson(io.StringIO(text))
    assert f"[{fatal[0].rule}] {fatal[0].location}: " in str(excinfo.value)


def refactorize(base: int):
    return lambda network: factorize_network(defactorize_network(network), base)


# The transforms convert can apply to the network it read; it writes the
# canonical_order of the result and runs no check on it.
CONVERT_TRANSFORMS = {
    "identity": lambda network: network,
    "factorize-0": refactorize(0),
    "factorize-1": refactorize(1),
    "defactorize": defactorize_network,
}


def converted(network, transform: str):
    """The network convert writes after ``transform``; None when that raises."""
    try:
        return canonical_order(CONVERT_TRANSFORMS[transform](network))
    except NetconvError:  # convert prints the one error line and exits 2
        return None


def assert_walk_reports_what_check_all_finds(text: str) -> None:
    try:
        network = parse_netsjson(io.StringIO(text))
    except NetconvError:
        return
    for level in Level:
        report = validate_netsjson_document(io.StringIO(text), strict=level is Level.STRICT)
        reported = {(f.severity, f.rule) for f in report.findings}
        for transform in CONVERT_TRANSFORMS:
            output = converted(network, transform)
            if output is None:
                continue
            found = {(f.severity, f.rule) for f in check_all(output, level).findings}
            missed = sorted(found - reported)
            assert not missed, f"{level.value}, {transform}: the walk misses {missed}"


def mutated_document(data) -> str:
    """A corpus document after one to three random edits of its members."""
    doc = copy.deepcopy(data.draw(st.sampled_from(mutation_seeds())))
    for _ in range(data.draw(st.integers(1, 3))):
        target = data.draw(st.sampled_from(containers(doc, [])))
        if isinstance(target, dict):
            key = data.draw(st.sampled_from(sorted(target) + SCHEMA_KEYS))
            if key in target and data.draw(st.booleans()):
                del target[key]
            else:
                target[key] = data.draw(JSON_VALUES)
        elif target and data.draw(st.booleans()):
            target[data.draw(st.integers(0, len(target) - 1))] = data.draw(JSON_VALUES)
        else:
            target.append(data.draw(JSON_VALUES))
    return json.dumps(doc)


class TestParseAgreesWithValidate:
    """parse_netsjson raises exactly when the report has a parse-fatal error,
    and its message carries that finding's rule and locator. On a document
    it accepts, the report holds every (severity, rule) check_all finds on
    the parsed network, and on what each convert transform makes of it."""

    @pytest.mark.parametrize("name", sorted(corpus_texts()))
    def test_corpus(self, name):
        assert_parse_raises_exactly_on_fatal_findings(corpus_texts()[name])
        assert_walk_reports_what_check_all_finds(corpus_texts()[name])

    def test_multirel_absent_means_one_relation(self):
        doc = valid_document()
        doc["links"].append({"n1": "b", "n2": "a", "rel": "s"})
        report = validate_netsjson_document(io.StringIO(json.dumps(doc)))
        assert [(f.rule, f.location) for f in report.errors] == [("multirel-violated", "$.links")]

    def test_directed_absent_means_directed(self):
        doc = with_member(valid_document(), ("links", 0, "type"), "edge")
        report = validate_netsjson_document(io.StringIO(json.dumps(doc)))
        assert [(f.severity.value, f.rule) for f in report.findings] == [
            ("warning", "directed-kind-mismatch")
        ]

    @given(st.data())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_mutated_documents(self, data):
        text = mutated_document(data)
        assert_parse_raises_exactly_on_fatal_findings(text)
        assert_walk_reports_what_check_all_finds(text)


def assert_findings_only_walk_agrees(text: str) -> None:
    """The walk reports the same findings, at both levels, whether or not it builds."""
    for strict in (False, True):
        report, network = check_netsjson(io.StringIO(text), strict, build=False)
        assert network is None
        assert report == check_netsjson(io.StringIO(text), strict, build=True)[0]


class TestFindingsOnlyWalk:
    """``validate`` walks a document without building its records, and loses
    no finding by it."""

    @pytest.mark.parametrize("name", sorted(corpus_texts()))
    def test_corpus(self, name):
        assert_findings_only_walk_agrees(corpus_texts()[name])

    @given(st.data())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_mutated_documents(self, data):
        assert_findings_only_walk_agrees(mutated_document(data))

    def test_builds_no_record(self, monkeypatch):
        texts = corpus_texts()
        expected = {name: check_netsjson(io.StringIO(text), True)[0] for name, text in texts.items()}

        def refuse(*args, **kwargs):
            raise AssertionError("the findings-only walk built a record")

        for name in ("NodeRecord", "LinkRecord", "TemporalQuantity"):
            monkeypatch.setattr(netsjson, name, refuse)
        for name, text in texts.items():
            assert validate_netsjson_document(io.StringIO(text), strict=True) == expected[name], name
        with pytest.raises(AssertionError, match="built a record"):
            parse_netsjson(io.StringIO(texts["temporal_full.json"]))


class TestTransformsKeepFindings:
    """check_all finds the same on a NET or CSV network before and after each
    convert transform, so checking the network read loses no finding."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        source=st.sampled_from(["net", "csv"]),
        flags=st.fixed_dictionaries(
            {"simple": st.booleans(), "directed": st.booleans(), "multirel": st.booleans()}
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_networks(self, seed, source, flags):
        rng = random.Random(seed)
        if source == "net":
            text = write_pajek_net(random_pajek_network(rng, 30, 30)[0])
            network = read_pajek_net(io.StringIO(text))
        else:
            network = random_csv_network(rng, 30, 30)
        network = network._replace(info=network.info._replace(**flags))
        for level in Level:
            before = check_all(network, level).findings
            for transform in CONVERT_TRANSFORMS:
                after = converted(network, transform)
                assert after is not None, transform
                assert check_all(after, level).findings == before, transform


NO_FILE = "error: [Errno 2] No such file or directory: '{}'\n"
CANNOT_INFER = "error: cannot determine format; use --format\n"
NEED_CSV_PATHS = "error: csv input requires --nodes and --links paths\n"
BAD_NET = "error: line 2: vertex number 5 outside [1, 1]\n"
BAD_JSON = "error: [json-malformed] $: Expecting value: line 1 column 14 (char 13)\n"
BAD_CSV = "error: node table: line 2: expected 2 cells, found 1\n"
EMPTY_LABEL = "error: line 2: empty vertex label\n"
NO_RELATION = "error: link table contains a missing 'relation' value\n"
MIXED_KINDS = "warning: [directed-kind-mismatch] $.links: directed network contains edges\n"
UNDIRECTED_ARCS = "warning: [directed-kind-mismatch] $.links: undirected network contains arcs\n"
LONG_SLAB = "error: [slab-longer-than-label] $.nodes[0].slab: short label longer than label\n"
TEXT_X = "error: node row 1: x 'left' is not numeric\n"
TWICE = "error: link table: line 1: column 'to' appears twice in the header\n"
SHORT_ROW = "error: link table: line 2: expected 3 cells, found 2\n"

# (argv, exit status, standard error) for each subcommand and way of failing;
# run in a directory holding the files written by `failure_files`.
CLI_FAILURES = {
    "unknown-format": [
        ("convert -i x.txt -o y.net", 2, "error: cannot determine formats; use --from/--to\n"),
        ("validate x.txt", 2, CANNOT_INFER),
        ("info x.txt", 2, CANNOT_INFER),
        ("partition -i x.txt --property p", 2, CANNOT_INFER),
        ("partition --property p", 2, CANNOT_INFER),
    ],
    "missing-path": [
        ("convert --from csv --to net --nodes n.csv", 2, NEED_CSV_PATHS),
        ("convert --from net --to netsjson", 2, "error: net input requires -i/--input\n"),
        ("convert -i bib.net --to csv --nodes o.csv", 2,
         "error: csv output requires --nodes and --links paths\n"),
        ("validate n.csv --format csv", 2, NEED_CSV_PATHS),
        ("info n.csv --format csv", 2, NEED_CSV_PATHS),
        ("partition -i bib.net --format csv --nodes n.csv --property p", 2, NEED_CSV_PATHS),
    ],
    "nonexistent-file": [
        ("convert -i missing.net -o o.json", 2, NO_FILE.format("missing.net")),
        ("validate missing.json", 2, NO_FILE.format("missing.json")),
        ("validate missing.net", 2, NO_FILE.format("missing.net")),
        ("validate missing.csv --links l.csv", 2, NO_FILE.format("missing.csv")),
        ("info missing.net", 2, NO_FILE.format("missing.net")),
        ("partition -i missing.net --property p", 2, NO_FILE.format("missing.net")),
        ("partition -i bib.net --via-csv missing.csv --property mode", 2,
         NO_FILE.format("missing.csv")),
    ],
    "unreadable-input": [
        ("convert -i bad.net -o o.json", 2, BAD_NET),
        ("convert -i bad.json -o o.net", 2, BAD_JSON),
        ("convert --nodes bad.csv --links l.csv -o o.net", 2, BAD_CSV),
        ("validate bad.net", 1, BAD_NET),
        ("validate bad.json", 1, BAD_JSON),
        ("validate bad.csv --links l.csv", 1, BAD_CSV),
        ("info bad.net", 2, BAD_NET),
        ("info bad.json", 2, BAD_JSON),
        ("info bad.csv --links l.csv", 2, BAD_CSV),
        ("partition -i bad.net --property p", 2, BAD_NET),
        ("partition -i bad.json --property p", 2, BAD_JSON),
        ("partition -i x --format csv --nodes bad.csv --links l.csv --property p", 2, BAD_CSV),
        ("convert -i nolabel.net -o o.json", 2, EMPTY_LABEL),
        ("validate nolabel.net", 1, EMPTY_LABEL),
        ("info nolabel.net", 2, EMPTY_LABEL),
        ("partition -i nolabel.net --property p", 2, EMPTY_LABEL),
        ("convert --nodes n.csv --links norel.csv -o o.net", 2, NO_RELATION),
        ("validate n.csv --links norel.csv", 1, NO_RELATION),
        ("info n.csv --links norel.csv", 2, NO_RELATION),
    ],
    "validation-error": [
        ("convert -i org.json -o o.net", 1,
         "error: [org-invalid] $.info.org: smallest index must be 0 or 1, got 2\n"),
        ("validate org.json", 1,
         "error: [org-invalid] $.info.org: smallest index must be 0 or 1, got 2\n"),
        ("info org.json", 0, ""),
        ("partition -i org.json --property p", 1,
         "error: unknown property 'p': absent on every node\n"),
    ],
    "network-rule": [
        ("validate mixed.net", 0, MIXED_KINDS),
        ("convert -i mixed.net -o o.json", 0, MIXED_KINDS),
        ("validate slab.csv --links loop.csv", 1, LONG_SLAB),
        ("convert --nodes slab.csv --links loop.csv -o o.net", 1, LONG_SLAB),
        ("validate --format csv slab.csv --links kinds.csv --directed", 1, LONG_SLAB + MIXED_KINDS),
        ("convert --from csv --to net --nodes slab.csv --links kinds.csv", 1,
         LONG_SLAB + MIXED_KINDS),
        ("validate --format csv slab.csv --links kinds.csv --undirected", 1,
         LONG_SLAB + UNDIRECTED_ARCS),
        ("convert --nodes slab.csv --links kinds.csv --undirected -o o.net", 1,
         LONG_SLAB + UNDIRECTED_ARCS),
        ("validate n.csv --links edges.csv --undirected", 0, ""),
        ("convert --nodes n.csv --links l.csv --undirected -o o.net", 0, ""),
        ("validate n.csv --links l.csv --undirected --level strict", 0, ""),
        # a NET file's sections, not the flag, say which links are arcs
        ("validate --format net mixed.net --undirected", 0, MIXED_KINDS),
        ("convert -i mixed.net --undirected -o o.json", 0, MIXED_KINDS),
    ],
    "text-in-number-column": [
        ("convert --nodes textx.csv --links loop.csv -o o.net", 2, TEXT_X),
        ("validate textx.csv --links loop.csv", 1, TEXT_X),
        ("info textx.csv --links loop.csv", 2, TEXT_X),
        ("partition -i bib.net --via-csv textx.csv --property mode", 2, TEXT_X),
    ],
    "same-output-file": [
        ("convert -i bib.net --to csv --nodes t.csv --links ./t.csv", 2,
         "error: csv output requires --nodes and --links to be different files\n"),
    ],
    "bad-option": [
        ("validate n.csv --links l.csv --decimal=", 2, "error: --decimal must be one character, got ''\n"),
        ("convert --nodes n.csv --links l.csv -o o.net --decimal=,,", 2,
         "error: --decimal must be one character, got ',,'\n"),
    ],
    "reserved-column-property": [
        # a NetsJSON node property named like a reserved csv column would lose its values
        ("convert -i named.json --to csv --nodes cn.csv --links cl.csv", 2,
         "error: node property 'name' collides with a reserved column\n"),
        ("convert -i named.json -o o.net", 0, ""),
    ],
    "repeated-column": [
        ("convert --nodes n.csv --links twice.csv -o o.net", 2, TWICE),
        ("validate n.csv --links twice.csv", 1, TWICE),
        ("info n.csv --links twice.csv", 2, TWICE),
    ],
    "csv-row-width": [  # the message names the table that holds the line
        ("validate --format csv ab.csv --links short.csv", 1, SHORT_ROW),
        ("convert --nodes ab.csv --links short.csv -o o.net", 2, SHORT_ROW),
        ("info ab.csv --links short.csv", 2, SHORT_ROW),
    ],
    "unknown-property": [
        ("partition -i bib.net --property nope -o x.clu", 1,
         "error: unknown property 'nope': absent on every node\n"),
        ("partition -i bib.net --via-csv n.csv --property nope", 1,
         "error: unknown property 'nope': absent on every node\n"),
    ],
}


@pytest.fixture()
def failure_files(tmp_path, monkeypatch):
    shutil.copy(DATA / "bib.golden.net", tmp_path / "bib.net")
    shutil.copy(DATA / "bibNodes.csv", tmp_path / "n.csv")
    shutil.copy(DATA / "bibLinks.csv", tmp_path / "l.csv")
    shutil.copy(corpus_path("org-invalid"), tmp_path / "org.json")
    for name, text in (
        ("bad.net", '*vertices 1\n5 "x"\n'),
        ("bad.json", '{"netsJSON": '),
        ("bad.csv", 'name;x\n"a;1\n'),
        ("nolabel.net", '*vertices 1\n1 ""\n'),
        ("norel.csv", 'from;relation;to\n"Batagelj, Vladimir";;"Mrvar, Andrej"\n'),
        ("mixed.net", "*vertices 2\n*arcs\n1 2\n*edges\n2 1\n"),
        ("edges.csv", 'from;relation;to;kind\n"Batagelj, Vladimir";r;"Mrvar, Andrej";edge\n'),
        ("slab.csv", "name;slab\na;abcd\n"),
        ("loop.csv", "from;relation;to\na;r;a\n"),
        ("kinds.csv", "from;relation;to;kind\na;r;a;arc\na;s;a;edge\na;r;a;NA\n"),
        ("textx.csv", "name;x;y\na;left;1\nb;2;2\n"),
        ("x.txt", "hi\n"),
        ("named.json", '{"netsJSON": "basic", "info": {}, "nodes": [{"id": "a", "name": "b"}], '
                       '"links": []}'),
        ("twice.csv", 'from;relation;to;to\n"Batagelj, Vladimir";r;zz;"Mrvar, Andrej"\n'),
        ("ab.csv", "name\na\nb\n"),
        ("short.csv", "from;relation;to\na;r\n"),
    ):
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestFailureTable:
    """Exit status and standard error of every subcommand on each way of failing."""

    @pytest.mark.parametrize(
        "argv, status, err",
        [row for rows in CLI_FAILURES.values() for row in rows],
        ids=[f"{case}:{row[0]}" for case, rows in CLI_FAILURES.items() for row in rows],
    )
    def test_failure(self, argv, status, err, failure_files, capsys):
        assert main(argv.split()) == status
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("delimiter", [";;", '"', "", "\n", "\r"])
    @pytest.mark.parametrize("command", ["convert --to net --nodes", "validate"])
    def test_bad_delimiter_is_a_usage_error(self, command, delimiter, failure_files, capsys):
        argv = [*command.split(), "n.csv", "--links", "l.csv", "--delimiter", delimiter]
        assert main(argv) == 2
        message = f"--delimiter must be one character other than '\"', '\\r' and '\\n', got {delimiter!r}"
        assert capsys.readouterr().err == f"error: {message}\n"


# NET and CSV inputs beside the NetsJSON corpus: (validate argv, convert argv,
# whether the input is unreadable), run where `failure_files` wrote its files.
NET_CSV_INPUTS = {
    "bib.net": ("validate bib.net", "convert -i bib.net", False),
    "bib.csv": ("validate n.csv --links l.csv", "convert --nodes n.csv --links l.csv", False),
    "mixed.net": ("validate mixed.net", "convert -i mixed.net", False),
    "edges.csv": ("validate n.csv --links edges.csv", "convert --nodes n.csv --links edges.csv", False),
    "slab.csv": ("validate slab.csv --links loop.csv", "convert --nodes slab.csv --links loop.csv", False),
    "kinds.csv": ("validate --format csv slab.csv --links kinds.csv",
                  "convert --from csv --nodes slab.csv --links kinds.csv", False),
    "bib.net --format": ("validate --format net bib.net", "convert --from net -i bib.net", False),
    "bad.net": ("validate bad.net", "convert -i bad.net", True),
    "bad.csv": ("validate bad.csv --links l.csv", "convert --nodes bad.csv --links l.csv", True),
    "textx.csv": ("validate textx.csv --links loop.csv", "convert --nodes textx.csv --links loop.csv", True),
}
# The readable ones again with --undirected: csv rows without a kind cell become edges.
NET_CSV_INPUTS |= {
    f"{name} --undirected": (f"{validate} --undirected", f"{convert} --undirected", False)
    for name, (validate, convert, unreadable) in NET_CSV_INPUTS.items()
    if not unreadable and not name.endswith("--format")
}


def has_parse_fatal_finding(path) -> bool:
    with open(path, encoding="utf-8", newline="") as stream:
        return any(f.rule in PARSE_FATAL for f in validate_netsjson_document(stream).errors)


NETSJSON_INPUTS = {
    path.name: (f"validate {path}", f"convert -i {path}", has_parse_fatal_finding(path))
    for path in [corpus_path(rule) for rule in CORPUS] + [DATA / "temporal_full.json"]
}


class TestConvertPrintsValidateReport:
    """convert checks its input once, with validate's checker, and prints the
    same report; it exits 1 exactly when validate does, but 2 on input it
    cannot read."""

    @pytest.mark.parametrize("report", ["text", "json"])
    @pytest.mark.parametrize("level", ["lenient", "strict"])
    @pytest.mark.parametrize("name", [*NETSJSON_INPUTS, *NET_CSV_INPUTS])
    def test_same_report(self, name, level, report, failure_files, capsys):
        validate, convert, unreadable = (NETSJSON_INPUTS | NET_CSV_INPUTS)[name]
        flags = ["--level", level, "--report", report]
        validate_status = main([*validate.split(), *flags])
        expected = capsys.readouterr().err
        convert_status = main([*convert.split(), "-o", "o.json", *flags])
        assert capsys.readouterr().err == expected
        assert convert_status == (2 if unreadable else validate_status)
        assert (failure_files / "o.json").exists() == (convert_status == 0)


class TestNodeCodesOutsideTheNodeCoding:
    """A factorized document whose node codes run past its nodeCoding has no
    label for them: validate and convert reject it (exit 1), convert with
    every output format, and write nothing."""

    FINDING = "error: [node-unlisted] $.nodes[1].id: code 2 not covered by info.nodeCoding\n"

    @pytest.mark.parametrize("level", ["lenient", "strict"])
    def test_validate(self, level, capsys):
        assert main(["validate", str(corpus_path("node-unlisted")), "--level", level]) == 1
        assert capsys.readouterr().err == self.FINDING

    @pytest.mark.parametrize("flag", ["--defactorize", "--factorize", None])
    @pytest.mark.parametrize("to", FORMATS)
    def test_convert(self, to, flag, tmp_path, capsys):
        argv = ["convert", "-i", str(corpus_path("node-unlisted")), "--to", to, "-o",
                str(tmp_path / "out"), "--nodes", str(tmp_path / "n.csv"), "--links",
                str(tmp_path / "l.csv"), *([flag] if flag else [])]
        assert main(argv) == 1
        assert capsys.readouterr().err == self.FINDING
        assert list(tmp_path.iterdir()) == []


def factorized_document(org: int = 1, relations=None, node_coding=None, labs=("a", "b"),
                        rels=(1,)) -> dict:
    """A factorized document: nodes ``org`` and ``org + 1`` (labeled by
    ``labs`` when given), one arc between them per code in ``rels``, and the
    coding tables given."""
    info = {"org": org, "multirel": True}
    if relations is not None:
        info["relations"] = relations
    if node_coding is not None:
        info["nodeCoding"] = node_coding
    nodes = [{"id": org + i, **({"lab": labs[i]} if labs else {})} for i in range(2)]
    return {"netsJSON": "basic", "info": info, "nodes": nodes,
            "links": [{"n1": org, "n2": org + 1, "rel": r} for r in rels]}


def run_cli(*argv) -> tuple[int, str]:
    """The exit status and standard error of one CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main([str(arg) for arg in argv])
    return status, err.getvalue()


class TestFactorizedWithoutNodeCoding:
    """A factorized document without nodeCoding whose node codes run from
    org without a gap names each code by itself: convert writes it to every
    format and with either transform, and its NetsJSON output carries that
    node table. Codes with a gap get no table, whatever the largest code."""

    def write(self, tmp_path, doc) -> str:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_csv_names_nodes_by_their_codes(self, tmp_path):
        path = self.write(tmp_path, factorized_document(relations=["r"]))
        nodes, links = tmp_path / "n.csv", tmp_path / "l.csv"
        assert run_cli("convert", "-i", path, "--to", "csv", "--nodes", nodes, "--links", links) == (0, "")
        assert nodes.read_text(encoding="utf-8") == "name;x;y\n1;;\n2;;\n"
        assert links.read_text(encoding="utf-8") == "from;relation;to\n1;r;2\n"

    def test_defactorize(self, tmp_path):
        path, out = self.write(tmp_path, factorized_document(relations=["r"])), tmp_path / "o.json"
        assert run_cli("convert", "-i", path, "-o", out, "--defactorize") == (0, "")
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [n["id"] for n in doc["nodes"]] == ["1", "2"] and "nodeCoding" not in doc["info"]
        assert doc["links"] == [{"n1": "1", "n2": "2", "rel": "r"}]

    @pytest.mark.parametrize("org, coding", [(1, ["1", "2"]), (0, ["0", "1"])])
    def test_netsjson_output_carries_the_node_table(self, org, coding, tmp_path):
        doc = factorized_document(org, relations=["r"], rels=(org,))
        path, out = self.write(tmp_path, doc), tmp_path / "o.json"
        assert run_cli("convert", "-i", path, "-o", out) == (0, "")
        assert json.loads(out.read_text(encoding="utf-8"))["info"]["nodeCoding"] == coding
        assert run_cli("validate", out) == (0, "")

    @pytest.mark.parametrize("org", [0, 1])
    def test_net_labels_nodes_without_lab_by_their_codes(self, org, tmp_path):
        doc = factorized_document(org, relations=["r"], labs=None, rels=(org,))
        path, out = self.write(tmp_path, doc), tmp_path / "o.net"
        assert run_cli("convert", "-i", path, "-o", out) == (0, "")
        vertices = out.read_text(encoding="utf-8").splitlines()[1:3]
        assert vertices == [f'1 "{org}"', f'2 "{org + 1}"']

    def test_sparse_codes_get_no_node_table(self, tmp_path, capsys):
        doc = factorized_document(relations=["r"])
        doc["nodes"][1]["id"] = doc["links"][0]["n2"] = 10**9
        path, out = self.write(tmp_path, doc), tmp_path / "o.json"
        assert run_cli("convert", "-i", path, "-o", out) == (0, "")
        written = json.loads(out.read_text(encoding="utf-8"))
        assert "nodeCoding" not in written["info"] and written["nodes"] == doc["nodes"]
        assert main(["info", path]) == 0
        assert capsys.readouterr().out.startswith("nodes: 2\n")
        refusal = "error: code 1 out of range [1, 0] for coding table 'node'\n"
        csv_paths = ["--nodes", tmp_path / "n.csv", "--links", tmp_path / "l.csv"]
        assert run_cli("convert", "-i", path, "--to", "csv", *csv_paths) == (2, refusal)
        assert run_cli("convert", "-i", path, "-o", out, "--defactorize") == (2, refusal)


# Inputs whose coded relation table is based away from org, each with the
# relations and link codes of its NetsJSON output, and its NET output.
OFF_BASE_RELATIONS = {
    "net-declares-code-2": ('*vertices 2\n1 "a"\n2 "b"\n*arcs :2 "x"\n*arcs\n2: 1 2\n',
                            ["x"], [1], '*arcs :1 "x"\n*arcs\n1: 1 2 1 l "x"\n'),
    "json-rel-above-org": (json.dumps(factorized_document(rels=(3,))),
                           ["3"], [1], '*arcs :1 "3"\n*arcs\n1: 1 2 1 l "3"\n'),
    "json-rel-below-org": (json.dumps(factorized_document(rels=(0,))),
                           ["0"], [1], '*arcs :1 "0"\n*arcs\n1: 1 2 1 l "0"\n'),
}


class TestRelationTablesWrittenFromOrg:
    """A coded relation table is rebased at org before writing, so the
    NetsJSON output validates; the NET output numbers relations by their
    place in the table, as before."""

    @pytest.mark.parametrize("name", sorted(OFF_BASE_RELATIONS))
    def test_outputs(self, name, tmp_path):
        text, relations, rels, arcs = OFF_BASE_RELATIONS[name]
        path = tmp_path / ("in.net" if name.startswith("net") else "in.json")
        path.write_text(text, encoding="utf-8")
        assert run_cli("convert", "-i", path, "-o", tmp_path / "o.json") == (0, "")
        doc = json.loads((tmp_path / "o.json").read_text(encoding="utf-8"))
        assert (doc["info"]["relations"], [l["rel"] for l in doc["links"]]) == (relations, rels)
        assert run_cli("validate", tmp_path / "o.json") == (0, "")
        assert run_cli("convert", "-i", path, "-o", tmp_path / "o.net") == (0, "")
        assert (tmp_path / "o.net").read_text(encoding="utf-8").endswith(arcs)


# Relation names and node names the documents below draw from.
NAMES = ["a", "b", "r", "s", "x y", '"q"', "1", "2"]


@st.composite
def factorized_documents(draw) -> dict:
    """A factorized document: node codes in any order, contiguous from org
    or sparse, with or without relations and nodeCoding; relation codes may
    start above or below org, or leave gaps. A node may carry a lab; NET
    output labels one without a lab by its name."""
    org = draw(st.sampled_from([0, 1]))
    if draw(st.booleans()):
        ids = draw(st.permutations(range(org, org + draw(st.integers(1, 4)))))
    else:
        ids = draw(st.lists(st.sampled_from([org - 1, org, org + 1, org + 3, 10**9]),
                            min_size=1, max_size=4, unique=True))
    n = len(ids)
    info = {"org": org, "multirel": True}
    if draw(st.booleans()):
        info["nodeCoding"] = draw(st.lists(st.sampled_from(NAMES), min_size=n, max_size=n + 3,
                                           unique=True))
    if draw(st.booleans()):
        info["relations"] = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3,
                                          unique=True))
        codes = st.integers(org, org + len(info["relations"]) - 1)
    else:
        codes = st.integers(org - 1, org + 4)
    links = [{"n1": draw(st.sampled_from(ids)), "n2": draw(st.sampled_from(ids)),
              "rel": draw(codes), **draw(st.sampled_from([{}, {"type": "edge"}]))}
             for _ in range(draw(st.integers(0, 4)))]
    nodes = [{"id": i, **draw(st.sampled_from([{}, {"lab": draw(st.sampled_from(NAMES))}]))}
             for i in ids]
    return {"netsJSON": "basic", "info": info, "nodes": nodes, "links": links}


def vertex_labels(doc: dict) -> list[str]:
    """The label NET output gives each node: its lab, else its name."""
    org, coding = doc["info"]["org"], doc["info"].get("nodeCoding")
    return [node.get("lab") or (coding[node["id"] - org] if coding else str(node["id"]))
            for node in doc["nodes"]]


class TestFactorizedDocumentsConvert:
    """Whenever validate accepts a factorized document, convert writes it to
    NetsJSON, and validate accepts what it writes. NET output, which numbers
    vertices 1 to n and names each by its label, needs node codes
    contiguous from org and distinct labels, and validate accepts what it
    writes; CSV output needs those codes or a nodeCoding to name the nodes.
    Either refuses otherwise, with exit 2."""

    @given(factorized_documents())
    @settings(max_examples=150, deadline=None)
    def test_accepted_documents_convert(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            if run_cli("validate", path)[0] != 0:
                return
            ids = sorted(node["id"] for node in doc["nodes"])
            contiguous = ids == list(range(doc["info"]["org"], doc["info"]["org"] + len(ids)))
            named = contiguous or "nodeCoding" in doc["info"]
            distinct = contiguous and len(set(vertex_labels(doc))) == len(ids)
            outputs = {"netsjson": (os.path.join(tmp, "o.json"), True),
                       "net": (os.path.join(tmp, "o.net"), distinct)}
            for to, (out, writable) in outputs.items():
                assert run_cli("convert", "-i", path, "-o", out)[0] == (0 if writable else 2), to
                assert not writable or run_cli("validate", out)[0] == 0, to
            csv_paths = ["--nodes", os.path.join(tmp, "n.csv"), "--links", os.path.join(tmp, "l.csv")]
            assert run_cli("convert", "-i", path, "--to", "csv", *csv_paths)[0] == (0 if named else 2)


class TestRepeatedVertexLabels:
    """NET names each vertex by its label, so convert refuses NET output
    whose labels repeat (exit 2, no file) rather than write a file that
    validate rejects; the document itself validates."""

    @pytest.mark.parametrize("nodes", [
        [{"id": 1, "lab": "2"}, {"id": 2}],
        [{"id": 1, "lab": "x"}, {"id": 2, "lab": "x"}],
        [{"id": "a", "lab": "b"}, {"id": "b"}],
    ])  # fmt: skip
    def test_net_output_refused(self, nodes, tmp_path):
        path, out = tmp_path / "in.json", tmp_path / "o.net"
        doc = {"netsJSON": "basic", "info": {"org": 1}, "nodes": nodes, "links": []}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("validate", path) == (0, "")
        label = nodes[0]["lab"]
        assert run_cli("convert", "-i", path, "-o", out) == (
            2, f"error: vertex label {label!r} names more than one node\n")
        assert not out.exists()


class TestPajekNetworkLine:
    """A ``*network`` line before ``*vertices`` names the network: NetsJSON
    output and ``info`` show the name, and NET output drops it."""

    def test_named_network(self, tmp_path, capsys):
        path, out = tmp_path / "eat.net", tmp_path / "eat.json"
        path.write_text('*Network EAT\n*vertices 2\n1 "a"\n2 "b"\n*arcs\n1 2\n', encoding="utf-8")
        assert run_cli("validate", path) == (0, "")
        assert run_cli("convert", "-i", path, "-o", out) == (0, "")
        assert json.loads(out.read_text(encoding="utf-8"))["info"]["network"] == "EAT"
        assert main(["info", str(path)]) == 0
        assert "network: EAT\n" in capsys.readouterr().out
        assert run_cli("convert", "-i", path, "-o", tmp_path / "eat2.net") == (0, "")
        assert "EAT" not in (tmp_path / "eat2.net").read_text(encoding="utf-8")


class TestCodedPropertiesAtAnotherBase:
    """--factorize at another base moves each int value of a coded property
    that lies in its table's range along with the table, so that it names
    the same level; every other value stays as it is."""

    def test_values_keep_their_levels(self, tmp_path):
        info = {"org": 1, "propertyCodings": {"kind": ["paper", "author", "venue"]}}
        nodes = [{"id": i, "kind": v} for i, v in zip("abcdef", (1, 3, 2, 10, True, "x"))]
        doc = {"netsJSON": "basic", "info": info, "nodes": nodes,
               "links": [{"n1": "a", "n2": "b", "rel": "r", "kind": 2}]}
        path, zero, one = tmp_path / "in.json", tmp_path / "zero.json", tmp_path / "one.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("convert", "-i", path, "-o", zero, "--factorize", "--base", 0) == (0, "")
        coded = json.loads(zero.read_text(encoding="utf-8"))
        assert coded["info"]["org"] == 0
        assert [n["kind"] for n in coded["nodes"]] == [0, 2, 1, 10, True, "x"]
        assert coded["links"][0]["kind"] == 1
        assert run_cli("convert", "-i", zero, "-o", one, "--factorize", "--base", 1) == (0, "")
        back = json.loads(one.read_text(encoding="utf-8"))
        assert [n["kind"] for n in back["nodes"]] == [n["kind"] for n in nodes]
        assert back["links"][0]["kind"] == 2


class TestRelationCodesBoundedByTheFile:
    """A NET file whose relation codes span more values than it has lines is
    refused before a table names each of them: convert exits 2 and writes
    no file, validate exits 1."""

    @pytest.mark.parametrize("code", [4000000, 10**18])
    def test_refused(self, code, tmp_path):
        path, out = tmp_path / "in.net", tmp_path / "o.json"
        path.write_text(f'*vertices 2\n1 "a"\n2 "b"\n*arcs\n1: 1 2\n{code}: 1 2\n', encoding="utf-8")
        message = f"error: relation codes 1 to {code} span more values than the file's 6 lines\n"
        assert run_cli("convert", "-i", path, "-o", out) == (2, message)
        assert not out.exists()
        assert run_cli("validate", path) == (1, message)


# Lines and cells the mutations below insert into NET files and tables.
NET_LINES = ["*edges", "*arcs", "*Edges", "1 2", "2 1 3", "1: 1 1", '2: 2 1 0.5 l "x"',
             '*arcs :2 "x"', "% note", "", '1 "dup"', '2 "dup"', "*vertices 3", "3 1"]
CSV_CELLS = ["arc", "edge", "", "NA", "a", "abcdefgh", "x", "2.5", "r"]
NODE_COLUMNS = {"slab": ["a", "NA", "a slab longer than any name in the seeds"],
                "mode": ["m", ""], "x": ["1", "NA"], "p": CSV_CELLS}
LINK_COLUMNS = {"kind": ["arc", "edge", "NA"], "weight": ["2.5", ""], "label": ["l", ""],
                "p": CSV_CELLS}


def table_rows(text: str) -> list[list[str]]:
    return [list(row) for row in csv.reader(io.StringIO(text, newline=""), delimiter=";")]


def table_text(rows: list[list[str]]) -> str:
    sink = io.StringIO()
    csv.writer(sink, delimiter=";", lineterminator="\n").writerows(rows)
    return sink.getvalue()


def net_seeds() -> list[str]:
    texts = [(DATA / "bib.golden.net").read_text(encoding="utf-8"),
             "*vertices 2\n*arcs\n1 2\n*edges\n2 1\n"]
    rng = random.Random(7)
    return texts + [write_pajek_net(random_pajek_network(rng, 8, 12)[0]) for _ in range(4)]


def csv_seeds() -> list[tuple[str, str]]:
    pairs = [((DATA / "bibNodes.csv").read_text(encoding="utf-8"),
              (DATA / "bibLinks.csv").read_text(encoding="utf-8")),
             ("name;slab\na;abcd\n", "from;relation;to;kind\na;r;a;arc\na;s;a;edge\n")]
    rng = random.Random(7)
    for _ in range(4):
        texts = []
        for table in network_to_tables(random_csv_network(rng, 8, 12)):
            sink = io.StringIO()
            write_table(table, sink)
            texts.append(sink.getvalue())
        pairs.append(tuple(texts))
    return pairs


def mutated_net(data, text: str) -> str:
    lines = text.split("\n")
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines)))
        op = data.draw(st.sampled_from(["insert", "replace", "delete", "duplicate"]))
        if op == "insert" or i == len(lines):
            lines.insert(i, data.draw(st.sampled_from(NET_LINES)))
        elif op == "replace":
            lines[i] = data.draw(st.sampled_from(NET_LINES))
        elif op == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines)


def mutated_table(data, text: str, columns: dict) -> str:
    rows = table_rows(text)
    names = [row[0] for row in rows[1:]] or ["a"]
    for _ in range(data.draw(st.integers(0, 3))):
        op = data.draw(st.sampled_from(["cell", "column", "column", "delete", "duplicate"]))
        i = data.draw(st.integers(1, max(1, len(rows) - 1)))
        if op == "column":
            column = data.draw(st.sampled_from(sorted(columns)))
            rows[0].append(column)
            for row in rows[1:]:
                row.append(data.draw(st.sampled_from(columns[column])))
        elif i >= len(rows):
            continue
        elif op == "cell":
            j = data.draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = data.draw(st.sampled_from(CSV_CELLS + names))
        elif op == "delete":
            del rows[i]
        else:
            rows.insert(i, list(rows[i]))
    return table_text(rows)


def read_input(paths: list[str], directed: bool):
    """The network convert reads from ``paths``, as its readers build it."""
    if len(paths) == 1:
        with open(paths[0], encoding="utf-8", newline="") as stream:
            return read_pajek_net(stream)
    with open(paths[0], encoding="utf-8", newline="") as nodes, \
            open(paths[1], encoding="utf-8", newline="") as links:
        tables = read_node_table(nodes, TableOptions()), read_link_table(links, TableOptions())
    return tables_to_network(*tables, directed=directed)


class TestConvertReportsCheckAll:
    """On NET and CSV input, read either way and at either level, convert
    prints exactly the findings check_all gives on the network read, in its
    order, though it runs only the rules that network can break."""

    @given(st.data())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_mutated_inputs(self, data):
        if data.draw(st.booleans()):
            texts = [mutated_net(data, data.draw(st.sampled_from(net_seeds())))]
            names, source = ["in.net"], ["--from", "net", "-i"]
        else:
            pair = data.draw(st.sampled_from(csv_seeds()))
            texts = [mutated_table(data, pair[0], NODE_COLUMNS),
                     mutated_table(data, pair[1], LINK_COLUMNS)]
            names, source = ["n.csv", "l.csv"], ["--from", "csv", "--nodes"]
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in names]
            for path, text in zip(paths, texts):
                with open(path, "w", encoding="utf-8", newline="") as handle:
                    handle.write(text)
            inputs = [paths[0], "--links", paths[1]] if len(paths) == 2 else paths
            for directed in (True, False):
                try:
                    network = read_input(paths, directed)
                except NetconvError:
                    network = None
                for level in Level:
                    argv = ["convert", *source, *inputs, "--to", "net", "-o",
                            os.path.join(tmp, "o.net"), "--level", level.value,
                            "--directed" if directed else "--undirected"]
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        status = main(argv)
                    err = err.getvalue()
                    if network is None:
                        assert status == 2 and err.count("\n") == 1 and err.startswith("error: ")
                        continue
                    report = check_all(network, level)
                    expected = report.to_text() + "\n" if report.findings else ""
                    assert err.startswith(expected), (level, directed)
                    rest = err[len(expected):]
                    if report.has_errors:
                        assert (status, rest) == (1, "")
                    else:
                        assert (status, rest) == (0, "") or (
                            status == 2 and rest.count("\n") == 1 and rest.startswith("error: ")
                        )


class TestInfo:
    def test_bibliographic_counts(self, bib_paths, tmp_path, capsys):
        net_path = convert_bib_to_net(bib_paths, tmp_path)
        assert main(["info", str(net_path)]) == 0
        out = capsys.readouterr().out
        for line in ("nodes: 16", "arcs: 19", "edges: 0", "relations: 5"):
            assert line in out

    def test_empty_network(self, tmp_path, capsys):
        path = tmp_path / "empty.net"
        path.write_text("*vertices 0\n*arcs\n", encoding="utf-8")
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 0" in out and "arcs: 0" in out

    def test_events_listed_chronologically(self, tmp_path, capsys):
        doc = {
            "netsJSON": "basic",
            "info": {
                "meta": [
                    {"date": "2021-05-01", "title": "second"},
                    {"date": "2019-01-01", "title": "first"},
                ]
            },
            "nodes": [],
            "links": [],
        }
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.index("2019-01-01") < out.index("2021-05-01")

    def test_events_with_non_iso_dates_follow_in_file_order(self, tmp_path, capsys):
        meta = [
            {"date": "2020-01-01", "title": "a"},
            {"date": "soon", "title": "b"},
            {"date": "2019-01-01", "title": "c"},
            {"date": "later", "title": "d"},
        ]
        doc = {"netsJSON": "basic", "info": {"meta": meta}, "nodes": [], "links": []}
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["info", str(path)]) == 0
        events = capsys.readouterr().out.split("events:\n")[1].split()
        assert events == ["2019-01-01", "c", "2020-01-01", "a", "soon", "b", "later", "d"]


class TestPartition:
    def test_mode_partition_via_csv(self, bib_paths, tmp_path):
        nodes, _ = bib_paths
        net_path = convert_bib_to_net(bib_paths, tmp_path)
        out = tmp_path / "bibMode.clu"
        status = main(
            [
                "partition",
                "-i",
                str(net_path),
                "--via-csv",
                str(nodes),
                "--property",
                "mode",
                "-o",
                str(out),
            ]
        )
        assert status == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "% 1 book 2 journal 3 paper 4 person 5 publisher 6 series"
        assert lines[1] == "*vertices 16"
        assert len(lines) == 18

    def test_sex_partition_missing_coded_zero(self, bib_paths, tmp_path):
        nodes, _ = bib_paths
        net_path = convert_bib_to_net(bib_paths, tmp_path)
        out = tmp_path / "bibSex.clu"
        status = main(
            [
                "partition",
                "-i",
                str(net_path),
                "--via-csv",
                str(nodes),
                "--property",
                "sex",
                "-o",
                str(out),
            ]
        )
        assert status == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "% 1 f 2 m"
        assert lines[2:] == ["2", "2", "1", "2", "1", "2"] + ["0"] * 10

    def test_csv_input_needs_no_input_path(self, bib_paths, tmp_path, capsys):
        nodes, links = bib_paths
        argv = ["partition", "--format", "csv", "--nodes", str(nodes), "--links", str(links)]
        assert main([*argv, "--property", "mode"]) == 0
        assert capsys.readouterr().out.startswith("% 1 book 2 journal 3 paper")

    def test_unknown_property(self, bib_paths, tmp_path, capsys):
        net_path = convert_bib_to_net(bib_paths, tmp_path)
        status = main(
            [
                "partition",
                "-i",
                str(net_path),
                "--property",
                "sex",
                "-o",
                str(tmp_path / "x.clu"),
            ]
        )
        assert status == 1
        assert "unknown property" in capsys.readouterr().err

    def test_via_csv_matches_coded_nodes_by_their_names(self, tmp_path, capsys):
        doc = factorized_document(relations=["r"], node_coding=["a", "b"], labs=None)
        path, table = tmp_path / "in.json", tmp_path / "kinds.csv"
        path.write_text(json.dumps(doc), encoding="utf-8")
        table.write_text("name;kind\nb;y\na;x\n", encoding="utf-8")
        argv = ["partition", "-i", str(path), "--via-csv", str(table), "--property", "kind"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "% 1 x 2 y\n*vertices 2\n1\n2\n"


# Each subcommand's options: option strings (a positional by its dest) ->
# (dest, default, choices, required).
TABLE_OPTIONS = {
    ("--nodes",): ("nodes", None, None, False),
    ("--links",): ("links", None, None, False),
    ("--delimiter",): ("delimiter", ";", None, False),
    ("--decimal",): ("decimal", ".", None, False),
}
CHECK_OPTIONS = {
    ("--level",): ("level", "lenient", ("lenient", "strict"), False),
    ("--report",): ("report", "text", ("text", "json"), False),
    ("--directed",): ("directed", True, None, False),
    ("--undirected",): ("directed", True, None, False),
}
FORMAT_OPTION = {("--format",): ("from_format", None, FORMATS, False)}
OPTION_SURFACE = {
    "convert": (
        {
            ("--from",): ("from_format", None, FORMATS, False),
            ("--to",): ("to_format", None, FORMATS, False),
            ("-i", "--input"): ("input", None, None, False),
            ("-o", "--output"): ("output", "-", None, False),
            ("--factorize",): ("factorize", False, None, False),
            ("--defactorize",): ("defactorize", False, None, False),
            ("--base",): ("base", 1, (0, 1), False),
            ("--coords",): ("coords", False, None, False),
            ("--pretty",): ("pretty", False, None, False),
            **CHECK_OPTIONS,
            **TABLE_OPTIONS,
        },
        {("--factorize", "--defactorize"), ("--directed", "--undirected")},
        {"func": "cmd_convert", "rejects": ()},
    ),
    "validate": (
        {("input",): ("input", None, None, True), **FORMAT_OPTION, **CHECK_OPTIONS, **TABLE_OPTIONS},
        {("--directed", "--undirected")},
        {"func": "cmd_validate", "rejects": NetconvError, "base": 1},
    ),
    "info": (
        {("input",): ("input", None, None, True), **FORMAT_OPTION, **TABLE_OPTIONS},
        set(),
        {"func": "cmd_info", "rejects": (), "directed": True, "base": 1},
    ),
    "partition": (
        {
            ("-i", "--input"): ("input", None, None, False),
            ("--via-csv",): ("via_csv", None, None, False),
            ("--property",): ("property", None, None, True),
            ("-o", "--output"): ("output", "-", None, False),
            **FORMAT_OPTION,
            **TABLE_OPTIONS,
        },
        set(),
        {"func": "cmd_partition", "rejects": CodingError, "directed": True, "base": 1},
    ),
}


def subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestOptionSurface:
    """Each subcommand's options, exclusions and hidden defaults, as ``main`` reads them."""

    def test_subcommands(self):
        assert list(subparsers(build_parser())) == list(OPTION_SURFACE)

    @pytest.mark.parametrize("command", OPTION_SURFACE)
    def test_surface(self, command):
        parser = subparsers(build_parser())[command]
        options, exclusive, defaults = OPTION_SURFACE[command]
        assert {
            tuple(a.option_strings) or (a.dest,): (
                a.dest, a.default, a.choices and tuple(a.choices), a.required
            )
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        } == options
        assert {
            tuple(o for a in group._group_actions for o in a.option_strings)
            for group in parser._mutually_exclusive_groups
        } == exclusive
        assert {k: getattr(v, "__name__", v) if k == "func" else v
                for k, v in parser._defaults.items()} == defaults  # fmt: skip

    @pytest.mark.parametrize(
        "argv",
        [
            "info x.net --undirected",
            "info x.net --level strict",
            "partition -i x.net --property p --report json",
            "partition -i x.net --property p --directed",
            "validate x.json --from net",
            "convert -i x.net --format net",
            "convert -i x.net --property p",
            "convert -i x.net --bogus",
            "convert -i x.net --directed --undirected",
            "convert -i x.net --factorize --defactorize",
            "validate x.json --base 0",
            "partition -i x.net",
            "validate",
        ],
    )
    def test_refused(self, argv, capsys):
        assert main(argv.split()) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", ["--help", "convert --help", "partition --help"])
    def test_help_exits_0(self, argv, capsys):
        assert main(argv.split()) == 0
        assert capsys.readouterr().out.startswith("usage: netconv")

    def test_partition_reads_csv_as_directed_at_base_1(self):
        args = build_parser().parse_args(["partition", "--nodes", "n.csv", "--links", "l.csv",
                                          "--property", "p"])  # fmt: skip
        assert (args.directed, args.base, args.delimiter, args.decimal) == (True, 1, ";", ".")


class TestStandardStreams:
    """``-`` names at most one input and one output of a run."""

    @pytest.mark.parametrize("argv, text", [
        ("convert --nodes - --links - -o x.json", "name\na\nb\n"),
        ("validate - --format csv --links -", "name\na\nb\n"),
        ("info - --format csv --links -", "name\na\nb\n"),
        ("partition -i - --format net --via-csv - --property kind", '*vertices 1\n1 "a"\n'),
    ], ids=["convert", "validate", "info", "partition"])  # fmt: skip
    def test_standard_input_read_once(self, argv, text, failure_files, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        assert main(argv.split()) == 2
        assert capsys.readouterr().err == "error: '-' (standard input) may name only one input\n"
        assert not (failure_files / "x.json").exists()

    def test_both_tables_to_standard_output_refused(self, failure_files, capsys):
        assert main("convert -i bib.net --to csv --nodes - --links -".split()) == 2
        assert capsys.readouterr() == ("", "error: csv output requires --nodes and --links to be different files\n")

    def test_one_table_to_standard_output(self, failure_files, capsys):
        assert main("convert -i bib.net --to csv --nodes - --links t.csv".split()) == 0
        assert capsys.readouterr().out.startswith("name;")
        assert (failure_files / "t.csv").read_text(encoding="utf-8").startswith("from;")
