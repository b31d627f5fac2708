"""Traced in-process run: times each netconv layer from outside the program.

Each workload's pipeline calls the layers' public functions in the order
``cli.cmd_convert`` / ``cli.cmd_validate`` calls them, with a span around
every call.  A span records its name, start, end, parent and the run id;
spans stay in memory and are written out once, at the end of the run.

Some layers run inside others (``make_network`` inside
``tables_to_network``, ``read_pajek_net`` and ``parse_netsjson``;
``factorize_network`` inside ``write_pajek_net``; the coding functions
inside ``make_network``, ``factorize_network`` and ``defactorize_network``;
``json.loads`` inside the NetsJSON readers).  Since no span can be placed
inside the program, the inner call is replayed on its own, on the same
input, right after the outer call returns.  Its span names the outer span
as parent, and a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import statistics
import time
import tracemalloc
from pathlib import Path

import check
from netconv import cli, coding, factorize, model, netsjson, pajek, tabular, validation
from netconv.coding import LevelPolicy
from netconv.validation import Level, ValidationReport

# Layer functions, as <module>.<function>; readers and writers also count bytes.
LAYERS = (
    "tabular.read_node_table",
    "tabular.read_link_table",
    "tabular.tables_to_network",
    "tabular.network_to_tables",
    "tabular.write_table",
    "pajek.read_pajek_net",
    "pajek.write_pajek_net",
    "netsjson.validate_netsjson_document",
    "netsjson.parse_netsjson",
    "netsjson.write_netsjson",
    "model.make_network",
    "model.canonical_order",
    "coding.build_coding_table",
    "coding.encode",
    "coding.decode",
    "factorize.factorize_network",
    "factorize.defactorize_network",
    "validation.check_network",
    "validation.check_temporal",
)
IO_LAYERS = {
    "tabular.read_node_table",
    "tabular.read_link_table",
    "tabular.write_table",
    "pajek.read_pajek_net",
    "pajek.write_pajek_net",
    "netsjson.validate_netsjson_document",
    "netsjson.parse_netsjson",
    "netsjson.write_netsjson",
}
SCALE_LIMIT = 2.5  # linearity target: doubling the input at most 2.5x the time
SCALE_FLOOR_MS = 50.0  # shorter spans at 2n are too noisy to flag


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run prints."""
    specs = []
    for layer in LAYERS:
        specs += [
            (f"{layer}.ms", "ms", "lower"),
            (f"{layer}.self_ms", "ms", "lower"),
            (f"{layer}.records", "count", "higher"),
            (f"{layer}.peak_kb", "KiB", "lower"),
            (f"{layer}.scale2x", "ratio", "lower"),
        ]
        if layer in IO_LAYERS:
            specs.append((f"{layer}.bytes", "B", "lower"))
    specs += [
        ("json.decode.ms", "ms", "lower"),
        ("cli.main.ms", "ms", "lower"),
        ("cli.main.scale2x", "ratio", "lower"),
        ("cli.glue.ms", "ms", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("scale2x.flagged", "count", "lower"),
    ]
    return specs


class Tracer:
    """Spans of one pass through a pipeline, kept in memory."""

    def __init__(self, run_id: str, pass_no: int, memory: bool = False):
        self.run_id = run_id
        self.pass_no = pass_no
        self.memory = memory  # record the tracemalloc peak of each span
        self.spans: list[dict] = []
        self.root = self._open("pipeline", None, False)

    def _open(self, name: str, parent: int | None, replay: bool) -> dict:
        span = {"run": self.run_id, "pass": self.pass_no, "id": len(self.spans), "name": name,
                "parent": parent, "replay": replay, "records": 0, "bytes": 0,
                "start": time.perf_counter()}
        self.spans.append(span)
        return span

    def call(self, name, fn, *args, parent: dict | None = None, **kwargs):
        """Run fn in a span; with a parent, the call replays an inner layer."""
        span = self._open(name, (parent or self.root)["id"], parent is not None)
        if self.memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        span["start"] = time.perf_counter()
        result = fn(*args, **kwargs)
        span["end"] = time.perf_counter()
        if self.memory:
            span["peak_kb"] = (tracemalloc.get_traced_memory()[1] - base) / 1024
        return result, span

    def close(self) -> None:
        self.root["end"] = time.perf_counter()


def _ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1000


def summarize(spans: list[dict]) -> dict:
    """Per-name totals of one pass, plus the pass's own totals."""
    child_ms: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + _ms(s)
    by_name: dict[str, dict] = {}
    for s in spans[1:]:
        agg = by_name.setdefault(s["name"], dict(ms=0.0, self_ms=0.0, records=0, bytes=0, peak_kb=0.0))
        agg["ms"] += _ms(s)
        agg["self_ms"] += _ms(s) - child_ms.get(s["id"], 0.0)
        agg["records"] += s["records"]
        agg["bytes"] += s["bytes"]
        agg["peak_kb"] = max(agg["peak_kb"], s.get("peak_kb", 0.0))
    # Spans never overlap in time (replays run after their outer call), so
    # removing the replays leaves the work the CLI itself does.
    replay_ms = sum(_ms(s) for s in spans if s["replay"])
    return {
        "layers": by_name,
        "pipeline_ms": _ms(spans[0]) - replay_ms,
        "top_ms": child_ms.get(0, 0.0),  # layers called directly by the pipeline
    }


# -- replays of inner layers ----------------------------------------------------


def _records(net) -> int:
    return len(net.nodes) + len(net.links)


def _build(tr: Tracer, parent: dict, name: str, values: list, policy: LevelPolicy, base: int):
    table, span = tr.call("coding.build_coding_table", coding.build_coding_table,
                          name, values, policy, base, parent=parent)
    span["records"] = len(values)
    return table


def _replay_make_network(tr: Tracer, parent: dict, net, **kwargs) -> None:
    """make_network as the outer reader called it; it builds the coding
    tables it was not given."""
    _, span = tr.call("model.make_network", model.make_network, net.nodes, net.links,
                      parent=parent, **kwargs)
    span["records"] = _records(net)
    base = kwargs["info"].org if "info" in kwargs else kwargs.get("org", 1)
    if kwargs.get("relations") is None:
        _build(tr, span, "relation", [l.rel for l in net.links], LevelPolicy.SORTED, base)
    if kwargs.get("node_coding") is None and not net.is_factorized:
        _build(tr, span, "node", [str(n.id) for n in net.nodes], LevelPolicy.FILE_ORDER, base)


def _replay_parse(tr: Tracer, parent: dict, text: str, net) -> None:
    """parse_netsjson decodes the text, builds the coding tables the
    document does not carry, and assembles the network."""
    doc, _ = tr.call("json.decode", json.loads, text, parent=parent)
    info = doc["info"]
    del doc
    if info.get("relations") is None and not net.is_factorized:
        _build(tr, parent, "relation", [l.rel for l in net.links], LevelPolicy.SORTED, net.info.org)
    if info.get("nodeCoding") is None and not net.is_factorized:
        _build(tr, parent, "node", [str(n.id) for n in net.nodes], LevelPolicy.FILE_ORDER, net.info.org)
    _replay_make_network(tr, parent, net, info=net.info, relations=net.relations,
                         node_coding=net.node_coding, property_codings=net.property_codings)


def _replay_factorize(tr: Tracer, parent: dict, net) -> None:
    """factorize_network as write_pajek_net calls it on labeled input: two
    coding tables, then a code lookup per node id, endpoint and relation."""
    _, span = tr.call("factorize.factorize_network", factorize.factorize_network, net, 1, parent=parent)
    span["records"] = _records(net)
    ids = [str(n.id) for n in net.nodes]
    nodes = _build(tr, span, "node", ids, LevelPolicy.FILE_ORDER, 1)
    rels = [l.rel for l in net.links]
    relations = _build(tr, span, "relation", list(net.relations.levels) + rels, LevelPolicy.SORTED, 1)
    _code_calls(tr, span, coding.encode, (
        (ids + [l.n1 for l in net.links] + [l.n2 for l in net.links], nodes), (rels, relations)))


def _replay_defactorize(tr: Tracer, parent: dict, net) -> None:
    """defactorize_network looks up the value of every code."""
    codes = [n.id for n in net.nodes] + [l.n1 for l in net.links] + [l.n2 for l in net.links]
    _code_calls(tr, parent, coding.decode, (
        (codes, net.node_coding), ([l.rel for l in net.links], net.relations)))


def _code_calls(tr: Tracer, parent: dict, fn, calls) -> None:
    for values, table in calls:
        _, span = tr.call(f"coding.{fn.__name__}", fn, values, table, parent=parent)
        span["records"] = len(values)


# -- pipelines, in the order the CLI runs them ---------------------------------------


def _open(path: Path):
    return open(path, "r", encoding="utf-8", newline="")


def _io(span: dict, records: int, nbytes: int) -> None:
    span["records"] = records
    span["bytes"] = nbytes


def _canonical_and_check(tr: Tracer, net, level: Level):
    net, span = tr.call("model.canonical_order", model.canonical_order, net)
    span["records"] = _records(net)
    return net, _check(tr, net, level)


def _check(tr: Tracer, net, level: Level) -> ValidationReport:
    findings = ()
    for name in ("check_network", "check_temporal"):
        report, span = tr.call(f"validation.{name}", getattr(validation, name), net, level)
        span["records"] = _records(net)
        findings += report.findings
    return ValidationReport(findings, level)


def _csv_to_net(tr: Tracer, d: Path, out: Path) -> None:
    opts = tabular.TableOptions()
    tables = []
    for fn, name in ((tabular.read_node_table, "nodes.csv"), (tabular.read_link_table, "links.csv")):
        with _open(d / name) as stream:
            table, span = tr.call(f"tabular.{fn.__name__}", fn, stream, opts)
        _io(span, len(table.rows), (d / name).stat().st_size)
        tables.append(table)
    net, span = tr.call("tabular.tables_to_network", tabular.tables_to_network, *tables,
                        directed=True, base=1, decimal_separator=".")
    del tables, table  # the CLI drops the tables here too; live objects slow the collector
    span["records"] = _records(net)
    _replay_make_network(tr, span, net, org=1, directed=True)
    net, report = _canonical_and_check(tr, net, Level.LENIENT)
    if report.has_errors:
        return  # the CLI stops here and writes nothing
    text, span = tr.call("pajek.write_pajek_net", pajek.write_pajek_net, net, base=1, coordinates=False)
    _io(span, _records(net), len(text.encode()))
    _replay_factorize(tr, span, net)
    (out / "out.net").write_text(text, encoding="utf-8", newline="")


def _net_to_json(tr: Tracer, d: Path, out: Path) -> None:
    with _open(d / "in.net") as stream:
        net, span = tr.call("pajek.read_pajek_net", pajek.read_pajek_net, stream)
    _io(span, _records(net), (d / "in.net").stat().st_size)
    _replay_make_network(tr, span, net, org=1, directed=net.info.directed,
                         relations=net.relations, node_coding=net.node_coding)
    net, report = _canonical_and_check(tr, net, Level.LENIENT)
    if report.has_errors:
        return
    text, span = tr.call("netsjson.write_netsjson", netsjson.write_netsjson, net, pretty=False)
    _io(span, _records(net), len(text.encode()))
    (out / "out.json").write_text(text, encoding="utf-8", newline="")


def _parse(tr: Tracer, path: Path):
    with _open(path) as stream:
        net, span = tr.call("netsjson.parse_netsjson", netsjson.parse_netsjson, stream)
    _io(span, _records(net), path.stat().st_size)
    _replay_parse(tr, span, path.read_text(encoding="utf-8"), net)
    return net


def _json_validate(tr: Tracer, d: Path, out: Path) -> None:
    path = d / "in.json"
    with _open(path) as stream:
        report, span = tr.call("netsjson.validate_netsjson_document",
                               netsjson.validate_netsjson_document, stream, strict=True)
    doc, _ = tr.call("json.decode", json.loads, path.read_text(encoding="utf-8"), parent=span)
    _io(span, len(doc["nodes"]) + len(doc["links"]), path.stat().st_size)
    del doc  # the CLI holds no decoded document past this point
    findings = report.findings
    if not report.has_errors:
        findings += _check(tr, _parse(tr, path), Level.STRICT).findings
    text = ValidationReport(findings, Level.STRICT).to_json_lines()
    (out / "stderr").write_text(text + "\n" if text else "", encoding="utf-8")


def _json_to_csv(tr: Tracer, d: Path, out: Path) -> None:
    coded, report = _canonical_and_check(tr, _parse(tr, d / "in.json"), Level.LENIENT)
    if report.has_errors:
        return
    net, span = tr.call("factorize.defactorize_network", factorize.defactorize_network, coded)
    span["records"] = _records(net)
    _replay_defactorize(tr, span, coded)
    tables, span = tr.call("tabular.network_to_tables", tabular.network_to_tables, net)
    span["records"] = _records(net)
    opts = tabular.TableOptions()
    for table, name in zip(tables, ("out_nodes.csv", "out_links.csv")):
        sink = io.StringIO()
        _, span = tr.call("tabular.write_table", tabular.write_table, table, sink, opts)
        text = sink.getvalue()
        _io(span, len(table.rows), len(text.encode()))
        (out / name).write_text(text, encoding="utf-8", newline="")


PIPELINES = {
    "csv-to-net": _csv_to_net,
    "net-to-json": _net_to_json,
    "json-validate": _json_validate,
    "json-to-csv": _json_to_csv,
}


# -- the traced run --------------------------------------------------------------------


def _cli_main(argv: list[str], out: Path) -> tuple[int, float]:
    """One in-process, untraced ``cli.main``; its standard error goes to a file."""
    gc.collect()
    with open(out / "stderr", "w", encoding="utf-8") as err, contextlib.redirect_stderr(err):
        start = time.perf_counter()
        status = cli.main(argv)
        return status, (time.perf_counter() - start) * 1000


def _traced(workload: str, d: Path, out: Path, run_id: str, pass_no: int, memory: bool) -> list[dict]:
    gc.collect()
    tr = Tracer(run_id, pass_no, memory)
    PIPELINES[workload](tr, d, out)
    tr.close()
    return tr.spans


def measure(workload: str, inputs: dict, argv, seconds: float, spans_path: Path, log):
    """Traced run of one workload; returns (metrics, attempted, failed).

    ``inputs`` maps the size factor (1 and 2) to ``(directory, facts)``;
    ``argv(workload, directory)`` gives the CLI arguments.  Every
    repetition runs, at n and at 2n, an untraced in-process ``cli.main``
    and a traced pass; one extra traced pass at n records tracemalloc peaks
    first.  A repetition starts while the time left until ``seconds``
    after the start is at least the length of the last one; there is
    always at least one.  Every output is checked.
    """
    run_id = f"{workload}-{time.time_ns()}"  # shared by every span of the run
    attempted = failed = 0
    all_spans: list[dict] = []
    n_passes = 0

    def verify(status: int, factor: int, what: str) -> None:
        nonlocal attempted, failed
        d, facts = inputs[factor]
        attempted += 1
        reason = check.check(workload, status, d / "out", facts)
        if reason:
            failed += 1
            log(f"{workload}: {what} at {factor}n rejected: {reason}")

    def traced(factor: int, memory: bool = False) -> dict:
        nonlocal n_passes
        d = inputs[factor][0]
        check.clear(workload, d / "out")
        n_passes += 1
        if memory:
            tracemalloc.start()
        try:
            spans = _traced(workload, d, d / "out", run_id, n_passes, memory)
        finally:
            if memory:
                tracemalloc.stop()
        all_spans.extend(spans)
        verify(0, factor, "traced pass")
        return summarize(spans)

    # The benchmark's own objects (facts, spans) must not lengthen the
    # collector's passes inside the timed layers.
    deadline = time.perf_counter() + seconds
    gc.collect()
    gc.freeze()
    try:
        memory = traced(1, memory=True)["layers"]
        passes: dict[int, list] = {1: [], 2: []}
        repetition_s = 0.0  # length of the last repetition
        while not passes[1] or time.perf_counter() + repetition_s < deadline:
            started = time.perf_counter()
            for factor in (1, 2):
                d = inputs[factor][0]
                check.clear(workload, d / "out")
                status, main_ms = _cli_main(argv(workload, d), d / "out")
                verify(status, factor, "cli.main")
                passes[factor].append((main_ms, traced(factor)))
            repetition_s = time.perf_counter() - started
    finally:
        gc.unfreeze()

    with open(spans_path, "w", encoding="utf-8") as f:
        for span in all_spans:
            f.write(json.dumps(span) + "\n")
    return _metrics(workload, passes, memory, log), attempted, failed


def _metrics(workload: str, passes: dict, memory: dict, log) -> dict:
    med = statistics.median

    def layer_ms(factor: int, layer: str, key: str = "ms") -> float:
        return med(p["layers"].get(layer, {}).get(key, 0.0) for _, p in passes[factor])

    first = passes[1][0][1]["layers"]
    values: dict[str, float] = {}
    flagged = []

    def scaling(name: str, ms: float, ms2: float) -> float:
        scale = ms2 / ms if ms > 0 else 0.0
        if scale > SCALE_LIMIT and ms2 >= SCALE_FLOOR_MS:
            flagged.append(name)
        return scale

    for layer in LAYERS:
        ms = layer_ms(1, layer)
        values[f"{layer}.ms"] = ms
        values[f"{layer}.self_ms"] = layer_ms(1, layer, "self_ms")
        values[f"{layer}.records"] = first.get(layer, {}).get("records", 0)
        values[f"{layer}.peak_kb"] = memory.get(layer, {}).get("peak_kb", 0.0)
        values[f"{layer}.scale2x"] = scaling(layer, ms, layer_ms(2, layer))
        if layer in IO_LAYERS:
            values[f"{layer}.bytes"] = first.get(layer, {}).get("bytes", 0)
    main1 = med(m for m, _ in passes[1])
    values["json.decode.ms"] = layer_ms(1, "json.decode")
    values["cli.main.ms"] = main1
    values["cli.main.scale2x"] = scaling("cli.main", main1, med(m for m, _ in passes[2]))
    values["cli.glue.ms"] = med(m - p["top_ms"] for m, p in passes[1])
    values["trace.overhead"] = med(p["pipeline_ms"] / m for m, p in passes[1])
    values["scale2x.flagged"] = len(flagged)
    for layer in flagged:
        scale = values[f"{layer}.scale2x"]
        log(f"{workload}: {layer} takes {scale:.2f}x the time at 2n (limit {SCALE_LIMIT}x)")
    return values
