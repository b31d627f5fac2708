"""Command-line front end: convert, validate, info, and partition.

Exit codes: 0 success, 1 validation errors, 2 parse/IO/usage failures.
Validation findings go to standard error; ``-`` means standard
input/output. Output files are written via a temporary file and renamed,
so a failed run leaves no partial output behind.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
import tempfile

from . import netsjson, pajek, tabular
from .errors import CodingError, NetconvError
from .factorize import defactorize_network, factorize_network
from .model import Network, canonical_order, make_network, network_stats
from .validation import Level, ValidationReport, check_all, parse_iso_date

FORMATS = ("csv", "net", "netsjson")
_EXTENSIONS = {".csv": "csv", ".net": "net", ".json": "netsjson"}

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FAILURE = 2


def _infer_format(path: str | None) -> str | None:
    if not path or path == "-":
        return None
    return _EXTENSIONS.get(os.path.splitext(path)[1].lower())


def _open_text(path: str, encoding: str = "utf-8"):
    if path == "-":
        return io.TextIOWrapper(sys.stdin.buffer, encoding=encoding, newline="")
    return open(path, "r", encoding=encoding, newline="")


def _write_atomic(path: str, text: str, encoding: str = "utf-8") -> None:
    if path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".netconv-")
    try:
        with os.fdopen(fd, "w", encoding=encoding, newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_report(report: ValidationReport, fmt: str) -> None:
    if not report.findings:
        return
    text = report.to_json_lines() if fmt == "json" else report.to_text()
    print(text, file=sys.stderr)


def _read_network(args, fmt: str) -> Network:
    opts = tabular.TableOptions(
        delimiter=args.delimiter, decimal_separator=args.decimal
    )
    if fmt == "csv":
        if not args.nodes or not args.links:
            raise NetconvError("csv input requires --nodes and --links paths")
        with _open_text(args.nodes) as stream:
            node_table = tabular.read_node_table(stream, opts)
        with _open_text(args.links) as stream:
            link_table = tabular.read_link_table(stream, opts)
        return tabular.tables_to_network(
            node_table,
            link_table,
            directed=args.directed,
            base=args.base,
            decimal_separator=args.decimal,
        )
    if not args.input:
        raise NetconvError(f"{fmt} input requires -i/--input")
    with _open_text(args.input) as stream:
        if fmt == "net":
            return pajek.read_pajek_net(stream)
        return netsjson.parse_netsjson(stream)


def _write_network(args, fmt: str, network: Network) -> None:
    if fmt == "csv":
        if not args.nodes or not args.links:
            raise NetconvError("csv output requires --nodes and --links paths")
        if network.is_factorized:
            network = defactorize_network(network)
        node_table, link_table = tabular.network_to_tables(network)
        opts = tabular.TableOptions(delimiter=args.delimiter, decimal_separator=args.decimal)
        rendered = []
        for path, table in ((args.nodes, node_table), (args.links, link_table)):
            sink = io.StringIO()
            tabular.write_table(table, sink, opts)
            rendered.append((path, sink.getvalue()))
        for path, text in rendered:  # render fully before touching either file
            _write_atomic(path, text)
        return
    if fmt == "net":
        text = pajek.write_pajek_net(network, base=1, coordinates=args.coords)
    else:
        text = netsjson.write_netsjson(network, pretty=args.pretty)
    _write_atomic(args.output, text)


def cmd_convert(args) -> int:
    from_fmt = args.from_format or _infer_format(args.input) or (
        "csv" if args.nodes and args.links and not args.input else None
    )
    to_fmt = args.to_format or _infer_format(args.output)
    if from_fmt is None or to_fmt is None:
        print("error: cannot determine formats; use --from/--to", file=sys.stderr)
        return EXIT_FAILURE
    if from_fmt == "csv" and to_fmt == "csv":
        print("error: csv-to-csv conversion is not supported", file=sys.stderr)
        return EXIT_FAILURE
    if to_fmt == "net" and args.base == 0:
        print("error: Pajek NET output requires --base 1", file=sys.stderr)
        return EXIT_FAILURE

    try:
        network = _read_network(args, from_fmt)
        if args.factorize:
            if network.is_factorized:
                network = defactorize_network(network)  # rebase via labeled form
            network = factorize_network(network, args.base)
        elif args.defactorize:
            network = defactorize_network(network)
        network = canonical_order(network)
        report = check_all(network, Level(args.level))
        _emit_report(report, args.report)
        if report.has_errors:
            return EXIT_INVALID
        _write_network(args, to_fmt, network)
    except NetconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_validate(args) -> int:
    fmt = args.format or _infer_format(args.path) or ("csv" if args.nodes else None)
    if fmt is None:
        print("error: cannot determine format; use --format", file=sys.stderr)
        return EXIT_FAILURE
    if fmt == "csv" and not args.nodes:
        args.nodes = args.path
    level = Level(args.level)
    try:
        if fmt == "netsjson":
            with _open_text(args.path) as stream:
                records, report = netsjson.load_netsjson_document(
                    stream, strict=level is Level.STRICT
                )
            if not report.has_errors:
                network = make_network(**records)
                del records
                findings = report.findings + check_all(network, level).findings
                report = ValidationReport(findings, level)
        else:
            args.input = args.path
            try:
                network = _read_network(args, fmt)
            except NetconvError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_INVALID
            report = check_all(network, level)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _emit_report(report, args.report)
    return EXIT_INVALID if report.has_errors else EXIT_OK


def cmd_info(args) -> int:
    fmt = args.format or _infer_format(args.path)
    if fmt is None:
        print("error: cannot determine format; use --format", file=sys.stderr)
        return EXIT_FAILURE
    if fmt == "csv" and not args.nodes:
        args.nodes = args.path
    try:
        args.input = args.path
        network = _read_network(args, fmt)
    except NetconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    stats = network_stats(network)
    info = network.info
    print(f"nodes: {stats.n_nodes}")
    print(f"arcs: {stats.n_arcs}")
    print(f"edges: {stats.n_edges}")
    print(f"relations: {stats.n_relations}")
    print(f"modes: {stats.n_modes}")
    if info.title:
        print(f"title: {info.title}")
    if info.network:
        print(f"network: {info.network}")
    if info.created:
        print(f"created: {info.created}")
    if info.modified:
        print(f"modified: {info.modified}")
    if info.meta:
        print("events:")
        ordered = sorted(info.meta, key=lambda e: parse_iso_date(e.date) or e.date)
        for event in ordered:
            print(f"  {event.date}  {event.title}")
    return EXIT_OK


def cmd_partition(args) -> int:
    fmt = args.format or _infer_format(args.input)
    if fmt is None:
        print("error: cannot determine format; use --format", file=sys.stderr)
        return EXIT_FAILURE
    try:
        network = _read_network(args, fmt)
        if args.via_csv:
            opts = tabular.TableOptions(delimiter=args.delimiter, decimal_separator=args.decimal)
            with _open_text(args.via_csv) as stream:
                node_table = tabular.read_node_table(stream, opts)
            network = tabular.merge_node_properties(
                network, node_table, decimal_separator=args.decimal
            )
        partition = pajek.partition_from_property(network, args.property)
    except CodingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NetconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    try:
        _write_atomic(args.output, pajek.write_pajek_clu(partition))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _add_table_flags(parser) -> None:
    parser.add_argument("--delimiter", default=";", help="table delimiter (default ';')")
    parser.add_argument("--decimal", default=".", help="decimal separator (default '.')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netconv",
        description="Convert, validate, and inspect network files"
        " (csv node/link tables, Pajek NET/CLU, NetsJSON basic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="convert between network formats")
    convert.add_argument("--from", dest="from_format", choices=FORMATS)
    convert.add_argument("--to", dest="to_format", choices=FORMATS)
    convert.add_argument("-i", "--input", help="input path ('-' for stdin)")
    convert.add_argument("--nodes", help="csv-side node table path")
    convert.add_argument("--links", help="csv-side link table path")
    convert.add_argument("-o", "--output", default="-", help="output path ('-' for stdout)")
    group = convert.add_mutually_exclusive_group()
    group.add_argument("--factorize", action="store_true", help="code identifiers as integers")
    group.add_argument("--defactorize", action="store_true", help="restore text identifiers")
    convert.add_argument("--base", type=int, choices=(0, 1), default=1, help="smallest index")
    directed = convert.add_mutually_exclusive_group()
    directed.add_argument("--directed", dest="directed", action="store_true", default=True)
    directed.add_argument("--undirected", dest="directed", action="store_false")
    convert.add_argument("--coords", action="store_true", help="emit coordinates in NET output")
    convert.add_argument("--pretty", action="store_true", help="indent NetsJSON output")
    convert.add_argument("--level", choices=("lenient", "strict"), default="lenient")
    convert.add_argument("--report", choices=("text", "json"), default="text")
    _add_table_flags(convert)
    convert.set_defaults(func=cmd_convert)

    validate = sub.add_parser("validate", help="check a network file and report findings")
    validate.add_argument("path", help="file to validate ('-' for stdin)")
    validate.add_argument("--format", choices=FORMATS)
    validate.add_argument("--nodes", help="csv node table path (csv format)")
    validate.add_argument("--links", help="csv link table path (csv format)")
    validate.add_argument("--level", choices=("lenient", "strict"), default="lenient")
    validate.add_argument("--report", choices=("text", "json"), default="text")
    _add_table_flags(validate)
    validate.set_defaults(func=cmd_validate, directed=True, base=1, input=None)

    info = sub.add_parser("info", help="print counts, title, dates, and the event log")
    info.add_argument("path", help="network file ('-' for stdin)")
    info.add_argument("--format", choices=FORMATS)
    info.add_argument("--nodes", help="csv node table path (csv format)")
    info.add_argument("--links", help="csv link table path (csv format)")
    _add_table_flags(info)
    info.set_defaults(func=cmd_info, directed=True, base=1, input=None)

    partition = sub.add_parser("partition", help="extract a node partition as a CLU file")
    partition.add_argument("-i", "--input", required=True, help="network file")
    partition.add_argument("--format", choices=FORMATS)
    partition.add_argument("--nodes", help="csv node table path (csv format)")
    partition.add_argument("--links", help="csv link table path (csv format)")
    partition.add_argument("--via-csv", dest="via_csv", help="node table supplying properties")
    partition.add_argument("--property", required=True, help="categorical property to code")
    partition.add_argument("-o", "--output", default="-", help="CLU output path")
    _add_table_flags(partition)
    partition.set_defaults(func=cmd_partition, directed=True, base=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "to_format", None) == "net" and getattr(args, "base", 1) == 0:
            parser.error("Pajek NET output requires --base 1")
    except SystemExit as exc:
        return int(exc.code or 0)
    # A run builds large acyclic object trees; collector passes free nothing.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
