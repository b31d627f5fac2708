"""Command-line front end: convert, validate, info, and partition.

Exit codes: 0 success, 1 error findings (or, for ``validate``, an input it
cannot parse; for ``partition``, a property it cannot code), 2 usage or I/O
failures. ``validate`` and ``convert`` check their input once and print the
same report: for NetsJSON the walk's
(:func:`~netconv.netsjson.validate_netsjson_document`), for NET and CSV
:func:`~netconv.validation.check_all`'s, from the two of its rules a
network those readers build can break. ``convert`` prints it before any
transform and runs no check after one. Findings go to standard error;
``-`` means standard input/output, for at most one input and one output
of a run. Output files are written via
temporary files, renamed once all of them are written, so a failed run
leaves no partial output behind (csv output writes its two tables as a
pair).

:func:`main` settles formats and paths and raises every usage error before
a subcommand runs, and it is the one place that turns a failure into one
``error:`` line and an exit code. Each subcommand imports only the
modules it runs: a CSV run loads no NetsJSON or JSON code, and a NetsJSON
``validate`` no table, Pajek or factorization code.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys

from .errors import CodingError, NetconvError
from .model import Network, canonical_order, network_stats
from .validation import Checker, Level, ValidationReport, parse_iso_date

FORMATS = ("csv", "net", "netsjson")
_DELIMITER = ";"  # the default --delimiter
_EXTENSIONS = {".csv": "csv", ".net": "net", ".json": "netsjson"}

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FAILURE = 2


def _infer_format(path: str | None) -> str | None:
    if not path or path == "-":
        return None
    return _EXTENSIONS.get(os.path.splitext(path)[1].lower())


def _open_text(path: str):
    if path == "-":
        return io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline="")
    return open(path, "r", encoding="utf-8", newline="")


def _write_outputs(*outputs: tuple[str, str]) -> None:
    """Write each ``(path, text)``; the path ``-`` is standard output.

    As with ``open(path, "w")``, a symbolic link is written through and
    an existing file keeps its mode; a new one gets the mode the umask
    gives. Files are staged as temporaries beside the files they replace
    and renamed only once every one is staged; a failure removes the
    temporaries and leaves the targets as they were.
    """
    import tempfile
    mask = os.umask(0)
    os.umask(mask)
    staged = []  # (temporary, target) pairs
    try:
        for path, text in outputs:
            if path != "-":
                target = os.path.realpath(path)
                mode = os.stat(target).st_mode & 0o777 if os.path.exists(target) else 0o666 & ~mask
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".netconv-")
                staged.append((tmp, target))
                with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                    os.fchmod(handle.fileno(), mode)
                    handle.write(text)
        for path, text in outputs:
            if path == "-":
                sys.stdout.write(text)
                sys.stdout.flush()
            else:
                os.replace(*staged[0])
                del staged[0]
    finally:
        for tmp, _ in staged:
            os.unlink(tmp)


def _emit_report(report: ValidationReport, fmt: str) -> None:
    if not report.findings:
        return
    text = report.to_json_lines() if fmt == "json" else report.to_text()
    print(text, file=sys.stderr)


def _table_options(args):
    """The table options ``args`` give; a bad ``--delimiter`` raises NetconvError."""
    from . import tabular
    try:
        return tabular.TableOptions(delimiter=args.delimiter)
    except ValueError as exc:  # the message names the option the flag sets
        raise NetconvError(f"--{exc}") from None


def _resolve(args) -> None:
    """Settle the input format and paths in ``args``; raise every usage error.

    A csv input's node table is ``--nodes``, else the input path.
    """
    if args.delimiter != _DELIMITER:  # the default is valid; checking another loads tabular
        _table_options(args)
    if len(args.decimal) != 1:
        raise NetconvError(f"--decimal must be one character, got {args.decimal!r}")
    args.from_format = args.from_format or _infer_format(args.input) or (
        "csv" if args.nodes else None
    )
    if args.command == "convert":
        args.to_format = args.to_format or _infer_format(args.output)
        if args.from_format is None or args.to_format is None:
            raise NetconvError("cannot determine formats; use --from/--to")
        if args.from_format == "csv" and args.to_format == "csv":
            raise NetconvError("csv-to-csv conversion is not supported")
        if args.to_format == "net" and args.base == 0:
            raise NetconvError("Pajek NET output requires --base 1")
        if args.to_format == "csv":
            if not (args.nodes and args.links):
                raise NetconvError("csv output requires --nodes and --links paths")
            if len({p if p == "-" else os.path.realpath(p) for p in (args.nodes, args.links)}) == 1:
                raise NetconvError("csv output requires --nodes and --links to be different files")
    elif args.from_format is None:
        raise NetconvError("cannot determine format; use --format")
    if args.from_format == "csv":
        args.nodes = args.nodes or args.input
        if not args.nodes or not args.links:
            raise NetconvError("csv input requires --nodes and --links paths")
    elif not args.input:
        raise NetconvError(f"{args.from_format} input requires -i/--input")
    inputs = (args.nodes, args.links) if args.from_format == "csv" else (args.input,)
    if (*inputs, getattr(args, "via_csv", None)).count("-") > 1:
        raise NetconvError("'-' (standard input) may name only one input")


def _read_network(args) -> Network:
    if args.from_format == "csv":
        from . import tabular
        opts = _table_options(args)
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
    with _open_text(args.input) as stream:
        if args.from_format == "net":
            from .pajek import read_pajek_net
            return read_pajek_net(stream)
        from .netsjson import parse_netsjson
        return parse_netsjson(stream)


def _write_network(args, network: Network) -> None:
    if args.to_format == "csv":
        from . import tabular
        opts = _table_options(args)
        rendered = []
        for path, table in zip((args.nodes, args.links), tabular.network_to_tables(network)):
            sink = io.StringIO()
            tabular.write_table(table, sink, opts)
            rendered.append((path, sink.getvalue()))
        _write_outputs(*rendered)
        return
    if args.to_format == "net":
        from .pajek import write_pajek_net
        text = write_pajek_net(network, base=1, coordinates=args.coords)
    else:
        from .netsjson import write_netsjson
        text = write_netsjson(network, pretty=args.pretty)
    _write_outputs((args.output, text))


def _read_checked(args, build: bool = True) -> tuple[ValidationReport, Network | None]:
    """Read the input and check it once, with the checker for its format.

    NetsJSON input gets the walk's report. A NET or CSV network gets the
    report :func:`~netconv.validation.check_all` gives, from the only two
    of its rules that can fire there, run through the same
    :class:`Checker` steps: ``slab-longer-than-label`` (a CSV ``slab``
    column; ``node``) and ``directed-kind-mismatch`` (a CSV ``kind``
    column, ``--undirected``, or a NET file with arcs and edges;
    ``links_end``). The others cannot: ``make_network`` derives the
    simple, multirel and mode flags and rejects duplicate ids and
    unresolved endpoints, ids are non-empty, and neither format carries
    a time window, tq, event or structured value.

    Returns the report and the network read. For NetsJSON input the
    network is None when a finding is parse-fatal or ``build`` is false.
    """
    level = Level(args.level)
    if args.from_format == "netsjson":
        from .netsjson import check_netsjson
        with _open_text(args.input) as stream:
            return check_netsjson(stream, level is Level.STRICT, build)
    network = _read_network(args)
    check = Checker(level)
    check.flags = network.info
    for i, node in enumerate(network.nodes):
        check.node(node.id, node.lab, node.slab, f"$.nodes[{i}]")
    check.link_kinds = {link.kind for link in network.links}
    check.links_end()
    return ValidationReport(tuple(check.out), level), network


def cmd_convert(args) -> int:
    report, network = _read_checked(args)
    _emit_report(report, args.report)
    if network is None:  # a parse-fatal finding: an input convert cannot read, as for NET and CSV
        return EXIT_FAILURE
    if report.has_errors:
        return EXIT_INVALID
    if args.factorize or args.defactorize:
        from .factorize import defactorize_network, factorize_network
        network = defactorize_network(network)  # --factorize rebases via the labeled form
        if args.factorize:
            network = factorize_network(network, args.base)
    _write_network(args, canonical_order(network))
    return EXIT_OK


def cmd_validate(args) -> int:
    report, _ = _read_checked(args, build=False)
    _emit_report(report, args.report)
    return EXIT_INVALID if report.has_errors else EXIT_OK


def cmd_info(args) -> int:
    network = _read_network(args)
    stats = network_stats(network)
    info = network.info
    for field, count in stats._asdict().items():
        print(f"{field[2:]}: {count}")  # n_nodes as nodes, ...
    for member in ("title", "network", "created", "modified"):
        if getattr(info, member):
            print(f"{member}: {getattr(info, member)}")
    if info.meta:
        import datetime
        print("events:")
        # ISO-dated events in date order, then the others in file order
        dated = [(parse_iso_date(event.date), event) for event in info.meta]
        dated.sort(key=lambda pair: (pair[0] is None, pair[0] or datetime.date.min))
        for _, event in dated:
            print(f"  {event.date}  {event.title}")
    return EXIT_OK


def cmd_partition(args) -> int:
    from . import pajek
    network = _read_network(args)
    if args.via_csv:
        from . import tabular
        with _open_text(args.via_csv) as stream:
            node_table = tabular.read_node_table(stream, _table_options(args))
        network = tabular.merge_node_properties(network, node_table, decimal_separator=args.decimal)
    partition = pajek.partition_from_property(network, args.property)
    _write_outputs((args.output, pajek.write_pajek_clu(partition)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netconv",
        description="Convert, validate, and inspect network files"
        " (csv node/link tables, Pajek NET/CLU, NetsJSON basic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tables = argparse.ArgumentParser(add_help=False)
    tables.add_argument("--nodes", help="csv node table path")
    tables.add_argument("--links", help="csv link table path")
    tables.add_argument("--delimiter", default=_DELIMITER, help="table delimiter (default ';')")
    tables.add_argument("--decimal", default=".", help="decimal separator (default '.')")
    checked = argparse.ArgumentParser(add_help=False)
    checked.add_argument("--level", choices=("lenient", "strict"), default="lenient")
    checked.add_argument("--report", choices=("text", "json"), default="text")
    directed = checked.add_mutually_exclusive_group()  # the kind of a csv link without a kind cell
    directed.add_argument("--directed", dest="directed", action="store_true", default=True)
    directed.add_argument("--undirected", dest="directed", action="store_false")
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", dest="from_format", choices=FORMATS)

    convert = sub.add_parser("convert", parents=[checked, tables], help="convert between network formats")
    convert.add_argument("--from", dest="from_format", choices=FORMATS)
    convert.add_argument("--to", dest="to_format", choices=FORMATS)
    convert.add_argument("-i", "--input", help="input path ('-' for stdin)")
    convert.add_argument("-o", "--output", default="-", help="output path ('-' for stdout)")
    group = convert.add_mutually_exclusive_group()
    group.add_argument("--factorize", action="store_true", help="code identifiers as integers")
    group.add_argument("--defactorize", action="store_true", help="restore text identifiers")
    convert.add_argument("--base", type=int, choices=(0, 1), default=1, help="smallest index")
    convert.add_argument("--coords", action="store_true", help="emit coordinates in NET output")
    convert.add_argument("--pretty", action="store_true", help="indent NetsJSON output")
    convert.set_defaults(func=cmd_convert, rejects=())

    validate = sub.add_parser("validate", parents=[formatted, checked, tables],
                              help="check a network file and report findings")  # fmt: skip
    validate.add_argument("input", metavar="path", help="file to validate ('-' for stdin)")
    # An input validate cannot parse is rejected (exit 1), like one with error findings.
    validate.set_defaults(func=cmd_validate, rejects=NetconvError, base=1)

    info = sub.add_parser("info", parents=[formatted, tables],
                          help="print counts, title, dates, and the event log")  # fmt: skip
    info.add_argument("input", metavar="path", help="network file ('-' for stdin)")
    info.set_defaults(func=cmd_info, rejects=(), directed=True, base=1)

    partition = sub.add_parser("partition", parents=[formatted, tables],
                               help="extract a node partition as a CLU file")  # fmt: skip
    partition.add_argument("-i", "--input", help="network file (csv: the node table)")
    partition.add_argument("--via-csv", dest="via_csv", help="node table supplying properties")
    partition.add_argument("--property", required=True, help="categorical property to code")
    partition.add_argument("-o", "--output", default="-", help="CLU output path")
    partition.set_defaults(func=cmd_partition, rejects=CodingError, directed=True, base=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # A run builds large acyclic object trees; collector passes free nothing.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    rejects = ()  # _resolve's usage errors exit 2 on every subcommand
    try:
        _resolve(args)
        rejects = args.rejects
        return args.func(args)
    except (NetconvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID if isinstance(exc, rejects) else EXIT_FAILURE
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
