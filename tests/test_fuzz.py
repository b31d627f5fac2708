"""Byte-level fuzz of the readers and the CLI.

The ``tests/data`` files, with bytes mutated (truncation, a byte order mark,
CRLF line ends, NUL, invalid UTF-8, quotes, huge numbers, deep nesting), go
through every reader and through ``main()`` for each subcommand. Only a
``NetconvError`` may leave a reader, and ``main`` returns 0, 1 or 2 without
raising. The run is seeded and sized to take about a second.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import tempfile

import pytest

from conftest import DATA
from netconv import (
    NetconvError,
    parse_netsjson,
    read_link_table,
    read_node_table,
    read_pajek_clu,
    read_pajek_net,
    tables_to_network,
    validate_netsjson_document,
)
from netconv.cli import main

FORMATS = {".csv": "csv", ".net": "net", ".json": "netsjson"}
SEEDS = {suffix: sorted(DATA.rglob(f"*{suffix}")) for suffix in FORMATS}  # drawn format first
NODES, LINKS = (DATA / "bibNodes.csv").read_bytes(), (DATA / "bibLinks.csv").read_bytes()


def _insert(rng: random.Random, data: bytes, piece: bytes) -> bytes:
    at = rng.randint(0, len(data))
    return data[:at] + piece + data[at:]


def _huge_number(rng: random.Random, data: bytes) -> bytes:
    digits = [i for i, b in enumerate(data) if 0x30 <= b <= 0x39]
    if not digits:
        return data + b"9" * 400
    at = rng.choice(digits)
    return data[:at] + rng.choice([b"9" * 400, b"1e999", b"1" + b"0" * 30]) + data[at + 1:]


MUTATIONS = {
    "truncate": lambda rng, d: d[: rng.randint(0, len(d))],
    "bom": lambda rng, d: b"\xef\xbb\xbf" + d,
    "crlf": lambda rng, d: d.replace(b"\n", b"\r\n"),
    "nul": lambda rng, d: _insert(rng, d, b"\x00"),
    "utf8": lambda rng, d: _insert(rng, d, rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80"])),
    "quote": lambda rng, d: _insert(rng, d, rng.choice([b'"', b'""', b"'"])),
    "huge": _huge_number,
    "nesting": lambda rng, d: _insert(rng, d, b"[" * 100_000 + b"]" * rng.choice([0, 100_000])),
}


def mutated(rng: random.Random, data: bytes) -> bytes:
    for name in rng.sample(sorted(MUTATIONS), rng.randint(1, 2)):
        data = MUTATIONS[name](rng, data)
    return data


def text(data: bytes) -> io.TextIOWrapper:
    """The stream the CLI reads a file through."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def readers_raise_only_netconv_errors(data: bytes) -> None:
    for read in (read_pajek_net, read_pajek_clu, parse_netsjson, validate_netsjson_document):
        with contextlib.suppress(NetconvError):
            read(text(data))
    for node_bytes, link_bytes in ((data, LINKS), (NODES, data)):
        with contextlib.suppress(NetconvError):
            tables_to_network(read_node_table(text(node_bytes)), read_link_table(text(link_bytes)))


def commands(fmt: str, source: list[str], out: str) -> list[list[str]]:
    """Each subcommand on one input: validate at both levels and reports,
    info, partition, and convert to each other format."""
    read = ["--format", fmt, *source]
    convert = ["convert", "--from", fmt, *(["-i", *source] if fmt != "csv" else source[1:])]
    targets = {"net": ["--to", "net", "-o", f"{out}.net"],
               "netsjson": ["--to", "netsjson", "-o", f"{out}.json"],
               "csv": ["--to", "csv", "--nodes", f"{out}n.csv", "--links", f"{out}l.csv"]}
    runs = [["validate", *read], ["validate", *read, "--level", "strict", "--report", "json"],
            ["info", *read],
            ["partition", "--format", fmt, "-i", *source, "--property", "mode", "-o", f"{out}.clu"]]
    runs += [[*convert, *targets[to]] for to in targets if to != fmt]
    runs += [[*convert, *targets["netsjson"], "--factorize", "--base", "0"],
             [*convert, *targets["netsjson"], "--defactorize"]]
    return runs


def main_exits_0_1_or_2(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2), argv
    assert "usage:" not in err.getvalue(), argv  # the command line itself is sound


@pytest.mark.parametrize("seed", range(4))
def test_mutated_files(seed):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(12):
            path = rng.choice(SEEDS[rng.choice(sorted(SEEDS))])
            data = mutated(rng, path.read_bytes())
            readers_raise_only_netconv_errors(data)
            fmt = FORMATS[path.suffix]
            target = os.path.join(tmp, f"in{k}{path.suffix}")
            with open(target, "wb") as handle:
                handle.write(data)
            if fmt == "csv":  # the mutated table stands in for one of the bib pair
                nodes, links = (target, str(DATA / "bibLinks.csv")) if "Nodes" in path.name else (
                    str(DATA / "bibNodes.csv"), target)
                source = [nodes, "--nodes", nodes, "--links", links]
            else:
                source = [target]
            for argv in commands(fmt, source, os.path.join(tmp, f"out{k}")):
                main_exits_0_1_or_2(argv)
