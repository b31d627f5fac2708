"""A tiny input makes a bounded amount of work.

Each case runs ``python -m netconv.cli`` on an input of a few lines, or a
few library calls, in a child interpreter whose address space is capped,
with a time limit. A command that would size a table by the span of the
codes it reads, rather than by the records, runs out of memory or time
there instead of finishing with its documented exit code and at most one
``error:`` line.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

resource = pytest.importorskip("resource")

SRC = Path(__file__).resolve().parents[1] / "src"
LIMIT = 256 << 20  # bytes of address space; a fresh CLI run needs a small fraction of it

INPUTS = {
    # relation codes 1 and 10^7 and no info.relations: each code names itself
    "w.json": ('{"netsJSON":"basic","info":{"org":1,"multirel":true},"nodes":[{"id":1}],'
               '"links":[{"n1":1,"n2":1,"rel":1},{"n1":1,"n2":1,"rel":10000000}]}'),
    # node codes 1 and 10^9 and no info.nodeCoding
    "s.json": ('{"netsJSON":"basic","info":{"org":1},"nodes":[{"id":1},{"id":1000000000}],'
               '"links":[{"n1":1,"n2":1000000000,"rel":1}]}'),
    # relation codes 1 and 10^9: two names local to the file
    "w.net": '*vertices 1\n1 "a"\n*arcs\n1: 1 1\n1000000000: 1 1\n',
    "m.net": "*vertices 1000000000\n",
}
CASES = [
    ("validate w.json", 0, ""),
    ("info w.json", 0, ""),
    ("convert -i w.json -o o.json", 0, ""),
    ("convert -i w.json -o o.net", 0, ""),
    ("validate s.json", 0, ""),
    ("info s.json", 0, ""),
    ("convert -i s.json -o o.json", 0, ""),
    ("convert -i s.json -o o.net", 0, ""),
    ("convert -i s.json --to csv --nodes n.csv --links l.csv", 0, ""),
    ("validate w.net", 0, ""),
    ("convert -i w.net -o o.json", 0, ""),
]


def _cap():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))


def run_child(args: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-S", *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=10, preexec_fn=_cap)


def run_capped(tmp_path: Path, argv: str) -> subprocess.CompletedProcess:
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return run_child(["-m", "netconv.cli", *argv.split()], tmp_path)


@pytest.mark.parametrize("argv, status, err", CASES, ids=[case[0] for case in CASES])
def test_tiny_input_bounded(tmp_path, argv, status, err):
    done = run_capped(tmp_path, argv)
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stderr) == (status, err)


# make_network on a factorized network without a relation table: codes 1 and 10^7
# name themselves, and the table stays empty.
WIDE_LIBRARY = """
from netconv import LinkKind, LinkRecord, NodeRecord, make_network
links = [LinkRecord(LinkKind.ARC, 1, 1, 1), LinkRecord(LinkKind.ARC, 1, 1, 10_000_000)]
print(len(make_network([NodeRecord(1)], links).relations))
"""


def test_make_network_bounded():
    done = run_child(["-c", WIDE_LIBRARY])
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "0\n")


# read_pajek_clu without a legend: values 1 and 10^9 name themselves.
WIDE_CLU = """
import io
from netconv import NodeRecord, make_network, read_pajek_clu
network = make_network([NodeRecord("a"), NodeRecord("b")], [])
network = read_pajek_clu(io.StringIO("*vertices 2\\n1\\n1000000000\\n"), network, "p")
print(*(node.props["p"] for node in network.nodes))
"""


def test_clu_bounded():
    done = run_child(["-c", WIDE_CLU])
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "1 1000000000\n")


def test_vertex_count_bounded(tmp_path):
    """read_pajek_net builds one record per counted vertex, so it refuses a
    count larger than the file's characters before building any."""
    done = run_capped(tmp_path, "validate m.net")
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stderr) == (
        1, "error: vertex numbers 1 to 1000000000 span more values than the file's 21 characters\n")
