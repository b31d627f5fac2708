from __future__ import annotations

import contextlib
import signal
from pathlib import Path

import pytest

from netconv import (
    TableOptions,
    canonical_order,
    read_link_table,
    read_node_table,
    tables_to_network,
)

DATA = Path(__file__).parent / "data"


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail with TimeoutError, rather than hang, when the block runs longer
    than ``seconds`` (a SIGALRM timer: main thread, Unix)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def normalize_layout(text: str) -> str:
    """Collapse token spacing and drop blank lines, keeping token content."""
    lines = []
    for line in text.splitlines():
        toks = line.split()
        if toks:
            lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def outcome(call, *args, **kwargs):
    """The call's result, or the class and message of what it raised."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def bib_node_table():
    with open(DATA / "bibNodes.csv", encoding="utf-8", newline="") as stream:
        return read_node_table(stream, TableOptions())


@pytest.fixture(scope="session")
def bib_link_table():
    with open(DATA / "bibLinks.csv", encoding="utf-8", newline="") as stream:
        return read_link_table(stream, TableOptions())


@pytest.fixture(scope="session")
def bib_network(bib_node_table, bib_link_table):
    return tables_to_network(bib_node_table, bib_link_table, directed=True, base=1)


@pytest.fixture(scope="session")
def bib_canonical(bib_network):
    return canonical_order(bib_network)


@pytest.fixture(scope="session")
def bib_golden_net():
    """Reference NET rendering of the bibliographic dataset (original
    layout: spacing runs and a leading space per line, normalized away by
    :func:`normalize_layout`)."""
    with open(DATA / "bib.golden.net", encoding="utf-8") as stream:
        return stream.read()
