"""What a fresh interpreter loads: the package imports each module on first
use, and each CLI subcommand imports only the modules it runs.

Every probe runs in a new interpreter started with ``-S`` (no ``site``), so
no ``.pth`` file of the environment loads modules of its own, and reports
the modules its code added to ``sys.modules``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

from conftest import DATA

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = {
    "CodingTable", "LevelPolicy", "build_coding_table", "decode", "encode", "CodingError",
    "ExportError", "NetconvError", "ParseError", "SchemaError", "StructuralError", "TemporalError",
    "defactorize_network", "factorize_network", "EventRecord", "InfoBlock", "Interval", "LinkKind",
    "LinkRecord", "Network", "NetworkStats", "NodeRecord", "TemporalQuantity", "TimeWindow",
    "canonical_order", "make_network", "network_stats", "tq_value_at", "check_netsjson",
    "parse_netsjson", "validate_netsjson_document", "write_netsjson", "Partition",
    "partition_from_property", "read_pajek_clu", "read_pajek_net", "write_pajek_clu",
    "write_pajek_net", "Table", "TableOptions", "merge_node_properties", "network_to_tables",
    "read_link_table", "read_node_table", "tables_to_network", "write_table", "RULES", "Finding",
    "Level", "Severity", "ValidationReport", "check_all", "check_network", "check_temporal",
    "__version__",
}  # fmt: skip
SUBMODULES = ("coding", "errors", "factorize", "model", "netsjson", "pajek", "tabular", "validation")


def loaded_by(code: str):
    """The value of the expression on the last line of ``code``, and the
    modules the lines run in a fresh interpreter added to ``sys.modules``."""
    *lines, last = code.splitlines()
    probe = "\n".join(["import sys", "before = set(sys.modules)", *lines, f"value = {last}",
                       "print(repr((value, sorted(set(sys.modules) - before))))"])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    value, modules = ast.literal_eval(out.splitlines()[-1])
    return value, set(modules)


def test_public_names_and_submodules_resolve_after_a_bare_import():
    ok, _ = loaded_by(f"import netconv, sys\n"
                      f"[getattr(netconv, name) for name in {sorted(PUBLIC)!r}]\n"
                      f"all(getattr(netconv, m) is sys.modules['netconv.' + m] for m in {SUBMODULES!r})")
    assert ok


def test_all_lists_the_public_names():
    import netconv

    assert set(netconv.__all__) == PUBLIC and len(netconv.__all__) == len(PUBLIC)
    assert set(dir(netconv)) >= PUBLIC | set(SUBMODULES)


def test_importing_the_cli_loads_no_format_module():
    _, modules = loaded_by("import netconv.cli\n0")
    assert "netconv.cli" in modules
    unwanted = {"dataclasses", "inspect", "netconv.netsjson", "netconv.pajek", "netconv.tabular",
                "netconv.factorize"}  # fmt: skip
    assert not modules & unwanted


def test_csv_to_net_loads_no_netsjson_code(tmp_path):
    argv = ["convert", "--from", "csv", "--to", "net", "--nodes", str(DATA / "bibNodes.csv"),
            "--links", str(DATA / "bibLinks.csv"), "-o", str(tmp_path / "bib.net")]
    status, modules = loaded_by(f"from netconv.cli import main\nmain({argv!r})")
    assert status == 0 and (tmp_path / "bib.net").exists()
    assert {"netconv.tabular", "netconv.pajek"} <= modules
    assert not modules & {"netconv.netsjson", "json"}
    assert "netconv.factorize" not in modules  # the tables name codes through the model


def test_netsjson_validate_loads_no_table_pajek_or_factorize_code():
    argv = ["validate", str(DATA / "temporal_full.json"), "--level", "strict"]
    status, modules = loaded_by(f"from netconv.cli import main\nmain({argv!r})")
    assert status == 0 and "netconv.netsjson" in modules
    unwanted = {"netconv.pajek", "netconv.tabular", "netconv.factorize", "csv", "tempfile"}
    assert not modules & unwanted
