"""Network format toolkit: one in-memory model, three concrete formats.

Reads, writes, validates, and converts network descriptions among
semicolon-delimited node/link tables, Pajek NET/CLU, and NetsJSON basic,
with factorization (coding tables) as a first-class, reversible
transformation.

Each public name, and each submodule, is imported on first use (PEP 562),
so a program loads only the modules it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the public names it defines
    "coding": ("CodingTable", "LevelPolicy", "build_coding_table", "decode", "encode"),
    "errors": ("CodingError", "ExportError", "NetconvError", "ParseError", "SchemaError",
               "StructuralError", "TemporalError"),
    "factorize": ("defactorize_network", "factorize_network"),
    "model": ("EventRecord", "InfoBlock", "Interval", "LinkKind", "LinkRecord", "Network",
              "NetworkStats", "NodeRecord", "TemporalQuantity", "TimeWindow", "canonical_order",
              "make_network", "network_stats", "tq_value_at"),
    "netsjson": ("check_netsjson", "parse_netsjson", "validate_netsjson_document",
                 "write_netsjson"),
    "pajek": ("read_pajek_clu", "read_pajek_net", "write_pajek_clu", "write_pajek_net"),
    "tabular": ("Table", "TableOptions", "merge_node_properties", "network_to_tables",
                "read_link_table", "read_node_table", "tables_to_network", "write_table"),
    "validation": ("RULES", "Finding", "Level", "Severity", "ValidationReport", "check_all",
                   "check_network", "check_temporal"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # the import binds the submodule here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
