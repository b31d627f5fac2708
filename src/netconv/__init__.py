"""Network format toolkit: one in-memory model, three concrete formats.

Reads, writes, validates, and converts network descriptions among
semicolon-delimited node/link tables, Pajek NET/CLU, and NetsJSON basic,
with factorization (coding tables) as a first-class, reversible
transformation.
"""

from .coding import CodingTable, LevelPolicy, build_coding_table, decode, encode
from .errors import (
    CodingError,
    ExportError,
    NetconvError,
    ParseError,
    SchemaError,
    StructuralError,
    TemporalError,
)
from .factorize import defactorize_network, factorize_network
from .model import (
    EventRecord,
    InfoBlock,
    Interval,
    LinkKind,
    LinkRecord,
    Network,
    NetworkStats,
    NodeRecord,
    TemporalQuantity,
    TimeWindow,
    canonical_order,
    make_network,
    network_stats,
    tq_value_at,
)
from .netsjson import check_netsjson, parse_netsjson, validate_netsjson_document, write_netsjson
from .pajek import (
    Partition,
    partition_from_property,
    read_pajek_clu,
    read_pajek_net,
    write_pajek_clu,
    write_pajek_net,
)
from .tabular import (
    Table,
    TableOptions,
    merge_node_properties,
    network_to_tables,
    read_link_table,
    read_node_table,
    tables_to_network,
    write_table,
)
from .validation import (
    RULES,
    Finding,
    Level,
    Severity,
    ValidationReport,
    check_all,
    check_network,
    check_temporal,
)

__version__ = "0.1.0"
