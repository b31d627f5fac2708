"""Reversible conversion between labeled and integer-coded networks.

Factorizing replaces node identifiers and relation names with their codes
from coding tables; the tables stay on the network, so the transformation
is always invertible (unlike formats that drop the tables as metadata).
Both directions rewrite identifiers only through those tables, with
:func:`~netconv.model.recode`.
"""

from __future__ import annotations

from .coding import CodingTable, LevelPolicy, build_coding_table
from .errors import StructuralError
from .model import Network, node_names, recode, sorted_relations


def factorize_network(network: Network, base: int = 1) -> Network:
    """Replace text identifiers with integer codes.

    Node ids are coded in file order (the one node table built from ids),
    relation names by :func:`sorted_relations`, both with the given base;
    info.org is set to the base. The input must be in labeled form.
    """
    if base not in (0, 1):
        raise ValueError(f"base must be 0 or 1, got {base}")
    if network.is_factorized:
        raise StructuralError("network is already factorized")

    ids = [n.id for n in network.nodes]
    node_coding = build_coding_table("node", ids, LevelPolicy.FILE_ORDER, base)
    if len(node_coding) != len(ids):
        raise StructuralError("duplicate node identifiers prevent factorization")
    # Keep declared-but-unused relation levels so inversion restores them.
    relations = sorted_relations(network.relations.levels, (l.rel for l in network.links), base)
    tables = network.property_codings
    property_codings = {name: table._replace(base=base) for name, table in tables.items()}

    def rebased(record):  # a coded value moves with its table, so it names the same level
        new = {name: v - tables[name].base + base for name, v in record.props.items()
               if name in tables and type(v) is int and tables[name].in_range(v)}
        return record._replace(props={**record.props, **new}) if new else record

    if any(table.base != base for table in tables.values()):
        network = network._replace(nodes=tuple(map(rebased, network.nodes)),
                                   links=tuple(map(rebased, network.links)))
    info = network.info._replace(org=base)
    return recode(network, node_coding.code_of, relations.code_of, info=info, relations=relations,
                  node_coding=node_coding, property_codings=property_codings)


def defactorize_network(network: Network) -> Network:
    """Restore text identifiers from the coding tables carried by the network.

    Inverse of :func:`factorize_network`; info.org is left as the base the
    tables use, and the node table is emptied. A code the tables do not
    cover raises :class:`~netconv.errors.CodingError`.
    """
    if not network.is_factorized:
        return network
    return recode(network, node_names(network), network.relations.value_of,
                  node_coding=CodingTable("node", base=network.node_coding.base))
