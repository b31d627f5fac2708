"""Coding tables: the value <-> integer-code correspondence for categorical data.

A coding table enumerates the distinct values of a categorical variable in a
fixed order; the code of a value is its position plus the table's base (the
smallest index, 0 or 1). Tables are kept on the network they describe so the
coded (factorized) representation is always invertible.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional

from .errors import CodingError


class LevelPolicy(Enum):
    """How level order is chosen when a table is built."""

    FILE_ORDER = "file_order"  # first appearance wins
    SORTED = "sorted"  # Unicode code point order, locale independent


class CodingTable:
    """Ordered list of distinct categorical values with their code base.

    ``name`` records what is coded ("relation", "node", a property name); it is
    metadata the serialized formats do not carry, so equality ignores it. A
    private value -> position index, also ignored, makes ``code_of``/``in`` O(1).
    Immutable: ``_replace`` returns a copy with some fields changed.
    """

    __slots__ = ("name", "levels", "base", "_index")

    def __init__(self, name: str, levels: tuple[str, ...] = (), base: int = 1):
        index = {}
        for i, lv in enumerate(levels):
            if not lv:
                raise ValueError("coding table level must be non-empty text")
            if index.setdefault(lv, i) != i:
                raise ValueError(f"duplicate coding table level: {lv!r}")
        for slot, value in zip(self.__slots__, (name, levels, base, index)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"field {name!r} of a coding table cannot change")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        same = type(other) is CodingTable
        return (self.levels, self.base) == (other.levels, other.base) if same else NotImplemented

    def __hash__(self) -> int:
        return hash((self.levels, self.base))

    def __repr__(self) -> str:
        return f"CodingTable(name={self.name!r}, levels={self.levels!r}, base={self.base!r})"

    def __reduce__(self):  # copy and pickle call the constructor, as no slot can be set
        return CodingTable, (self.name, self.levels, self.base)

    def _replace(self, **changes) -> CodingTable:
        return CodingTable(**{"name": self.name, "levels": self.levels, "base": self.base, **changes})

    def __len__(self) -> int:
        return len(self.levels)

    def __contains__(self, value: object) -> bool:
        try:
            return value in self._index
        except TypeError:  # unhashable, so not a level
            return False

    def code_of(self, value: str) -> int:
        try:
            return self.base + self._index[value]
        except (KeyError, TypeError):
            raise CodingError(f"value {value!r} not in coding table {self.name!r}") from None

    def value_of(self, code: int) -> str:
        i = code - self.base
        if not 0 <= i < len(self.levels):
            raise CodingError(
                f"code {code} out of range [{self.base}, {self.base + len(self.levels) - 1}]"
                f" for coding table {self.name!r}"
            )
        return self.levels[i]

    def in_range(self, code: int) -> bool:
        return self.base <= code < self.base + len(self.levels)


def build_coding_table(
    name: str,
    values: Iterable[Optional[str]],
    policy: LevelPolicy = LevelPolicy.SORTED,
    base: int = 1,
) -> CodingTable:
    """Enumerate the distinct non-missing values of a categorical variable.

    Missing values (None) contribute no level. ``base`` must be 0 or 1.
    File order builds in O(n), and the table's lookups are O(1).
    """
    if base not in (0, 1):
        raise ValueError(f"coding table base must be 0 or 1, got {base}")
    if policy is LevelPolicy.SORTED:
        levels = sorted({v for v in values if v is not None})
    else:
        levels = dict.fromkeys(v for v in values if v is not None)
    return CodingTable(name=name, levels=tuple(levels), base=base)


def encode(values: Iterable[Optional[str]], table: CodingTable) -> list[int]:
    """Replace each value with its code; missing values map to 0."""
    out = []
    for pos, v in enumerate(values):
        if v is None:
            out.append(0)
        else:
            try:
                out.append(table.code_of(v))
            except CodingError:
                raise CodingError(
                    f"value {v!r} at position {pos} not in coding table {table.name!r}"
                ) from None
    return out


def decode(codes: Iterable[int], table: CodingTable) -> list[Optional[str]]:
    """Exact inverse of :func:`encode` on its range; 0 -> None."""
    out = []
    for pos, c in enumerate(codes):
        if c == 0:
            out.append(None)
        elif table.in_range(c):
            out.append(table.value_of(c))
        else:
            raise CodingError(
                f"code {c} at position {pos} out of range for coding table {table.name!r}"
            )
    return out
