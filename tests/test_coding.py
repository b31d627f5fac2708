from __future__ import annotations

import dataclasses
import re
from itertools import compress

import pytest
from hypothesis import assume, given, strategies as st

import oracles
from netconv import (
    CodingError,
    CodingTable,
    LevelPolicy,
    build_coding_table,
    decode,
    encode,
)

# Frozen from the independent oracle over the bundled node/link tables.
MODE_LEVELS = ("book", "journal", "paper", "person", "publisher", "series")
RELATION_LEVELS = ("authorOf", "cites", "containedIn", "editorOf", "publishedBy")
SEX_LEVELS = ("f", "m")


@pytest.fixture(scope="module")
def sex_table():
    return CodingTable("sex", SEX_LEVELS, 1)


class TestBuildCodingTable:
    def test_relation_column_sorted(self, bib_link_table):
        table = build_coding_table("relation", bib_link_table.column("relation"))
        assert table.levels == RELATION_LEVELS

    def test_sex_levels_sorted_with_missing(self):
        values = ["m", "m", "f", "m", "f", "m", None, None]
        table = build_coding_table("sex", values)
        assert table.levels == SEX_LEVELS
        assert table.code_of("f") == 1
        assert table.code_of("m") == 2

    def test_mode_column(self, bib_node_table):
        column = bib_node_table.column("mode")
        table = build_coding_table("mode", column)
        assert table.levels == tuple(oracles.sorted_levels(column)) == MODE_LEVELS

    def test_file_order_keeps_first_appearance(self, bib_node_table):
        column = bib_node_table.column("name")
        table = build_coding_table("node", column, LevelPolicy.FILE_ORDER)
        assert list(table.levels) == oracles.file_order_levels(column)
        assert table.levels[0] == "Batagelj, Vladimir"

    def test_base_restricted(self):
        with pytest.raises(ValueError):
            build_coding_table("x", ["a"], base=2)

    def test_table_invariants(self):
        with pytest.raises(ValueError):
            CodingTable("x", ("a", "a"), 1)
        with pytest.raises(ValueError):
            CodingTable("x", ("",), 1)


class TestEncode:
    def test_sex_with_missing(self, sex_table):
        assert encode(["m", "f", None], sex_table) == [2, 1, 0]

    def test_empty(self, sex_table):
        assert encode([], sex_table) == []

    def test_mode_positions(self):
        table = CodingTable("mode", MODE_LEVELS, 1)
        expected = oracles.positional_encode(
            ["person", "journal"], list(MODE_LEVELS), 1, 0
        )
        assert encode(["person", "journal"], table) == expected == [4, 2]

    def test_unknown_value_names_value_and_position(self, sex_table):
        with pytest.raises(CodingError, match=r"'x' at position 1"):
            encode(["m", "x"], sex_table)


class TestDecode:
    def test_inverse_of_encode(self, sex_table):
        assert decode([2, 1, 0], sex_table) == ["m", "f", None]

    def test_empty(self, sex_table):
        assert decode([], sex_table) == []

    def test_relation_codes(self):
        table = CodingTable("relation", RELATION_LEVELS, 1)
        assert decode([1, 5], table) == ["authorOf", "publishedBy"]

    def test_out_of_range_names_code_and_position(self, sex_table):
        with pytest.raises(CodingError, match=r"code 9 at position 1"):
            decode([1, 9], sex_table)


values_st = st.lists(st.sampled_from(["a", "b", "c", "d", None]), max_size=30)


class TestProperties:
    @given(values_st)
    def test_decode_encode_identity(self, values):
        table = build_coding_table("p", ["a", "b", "c", "d"])
        assert decode(encode(values, table), table) == values

    @given(st.permutations(["x", "y", "z", "w"]))
    def test_sorted_policy_permutation_invariant(self, values):
        base = build_coding_table("p", ["w", "x", "y", "z"])
        assert build_coding_table("p", values) == base

    @given(values_st, values_st)
    def test_file_order_prefix_stable(self, prefix, suffix):
        before = build_coding_table("p", prefix, LevelPolicy.FILE_ORDER)
        after = build_coding_table("p", prefix + suffix, LevelPolicy.FILE_ORDER)
        assert after.levels[: len(before.levels)] == before.levels


level_lists_st = st.lists(st.text(min_size=1, max_size=4), unique=True, max_size=20)
bases_st = st.sampled_from([0, 1])
absent_st = st.one_of(
    st.text(max_size=4),
    st.none(),
    st.integers(),
    st.floats(allow_nan=False),
    st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.sets(st.integers(), max_size=2),
    st.tuples(st.text(max_size=2), st.lists(st.integers(), max_size=2)),
)


class TestCodingTableProperties:
    @given(
        st.lists(st.one_of(st.none(), st.text(min_size=1, max_size=3)), max_size=40),
        st.sampled_from(
            [
                (LevelPolicy.FILE_ORDER, oracles.file_order_levels),
                (LevelPolicy.SORTED, oracles.sorted_levels),
            ]
        ),
        bases_st,
    )
    def test_lookups_agree_with_oracles(self, values, policy_oracle, base):
        policy, oracle = policy_oracle
        table = build_coding_table("p", values, policy, base)
        levels = oracle(values)
        assert list(table.levels) == levels
        # Compare only the codes of present values: missing values take 0, a live code at base 0.
        expected = oracles.positional_encode(values, levels, base, None)
        present = [v is not None for v in values]
        assert list(compress(encode(values, table), present)) == list(compress(expected, present))
        for value, code in zip(values, expected):
            if value is not None:
                assert value in table
                assert table.code_of(value) == code
                assert table.value_of(code) == value

    @given(level_lists_st, bases_st, st.data())
    def test_duplicate_or_empty_level_rejected(self, levels, base, data):
        bad = data.draw(st.sampled_from(levels + [""]))
        at = data.draw(st.integers(0, len(levels)))
        if bad:
            message = f"duplicate coding table level: {bad!r}"
        else:
            message = "coding table level must be non-empty text"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CodingTable("p", tuple(levels[:at] + [bad] + levels[at:]), base)

    @given(level_lists_st, bases_st, absent_st)
    def test_absent_value_not_in_and_not_coded(self, levels, base, value):
        assume(value not in levels)
        table = CodingTable("p", tuple(levels), base)
        assert (value in table) is False
        message = f"value {value!r} not in coding table 'p'"
        with pytest.raises(CodingError, match=f"^{re.escape(message)}$"):
            table.code_of(value)

    @given(level_lists_st, bases_st)
    def test_equal_tables_hash_equal_whatever_their_index(self, levels, base):
        built = build_coding_table("node", levels, LevelPolicy.FILE_ORDER, base)
        direct = CodingTable("other name", tuple(levels), base)
        object.__setattr__(direct, "_index", {})
        assert built == direct
        assert hash(built) == hash(direct)
        assert repr(built) == f"CodingTable(name='node', levels={tuple(levels)!r}, base={base})"

    @given(level_lists_st, bases_st)
    def test_replace_rebuilds_index(self, levels, base):
        table = CodingTable("p", tuple(levels), base)
        rebased = dataclasses.replace(table, base=1 - base)
        reordered = dataclasses.replace(table, levels=tuple(reversed(levels)))
        assert [rebased.code_of(v) for v in levels] == oracles.positional_encode(
            levels, levels, 1 - base, None
        )
        assert [reordered.code_of(v) for v in levels] == oracles.positional_encode(
            levels, levels[::-1], base, None
        )
