"""The shared header-row TSV codec: round trips, framing errors, blank lines."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stopout.errors import DataError
from stopout.tsv import read_table, write_table

HEADER = ("name", "value", "note")

# any text a cell can hold: no tab, and no character text mode reads as a newline
cell_text = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)))


@given(st.lists(st.tuples(cell_text, st.floats(allow_nan=False), cell_text), max_size=20))
def test_strings_and_floats_round_trip_bit_exactly(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("tsv") / "table.tsv"
    write_table(path, HEADER, rows)
    back = list(read_table(path, HEADER, lambda c: (c[0], float(c[1]), c[2])))
    assert [(a, v.hex(), b) for a, v, b in back] == [(a, v.hex(), b) for a, v, b in rows]


def test_rows_stream_in_file_order_with_the_parser_applied(tmp_path):
    path = tmp_path / "table.tsv"
    write_table(path, HEADER, [("a", 1, ""), ("b", 2.5, "x")])
    rows = read_table(path, HEADER, lambda c: c[1])
    assert next(rows) == "1"
    assert list(rows) == ["2.5"]


def test_writer_rejects_a_row_of_the_wrong_width(tmp_path):
    with pytest.raises(TypeError):
        write_table(tmp_path / "table.tsv", HEADER, [("a", 1)])


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("name\tvalue\tnote\n\na\t1\t\n\n\nb\t2\tz\n\n", encoding="utf-8")
    assert list(read_table(path, HEADER)) == [["a", "1", ""], ["b", "2", "z"]]


def test_missing_file_names_the_path(tmp_path):
    with pytest.raises(DataError, match=r"absent\.tsv: file not found"):
        list(read_table(tmp_path / "absent.tsv", HEADER))


@pytest.mark.parametrize(
    "text,where",
    [
        ("", r"table\.tsv:1: bad header"),
        ("nope\n", r"table\.tsv:1: bad header"),
        ("name\tnote\tvalue\na\t1\t\n", r"table\.tsv:1: bad header"),
        ("name\tvalue\tnote\na\t1\t\n\nb\t2\n", r"table\.tsv:4: expected 3 cells, got 2"),
        ("name\tvalue\tnote\na\t1\t\textra\n", r"table\.tsv:2: expected 3 cells, got 4"),
        ("name\tvalue\tnote\na\tx1\t\n", r"table\.tsv:2: could not convert string to float: 'x1'"),
    ],
)
def test_framing_errors_name_the_path_and_line(tmp_path, text, where):
    path = tmp_path / "table.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=where):
        list(read_table(path, HEADER, lambda c: float(c[1])))
