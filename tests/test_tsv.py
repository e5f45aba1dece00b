"""The shared header-row TSV codec: round trips, framing errors, blank lines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stopout import tsv
from stopout.errors import DataError
from stopout.featurizer import FEATURE_COLUMNS, NUM_FEATURES, FeatureMatrix, export_feature_matrix, load_feature_matrix
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


# ---------------------------------------------------------------------------
# chunk edges: a chunk is about CHUNK_BYTES of whole lines, so small values
# put rows, blank lines and errors on and across chunk boundaries

CHUNK_SIZES = [1, 7, 16, 1 << 20]


@pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
def test_a_wrong_width_row_past_the_first_chunk_names_its_line(tmp_path, monkeypatch, chunk_bytes):
    monkeypatch.setattr(tsv, "CHUNK_BYTES", chunk_bytes)
    path = tmp_path / "table.tsv"
    path.write_text("name\tvalue\tnote\n" + "a\t1\tx\n" * 10 + "\n" + "b\t2\n" + "c\t3\tz\n", encoding="utf-8")
    rows = read_table(path, HEADER)
    assert [next(rows) for _ in range(10)] == [["a", "1", "x"]] * 10  # the rows before it still arrive
    with pytest.raises(DataError, match=r"table\.tsv:13: expected 3 cells, got 2"):
        next(rows)


@pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
def test_blank_lines_at_chunk_edges_are_skipped(tmp_path, monkeypatch, chunk_bytes):
    monkeypatch.setattr(tsv, "CHUNK_BYTES", chunk_bytes)
    path = tmp_path / "table.tsv"
    path.write_text("name\tvalue\tnote\n\n\na\t1\t\n\n" + "b\t2\tz\n\n\n\n" + "c\t3\t\u2028\n\n", encoding="utf-8")
    assert list(read_table(path, HEADER)) == [["a", "1", ""], ["b", "2", "z"], ["c", "3", "\u2028"]]
    path.write_text("name\tvalue\tnote\n\n\nd\t\t\n\ne\tx1\t\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"table\.tsv:6: could not convert string to float: 'x1'"):
        list(read_table(path, HEADER, lambda c: float(c[1] or 0)))


@pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
def test_a_file_without_a_final_newline_keeps_its_last_row(tmp_path, monkeypatch, chunk_bytes):
    monkeypatch.setattr(tsv, "CHUNK_BYTES", chunk_bytes)
    path = tmp_path / "table.tsv"
    path.write_text("name\tvalue\tnote\na\t1\t\nb\t2\tz", encoding="utf-8")
    assert list(read_table(path, HEADER)) == [["a", "1", ""], ["b", "2", "z"]]


def _matrix(values) -> FeatureMatrix:
    """One learner whose weeks hold values, NUM_FEATURES to a week (zero-padded)."""
    weeks = max(1, -(-len(values) // NUM_FEATURES))
    flat = np.zeros(weeks * NUM_FEATURES)
    flat[:len(values)] = values
    return FeatureMatrix(learners=["a"], values=flat.reshape(1, weeks, NUM_FEATURES),
                         labels=np.ones((1, weeks), dtype=np.int8))


def _bits(values: np.ndarray) -> list[int]:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64).ravel().tolist()


# finite only: load_feature_matrix rejects nan and +-inf (test_a_feature_cell_is_read_as_float_reads_it)
EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
               0.1, 1 / 3, 123456789012345680.0]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3 * NUM_FEATURES),
       st.sampled_from([1, 200, 1 << 20]))
def test_features_round_trip_bit_exactly(tmp_path_factory, values, chunk_bytes):
    path = tmp_path_factory.mktemp("features") / "features.tsv"
    matrix = _matrix(EDGE_FLOATS + values)
    export_feature_matrix(matrix, path)
    saved, tsv.CHUNK_BYTES = tsv.CHUNK_BYTES, chunk_bytes
    try:
        again = load_feature_matrix(path)
    finally:
        tsv.CHUNK_BYTES = saved
    assert _bits(again.values) == _bits(matrix.values)


@pytest.mark.parametrize("chunk_bytes", [1, 300, 1 << 20])
@pytest.mark.parametrize(
    "cell,error",
    [
        ("x1", "could not convert string to float: 'x1'"),
        ("0.5\x1c", "could not convert string to float: '0.5\\x1c'"),  # np.loadtxt would read 0.5
        ("", "could not convert string to float: ''"),
        ("1_0", None),  # float() reads 10.0 where np.loadtxt fails
        ("\u2028 2.5", None),
        ("nan", f"{FEATURE_COLUMNS[-2]} is nan, not a finite number"),  # float() reads all three
        ("inf", f"{FEATURE_COLUMNS[-2]} is inf, not a finite number"),
        ("-1e400", f"{FEATURE_COLUMNS[-2]} is -inf, not a finite number"),
    ],
)
def test_a_feature_cell_is_read_as_float_reads_it(tmp_path, monkeypatch, chunk_bytes, cell, error):
    monkeypatch.setattr(tsv, "CHUNK_BYTES", chunk_bytes)
    path = tmp_path / "features.tsv"
    export_feature_matrix(_matrix(np.arange(5 * NUM_FEATURES) / 7), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[4].split("\t")
    cells[-2] = cell
    lines[4] = "\t".join(cells)
    path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n", encoding="utf-8")
    assert lines[0].split("\t") == list(FEATURE_COLUMNS)
    if error is None:
        assert load_feature_matrix(path).values[0, 3, -2] == float(cell)
    else:
        with pytest.raises(DataError) as got:
            load_feature_matrix(path)
        assert str(got.value) == f"{path}:6: {error}"
