"""Tests for the table emitter: its bytes equal csv.writer and json.dumps
output for the same table, across chunk boundaries and for lattices."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisedist.tables
from noisedist.tables import write_table


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def reference_csv(columns):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(columns))
    for row in zip(*(np.asarray(v).tolist() for v in columns.values())):
        writer.writerow([v if isinstance(v, str) else _cell(v) for v in row])
    return buf.getvalue()


def reference_json(columns, meta, rows_key="rows"):
    names = list(columns)
    rows = [dict(zip(names, row))
            for row in zip(*(np.asarray(v).tolist() for v in columns.values()))]
    return json.dumps({**meta, rows_key: rows}, indent=2, sort_keys=True) + "\n"


def emit(columns, fmt, **kwargs):
    buf = io.StringIO()
    write_table(buf, columns, fmt, **kwargs)
    return buf.getvalue()


floats = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    return {
        "x": np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=float),
        "Count": np.array(draw(st.lists(st.integers(-2**62, 2**62), min_size=n, max_size=n)),
                          dtype=np.int64),
        "ok": np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
        "label": np.array(draw(st.lists(st.sampled_from(["A", "B", "q"]), min_size=n,
                                        max_size=n)), dtype=str),
    }


@given(columns=tables(), chunk=st.integers(min_value=1, max_value=7))
@settings(max_examples=200)
def test_matches_csv_writer_and_json_dumps(columns, chunk):
    original = noisedist.tables.CHUNK_ROWS
    noisedist.tables.CHUNK_ROWS = chunk  # many chunks per table
    try:
        assert emit(columns, "csv") == reference_csv(columns)
        meta = {"config": {"seed": 3, "tolerance": 1e-9, "name": "custom(9,0)"}, "z": [1, 2.5]}
        assert emit(columns, "json", meta=meta) == reference_json(columns, meta)
        # lists of Python scalars are formatted exactly as the arrays they came from
        as_lists = {name: v.tolist() for name, v in columns.items()}
        assert emit(as_lists, "json", meta=meta) == emit(columns, "json", meta=meta)
    finally:
        noisedist.tables.CHUNK_ROWS = original


def test_lattice_axes_broadcast_in_row_major_order():
    rows = np.array([0.0, 0.1 + 0.2, 90.0])
    cols = np.array([1e-300, 7.5])
    cells = np.arange(6, dtype=float).reshape(3, 2) / 3.0
    lattice = {"vartheta_deg": rows[:, None], "phi_deg": cols[None, :], "D": cells}
    flat = {"vartheta_deg": np.repeat(rows, 2), "phi_deg": np.tile(cols, 3),
            "D": cells.ravel()}
    assert emit(lattice, "csv") == reference_csv(flat)
    meta = {"theta_m_deg": 50.0, "argmin": {"D": 0.0, "phi_deg": 1e-300}}
    assert (emit(lattice, "json", meta=meta, rows_key="surface")
            == reference_json(flat, meta, rows_key="surface"))


def test_lattice_accepts_a_1d_column_as_one_value_per_lattice_column():
    lattice = {"a": np.array([[1.0], [2.0]]), "b": np.array([3.0, 4.0]),
               "c": np.zeros((2, 2))}
    flat = {"a": [1.0, 1.0, 2.0, 2.0], "b": [3.0, 4.0, 3.0, 4.0], "c": [0.0] * 4}
    assert emit(lattice, "csv") == reference_csv(flat)


@pytest.mark.parametrize("columns", [
    {"a": np.zeros(0), "b": np.zeros(0, dtype=bool)},
    {"a": np.zeros((3, 1)), "b": np.zeros((1, 0))},
    {"a": np.zeros((0, 1)), "b": np.zeros((1, 4))},
], ids=["rows", "no-lattice-columns", "no-lattice-rows"])
def test_empty_tables(columns):
    flat = {name: [] for name in columns}
    assert emit(columns, "csv") == reference_csv(flat)
    assert emit(columns, "json", meta={"n": 0}) == reference_json(flat, {"n": 0})


def test_writes_in_bounded_chunks():
    sizes = []

    class Recorder(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    n = 3 * noisedist.tables.CHUNK_ROWS + 5
    columns = {"x": np.linspace(0.0, 1.0, n)}
    stream = Recorder()
    write_table(stream, columns, "csv")
    assert stream.getvalue() == reference_csv(columns)
    assert len(sizes) == 1 + 4  # header, then four chunks
    assert max(sizes) < noisedist.tables.CHUNK_ROWS * 30


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit({"a": [1.0]}, "xml")


def test_columns_of_unequal_length_rejected():
    with pytest.raises(ValueError):
        emit({"a": [1.0, 2.0], "b": np.zeros(3)}, "csv")
