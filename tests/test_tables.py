"""Tests for the table emitter: its bytes equal csv.writer and json.dumps
output for the same table, across chunk boundaries and for lattices."""

import csv
import io
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisedist.tables
from noisedist.bounds import disturbance_surface
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


def _float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# few values, so that a lattice repeats them: both zeros, NaNs of two
# payloads and both signs, both infinities, subnormals and ordinary floats
POOL = [0.0, -0.0, math.nan, _float_of_bits(0x7FF8000000000001),
        _float_of_bits(0xFFF8000000000000), math.inf, -math.inf, 5e-324, -2.5e-310,
        1.0, 0.1 + 0.2, 1 / 3, -7.5, 1e300]


@st.composite
def lattices(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    m = draw(st.integers(min_value=0, max_value=9))
    pool = st.sampled_from(POOL)
    return (np.array(draw(st.lists(pool, min_size=n, max_size=n)), dtype=float),
            np.array(draw(st.lists(pool, min_size=m, max_size=m)), dtype=float),
            np.array(draw(st.lists(pool, min_size=n * m, max_size=n * m)),
                     dtype=float).reshape(n, m))


@given(lattice=lattices(), block=st.integers(min_value=1, max_value=7))
@settings(max_examples=300)
def test_lattice_matches_csv_writer_and_json_dumps(lattice, block):
    """Cells repeat within and across blocks of every size, and blocks split
    the lattice between rows and, when a row is longer than a block, within
    rows; each cell keeps the string of its own bits."""
    rows, cols, cells = lattice
    columns = {"vartheta_deg": rows[:, None], "phi_deg": cols[None, :], "D": cells,
               "ok": cells >= 0.5}
    flat = {"vartheta_deg": np.repeat(rows, cols.size), "phi_deg": np.tile(cols, rows.size),
            "D": cells.ravel(), "ok": cells.ravel() >= 0.5}
    original = noisedist.tables._BLOCK_SIZE
    noisedist.tables._BLOCK_SIZE = block
    try:
        assert emit(columns, "csv") == reference_csv(flat)
        meta = {"theta_m_deg": 50.0}
        assert (emit(columns, "json", meta=meta, rows_key="surface")
                == reference_json(flat, meta, rows_key="surface"))
    finally:
        noisedist.tables._BLOCK_SIZE = original


def test_a_surface_formats_fewer_strings_than_it_has_cells(monkeypatch):
    """The surface's symmetries repeat its values within a block, and each
    distinct value of a block is formatted once."""
    grid = np.arange(0.0, 180.375, 0.75)
    surface = disturbance_surface(math.radians(37.3), np.radians(grid), np.radians(grid))
    formatted = []
    real = noisedist.tables._format

    def counted(values, fmt):
        strings = real(values, fmt)
        formatted.append(len(strings))
        return strings

    monkeypatch.setattr(noisedist.tables, "_format", counted)
    columns = {"vartheta_deg": grid[:, None], "phi_deg": grid[None, :], "D": surface}
    text = emit(columns, "csv")
    monkeypatch.undo()
    assert text == emit(columns, "csv")
    assert sum(formatted) < surface.size


class _Discard:
    def write(self, text):
        return len(text)


# peak bytes traced while a lattice of random cells is written; a row's
# strings or a block's distinct values fit, the whole lattice's strings (about
# 60 bytes a cell) do not
@pytest.mark.parametrize("shape, bound_mb", [((721, 721), 8), ((3, 200_001), 16)],
                         ids=["square", "long-rows"])
def test_lattice_peak_is_bounded(shape, bound_mb):
    n, m = shape
    columns = {"vartheta_deg": np.linspace(0.0, 180.0, n)[:, None],
               "phi_deg": np.linspace(0.0, 180.0, m)[None, :],
               "D": np.random.default_rng(0).random(shape)}
    tracemalloc.start()
    try:
        write_table(_Discard(), columns, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


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
