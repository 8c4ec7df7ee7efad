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


# meta keys and strings that look like the rows key's line of the envelope
META_KEYS = st.sampled_from(["rows", "config", "z", "", '"rows": []', '\n  "rows": []'])
META_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**62, 2**62), floats,
                         st.text(max_size=8), META_KEYS)
META_VALUES = st.recursive(
    META_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(META_KEYS, inner, max_size=3),
                            st.just({"rows": []}), st.just([{"rows": []}])),
    max_leaves=10)


@given(columns=tables(), chunk=st.integers(min_value=1, max_value=7),
       meta=st.dictionaries(META_KEYS, META_VALUES, max_size=4))
@settings(max_examples=200, deadline=None)
def test_matches_csv_writer_and_json_dumps(columns, chunk, meta):
    original = noisedist.tables.CHUNK_ROWS
    noisedist.tables.CHUNK_ROWS = chunk  # many chunks per table
    try:
        assert emit(columns, "csv") == reference_csv(columns)
        assert emit(columns, "csv", meta=meta) == reference_csv(columns)
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
                     dtype=float).reshape(n, m),
            draw(pool))


@given(lattice=lattices(), block=st.integers(min_value=1, max_value=7))
@settings(max_examples=300)
def test_lattice_matches_csv_writer_and_json_dumps(lattice, block):
    """Cells repeat within and across blocks of every size, and blocks split
    the lattice between rows and, when a row is longer than a block, within
    rows; each cell keeps the string of its own bits. Axis columns of every
    shape and dtype follow the same rule: (n, 1) floats and bools, (1, m)
    floats and ints, and a (1, 1) float."""
    rows, cols, cells, corner = lattice
    n, m = cells.shape
    columns = {"vartheta_deg": rows[:, None], "phi_deg": cols[None, :], "D": cells,
               "ok": cells >= 0.5, "row_ok": (rows >= 0.5)[:, None],
               "k": np.arange(m)[None, :], "corner": np.array([[corner]])}
    flat = {"vartheta_deg": np.repeat(rows, m), "phi_deg": np.tile(cols, n),
            "D": cells.ravel(), "ok": cells.ravel() >= 0.5, "row_ok": np.repeat(rows >= 0.5, m),
            "k": np.tile(np.arange(m), n), "corner": np.full(n * m, corner)}
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


def test_a_surface_formats_each_distinct_value_once(monkeypatch):
    """A lattice column carries its strings from block to block, so the
    0.75 degree surface (58,081 cells in four blocks) formats each distinct D
    once, and its axes one string per axis value."""
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
    distinct = np.unique(surface.view(np.int64)).size
    assert sum(formatted) <= distinct + 2 * grid.size


@st.composite
def blocks(draw):
    pool = st.sampled_from(POOL)
    shapes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=6))
    return [np.array(draw(st.lists(pool, min_size=n * m, max_size=n * m)),
                     dtype=float).reshape(n, m) for n, m in shapes]


def _bits(values):
    return np.ascontiguousarray(values).view(np.int64)


@given(lattice=blocks(), block=st.integers(min_value=1, max_value=7))
@settings(max_examples=300)
def test_per_distinct_equals_fn_on_every_cell(lattice, block):
    """Blocks of one lattice share a memo of at most _BLOCK_SIZE values,
    patched small so that it hits, fills and stops growing; every result is
    fn of its own cell, bit for bit, and fn never sees a value the memo holds."""
    original = noisedist.tables._BLOCK_SIZE
    noisedist.tables._BLOCK_SIZE = block
    try:
        for fn, same in [
            (lambda v: v.view(np.int64) ^ 0x5A5A, lambda a, b: np.array_equal(a, b)),
            (lambda v: -v, lambda a, b: _bits(a).tobytes() == _bits(b).tobytes()),
            (lambda v: np.array(list(map(float.__repr__, v.tolist())), dtype=object),
             lambda a, b: a.tolist() == b.tolist()),
        ]:
            memo, seen = [], []

            def watched(values):
                held = set(memo[0].tolist()) if memo else set()
                assert held.isdisjoint(_bits(values).tolist())
                seen.append(values.size)
                return fn(values)

            for cells in lattice:
                out = noisedist.tables._per_distinct(watched, cells, memo)
                assert out.shape == cells.shape
                assert same(out, fn(cells.ravel()).reshape(cells.shape))
                if memo:
                    keys = memo[0]
                    assert keys.size == memo[1].size <= block
                    assert np.all(keys[1:] > keys[:-1])
            assert sum(seen) <= sum(cells.size for cells in lattice)
    finally:
        noisedist.tables._BLOCK_SIZE = original


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


@given(columns=tables(), cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=4),
       chunk=st.integers(min_value=1, max_value=7),
       meta=st.dictionaries(META_KEYS, META_VALUES, max_size=4))
@settings(max_examples=100, deadline=None)
def test_row_blocks_write_the_bytes_of_the_whole_table(columns, cuts, chunk, meta):
    # blocks of any lengths, empty ones among them, in or across chunks
    n = len(columns["x"])
    edges = [0, *sorted(min(cut, n) for cut in cuts), n]
    blocks = [[v[start:stop] for v in columns.values()] for start, stop in zip(edges, edges[1:])]
    original = noisedist.tables.CHUNK_ROWS
    noisedist.tables.CHUNK_ROWS = chunk
    try:
        for fmt in ("csv", "json"):
            whole = emit(columns, fmt, meta=meta)
            assert emit((list(columns), iter(blocks)), fmt, meta=meta) == whole
    finally:
        noisedist.tables.CHUNK_ROWS = original


def test_row_blocks_are_taken_one_at_a_time():
    stream = io.StringIO()
    lines_before = []

    def blocks():
        for start in range(0, 10, 4):
            lines_before.append(stream.getvalue().count("\n"))
            yield [np.arange(start, min(start + 4, 10), dtype=float), [True] * min(4, 10 - start)]

    write_table(stream, (["x", "ok"], blocks()), "csv")
    assert lines_before == [1, 5, 9]  # the header, then every row of the blocks before
    assert stream.getvalue().count("\n") == 11


def test_row_block_of_the_wrong_width_rejected():
    with pytest.raises(ValueError):
        emit((["a", "b"], [[[1.0], [2.0]], [[3.0]]]), "csv")
