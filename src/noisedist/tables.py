"""The one table emitter behind every CSV and JSON output.

`write_table` formats a table column by column (one `.tolist()` per column,
then `repr` per float) and writes it to the output stream in bounded chunks,
so no output is ever held in memory whole. Its bytes equal what `csv.writer`
(floats as `repr`, booleans as `true`/`false`) and
`json.dumps(payload, indent=2, sort_keys=True) + "\\n"` produce for the same
table.

A table is either a list of rows (columns of equal length: 1-D arrays, or
lists of Python scalars of one type) or a lattice (2-D arrays, rows in
row-major cell order). A lattice column may have
shape (n, 1), one value per lattice row, or (1, m), one value per lattice
column; such a value is formatted at most once per lattice block, not once
per cell.

This module also owns the row blocking of every bounded kernel: the
correction surface, the boundary and the ensemble oracle evaluate in the
blocks of _row_blocks and _lattice_blocks, at most _BLOCK_SIZE items each.
A lattice is formatted in the blocks of _lattice_blocks (whole lattice rows,
or runs of one row when a row is longer) and written one lattice row, or one
such run, at a time. _per_distinct evaluates an elementwise function of
float64 cells once per distinct bit pattern of a block and gathers the
results back into cell order, with a memo that carries results over to the
later blocks of the same lattice. The memo lives for one call of its caller
(one lattice column of one write_table call, one disturbance_surface call)
and holds at most _BLOCK_SIZE values; once full it stops growing and still
answers for what it holds. repr and the surface kernel depend on a cell's
bits alone, so the bytes are those of evaluating every cell, while only a
block's results and the memo are held. A correction surface repeats its
values often (it depends on the target only through sin vartheta sin phi),
so a lattice evaluates and formats a fraction of its cells.
"""

from __future__ import annotations

import numpy as np

#: Rows per write of a 1-D table; a lattice is written one lattice row, or
#: one block-long run of a row, at a time.
CHUNK_ROWS = 4096

# Items per block of the row-blocked kernels and of the lattice formatter:
# boundary samples, ensemble-oracle trials, and lattice cells of the
# disturbance surface and of a written lattice. A block pays a fixed cost of
# small numpy calls. The least time of a one-item block, on one core of 2, is
# about 140 us for the surface, 240 us for the boundary with its tight_value
# column and 380 us for the oracle, most of it binary_entropy_inverse and
# binary_entropy calls; a full block takes about 5.3 ms for the surface and
# 13 ms for the oracle, so the fixed cost is about 3% of it. One float64 value
# per item takes 128 KB.
_BLOCK_SIZE = 16384

_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _format(values, fmt: str) -> list[str]:
    """The cell strings of one column (an array or a list), in order."""
    items = values.ravel().tolist() if isinstance(values, np.ndarray) else values
    kind = type(items[0]) if items else float
    if kind is float:
        text = list(map(float.__repr__, items))
        if fmt == "json" and not _JSON_NON_FINITE.keys().isdisjoint(text):
            text = [_JSON_NON_FINITE.get(t, t) for t in text]
        return text
    if kind is bool:
        return ["true" if v else "false" for v in items]
    if kind is int:
        return list(map(int.__repr__, items))
    if fmt != "json":
        return list(map(str, items))
    import json  # only JSON output needs it; a CSV command never loads it
    return list(map(json.dumps, items))


def _lattice_blocks(n_rows: int, n_cols: int):
    """(rows, cols) slice pairs that tile an n_rows x n_cols lattice in
    row-major order, each block at most _BLOCK_SIZE cells: runs of whole rows
    while a row fits in a block, else runs of cells of one row."""
    if n_cols > _BLOCK_SIZE:
        for i in range(n_rows):
            for start in range(0, n_cols, _BLOCK_SIZE):
                yield slice(i, i + 1), slice(start, min(start + _BLOCK_SIZE, n_cols))
        return
    step = _BLOCK_SIZE // max(n_cols, 1)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows)), slice(0, n_cols)


def _row_blocks(kernel, out, *rows):
    """Set out[i:j] = kernel(*(r[i:j] for r in rows)) for consecutive blocks
    of at most _BLOCK_SIZE rows and return out, a preallocated array. Every
    result row depends only on the same rows of the inputs, so the blocks
    write the values of one whole-array call, bit for bit, while only one
    block's temporaries are alive."""
    for span, _ in _lattice_blocks(len(out), 1):
        out[span] = kernel(*(r[span] for r in rows))
    return out


def _row_chunks(columns: list, fmt: str):
    """Lists of cell strings, one list per column, chunk by chunk."""
    if all(isinstance(c, list) or c.ndim == 1 for c in columns):
        n = len(columns[0])
        if any(len(c) != n for c in columns):
            raise ValueError("table columns differ in length")
        for start in range(0, n, CHUNK_ROWS):
            yield [_format(c[start:start + CHUNK_ROWS], fmt) for c in columns]
        return
    n_rows, n_cols = np.broadcast_shapes(*(c.shape for c in columns))
    if n_cols == 0:
        return

    def strings_of(values):
        return np.array(_format(values, fmt), dtype=object)

    # each getter gives, for one lattice block, a list of cell strings per
    # row of the block; a (1, m) axis whose rows fit in a block is formatted
    # once, one list shared by every row
    def cells_of(c):
        if c.shape[1] == 1:
            c = np.broadcast_to(c, (n_rows, 1))
            return lambda rows, cols: [[s] * (cols.stop - cols.start)
                                       for s in _format(c[rows], fmt)]
        if c.shape[0] == 1:
            if n_cols > _BLOCK_SIZE:  # a block is part of one row
                return lambda rows, cols: [_format(c[0, cols], fmt)]
            strings = _format(c, fmt)
            return lambda rows, cols: [strings] * (rows.stop - rows.start)

        memo = []  # this column's strings, reused by the blocks that follow

        def block_cells(rows, cols):
            block = c[rows, cols]
            if block.dtype == np.float64:
                return _per_distinct(strings_of, block, memo).tolist()
            return np.array(_format(block, fmt), dtype=object).reshape(block.shape).tolist()
        return block_cells

    getters = [cells_of(np.atleast_2d(c)) for c in columns]
    for rows, cols in _lattice_blocks(n_rows, n_cols):
        yield from zip(*[get(rows, cols) for get in getters])


def _per_distinct(fn, values, memo: list) -> np.ndarray:
    """fn(values) in the shape of `values`, for an fn that maps a 1-D float64
    array to an array of one result per element, each depending on that
    element's bits alone.

    fn is called once, on the distinct bit patterns of `values` that `memo`
    does not hold; so 0.0 and -0.0, and NaNs of different payloads, each get
    their own result, and the results are those of fn on every element. memo
    is a list, empty before the first block of a lattice, that keeps the
    sorted bit patterns seen so far and their results for the blocks that
    follow. It holds at most _BLOCK_SIZE of them: once full it stops growing
    and still answers for what it holds.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64).ravel()
    distinct, inverse = np.unique(bits, return_inverse=True)
    if not memo:
        out = fn(distinct.view(np.float64))
        if distinct.size:
            memo[:] = [distinct[:_BLOCK_SIZE], out[:_BLOCK_SIZE]]
        return out[inverse].reshape(np.shape(values))
    known, results = memo
    at = np.minimum(np.searchsorted(known, distinct), known.size - 1)
    new = known[at] != distinct
    out = results[at]
    if new.any():
        keys = distinct[new]
        fresh = fn(keys.view(np.float64))
        out[new] = fresh
        room = _BLOCK_SIZE - known.size
        if room > 0:
            where = np.searchsorted(known, keys[:room])
            memo[:] = [np.insert(known, where, keys[:room]),
                       np.insert(results, where, fresh[:room])]
    return out[inverse].reshape(np.shape(values))


def write_table(stream, columns: dict, fmt: str, meta: dict | None = None,
                rows_key: str = "rows") -> None:
    """Write a table to the text stream `stream`.

    columns maps each column name to its values, in CSV column order; a
    lattice column must be an array, a row column may also be a list. CSV
    output is a header line and one line per row. JSON output is the object
    `meta` plus `rows_key`, a list of one object per row, with every object's
    keys sorted. CSV text cells are written unquoted, so they must hold no
    comma, quote or line break.
    """
    names = list(columns)
    arrays = [v if isinstance(v, list) else np.asarray(v) for v in columns.values()]
    if fmt == "csv":
        stream.write(",".join(names) + "\n")
        for cells in _row_chunks(arrays, fmt):
            stream.write("\n".join(map(",".join, zip(*cells))) + "\n")
        return
    if fmt != "json":
        raise ValueError(f"unknown table format {fmt!r}")
    import json  # only JSON output needs it; a CSV command never loads it

    order = sorted(range(len(names)), key=names.__getitem__)
    # one row object, at the nesting depth of a top-level list's items
    fields = ",\n".join("      " + json.dumps(names[k]).replace("%", "%%") + ": %s"
                         for k in order)
    template = "    {\n" + fields + "\n    }"
    top = dict(meta or {})
    top[rows_key] = None
    stream.write("{\n")
    for n, key in enumerate(sorted(top)):
        stream.write(f"  {json.dumps(key)}: ")
        if key == rows_key:
            _write_json_rows(stream, template, [arrays[k] for k in order])
        elif isinstance(top[key], (dict, list)):
            stream.write(json.dumps(top[key], indent=2, sort_keys=True).replace("\n", "\n  "))
        else:  # a scalar reads the same without indent
            stream.write(json.dumps(top[key]))
        stream.write(",\n" if n < len(top) - 1 else "\n")
    stream.write("}\n")


def _write_json_rows(stream, template: str, arrays: list[np.ndarray]) -> None:
    opened = False
    for cells in _row_chunks(arrays, "json"):
        stream.write(",\n" if opened else "[\n")
        stream.write(",\n".join(map(template.__mod__, zip(*cells))))
        opened = True
    stream.write("\n  ]" if opened else "[]")
