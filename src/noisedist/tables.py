"""The one table emitter behind every CSV and JSON output.

`write_table` formats a table column by column (one `.tolist()` per column,
then `repr` per float) and writes it to the output stream in bounded chunks,
so no output is ever held in memory whole. Its bytes equal what `csv.writer`
(floats as `repr`, booleans as `true`/`false`) and
`json.dumps(payload, indent=2, sort_keys=True) + "\\n"` produce for the same
table. The JSON envelope is that very dump of the meta with an empty rows
list, split at the rows key's line; the rows stream in its place. A table of
rows may also come as a sequence of row blocks, which the writer formats and
writes one at a time: a caller that computes its blocks as they are asked
for (the boundary and the sweep commands) holds one block of its result, not
the whole table.

A table is either a list of rows (columns of equal length: 1-D arrays, or
lists of Python scalars of one type) or a lattice (2-D arrays, rows in
row-major cell order). A lattice is formatted in the blocks of
_lattice_blocks (whole lattice rows, or runs of one row when a row is longer)
and written one lattice row, or one such run, at a time. Every lattice
column, of shape (n, m), (n, 1) or (1, m), follows one rule: a block indexes
it along the axes it varies on and repeats its strings along the axes it is
constant on, and its float64 values go through _per_distinct with a memo of
its own, so an axis of up to _BLOCK_SIZE values is formatted once per lattice.

This module also owns the row blocking of every bounded kernel: the
correction surface, the boundary, the sweep rows (analytic and sampled) and
the ensemble oracle evaluate in the blocks of _lattice_blocks, at most
_BLOCK_SIZE items each; _gathered and _row_blocks collect a blocked result
into whole columns for the callers that need it whole.
_per_distinct evaluates an elementwise function of float64 cells once per
distinct bit pattern of a block and gathers the results back into cell
order, with a memo that carries results over to the later blocks of the same
lattice. The memo lives for one call of its caller (one lattice column of one
write_table call, one disturbance_surface call) and holds at most
_BLOCK_SIZE values; once full it stops growing and still answers for what it
holds. repr and the surface kernel depend on a cell's bits alone, so the
bytes are those of evaluating every cell, while only a block's results and
the memo are held. A correction surface repeats its values often (it depends
on the target only through sin vartheta sin phi), so a lattice evaluates and
formats a fraction of its cells.
"""

from __future__ import annotations

import numpy as np

#: Rows per write of a 1-D table; a lattice is written one lattice row, or
#: one block-long run of a row, at a time.
CHUNK_ROWS = 4096

# Items per block of the row-blocked kernels and of the lattice formatter:
# boundary samples, sweep angles, ensemble-oracle trials, and lattice cells
# of the disturbance surface and of a written lattice. The boundary and sweep
# commands compute and write their tables one block at a time, so a block is
# also what they hold of their result. A block pays a fixed cost of
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


def _row_blocks(kernel, *rows):
    """kernel(*rows) for a kernel that maps rows to an array, or a tuple of
    arrays, of one result per row, evaluated in consecutive blocks of at most
    _BLOCK_SIZE rows and collected by _gathered. Every result row depends
    only on the same rows of the inputs, so the blocks give the values of one
    whole call, bit for bit, while only one block's temporaries are alive."""
    n = len(rows[0])
    return _gathered(n, ((span, kernel(*(r[span] for r in rows)))
                         for span, _ in _lattice_blocks(n, 1)))


def _gathered(n: int, blocks):
    """Whole columns of n rows from `blocks`, which yields (span, part) for
    the consecutive row spans of _lattice_blocks(n, 1), part being an array,
    or a tuple of arrays, of the rows in span. The columns are allocated at
    the first block; a single block's part is returned as it is, no copy."""
    for span, part in blocks:
        if span.stop - span.start == n:
            return part
        parts = part if isinstance(part, tuple) else (part,)
        if span.start == 0:
            out = tuple(np.empty(n, p.dtype) for p in parts)
        for column, p in zip(out, parts):
            column[span] = p
    return out if isinstance(part, tuple) else out[0]


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

    columns = [np.atleast_2d(c) for c in columns]
    memos = [[] for _ in columns]  # one per column, for the blocks that follow
    for rows, cols in _lattice_blocks(n_rows, n_cols):
        block_cells = []
        for c, memo in zip(columns, memos):
            # index a column along the axes it varies on ...
            block = c[rows if c.shape[0] > 1 else slice(None),
                      cols if c.shape[1] > 1 else slice(None)]
            if block.dtype == np.float64:
                text = _per_distinct(strings_of, block, memo).tolist()
            else:
                text = np.array(_format(block, fmt), dtype=object).reshape(block.shape).tolist()
            # ... and repeat its strings along the axes it is constant on
            if c.shape[1] == 1:
                text = [row * (cols.stop - cols.start) for row in text]
            block_cells.append(text * (rows.stop - rows.start) if c.shape[0] == 1 else text)
        yield from zip(*block_cells)


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


def write_table(stream, columns, fmt: str, meta: dict | None = None,
                rows_key: str = "rows") -> None:
    """Write a table to the text stream `stream`.

    columns maps each column name to its values, in CSV column order; a
    lattice column must be an array, a row column may also be a list. A
    table of rows may instead be a pair (names, blocks): the column names in
    CSV column order, and an iterable of row blocks, each a list of
    equal-length 1-D columns in the order of names. Each block is formatted
    and written before the next is taken from the iterable, and the bytes
    are those of the table of all blocks' rows. CSV output is a header line
    and one line per row. JSON output is the object `meta` plus `rows_key`,
    a list of one object per row, with every object's keys sorted; CSV
    output ignores `meta`. CSV text cells are written unquoted, so they must
    hold no comma, quote or line break.
    """
    if isinstance(columns, dict):
        names, blocks = list(columns), [list(columns.values())]
    else:
        names, blocks = columns
    if fmt == "csv":
        stream.write(",".join(names) + "\n")
        for cells in _block_chunks(blocks, range(len(names)), fmt):
            stream.write("\n".join(map(",".join, zip(*cells))) + "\n")
            del cells  # no chunk is held while the next block is computed
        return
    if fmt != "json":
        raise ValueError(f"unknown table format {fmt!r}")
    import json  # only JSON output needs it; a CSV command never loads it

    order = sorted(range(len(names)), key=names.__getitem__)
    # one row object, at the nesting depth of a top-level list's items
    fields = ",\n".join("      " + json.dumps(names[k]).replace("%", "%%") + ": %s"
                         for k in order)
    template = "    {\n" + fields + "\n    }"
    # the rows key's line occurs once in the dump: nested keys sit at least
    # four spaces deep, and strings escape their line breaks and quotes
    key = "\n  " + json.dumps(rows_key) + ": "
    head, tail = json.dumps({**(meta or {}), rows_key: []}, indent=2,
                            sort_keys=True).split(key + "[]")
    stream.write(head + key)
    opened = False
    for cells in _block_chunks(blocks, order, fmt):
        stream.write(",\n" if opened else "[\n")
        stream.write(",\n".join(map(template.__mod__, zip(*cells))))
        opened = True
        del cells
    stream.write(("\n  ]" if opened else "[]") + tail + "\n")


def _block_chunks(blocks, order, fmt: str):
    """The cell strings of _row_chunks for each block in turn, its columns
    taken in `order`; a block is taken from `blocks` only when the chunks
    of the one before it have all been written."""
    for block in blocks:
        if len(block) != len(order):
            raise ValueError("a row block holds the wrong number of columns")
        columns = [block[k] if isinstance(block[k], list) else np.asarray(block[k])
                   for k in order]
        del block  # no block is held while the next one is computed
        yield from _row_chunks(columns, fmt)
        del columns
