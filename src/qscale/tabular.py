"""CSV writing with fixed column order and reproducible float formatting.

Every cell is written as ``fmt_float`` formats it: integer-kind values as
``str(int(v))``, everything else as ``repr(float(v))``, the shortest string
that reads back to the same double, so reruns are byte-identical.
``write_csv`` applies that contract a column at a time instead of a cell at
a time: it converts each block of a column to Python numbers in one
``tolist`` and formats them with ``map``, then streams the rows to the file
in blocks of ``BLOCK_ROWS``, never holding the whole text in memory.  The
bytes written are the same as formatting each cell with ``fmt_float``.
``write_json`` is the one JSON format of every JSON file: two-space indent,
sorted keys and a final newline.  Both writers unlink a file already at the
path and create a new one, so a linked output is replaced, not written
through; on ext4 this also skips the flush that truncating one costs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["write_csv", "write_json", "fmt_float", "BLOCK_ROWS"]

# rows formatted and written per file write
BLOCK_ROWS = 32768


def fmt_float(v) -> str:
    """Shortest round-trip representation; reruns are byte-identical."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _format_column(c: np.ndarray):
    """``fmt_float`` of each cell of the 1-d array ``c``, in order."""
    if c.dtype.kind in "iu":
        return map(str, c.tolist())
    if c.dtype.kind in "fb":
        return map(repr, c.astype(float, copy=False).tolist())
    # object, complex, string, ...: the cells fmt_float would see
    return map(fmt_float, c)


def write_csv(path, header: list[str], columns: list) -> None:
    """Write columns (equal-length sequences) under `header` to `path`."""
    if len(header) != len(columns):
        raise ValueError(
            f"header has {len(header)} names but there are {len(columns)} columns"
        )
    cols = [np.atleast_1d(c) for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("all columns must have the same length")
    Path(path).unlink(missing_ok=True)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, n, BLOCK_ROWS):
            cells = [_format_column(c[lo : lo + BLOCK_ROWS]) for c in cols]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(path, obj) -> None:
    """Write `obj` to `path` as JSON with sorted keys, so reruns are byte-identical."""
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
