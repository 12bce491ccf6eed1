"""The streamed CSV writer against the per-cell fmt_float contract, byte for byte,
and the JSON writer's fixed format."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qscale.tabular as tabular
from qscale.tabular import BLOCK_ROWS, fmt_float, write_csv, write_json

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 1e-4, 0.1, 2.0**53]
DTYPES = [np.int64, np.uint8, np.bool_, np.float32, np.float64]


def lengths(block: int) -> list[int]:
    return [0, 1, block - 1, block, block + 1]


def reference_csv(header, columns) -> str:
    """The text a cell-at-a-time writer produces: fmt_float on each cell."""
    cols = [np.atleast_1d(c) for c in columns]
    lines = [",".join(header)]
    for i in range(len(cols[0])):
        lines.append(",".join(fmt_float(c[i]) for c in cols))
    return "\n".join(lines) + "\n"


def _float_elements(width: int):
    return st.one_of(
        st.floats(width=width, allow_nan=True, allow_infinity=True),
        st.sampled_from([float(np.array(v, dtype=f"float{width}")) for v in SPECIAL]),
    )


COLUMN_PATTERNS = st.one_of(
    hnp.arrays(np.int64, st.integers(1, 8), elements=st.integers(-(2**63), 2**63 - 1)),
    hnp.arrays(np.uint8, st.integers(1, 8)),
    hnp.arrays(np.bool_, st.integers(1, 8)),
    hnp.arrays(np.float32, st.integers(1, 8), elements=_float_elements(32)),
    hnp.arrays(np.float64, st.integers(1, 8), elements=_float_elements(64)),
)

SMALL_BLOCK = 4


def _fixed_column(dtype, n: int) -> np.ndarray:
    """n cells of `dtype` cycling through its extremes and the special floats."""
    rng = np.random.default_rng(7)
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        pattern = [info.min, info.max, 0, 1] + list(rng.integers(info.min, info.max, 9))
    elif dtype is np.bool_:
        pattern = [True, False, False]
    else:
        pattern = SPECIAL + list(rng.normal(scale=1e3, size=9))
    return np.resize(np.array(pattern, dtype=dtype), n)


class TestWriteCsv:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        patterns=st.lists(COLUMN_PATTERNS, min_size=1, max_size=4),
        n=st.sampled_from(lengths(SMALL_BLOCK)),
    )
    def test_matches_per_cell_reference(self, tmp_path, monkeypatch, patterns, n):
        # a small block puts block boundaries inside short drawn columns; each
        # column repeats its drawn pattern out to n rows
        monkeypatch.setattr(tabular, "BLOCK_ROWS", SMALL_BLOCK)
        columns = [np.resize(p, n) for p in patterns]
        header = [f"c{j}" for j in range(len(columns))]
        path = tmp_path / "out.csv"
        write_csv(path, header, columns)
        assert path.read_text() == reference_csv(header, columns)

    @pytest.mark.parametrize("n", lengths(BLOCK_ROWS))
    def test_block_boundaries_at_block_size(self, tmp_path, n):
        columns = [_fixed_column(dtype, n) for dtype in DTYPES]
        header = [np.dtype(dtype).name for dtype in DTYPES]
        path = tmp_path / "out.csv"
        write_csv(path, header, columns)
        assert path.read_text() == reference_csv(header, columns)

    def test_pinned_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(
            path,
            ["i", "t", "X", "flag"],
            [np.arange(3), np.arange(3) * 0.1, [1e16, -0.0, 5e-324], np.array([True, False, True])],
        )
        assert path.read_bytes() == (
            b"i,t,X,flag\n0,0.0,1e+16,1.0\n1,0.1,-0.0,0.0\n2,0.2,5e-324,1.0\n"
        )

    def test_mc_table_list_columns(self, tmp_path):
        # replications.csv: Python lists of ints, floats and a nan for a failed row
        header = ["rep", "seed", "n_jumps", "D_hat", "failed"]
        columns = [
            [0, 1, 2],
            [11, 12, 13],
            [7, float("nan"), 9],
            [0.5, float("nan"), 1e-5],
            [0, 1, 0],
        ]
        path = tmp_path / "out.csv"
        write_csv(path, header, columns)
        text = path.read_text()
        assert text == reference_csv(header, columns)
        assert text.splitlines()[2] == "1,12,nan,nan,1"

    def test_object_column_keeps_per_cell_types(self, tmp_path):
        col = np.array([1, 2.5, np.int64(3), True], dtype=object)
        path = tmp_path / "out.csv"
        write_csv(path, ["v"], [col])
        assert path.read_text() == "v\n1\n2.5\n3\n1\n" == reference_csv(["v"], [col])

    def test_header_column_count_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            write_csv(tmp_path / "out.csv", ["a", "b"], [np.arange(3)])
        with pytest.raises(ValueError, match="header"):
            write_csv(tmp_path / "out.csv", ["a"], [np.arange(3), np.arange(3)])
        assert not (tmp_path / "out.csv").exists()

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="same length"):
            write_csv(tmp_path / "out.csv", ["a", "b"], [np.arange(3), np.arange(4)])


def test_json_sorted_two_space_indent_final_newline(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": [1.5, -0.0], "a": {"d": None, "c": True}})
    assert path.read_text() == (
        '{\n  "a": {\n    "c": true,\n    "d": null\n  },\n'
        '  "b": [\n    1.5,\n    -0.0\n  ]\n}\n'
    )


@pytest.mark.parametrize("write", [
    lambda path, v: write_csv(path, ["v"], [[v]]),
    lambda path, v: write_json(path, {"v": v}),
], ids=["csv", "json"])
def test_writers_replace_a_linked_output(tmp_path, write):
    # the writers create a new file: a hard link to the old output keeps its bytes
    path, link = tmp_path / "out", tmp_path / "link"
    write(path, 1)
    old = path.read_bytes()
    link.hardlink_to(path)
    write(path, 2)
    assert link.read_bytes() == old != path.read_bytes()
    write(tmp_path / "fresh", 2)
    assert path.read_bytes() == (tmp_path / "fresh").read_bytes()
