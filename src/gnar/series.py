"""Multivariate time series with per-cell missingness.

Values live in a ``(T, N)`` float matrix, one column per node, with NaN as
the missing marker.  The CSV form has a header row of node names, one data
row per time point, ``NA`` for missing cells, and 17-significant-digit
numbers so that a write/read round trip is exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError


@dataclass(eq=False)
class SeriesMatrix:
    values: np.ndarray
    node_names: tuple[str, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("series values must be a (T, N) matrix")
        names = tuple(self.node_names)
        if len(names) != vals.shape[1]:
            raise ValueError(
                f"{vals.shape[1]} columns but {len(names)} node names"
            )
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        self.values = vals
        self.node_names = names

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]

    def head(self, n_rows: int) -> "SeriesMatrix":
        return SeriesMatrix(self.values[:n_rows].copy(), self.node_names)

    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.values)

    def reorder(self, names: Sequence[str]) -> "SeriesMatrix":
        """Columns permuted into the given name order."""
        idx = []
        for name in names:
            try:
                idx.append(self.node_names.index(name))
            except ValueError:
                raise KeyError(f"unknown node name {name!r}") from None
        if len(names) != len(self.node_names):
            raise ValueError("name list must cover every column exactly once")
        return SeriesMatrix(self.values[:, idx].copy(), tuple(names))


_MISSING_TOKENS = {"na", "nan", ""}


def _parse_cell(token: str) -> float:
    token = token.strip()
    if token.lower() in _MISSING_TOKENS:
        return math.nan
    return float(token)


def _format_cell(v: float) -> str:
    if math.isnan(v):
        return "NA"
    return format(v, ".17g")


def check_finite_cells(values: np.ndarray, names: Sequence[str],
                       line_of: Sequence[int] | None = None) -> None:
    """Raise :class:`DataError` at the first ``+-inf`` cell; NaN is missing."""
    infinite = np.argwhere(np.isinf(values))
    if infinite.size:
        t, i = infinite[0]
        where = "" if line_of is None else f"line {line_of[t]}: "
        raise DataError(
            f"{where}series cell at time {t + 1}, node {names[i]!r} is "
            f"{values[t, i]}; only finite values or missing cells are allowed"
        )


def load_series_csv(path) -> SeriesMatrix:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader]
    if not rows:
        raise ValueError("empty series file")
    names = tuple(s.strip() for s in rows[0][1])
    data = []
    line_of = []
    for line, row in rows[1:]:
        if not row:
            continue
        if len(row) != len(names):
            raise ValueError(
                f"line {line}: row has {len(row)} cells, header has "
                f"{len(names)}"
            )
        data.append([_parse_cell(tok) for tok in row])
        line_of.append(line)
    values = np.asarray(data, dtype=float).reshape(len(data), len(names))
    check_finite_cells(values, names, line_of)
    return SeriesMatrix(values, names)


def save_series_csv(series: SeriesMatrix, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(series.node_names)
        for row in series.values:
            writer.writerow([_format_cell(v) for v in row])
