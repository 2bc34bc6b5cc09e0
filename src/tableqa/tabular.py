"""Table data model, delimited-file ingestion, table-kind recognition, transpose.

Web-extracted tables come in two layouts: entity-instance (each row is an
entity, columns are shared attributes) and key-value (one entity, one
attribute per row). Recognition uses five shape features and a seeded
logistic-regression model; key-value tables are transposed so every stage
downstream sees a single layout.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import io
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (DuplicateKeys, MalformedFile, MalformedLine, NotKeyValue,
                     TableChanged, UntrainedModel)
from .nn import format_arrays, parse_arrays
from .textproc import TokenList, decode_text, read_text, tokenize, write_if_changed

if TYPE_CHECKING:
    from .typerec import ColumnTypeFeatures


class TableKind(enum.Enum):
    ENTITY_INSTANCE = "entity-instance"
    KEY_VALUE = "key-value"
    UNKNOWN = "unknown"


class TableFormat(enum.Enum):
    CSV = ","
    TSV = "\t"


@dataclass
class Table:
    """Rectangular grid of string cells with a header row."""

    id: str
    name: str
    headers: list[str]
    rows: list[list[str]]
    kind: TableKind = TableKind.UNKNOWN

    def __post_init__(self):
        if not self.headers:
            raise MalformedFile(f"table {self.id!r} has zero columns")
        width = len(self.headers)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise MalformedFile(
                    f"table {self.id!r} row {i} has {len(row)} cells, expected {width}"
                )

    @property
    def n_columns(self) -> int:
        return len(self.headers)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column(self, index: int) -> list[str]:
        return [row[index] for row in self.rows]

    # Cell views. Each is built on first use and kept on the object,
    # outside the dataclass fields, so ``dataclasses.replace`` (the
    # key-value transpose) makes a table without them. They hold nothing
    # that depends on a model or an embedding store, and assume the cells
    # and headers no longer change once read.

    @cached_property
    def cell_tokens(self) -> tuple[tuple[TokenList, ...], ...]:
        """``tokenize(cell)`` per column, then per row."""
        return tuple(
            tuple(tokenize(row[c]) for row in self.rows)
            for c in range(self.n_columns)
        )

    @cached_property
    def column_tokens(self) -> tuple[tuple[str, ...], ...]:
        """Per column, its cells' tokens in row order, stop words kept;
        what ``tokenize`` gives for the cells joined by spaces."""
        return tuple(
            tuple(t for cell in column for t in cell.tokens)
            for column in self.cell_tokens
        )

    @cached_property
    def column_vocab(self) -> tuple[dict[int, list[str]], ...]:
        """Per column, its distinct tokens keyed by length, in order of
        first occurrence within a length."""
        out = []
        for tokens in self.column_tokens:
            by_length: dict[int, list[str]] = {}
            for t in dict.fromkeys(tokens):
                by_length.setdefault(len(t), []).append(t)
            out.append(by_length)
        return tuple(out)

    @cached_property
    def mean_cell_length(self) -> tuple[float, ...]:
        """Per column, the mean length of its non-empty cells (0.0 when
        every cell is empty)."""
        out = []
        for c in range(self.n_columns):
            lengths = [len(cell) for cell in self.column(c) if cell.strip()]
            out.append(sum(lengths) / len(lengths) if lengths else 0.0)
        return tuple(out)

    @cached_property
    def header_stems(self) -> tuple[tuple[str, ...], ...]:
        """Per column, the stems of its header's tokens, stop words dropped."""
        return tuple(tokenize(h, drop_stopwords=True).stems for h in self.headers)

    @cached_property
    def column_type_features(self) -> tuple[ColumnTypeFeatures, ...]:
        """Per column, ``typerec.extract_column_type_features`` of its cells."""
        from .typerec import extract_column_type_features

        return tuple(
            extract_column_type_features(self.column(c), self.cell_tokens[c])
            for c in range(self.n_columns)
        )


def load_table(path, fmt: TableFormat, sha256: bytes | None = None) -> Table:
    """Read a delimited file into a Table with kind UNKNOWN, its id and name
    the file name without its suffix.

    The first record is the header row. Cells are preserved verbatim; only
    the record separator is consumed. An empty file, a header without
    columns and a ragged row raise MalformedFile naming the line the
    record starts on; a record the csv module rejects (a cell over its
    field size limit) raises MalformedLine naming the line it ends on.
    With ``sha256``, file bytes of another digest raise TableChanged.
    """
    path = str(path)
    # the file is read whole and closed before csv sees a line, so no
    # error raised mid-file keeps it open
    with open(path, "rb") as fh:
        data = fh.read()
    if sha256 is not None and hashlib.sha256(data).digest() != sha256:
        raise TableChanged(f"{path}: changed since ingest; run tableqa ingest")
    lines = io.StringIO(decode_text(path, data), newline="")
    reader = csv.reader(lines, delimiter=fmt.value)
    try:
        headers = next(reader, None)
        if headers is None:
            raise MalformedFile(f"{path}:1: empty file")
        if not headers or headers == [""]:
            raise MalformedFile(f"{path}:1: zero columns")
        width, records = len(headers), []
        start = reader.line_num + 1
        for record in reader:
            if len(record) != width:
                raise MalformedFile(f"{path}:{start}: row has {len(record)} "
                                    f"cells, expected {width}")
            records.append(record)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise MalformedLine(f"{path}:{reader.line_num}: {exc}") from None
    table_id = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return Table(id=table_id, name=table_id, headers=headers, rows=records)


# ---------------------------------------------------------------------------
# Table-kind features
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableTypeFeatures:
    n_columns: int
    n_columns_sans_url: int
    has_key_or_property_header: int
    norm_word_len_variance: float
    norm_digit_presence_variance: float

    def as_vector(self) -> np.ndarray:
        return np.array([
            self.n_columns,
            self.n_columns_sans_url,
            self.has_key_or_property_header,
            self.norm_word_len_variance,
            self.norm_digit_presence_variance,
        ], dtype=np.float64)


FEATURE_DIM = 5


def _is_url_column(cells: list[str]) -> bool:
    # every non-empty cell carries "http"; an all-empty column does not count
    non_empty = [c for c in cells if c.strip()]
    return bool(non_empty) and all("http" in c for c in non_empty)


def _row_variances(grid: np.ndarray) -> np.ndarray:
    """Population variance of each row of a C-contiguous 2-D array with at
    least one column.

    ``np.add.reduce`` along the contiguous last axis sums each row as
    ``np.mean`` sums a 1-D array (pairwise), so every variance is the
    float ``np.mean((row - row.mean()) ** 2)`` gives.
    """
    n = grid.shape[1]
    deviations = grid - (np.add.reduce(grid, axis=1) / n)[:, None]
    return np.add.reduce(deviations * deviations, axis=1) / n


def extract_table_type_features(table: Table) -> TableTypeFeatures:
    """Five shape features separating entity-instance from key-value layout.

    Both variance features are per-column population variances averaged
    across columns: word counts are normalized by the column's max token
    count; digit presence is a 0/1 indicator per cell. Empty cells count as
    zero tokens and as digit-free. A table without rows has zero variances.
    """
    columns = [table.column(i) for i in range(table.n_columns)]
    n_columns = table.n_columns
    n_sans_url = sum(1 for cells in columns if not _is_url_column(cells))

    has_kp = int(any("key" in h.lower() or "property" in h.lower()
                     for h in table.headers))

    word_variance = digit_variance = 0.0
    if table.n_rows:
        # one (columns x rows) grid per feature, stacked: word counts
        # normalized by their column's largest count (an all-zero column
        # stays zero), then 0/1 digit presence
        counts = np.array([[len(cell.split()) for cell in cells]
                           for cells in columns], dtype=np.float64)
        largest = counts.max(axis=1, keepdims=True)
        digits = [[float(any(map(str.isdigit, cell))) for cell in cells]
                  for cells in columns]
        grid = np.concatenate([counts / np.where(largest > 0, largest, 1.0),
                               digits])
        variances = _row_variances(grid)
        word_variance = float(np.add.reduce(variances[:n_columns]) / n_columns)
        digit_variance = float(np.add.reduce(variances[n_columns:]) / n_columns)

    return TableTypeFeatures(
        n_columns=n_columns,
        n_columns_sans_url=n_sans_url,
        has_key_or_property_header=has_kp,
        norm_word_len_variance=word_variance,
        norm_digit_presence_variance=digit_variance,
    )


# ---------------------------------------------------------------------------
# Logistic-regression table-kind classifier
# ---------------------------------------------------------------------------

@dataclass
class TableTypeModel:
    """Logistic regression over the five shape features.

    Positive logit means key-value; a logit of exactly zero breaks the tie
    toward entity-instance. Features are standardized with statistics
    frozen at training time.
    """

    weights: np.ndarray | None = None
    bias: float = 0.0
    mean: np.ndarray = field(default_factory=lambda: np.zeros(FEATURE_DIM))
    scale: np.ndarray = field(default_factory=lambda: np.ones(FEATURE_DIM))

    def logit(self, features: TableTypeFeatures) -> float:
        if self.weights is None:
            raise UntrainedModel("table-type model has no weights")
        x = (features.as_vector() - self.mean) / self.scale
        return float(x @ self.weights + self.bias)


def classify_table_type(features: TableTypeFeatures, model: TableTypeModel) -> TableKind:
    return TableKind.KEY_VALUE if model.logit(features) > 0 else TableKind.ENTITY_INSTANCE


def train_table_type_model(
    samples: list[tuple[TableTypeFeatures, TableKind]],
    learning_rate: float = 0.5,
    iterations: int = 500,
) -> TableTypeModel:
    """Full-batch gradient descent on logistic loss; deterministic (zero init)."""
    if not samples:
        raise ValueError("no training samples")
    x = np.stack([f.as_vector() for f, _ in samples])
    y = np.array([1.0 if kind is TableKind.KEY_VALUE else 0.0 for _, kind in samples])
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0] = 1.0
    xs = (x - mean) / scale

    w = np.zeros(FEATURE_DIM)
    b = 0.0
    n = len(samples)
    for _ in range(iterations):
        p = 1.0 / (1.0 + np.exp(-(xs @ w + b)))
        grad_w = xs.T @ (p - y) / n
        grad_b = float(np.mean(p - y))
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
    return TableTypeModel(weights=w, bias=b, mean=mean, scale=scale)


_TT_MAGIC = "tableqa-tabletype v2"


def save_table_type_model(model: TableTypeModel, path) -> None:
    """The MLP files' `array` lines: weights, mean and scale of shape 5,
    bias of shape 1."""
    if model.weights is None:
        raise UntrainedModel("refusing to save an untrained table-type model")
    lines = [_TT_MAGIC, *format_arrays([
        ("weights", model.weights), ("mean", model.mean),
        ("scale", model.scale), ("bias", np.array([model.bias])),
    ])]
    write_if_changed(path, "\n".join(lines) + "\n")


def load_table_type_model(path) -> TableTypeModel:
    """Model from ``save_table_type_model``; errors name ``file:line``."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != _TT_MAGIC:
        raise UntrainedModel(f"{path}:1: not a {_TT_MAGIC} model file")
    shapes = {"weights": (FEATURE_DIM,), "mean": (FEATURE_DIM,),
              "scale": (FEATURE_DIM,), "bias": (1,)}
    arrays = parse_arrays(lines, 1, shapes, str(path))
    if not arrays["scale"].all():
        # standardizing by a zero scale makes every logit nan, which labels
        # every table entity-instance without a word
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if line.startswith("array scale "))
        raise UntrainedModel(f"{path}:{lineno}: array scale has a zero entry")
    return TableTypeModel(weights=arrays["weights"], bias=float(arrays["bias"][0]),
                          mean=arrays["mean"], scale=arrays["scale"])


# ---------------------------------------------------------------------------
# Key-value transpose
# ---------------------------------------------------------------------------

def transpose_grid(rows: list[list[str]]) -> list[list[str]]:
    """Plain matrix transpose of a rectangular cell grid."""
    return [list(col) for col in zip(*rows)] if rows else []


def transpose_key_value(table: Table) -> Table:
    """Promote the key column to headers, yielding an entity-instance table.

    The key column is always column 0. Each original value column becomes
    one output row, so a two-column key-value table transposes to a single
    row. Duplicate keys would collide as headers and are rejected.
    """
    if table.kind is not TableKind.KEY_VALUE:
        raise NotKeyValue(f"table {table.id!r} is {table.kind.value}, not key-value")
    if table.n_columns < 2:
        raise NotKeyValue(f"table {table.id!r} has no value column to transpose")
    keys = table.column(0)
    seen = set()
    for key in keys:
        if key in seen:
            raise DuplicateKeys(f"table {table.id!r}: duplicate key cell {key!r}")
        seen.add(key)
    return replace(
        table,
        headers=keys,
        rows=transpose_grid(table.rows)[1:],
        kind=TableKind.ENTITY_INSTANCE,
    )
