"""Word-embedding storage and the semantic proximity primitive.

Backs both the proximity features and the ~ operator: a cell matches a
keyword if they are equal, if the keyword is a substring of the cell, or
failing both, if any token pair sits within a fixed embedding distance.
The store is one token x dimension matrix with the norm of every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFile, MalformedLine
from .textproc import read_lines, words


@dataclass(frozen=True)
class SimMatchConfig:
    """Match threshold for the embedding fallback stage of ~.

    ``threshold`` is a maximum cosine distance (1 - cosine similarity).
    """

    threshold: float = 0.45

    def __post_init__(self):
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"threshold must be finite and positive: {self.threshold}")


class EmbeddingStore:
    """Token -> row of one ``V x d`` float64 matrix; lookups are lowercased.

    ``rows`` maps each lowercased token to its row of ``matrix``;
    ``norms[i]`` is the Euclidean norm of row ``i``, the float
    ``np.linalg.norm(matrix[i])`` gives. Both arrays are read-only.
    """

    def __init__(self, rows: dict[str, int], matrix: np.ndarray):
        self.rows = rows
        self.matrix = matrix
        # a (1 x d) @ (d x 1) product per row is the dot product that
        # np.linalg.norm takes, so the norms are bit-equal to it; like it,
        # a norm past the float range is inf without a warning
        with np.errstate(over="ignore"):
            squares = np.matmul(matrix[:, None, :], matrix[:, :, None]).ravel()
        self.norms = np.sqrt(squares)
        matrix.flags.writeable = False
        self.norms.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def lookup(self, token: str) -> np.ndarray | None:
        row = self.rows.get(token.lower())
        return None if row is None else self.matrix[row]

    def known_rows(self, tokens) -> list[int]:
        """The rows of the in-vocabulary ``tokens``, which are lowercase
        (``tokenize`` or ``words`` output), in order."""
        rows = self.rows
        return [i for t in tokens if (i := rows.get(t)) is not None]

    def __len__(self) -> int:
        return len(self.rows)


# value strings converted per np.array call, which bounds the strings held
_BLOCK_VALUES = 8192


def _parse_line(path, lineno: int, values: list[str]) -> list[float]:
    try:
        floats = [float(v) for v in values]
    except ValueError as exc:
        raise MalformedLine(f"{path}:{lineno}: {exc}") from None
    if not all(map(math.isfinite, floats)):
        raise MalformedLine(f"{path}:{lineno}: non-finite vector component")
    return floats


def _parse_block(path, linenos: list[int], values: list[str], dim: int) -> np.ndarray:
    """The values of consecutive lines, ``dim`` each, as a float matrix.

    ``np.array`` parses strings as ``float()`` does. When it fails or
    yields a non-finite value, the lines are parsed again one at a time,
    so the error names the first bad line with ``float()``'s message.
    """
    try:
        block = np.array(values, dtype=np.float64)
    except ValueError:
        block = None
    if block is None or not np.isfinite(block).all():
        block = np.array([x for k, lineno in enumerate(linenos)
                          for x in _parse_line(path, lineno,
                                               values[k * dim:(k + 1) * dim])])
    return block.reshape(len(linenos), dim)


def load_embeddings(path) -> EmbeddingStore:
    """Parse the plain-text `token f1 ... fd` format, one entry per line.

    The dimension is inferred from the first line; later lines with a
    different arity, an unparsable float or a nan/inf component raise
    MalformedLine, naming the first such line. A token listed again
    keeps its last vector. Values are converted a block of lines at a
    time.
    """
    rows: dict[str, int] = {}
    blocks: list[np.ndarray] = []
    linenos: list[int] = []         # the lines of the block being read
    values: list[str] = []
    dim = n_entries = 0
    for lineno, line in enumerate(read_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        if not dim:
            dim = len(parts) - 1
            if not dim:
                raise MalformedLine(f"{path}:{lineno}: no vector components")
            block_lines = max(1, _BLOCK_VALUES // dim)
        elif len(parts) - 1 != dim:
            if linenos:             # a bad value on an earlier line comes first
                _parse_block(path, linenos, values, dim)
            raise MalformedLine(
                f"{path}:{lineno}: expected {dim} components, got {len(parts) - 1}"
            )
        rows[parts[0].lower()] = n_entries
        n_entries += 1
        linenos.append(lineno)
        values += parts[1:]
        if len(linenos) == block_lines:
            blocks.append(_parse_block(path, linenos, values, dim))
            linenos, values = [], []
    if not dim:
        raise EmptyFile(f"{path}: no embedding entries")
    if linenos:
        blocks.append(_parse_block(path, linenos, values, dim))
    matrix = np.concatenate(blocks)
    del blocks
    if len(rows) < n_entries:       # drop the rows of replaced vectors
        matrix = matrix[np.fromiter(rows.values(), dtype=np.int64, count=len(rows))]
        rows = {token: row for row, token in enumerate(rows)}
    return EmbeddingStore(rows, matrix)


def proximity(store: EmbeddingStore, a: str, b: str) -> float | None:
    """Cosine similarity of two tokens; None when either is out of vocabulary
    or has a zero-norm vector."""
    i = store.rows.get(a.lower())
    j = store.rows.get(b.lower())
    if i is None or j is None:
        return None
    return cosine(store, i, j)


def cosine(store: EmbeddingStore, i: int, j: int) -> float | None:
    """Cosine similarity of rows ``i`` and ``j``; None when either has a
    zero norm."""
    ni = store.norms[i]
    nj = store.norms[j]
    if ni == 0.0 or nj == 0.0:
        return None
    return float(store.matrix[i] @ store.matrix[j] / (ni * nj))


def sim_match(store: EmbeddingStore, cfg: SimMatchConfig, cell: str, keyword: str) -> bool:
    """Three-stage cell/keyword match: equality, substring, embedding distance.

    Stage 1 compares lowercased trimmed strings. Stage 2 is LIKE-style
    containment of the keyword in the cell. Stage 3 splits both sides
    into ``words`` (the tokens of ``tokenize``, unstemmed) and fires when
    any (cell token, keyword token) pair is within cfg.threshold cosine
    distance; out-of-vocabulary pairs never match.
    """
    cell_norm = cell.strip().lower()
    keyword_norm = keyword.strip().lower()
    if cell_norm == keyword_norm:
        return True
    if keyword_norm and keyword_norm in cell_norm:
        return True
    keyword_rows = store.known_rows(words(keyword))
    for i in store.known_rows(words(cell)):
        for j in keyword_rows:
            sim = cosine(store, i, j)
            if sim is not None and 1.0 - sim <= cfg.threshold:
                return True
    return False
