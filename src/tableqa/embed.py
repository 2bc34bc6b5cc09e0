"""Word-embedding storage, the cosine of two rows, and the ~ operator.

``cosine`` backs the ~ operator: a cell matches a keyword if they are
equal, if the keyword is a substring of the cell, or failing both, if
any token pair sits within ``SIM_MATCH_THRESHOLD`` of cosine distance.
The SELECT proximity features (``clauses``) take the same floats for
every token pair of a (question, table) from one stacked product. The
store is one token x dimension matrix with the norm of every row;
callers look a token's row up once (``rows``, ``known_rows``) and pass
rows to ``cosine``.

This module owns the store's binary form too: ``save_store`` writes a
parsed store as one ``.npz`` archive keyed on the sha256 of the ``.vec``
bytes it was parsed from, and ``load_store`` reads it back without
unpickling anything, checking each array. The command line keeps one
such file per workspace, ``<workspace>/embeddings.npz``.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from .errors import BadStore, EmptyFile, MalformedLine
from .textproc import read_lines, read_npz, words


# the embedding stage of ~: the largest cosine distance (1 - cosine
# similarity) at which a token pair matches
SIM_MATCH_THRESHOLD = 0.45


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


# ---------------------------------------------------------------------------
# The saved store: a parsed .vec as one .npz archive
# ---------------------------------------------------------------------------

_STORE_REBUILD = "delete it and the next command rebuilds it from the .vec"


def save_store(store: EmbeddingStore, sha256: str, path) -> bool:
    """Replace ``path`` with ``store``, parsed from a ``.vec`` whose bytes
    have the hex digest ``sha256``; True when it was written.

    The archive is uncompressed and holds ``sha256``, ``tokens`` (in row
    order, as ``load_embeddings`` inserts them) and ``matrix``, and no
    timestamp, so equal stores give equal bytes. It is written to a temp
    file beside ``path``, then renamed over it, so a reader never sees a
    partial file; an OSError leaves ``path`` as it was. A store with a
    token ending in NUL, which numpy's string arrays drop, is not written.
    """
    tokens = np.array(list(store.rows), dtype=np.str_)
    if tokens.tolist() != list(store.rows):
        return False
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, sha256=np.array(sha256), tokens=tokens, matrix=store.matrix)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return True


def _read_store(path, sha256: str) -> EmbeddingStore | None:
    """The store in the archive at ``path``, None when it holds another
    ``.vec``'s; a check that fails raises BadStore naming the problem."""
    arrays = read_npz(path, ("sha256", "tokens", "matrix"))
    saved, tokens, matrix = arrays["sha256"], arrays["tokens"], arrays["matrix"]
    if saved.dtype.kind != "U" or saved.shape != ():
        raise BadStore(f"array sha256 is {saved.dtype} of shape {saved.shape}, "
                       "expected one string")
    if saved.item() != sha256:
        return None
    if tokens.dtype.kind != "U" or tokens.ndim != 1 or not len(tokens):
        raise BadStore(f"array tokens is {tokens.dtype} of shape {tokens.shape}, "
                       "expected one non-empty dimension of str")
    if matrix.dtype != np.float64 or matrix.ndim != 2 \
            or matrix.shape[0] != len(tokens) or not matrix.shape[1]:
        raise BadStore(f"array matrix is {matrix.dtype} of shape {matrix.shape}, "
                       f"expected float64 of shape ({len(tokens)}, d > 0)")
    if not np.isfinite(matrix).all():
        raise BadStore("array matrix holds a non-finite value")
    rows = dict(zip(tokens.tolist(), range(len(tokens))))
    if len(rows) < len(tokens):
        raise BadStore("array tokens repeats a token")
    return EmbeddingStore(rows, matrix)


def load_store(path, sha256: str) -> EmbeddingStore | None:
    """The store ``save_store`` wrote to ``path`` for the ``.vec`` bytes of
    hex digest ``sha256``; None when there is no file or it holds the
    store of other bytes.

    The file is read through ``textproc.read_npz``: no unpickling, and the
    matrix is a view of the bytes read. Every array's dtype and shape is
    checked, every value must be finite and every token distinct; a file
    that is unreadable or fails a check raises BadStore naming ``path``
    and how to recover.
    """
    try:
        return _read_store(path, sha256)
    except FileNotFoundError:
        return None
    except BadStore as exc:
        raise BadStore(f"{path}: {exc}; {_STORE_REBUILD}") from None
    # a damaged archive fails in zipfile or numpy's header reader, with
    # whatever error the damage leads each of them to
    except Exception as exc:
        raise BadStore(f"{path}: not a readable embedding store ({exc}); "
                       f"{_STORE_REBUILD}") from None


def cosine(store: EmbeddingStore, i: int, j: int) -> float | None:
    """Cosine similarity of rows ``i`` and ``j``; None when either has a
    zero norm."""
    ni = store.norms[i]
    nj = store.norms[j]
    if ni == 0.0 or nj == 0.0:
        return None
    return float(store.matrix[i] @ store.matrix[j] / (ni * nj))


def sim_match(store: EmbeddingStore, cell: str, keyword: str) -> bool:
    """Three-stage cell/keyword match: equality, substring, embedding distance.

    Stage 1 compares lowercased trimmed strings. Stage 2 is LIKE-style
    containment of the keyword in the cell. Stage 3 splits both sides
    into ``words`` (the tokens of ``tokenize``, unstemmed) and fires when
    any (cell token, keyword token) pair is within SIM_MATCH_THRESHOLD
    cosine distance; out-of-vocabulary pairs never match.
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
            if sim is not None and 1.0 - sim <= SIM_MATCH_THRESHOLD:
                return True
    return False
