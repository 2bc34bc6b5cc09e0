"""Source selection: TF-IDF vector-space ranking of tables for a question.

Each table's token bag is the concatenation of its name, headers and all
cells, tokenized with stop-word removal and stemming. IDF is computed over
tables only; questions are vectorized against the table vocabulary.

The index is one sparse table x stem matrix stored by stem (compressed
sparse columns), with one stem -> column map and the idf values as a
tuple in column order: scoring a question reads only the postings of the
question's own stems and computes the similarity to every table as
whole-array arithmetic. It is built with array operations too: the
tables' words become integer ids in one pass, each distinct word is
stemmed once, and one ``np.unique`` over (stem, table) keys yields term
frequencies, document frequencies and postings. Only the idf logarithms
and the per-table squared norms are taken in Python, one stem at a time,
so every float is the one a per-table dictionary walk gives.

This module owns the index's file format too: ``index_bytes`` and
``save_index`` write the arrays as one ``.npz`` archive, with the sha256
of each indexed table's file, and ``load_index`` reads it back without
unpickling anything, checking each array before it builds the index.
``tableqa ingest`` builds the index over the tables it writes and saves
it as ``<workspace>/index.npz``; the commands that rank all tables
(``retrieve``, ``ask``, ``eval --task retrieval``, ``pipeline-eval``)
load that file instead of building one, and every command that reads a
workspace table checks it against its digest, read with the index or,
in a command that ranks nothing, alone (``load_digests``).
"""

from __future__ import annotations

import enum
import io
import itertools
import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadIndex, NoIndexedWord, NoTables
from .tabular import Table
from .textproc import STOPWORDS, porter_stem, read_npz, tokenize, words, write_if_changed


class Similarity(enum.Enum):
    COSINE = "cosine"
    DOT = "dot"
    INV_EUCLIDEAN = "inveuclidean"


@dataclass(frozen=True, eq=False)
class TfIdfIndex:
    """Immutable table x stem TF-IDF matrix, built once and read by every
    question that ranks its tables.

    Row ``i`` is table ``table_ids[i]``; ids are sorted, so row order is
    the ranking's tie-break. ``columns`` maps each stem to its column
    ``j`` (stems are numbered in insertion order) and ``idf[j]`` is its
    idf. Its postings are ``rows[indptr[j]:indptr[j + 1]]`` with
    ``weights`` alongside.
    ``sq_norms`` and ``n_stems`` hold each table's squared norm and
    distinct-stem count.
    """

    table_ids: tuple[str, ...]
    columns: dict[str, int]
    idf: tuple[float, ...]
    indptr: np.ndarray
    rows: np.ndarray
    weights: np.ndarray
    sq_norms: np.ndarray
    n_stems: np.ndarray

    @cached_property
    def n_zero_idf(self) -> int:
        """The number of stems in every table: of idf, and weight, 0."""
        return self.idf.count(0.0)


def _table_text(table: Table) -> str:
    parts = [table.name] + list(table.headers)
    for row in table.rows:
        parts.extend(row)
    return " ".join(parts)


def table_stems(table: Table) -> list[str]:
    return list(tokenize(_table_text(table), drop_stopwords=True).stems)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def build_index(tables: list[Table]) -> TfIdfIndex:
    """Weight = tf within the table x idf = ln(N / df) over all tables.

    One pass over the tables turns each table's words (``table_stems``
    before stemming) into int32 word ids, and each distinct word is
    stemmed once. Term frequencies, document frequencies and postings then
    come from one ``np.unique`` over (stem, row) keys.
    """
    if not tables:
        raise NoTables("cannot build an index over zero tables")
    by_id = {t.id: t for t in tables}   # a repeated id keeps its last table
    table_ids = tuple(sorted(by_id))
    n_rows = len(table_ids)
    row_of = {tid: row for row, tid in enumerate(table_ids)}
    word_ids = defaultdict(itertools.count().__next__)
    occurrences = array("i")            # word ids, table after table
    lengths = []
    for table in by_id.values():
        before = len(occurrences)
        occurrences.extend(map(word_ids.__getitem__, words(_table_text(table))))
        lengths.append(len(occurrences) - before)
    # stop words get no column; stems are numbered in order of first
    # occurrence, as the columns are
    stem_ids = defaultdict(itertools.count().__next__)
    stem_of_word = np.array([-1 if w in STOPWORDS else stem_ids[porter_stem(w)]
                             for w in word_ids], dtype=np.int64)
    columns = dict(stem_ids)
    del word_ids, stem_ids
    stems = stem_of_word[np.frombuffer(occurrences, dtype=np.int32)]
    del occurrences
    table_rows = np.repeat(np.array([row_of[tid] for tid in by_id], dtype=np.int64),
                           lengths)
    content = stems >= 0
    keys = stems[content] * n_rows + table_rows[content]
    del stems, table_rows, content
    # sorted keys are the postings in column-major, row-ascending order;
    # ``first`` is the position of each posting's first occurrence
    keys, first, tf = np.unique(keys, return_index=True, return_counts=True)
    cols, rows = np.divmod(keys, n_rows)
    del keys
    df = np.bincount(cols, minlength=len(columns))
    # ln(N / df) one stem at a time: np.log may round differently
    idf = tuple(map(math.log, (len(tables) / df).tolist()))
    weights = tf * np.array(idf, dtype=np.float64)[cols]
    del tf
    n_stems = np.bincount(rows, minlength=n_rows)
    # each table's squared weights in its stems' first-occurrence order,
    # summed one at a time as a dict walk would (numpy sums pairwise)
    squares = (weights * weights)[np.argsort(first)].tolist()
    del first
    counts = n_stems.tolist()
    sq_norms = np.zeros(n_rows)
    start = 0
    for tid in by_id:
        row = row_of[tid]
        sq_norms[row] = sum(squares[start:start + counts[row]])
        start += counts[row]
    return TfIdfIndex(
        table_ids=table_ids, columns=columns, idf=idf,
        indptr=_frozen(np.concatenate(([0], np.cumsum(df)))),
        rows=_frozen(rows), weights=_frozen(weights),
        sq_norms=_frozen(sq_norms), n_stems=_frozen(n_stems),
    )


def question_vector(index: TfIdfIndex, stems, text: str) -> dict[str, float]:
    """The TF-IDF weights of the question's stems that the index holds.

    A question with none of them has nothing to rank tables by: it raises
    NoIndexedWord naming the question ``text``, whoever ranks it.
    """
    vector = {stem: tf * index.idf[j] for stem, tf in Counter(stems).items()
              if (j := index.columns.get(stem)) is not None}
    if not vector:
        raise NoIndexedWord(f"question has no indexed word to rank tables by: {text!r}")
    return vector


def _similarities(index: TfIdfIndex, q: dict[str, float],
                  sim: Similarity) -> np.ndarray:
    """Similarity of q to every table, indexed by row."""
    n = len(index.table_ids)
    postings = []
    for stem, w in q.items():
        j = index.columns[stem]
        lo, hi = index.indptr[j], index.indptr[j + 1]
        postings.append((w, index.rows[lo:hi], index.weights[lo:hi]))
    if sim is Similarity.INV_EUCLIDEAN:
        # |q - t|^2 = sum over q's stems of (q_s - t_s)^2, which has no
        # cancellation and is exactly 0 where t equals q on them, plus
        # t's mass off q's stems: |t|^2 minus the shared part, exactly 0
        # when every stem of t of non-zero weight is one of q's; every
        # table holds the n_zero_idf stems of weight 0.
        near = np.zeros(n)
        shared_sq = np.zeros(n)
        shared = np.zeros(n, dtype=np.int64)
        for w, rows, tw in postings:
            term = np.full(n, w * w)
            term[rows] = (w - tw) ** 2
            near += term
            shared_sq[rows] += tw * tw
            if w:
                shared[rows] += 1
        off = np.where(shared == index.n_stems - index.n_zero_idf, 0.0,
                       np.maximum(index.sq_norms - shared_sq, 0.0))
        return 1.0 / (1.0 + np.sqrt(near + off))
    dot = np.zeros(n)
    for w, rows, tw in postings:
        dot[rows] += w * tw
    if sim is Similarity.DOT:
        return dot
    nq = math.sqrt(sum(w * w for w in q.values()))
    if nq == 0.0:
        return np.zeros(n)
    nt = np.sqrt(index.sq_norms)
    return np.divide(dot, nq * nt, out=np.zeros(n), where=nt != 0.0)


def score(index: TfIdfIndex, question: str, sim: Similarity,
          k: int | None = None) -> list[tuple[str, float]]:
    """Tables ranked for the question text (see ``rank``); a question with
    no indexed word raises NoIndexedWord."""
    stems = tokenize(question, drop_stopwords=True).stems
    return rank(index, question_vector(index, stems, question), sim, k)


def rank(index: TfIdfIndex, vector: dict[str, float], sim: Similarity,
         k: int | None = None) -> list[tuple[str, float]]:
    """Tables ranked by descending similarity to ``vector``; ties broken by
    table id.

    With ``k`` only the first ``k`` of that ranking are built, equal to
    ``rank(index, vector, sim)[:k]``; the rest are never sorted. ``k=1``
    is one argmax: its first maximal row is the table first in id order.
    """
    if k is not None and k < 1:
        raise ValueError(f"k must be positive: {k}")
    values = _similarities(index, vector, sim)
    if k == 1:
        top = int(values.argmax())
        return [(index.table_ids[top], float(values[top]))]
    k = len(values) if k is None else min(k, len(values))
    # the rows scoring at least the k-th largest value, in row order, hold
    # the top k and every table tied with the k-th; a stable sort keeps
    # tied tables in row order, which is id order
    cut = len(values) - k
    rows = np.flatnonzero(values >= np.partition(values, cut)[cut])
    order = rows[np.argsort(-values[rows], kind="stable")[:k]]
    ids = index.table_ids
    return [(ids[i], s) for i, s in zip(order.tolist(), values[order].tolist())]


# ---------------------------------------------------------------------------
# The saved index: the index's arrays in one .npz archive
# ---------------------------------------------------------------------------

# array name -> dtype: the table ids (row order) and the stems (column
# order) as unicode arrays, the idf values in column order, the index's
# own arrays, then the sha256 of each table's file in row order
_SAVED = {"table_ids": np.str_, "stems": np.str_, "idf": np.float64,
          "indptr": np.int64, "rows": np.int64, "weights": np.float64,
          "sq_norms": np.float64, "n_stems": np.int64,
          "digests": np.dtype("S32")}

_REBUILD = "delete it and run `tableqa ingest` again to rebuild it"


def index_bytes(index: TfIdfIndex, digests) -> bytes:
    """The index and ``digests`` (table id -> the 32-byte sha256 of its
    file) as ``.npz`` bytes. Equal inputs give equal bytes: the archive
    holds no timestamp."""
    out = io.BytesIO()
    np.savez(out, table_ids=np.array(index.table_ids, dtype=np.str_),
             stems=np.array(list(index.columns), dtype=np.str_),
             idf=np.array(index.idf, dtype=np.float64),
             indptr=index.indptr, rows=index.rows, weights=index.weights,
             sq_norms=index.sq_norms, n_stems=index.n_stems,
             digests=np.array([digests[tid] for tid in index.table_ids],
                              dtype=_SAVED["digests"]))
    return out.getvalue()


def save_index(index: TfIdfIndex, digests, path) -> bool:
    """Write the index and ``digests`` to ``path`` unless it already holds
    these bytes; True when it was written."""
    return write_if_changed(path, index_bytes(index, digests))


def _read_index_file(path, names=None) -> dict[str, np.ndarray]:
    try:
        return read_npz(path, _SAVED, names)
    except FileNotFoundError:
        raise BadIndex(f"{path}: missing; run `tableqa ingest` to build it") from None
    # a damaged archive fails in zipfile or numpy's header reader, with
    # whatever error the damage leads each of them to
    except Exception as exc:
        raise BadIndex(f"{path}: not a readable index ({exc}); {_REBUILD}") from None


def _dtype_problem(name: str, x: np.ndarray) -> str | None:
    dtype = _SAVED[name]
    if x.ndim != 1 or (x.dtype.kind != "U" if dtype is np.str_ else x.dtype != dtype):
        return f"array {name} is {x.dtype} of shape {x.shape}, " \
            f"expected one dimension of {np.dtype(dtype).name}"
    return None


def _array_problem(a: dict[str, np.ndarray]) -> str | None:
    """What is wrong with the arrays as an index, or None."""
    for name in _SAVED:
        if (problem := _dtype_problem(name, a[name])) is not None:
            return problem
    n, m, nnz = len(a["table_ids"]), len(a["stems"]), len(a["rows"])
    if n == 0:
        return "indexes no table"
    if np.any(a["table_ids"][:-1] >= a["table_ids"][1:]):
        return "array table_ids is not in ascending order without repeats"
    for name, length in {"idf": m, "indptr": m + 1, "weights": nnz,
                         "sq_norms": n, "n_stems": n, "digests": n}.items():
        if len(a[name]) != length:
            return f"array {name} has {len(a[name])} entries, expected {length}"
    df = np.diff(a["indptr"])
    if a["indptr"][0] != 0 or np.any(df < 1) or np.any(df > n) \
            or a["indptr"][-1] != nnz:
        return "array indptr does not delimit the postings of each stem"
    if nnz and (a["rows"].min() < 0 or a["rows"].max() >= n):
        return f"array rows holds a row outside 0..{n - 1}"
    if a["n_stems"].min() < 0 or a["n_stems"].max() > m \
            or a["n_stems"].sum() != nnz:
        return "array n_stems does not count each table's stems"
    for name in ("idf", "weights", "sq_norms"):
        if not np.all(np.isfinite(a[name]) & (a[name] >= 0.0)):
            return f"array {name} holds a negative or non-finite value"
    return None


def _few(ids: list[str]) -> str:
    more = f" and {len(ids) - 3} more" if len(ids) > 3 else ""
    return ", ".join(map(repr, ids[:3])) + more


def load_index(path, table_ids) -> tuple[TfIdfIndex, dict[str, bytes]]:
    """The index saved at ``path``, which must index exactly ``table_ids``
    (in any order), and the digests saved with it (see ``load_digests``),
    from one read of the file.

    The file is read with no unpickling, and every array's dtype, shape,
    range and finiteness is checked before the index is built. A missing,
    damaged or out-of-date file raises BadIndex naming ``path`` and how to
    rebuild it.
    """
    arrays = _read_index_file(path)
    problem = _array_problem(arrays)
    if problem is not None:
        raise BadIndex(f"{path}: {problem}; {_REBUILD}")
    stems = arrays["stems"].tolist()
    columns = {stem: j for j, stem in enumerate(stems)}
    if len(columns) != len(stems):
        raise BadIndex(f"{path}: array stems repeats a stem; {_REBUILD}")
    ids, listed = arrays["table_ids"].tolist(), sorted(table_ids)
    if ids != listed:
        indexed = set(ids)
        unindexed = [tid for tid in listed if tid not in indexed]
        gone = sorted(indexed.difference(listed))
        what = "; ".join(([f"lacks {_few(unindexed)}"] if unindexed else [])
                         + ([f"indexes {_few(gone)}, no longer there"] if gone else []))
        raise BadIndex(f"{path}: out of date with the tables: {what}; {_REBUILD}")
    return TfIdfIndex(
        table_ids=tuple(ids), columns=columns, idf=tuple(arrays["idf"].tolist()),
        **{name: _frozen(arrays[name])
           for name in ("indptr", "rows", "weights", "sq_norms", "n_stems")},
    ), _digest_map(arrays)


def _digest_map(arrays: dict[str, np.ndarray]) -> dict[str, bytes]:
    # numpy drops the trailing NUL bytes of a digest it hands out one at a time
    raw, ids = arrays["digests"].tobytes(), arrays["table_ids"].tolist()
    return {tid: raw[32 * i:32 * i + 32] for i, tid in enumerate(ids)}


def load_digests(path) -> dict[str, bytes]:
    """Table id -> the 32-byte sha256 of its file, as saved with the index
    at ``path``; only those two arrays are read and checked. A missing or
    damaged file raises BadIndex as ``load_index`` does."""
    arrays = _read_index_file(path, ("table_ids", "digests"))
    ids, digests = arrays["table_ids"], arrays["digests"]
    problem = _dtype_problem("table_ids", ids) or _dtype_problem("digests", digests)
    if problem is None and len(digests) != len(ids):
        problem = f"array digests has {len(digests)} entries, expected {len(ids)}"
    if problem is not None:
        raise BadIndex(f"{path}: {problem}; {_REBUILD}")
    return _digest_map(arrays)


def precision_at_k(
    rankings: dict[str, list[str]],
    gold: dict[str, str],
    k: int,
    alternates: dict[str, set[str]] | None = None,
) -> float:
    """Fraction of questions whose gold table appears in the top k.

    When ``alternates`` lists extra acceptable table ids for a question,
    any of them counts (the adjusted variant); otherwise only the gold id.
    """
    if k < 1:
        raise ValueError(f"k must be positive: {k}")
    if not gold:
        return 0.0
    hits = 0
    for qid, gold_tid in gold.items():
        acceptable = {gold_tid} | (alternates.get(qid, set()) if alternates else set())
        top = rankings[qid][:k]
        if acceptable & set(top):
            hits += 1
    return hits / len(gold)
