"""Source selection: TF-IDF vector-space ranking of tables for a question.

Each table's token bag is the concatenation of its name, headers and all
cells, tokenized with stop-word removal and stemming. IDF is computed over
tables only; questions are vectorized against the table vocabulary.

The index is one sparse table x stem matrix stored by stem (compressed
sparse columns): scoring a question reads only the postings of the
question's own stems and computes the similarity to every table as
whole-array arithmetic. It is built with array operations too: the
tables' words become integer ids in one pass, each distinct word is
stemmed once, and one ``np.unique`` over (stem, table) keys yields term
frequencies, document frequencies and postings. Only the idf logarithms
and the per-table squared norms are taken in Python, one stem at a time,
so every float is the one a per-table dictionary walk gives.
"""

from __future__ import annotations

import enum
import itertools
import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import NoTables
from .tabular import Table
from .textproc import STOPWORDS, porter_stem, tokenize, words


class Similarity(enum.Enum):
    COSINE = "cosine"
    DOT = "dot"
    INV_EUCLIDEAN = "inveuclidean"


@dataclass(frozen=True, eq=False)
class TfIdfIndex:
    """Immutable table x stem TF-IDF matrix, shared freely across threads.

    Row ``i`` is table ``table_ids[i]``; ids are sorted, so row order is
    the ranking's tie-break. Column ``j`` is stem ``j`` of ``idf`` (in
    insertion order, ``columns`` maps the stem back to ``j``). Its postings
    are ``rows[indptr[j]:indptr[j + 1]]`` with ``weights`` alongside.
    ``sq_norms`` and ``n_stems`` hold each table's squared norm and
    distinct-stem count.
    """

    table_ids: tuple[str, ...]
    idf: dict[str, float]
    columns: dict[str, int]
    indptr: np.ndarray
    rows: np.ndarray
    weights: np.ndarray
    sq_norms: np.ndarray
    n_stems: np.ndarray


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
    idf = dict(zip(columns, map(math.log, (len(tables) / df).tolist())))
    weights = tf * np.fromiter(idf.values(), dtype=np.float64, count=len(idf))[cols]
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
        table_ids=table_ids, idf=idf, columns=columns,
        indptr=_frozen(np.concatenate(([0], np.cumsum(df)))),
        rows=_frozen(rows), weights=_frozen(weights),
        sq_norms=_frozen(sq_norms), n_stems=_frozen(n_stems),
    )


def question_vector(index: TfIdfIndex, stems) -> dict[str, float]:
    counts = Counter(stems)
    return {stem: tf * index.idf[stem] for stem, tf in counts.items()
            if stem in index.idf}


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
        # when every stem of t is one of q's.
        near = np.zeros(n)
        shared_sq = np.zeros(n)
        shared = np.zeros(n, dtype=np.int64)
        for w, rows, tw in postings:
            term = np.full(n, w * w)
            term[rows] = (w - tw) ** 2
            near += term
            shared_sq[rows] += tw * tw
            shared[rows] += 1
        off = np.where(shared == index.n_stems, 0.0,
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
    """Tables ranked for the question text (see ``rank``)."""
    stems = tokenize(question, drop_stopwords=True).stems
    return rank(index, question_vector(index, stems), sim, k)


def rank(index: TfIdfIndex, vector: dict[str, float], sim: Similarity,
         k: int | None = None) -> list[tuple[str, float]]:
    """Tables ranked by descending similarity to ``vector``; ties broken by
    table id.

    With ``k`` only the first ``k`` of that ranking are built, equal to
    ``rank(index, vector, sim)[:k]``; the rest are never sorted.
    """
    if k is not None and k < 1:
        raise ValueError(f"k must be positive: {k}")
    values = _similarities(index, vector, sim)
    k = len(values) if k is None else min(k, len(values))
    # the rows scoring at least the k-th largest value, in row order, hold
    # the top k and every table tied with the k-th; a stable sort keeps
    # tied tables in row order, which is id order
    cut = len(values) - k
    rows = np.flatnonzero(values >= np.partition(values, cut)[cut])
    order = rows[np.argsort(-values[rows], kind="stable")[:k]]
    ids = index.table_ids
    return [(ids[i], s) for i, s in zip(order.tolist(), values[order].tolist())]


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
