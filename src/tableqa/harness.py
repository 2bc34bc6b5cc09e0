"""Dataset manifest, training/evaluation orchestration, and metrics.

The manifest is line-oriented text, one question per line:

    qid <TAB> split <TAB> table_id <TAB> alternates(,-separated or -)
        <TAB> cells(r:c,...) <TAB> question <TAB> gold query

Every entry is validated on load: the gold query must parse and execute
on the gold table to exactly the stated cells.

The pipeline is three stage functions: ``select_source`` (question and
index to table), ``predict_clauses`` (question and table to SELECT
columns and WHERE pairs) and ``answer_cells`` (row selection for one row
mode, intersected with the SELECT columns); ``run_pipeline`` composes
them. Pipeline evaluation takes each question through every (scope, row
mode) cell, running each stage once per distinct input and sharing the
result between the cells that reach it. Stage failures never abort a
sweep, they score zero and are listed in every cell that used the stage.

Retrieval over all tables ranks against an index the caller passes in:
``sweep_pipeline``, ``evaluate_retrieval`` and ``run_pipeline`` build
none. The command line loads the one ``tableqa ingest`` saved in the
workspace (``retrieval.load_index``); a library caller builds one with
``retrieval.build_index``. Only the individual scope's per-split indexes,
over a few gold tables each, are built here (``split_index``).

``TableDir`` maps a directory's table ids to its tables and reads each
file on first access, so a command reads only the tables it reaches;
``load_corpus`` reads them all.
"""

from __future__ import annotations

import enum
import os
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .clauses import (
    ParsedQuestion,
    column_types,
    featurize_select,
    featurize_where,
    parse_question,
    predict_select,
    predict_where,
    where_candidates,
)
from .embed import EmbeddingStore
from .errors import AllZero, NoIndexedWord, TableQAError, ValidationFailure
from .nn import MlpModel, TrainConfig, train, upsample_positives
from .query import (
    StructuredQuery,
    Condition,
    Operator,
    execute,
    intersect_cells,
    parse_query,
    select_rows_embedding,
    select_rows_word_match,
)
from .retrieval import (
    Similarity,
    TfIdfIndex,
    build_index,
    precision_at_k,
    question_vector,
    rank,
)
from .tabular import (
    Table,
    TableFormat,
    TableKind,
    TableTypeModel,
    classify_table_type,
    extract_table_type_features,
    load_table,
    transpose_key_value,
)
from .textproc import read_lines

from .clauses import SELECT_SPEC, WHERE_SPEC


class Split(enum.Enum):
    TRAIN = "train"
    DEV = "dev"
    TEST = "test"


class Scope(enum.Enum):
    GOLDEN_TABLE = "golden"
    INDIVIDUAL_SET = "individual"
    ALL_SETS = "all"


class RowMode(enum.Enum):
    WORD_MATCH = "wordmatch"
    EMBEDDING = "embedding"


@dataclass(frozen=True)
class ManifestEntry:
    qid: str
    question: str
    table_id: str
    alternates: tuple[str, ...]
    gold_query: str
    gold_cells: frozenset
    split: Split
    query: StructuredQuery | None = None    # gold_query parsed, once validated


# ---------------------------------------------------------------------------
# Corpus loading and ingestion
# ---------------------------------------------------------------------------

def load_table_kinds(path) -> dict[str, TableKind]:
    kinds = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TableQAError(
                f"{path}:{lineno}: expected 'table_id<TAB>kind', "
                f"got {len(parts) - 1} tabs"
            )
        table_id, value = parts
        try:
            kinds[table_id] = TableKind(value)
        except ValueError:
            raise TableQAError(
                f"{path}:{lineno}: unknown table kind {value!r}"
            ) from None
    return kinds


class TableDir(Mapping):
    """The tables of a directory, one file per table, id = filename stem;
    each file is read on first access and kept.

    The directory is listed once, in name order, so of a ``.csv`` and a
    ``.tsv`` with one stem the later-sorted file wins. An id is matched
    against that listing and never joined into a path, so an id absent
    from the directory, such as ``../x``, is simply missing. Reading a
    malformed file raises its error at that access.
    """

    def __init__(self, tables_dir):
        # file paths, and the errors naming them, spelled as pathlib joins them
        base = str(Path(str(tables_dir)))
        root = "" if base == "." else base
        self._files = {stem: (os.path.join(root, name), fmt)
                       for name, (stem, fmt) in table_files(base).items()}
        self._tables = {}

    def __getitem__(self, tid) -> Table:
        table = self._tables.get(tid)
        if table is None:
            path, fmt = self._files[tid]
            table = self._tables[tid] = load_table(path, fmt)
        return table

    def __contains__(self, tid) -> bool:
        return tid in self._files

    def __iter__(self):
        return iter(self._files)

    def __len__(self) -> int:
        return len(self._files)


def load_corpus(tables_dir) -> dict[str, Table]:
    """Every table of a directory, read now (see ``TableDir``)."""
    tables = TableDir(tables_dir)
    return {tid: tables[tid] for tid in tables}


def table_files(tables_dir) -> dict[str, tuple[str, TableFormat]]:
    """name -> (stem, format) of each table file in ``tables_dir``, in name
    order: a ``.csv`` or ``.tsv`` file name with a non-empty stem."""
    formats = {"csv": TableFormat.CSV, "tsv": TableFormat.TSV}
    with os.scandir(tables_dir) as listing:
        names = sorted(entry.name for entry in listing)
    files = {}
    for name in names:
        stem, _, suffix = name.rpartition(".")
        if stem and suffix in formats:
            files[name] = (stem, formats[suffix])
    return files


def ingest_corpus(
    raw: dict[str, Table],
    kinds: dict[str, TableKind] | None = None,
    table_type_model: TableTypeModel | None = None,
) -> dict[str, Table]:
    """Tag each table's kind (labels or trained model) and transpose key-value
    tables so downstream stages see entity-instance layout only."""
    out = {}
    for tid, table in raw.items():
        if kinds is not None and tid in kinds:
            kind = kinds[tid]
        elif table_type_model is not None:
            kind = classify_table_type(
                extract_table_type_features(table), table_type_model
            )
        else:
            raise TableQAError(f"no kind label or model for table {tid!r}")
        table.kind = kind
        out[tid] = transpose_key_value(table) if kind is TableKind.KEY_VALUE else table
    return out


def _parse_cells(text: str) -> frozenset:
    """The manifest's ``r:c,...`` cells field as (row, column) pairs."""
    cells = set()
    for pair in text.split(","):
        row, _, column = pair.partition(":")
        try:
            cells.add((int(row), int(column)))
        except ValueError:
            raise ValueError(f"bad cell {pair!r}, expected row:column") from None
    return frozenset(cells)


@dataclass(frozen=True)
class ManifestLine:
    """One manifest line that is not blank or a comment: its entry, or the
    reason it has none (``failure`` is ``(qid or "line N", cause)``)."""

    where: str                             # path:line
    entry: ManifestEntry | None
    failure: tuple[str, str] | None = None


def parse_manifest(path) -> list[ManifestLine]:
    """The manifest's lines, parsed but not checked against any table."""
    lines = []
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        parts = line.split("\t")
        if len(parts) != 7:
            lines.append(ManifestLine(where, None, (
                f"line {lineno}", f"{where}: expected 7 fields, got {len(parts)}")))
            continue
        qid, split, table_id, alts, cells_s, question, query_text = parts
        try:
            entry = ManifestEntry(
                qid=qid, question=question, table_id=table_id,
                alternates=tuple(a for a in alts.split(",") if a and a != "-"),
                gold_query=query_text, gold_cells=_parse_cells(cells_s),
                split=Split(split),
            )
        except ValueError as exc:
            lines.append(ManifestLine(where, None, (qid, f"{where}: {exc}")))
            continue
        lines.append(ManifestLine(where, entry))
    return lines


def validate_manifest(
    lines: list[ManifestLine],
    tables: dict[str, Table],
    store: EmbeddingStore,
) -> list[ManifestEntry]:
    """The entries of ``parse_manifest`` whose gold query executes on their
    gold table to exactly the stated cells, each holding its parsed query.
    Lines that failed to parse or to validate are collected, in file
    order, into one ValidationFailure, each cause prefixed with
    ``path:line``."""
    entries = []
    failures = []
    for line in lines:
        entry = line.entry
        if entry is None:
            failures.append(line.failure)
            continue
        # read before the try: a malformed table file is an error of its
        # own, not one of this entry's
        table = tables.get(entry.table_id)
        try:
            if table is None:
                raise ValueError(f"unknown table {entry.table_id!r}")
            query = parse_query(entry.gold_query)
            got = execute(query, table, store)
            if got != set(entry.gold_cells):
                raise ValueError(f"gold query yields {sorted(got)}, manifest "
                                 f"says {sorted(entry.gold_cells)}")
        except (TableQAError, ValueError) as exc:
            failures.append((entry.qid, f"{line.where}: {exc}"))
            continue
        entries.append(replace(entry, query=query))
    if failures:
        raise ValidationFailure(failures)
    return entries


def load_manifest(
    path,
    tables: dict[str, Table],
    store: EmbeddingStore,
) -> list[ManifestEntry]:
    """Parse and validate the manifest (``parse_manifest`` then
    ``validate_manifest``)."""
    return validate_manifest(parse_manifest(path), tables, store)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    precision: float
    recall: float


def metrics_from_confusion(tp: int, fp: int, fn: int, tn: int) -> ConfusionMetrics:
    total = tp + fp + fn + tn
    if total == 0:
        raise AllZero("confusion matrix has no observations")
    return ConfusionMetrics(
        tp=tp, fp=fp, fn=fn, tn=tn,
        accuracy=(tp + tn) / total,
        precision=tp / (tp + fp) if tp + fp else 0.0,
        recall=tp / (tp + fn) if tp + fn else 0.0,
    )


def _confusion(flags) -> ConfusionMetrics:
    """Metrics over (predicted, gold) membership flag pairs."""
    counts = Counter(flags)
    return metrics_from_confusion(
        tp=counts[True, True], fp=counts[True, False],
        fn=counts[False, True], tn=counts[False, False],
    )


def cell_prf(predicted: set, gold: set) -> tuple[float, float, float]:
    overlap = len(set(predicted) & set(gold))
    precision = overlap / len(predicted) if predicted else 0.0
    recall = overlap / len(gold) if gold else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


# ---------------------------------------------------------------------------
# Gold extraction and training-data construction
# ---------------------------------------------------------------------------

def gold_select_indices(entry: ManifestEntry, table: Table) -> set[int]:
    """The columns of a validated entry's gold SELECT clause."""
    return {table.headers.index(name) for name in entry.query.select}


def gold_where_pairs(entry: ManifestEntry, table: Table) -> set[tuple[int, str]]:
    """(column, lowercased keyword) per condition of a validated entry's
    gold WHERE clause."""
    return {(table.headers.index(c.column), c.keyword.lower())
            for c in entry.query.where}


@dataclass
class ModelBundle:
    """The trained SELECT, WHERE and column-type models the pipeline reads."""

    select_model: MlpModel | None = None
    where_model: MlpModel | None = None
    coltype_model: MlpModel | None = None


def _gold_walk(entries, tables, bundle):
    """(entry, table, parsed question, column types, gold SELECT) per entry."""
    for entry in entries:
        table = tables[entry.table_id]
        question = parse_question(entry.question)
        types = column_types(question, table, bundle.coltype_model)
        yield entry, table, question, types, gold_select_indices(entry, table)


def build_select_samples(entries, tables, store, bundle):
    """(25-dim vector, in-SELECT label) per (question, column)."""
    samples = []
    for entry, table, question, types, gold in _gold_walk(entries, tables, bundle):
        features = featurize_select(table, question, types, store)
        samples += [(features[c], int(c in gold)) for c in range(table.n_columns)]
    return samples


def build_where_samples(entries, tables, store, bundle):
    """(77-dim vector, in-WHERE label) per (question, column, word).

    The in-SELECT flag comes from the gold SELECT clause, isolating WHERE
    training from SELECT prediction errors. ``store`` is unused: the WHERE
    features read no embeddings, and the parameter keeps the signature of
    ``build_select_samples``.
    """
    samples = []
    for entry, table, question, types, gold_cols in _gold_walk(entries, tables, bundle):
        gold_pairs = gold_where_pairs(entry, table)
        candidates = where_candidates(table, question)
        features = featurize_where(table, candidates, gold_cols, question, types)
        samples += [(vec, int((c, question.tokens[w]) in gold_pairs))
                    for vec, (c, w) in zip(features, candidates)]
    return samples


# positive (in-clause) examples are repeated this many times before SGD
UPSAMPLE_FACTOR = 6


def train_select_model(entries, tables, store, bundle,
                       cfg: TrainConfig = TrainConfig()) -> MlpModel:
    samples = build_select_samples(entries, tables, store, bundle)
    balanced = upsample_positives(samples, UPSAMPLE_FACTOR, seed=cfg.seed)
    return train(SELECT_SPEC, balanced, cfg)


def train_where_model(entries, tables, store, bundle,
                      cfg: TrainConfig = TrainConfig()) -> MlpModel:
    samples = build_where_samples(entries, tables, store, bundle)
    balanced = upsample_positives(samples, UPSAMPLE_FACTOR, seed=cfg.seed)
    return train(WHERE_SPEC, balanced, cfg)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineResult:
    query: StructuredQuery
    table_id: str
    cells: frozenset


class PipelineStageError(TableQAError):
    """Stage failure, annotated with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def rank_sources(question: ParsedQuestion, index: TfIdfIndex,
                 similarity: Similarity = Similarity.INV_EUCLIDEAN,
                 k: int | None = None) -> list[tuple[str, float]]:
    """The index's ranking of tables for the question (its first ``k``),
    each with its score.

    A question with no word the index holds has nothing to rank by; like
    any other failure here, it is a source-selection error.
    """
    try:
        vector = question_vector(index, question.content_stems, question.text)
        return rank(index, vector, similarity, k=k)
    except Exception as exc:
        raise PipelineStageError("source-selection", exc) from exc


def select_source(question: ParsedQuestion, tables: dict[str, Table], index: TfIdfIndex,
                  similarity: Similarity = Similarity.INV_EUCLIDEAN) -> Table:
    """Source selection: the index's top-ranked table for the question."""
    ranked = rank_sources(question, index, similarity, k=1)
    try:
        return tables[ranked[0][0]]
    except KeyError as exc:
        raise PipelineStageError("source-selection", exc) from exc


def predict_clauses(question: ParsedQuestion, table: Table,
                    bundle: ModelBundle, store: EmbeddingStore
                    ) -> tuple[set[int], set[tuple[int, str]]]:
    """Clause prediction: featurize the question against ``table``, then
    predict the SELECT columns and the WHERE (column, keyword) pairs."""
    try:
        types = column_types(question, table, bundle.coltype_model)
    except Exception as exc:
        raise PipelineStageError("featurization", exc) from exc

    try:
        select_cols = predict_select(table, bundle.select_model, question, types, store)
    except Exception as exc:
        raise PipelineStageError("select-clause", exc) from exc

    try:
        pairs = predict_where(table, bundle.where_model, question, types, select_cols)
    except Exception as exc:
        raise PipelineStageError("where-clause", exc) from exc
    return select_cols, pairs


def answer_cells(table: Table, select_cols, pairs, row_mode: RowMode,
                 store: EmbeddingStore) -> frozenset:
    """Row selection under ``row_mode``, intersected with the SELECT columns."""
    try:
        if row_mode is RowMode.WORD_MATCH:
            rows = select_rows_word_match(table, pairs)
        else:
            rows = select_rows_embedding(table, pairs, store)
        return frozenset(intersect_cells(table, rows, select_cols))
    except Exception as exc:
        raise PipelineStageError("row-selection", exc) from exc


def run_pipeline(
    question: str,
    tables: dict[str, Table],
    index: TfIdfIndex | None,
    bundle: ModelBundle,
    store: EmbeddingStore,
    row_mode: RowMode = RowMode.WORD_MATCH,
    similarity: Similarity = Similarity.INV_EUCLIDEAN,
    golden_table: Table | None = None,
    question_id: str | None = None,
) -> PipelineResult:
    """Retrieval (unless golden), SELECT, WHERE, row selection, intersection.

    Returns both the constructed query and the answer cells. Errors carry
    their stage name; additive error accounting happens in the sweep.
    ``question_id`` is accepted and ignored (``bench/worker.py`` passes it).
    """
    parsed = parse_question(question)
    table = golden_table if golden_table is not None \
        else select_source(parsed, tables, index, similarity)
    select_cols, pairs = predict_clauses(parsed, table, bundle, store)
    cells = answer_cells(table, select_cols, pairs, row_mode, store)
    query = StructuredQuery(
        select=tuple(table.headers[c] for c in sorted(select_cols)),
        from_table=table.id,
        where=tuple(
            Condition(column=table.headers[c], keyword=kw,
                      operator=Operator.SIM_MATCH)
            for c, kw in sorted(pairs)
        ),
    )
    return PipelineResult(query=query, table_id=table.id, cells=cells)


@dataclass
class QuestionOutcome:
    qid: str
    precision: float
    recall: float
    f1: float
    error: str | None = None


@dataclass
class SweepCell:
    scope: Scope
    row_mode: RowMode
    outcomes: list[QuestionOutcome]

    @property
    def macro(self) -> tuple[float, float, float]:
        if not self.outcomes:
            return (0.0, 0.0, 0.0)
        p = float(np.mean([o.precision for o in self.outcomes]))
        r = float(np.mean([o.recall for o in self.outcomes]))
        f = float(np.mean([o.f1 for o in self.outcomes]))
        return (p, r, f)

    @property
    def failures(self) -> list[QuestionOutcome]:
        return [o for o in self.outcomes if o.error is not None]


def _once(memo: dict, key, stage, *args):
    """``stage(*args)``, run at most once per ``key``: a later call returns
    the stored result, or raises the stored stage error again."""
    if key not in memo:
        try:
            memo[key] = stage(*args)
        except PipelineStageError as exc:
            memo[key] = exc
    if isinstance(memo[key], PipelineStageError):
        raise memo[key]
    return memo[key]


def _entry_outcomes(entry, tables, indexes, bundle, store, scopes, row_modes):
    """((scope, row mode), outcome) per grid cell for one entry.

    The question is parsed once, and each stage runs once per distinct
    input: retrieval per index, clause prediction per table reached, row
    selection per (table, row mode). A stage error reaches every cell.
    """
    question = parse_question(entry.question)
    sources, clauses, answers = {}, {}, {}
    for scope in scopes:
        for row_mode in row_modes:
            try:
                if scope is Scope.GOLDEN_TABLE:
                    table = tables[entry.table_id]
                else:
                    split = entry.split if scope is Scope.INDIVIDUAL_SET else None
                    table = _once(sources, split, select_source,
                                  question, tables, indexes[split])
                select_cols, pairs = _once(clauses, table.id, predict_clauses,
                                           question, table, bundle, store)
                cells = _once(answers, (table.id, row_mode), answer_cells,
                              table, select_cols, pairs, row_mode, store)
            except PipelineStageError as exc:
                outcome = QuestionOutcome(entry.qid, 0.0, 0.0, 0.0, error=str(exc))
            else:
                # a wrong source table has no chance of recovering the gold cells
                prf = (cell_prf(set(cells), set(entry.gold_cells))
                       if table.id == entry.table_id else (0.0, 0.0, 0.0))
                outcome = QuestionOutcome(entry.qid, *prf)
            yield (scope, row_mode), outcome


def split_index(entries, tables: dict[str, Table], split: Split) -> TfIdfIndex:
    """Index over the gold tables of the entries in ``split``."""
    gold = {e.table_id: tables[e.table_id] for e in entries if e.split is split}
    return build_index(list(gold.values()))


def sweep_pipeline(
    entries: list[ManifestEntry],
    tables: dict[str, Table],
    index: TfIdfIndex,
    bundle: ModelBundle,
    store: EmbeddingStore,
    scopes=tuple(Scope),
    row_modes=tuple(RowMode),
) -> dict[tuple[Scope, RowMode], SweepCell]:
    """Evaluate every (scope, row mode) combination over the entries.

    The entries run one after another, each through every cell; the cells
    of one entry share its stage results (see ``_entry_outcomes``), so
    every cell's outcome equals its own ``run_pipeline`` call's. The all
    scope ranks against ``index``, over all tables; the individual scope
    ranks each question's tables against an index of its own split's gold
    tables, built here.
    """
    indexes = {split: split_index(entries, tables, split)
               for split in {e.split for e in entries}}
    indexes[None] = index

    grid = {(scope, row_mode): SweepCell(scope, row_mode, [])
            for scope in scopes for row_mode in row_modes}
    for entry in entries:
        for key, outcome in _entry_outcomes(entry, tables, indexes, bundle,
                                            store, scopes, row_modes):
            grid[key].outcomes.append(outcome)
    return grid


# ---------------------------------------------------------------------------
# Per-task evaluation
# ---------------------------------------------------------------------------

RETRIEVAL_KS = (1, 3, 5, 10)


def _vector_or_none(index: TfIdfIndex, text: str) -> dict[str, float] | None:
    question = parse_question(text)
    try:
        return question_vector(index, question.content_stems, text)
    except NoIndexedWord:
        return None


def evaluate_retrieval(entries, index: TfIdfIndex):
    """P@k for each k of ``RETRIEVAL_KS`` per similarity over the given
    entries, ranked against ``index``; adjusted P@k (counting
    manifest-declared alternates) reported when any entry lists them. A
    question with no indexed word has no ranking, as in ``rank_sources``:
    it is a miss at every k."""
    gold = {e.qid: e.table_id for e in entries}
    alternates = {e.qid: set(e.alternates) for e in entries if e.alternates}
    vectors = {e.qid: _vector_or_none(index, e.question) for e in entries}
    depth = max(RETRIEVAL_KS)
    report = {}
    for sim in Similarity:
        rankings = {qid: [tid for tid, _ in rank(index, v, sim, depth)] if v else []
                    for qid, v in vectors.items()}
        p_at_k = {k: precision_at_k(rankings, gold, k) for k in RETRIEVAL_KS}
        adjusted = (
            {k: precision_at_k(rankings, gold, k, alternates) for k in RETRIEVAL_KS}
            if alternates else None
        )
        report[sim] = {"p_at_k": p_at_k, "adjusted_p_at_k": adjusted}
    return report


def evaluate_select(entries, tables, store, bundle) -> ConfusionMetrics:
    flags = []
    for entry, table, question, types, gold in _gold_walk(entries, tables, bundle):
        predicted = predict_select(table, bundle.select_model, question, types, store)
        flags += [(c in predicted, c in gold) for c in range(table.n_columns)]
    return _confusion(flags)


def evaluate_where(entries, tables, store, bundle) -> ConfusionMetrics:
    flags = []
    for entry, table, question, types, gold_cols in _gold_walk(entries, tables, bundle):
        gold_pairs = gold_where_pairs(entry, table)
        predicted = predict_where(table, bundle.where_model, question, types, gold_cols)
        pairs = [(c, question.tokens[w]) for c, w in where_candidates(table, question)]
        flags += [(pair in predicted, pair in gold_pairs) for pair in pairs]
    return _confusion(flags)


def evaluate_table_type(raw_tables, kinds, model) -> tuple[float, list[str]]:
    """Accuracy over the labelled tables and the sorted ids of the
    misclassified ones."""
    labelled = [tid for tid in raw_tables if tid in kinds]
    wrong = sorted(
        tid for tid in labelled
        if classify_table_type(extract_table_type_features(raw_tables[tid]), model)
        is not kinds[tid]
    )
    total = len(labelled)
    return ((total - len(wrong)) / total if total else 0.0), wrong
