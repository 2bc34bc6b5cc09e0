"""Featurization and binary classification for SELECT and WHERE membership.

SELECT asks, per column: does this column belong in the projection?
WHERE asks, per (column, question word) pair: do they form a row filter?
For one (question, table), each featurizer fills one matrix with a
fixed-layout row per candidate (25 and 77 dims), which the shared MLP core
classifies in one call; training and inference build the same matrices.
The WHERE row one-hot encodes shallow tags of the question word (POS,
NER, dependency relation) from rules over the word and its
capitalization; the tag inventories are fixed text resources, so those
blocks always have dimensions 12, 6 and 37.

``parse_question`` scans a question once with ``token_starts``, so there
is one tag per token by construction; retrieval, both featurizers and
evaluation read its ``ParsedQuestion``. The featurizers take the table's
column-type distributions beside it, computed once per (question, table).
Neither featurizer tokenizes: the table side reads the table's own views
(``Table.cell_tokens``, ``column_tokens``, ``column_vocab``,
``mean_cell_length``, ``header_stems`` and ``column_type_features``),
built on the table's first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .embed import EmbeddingStore, cosine
from .errors import EmptyQuestion, UntrainedModel
from .nn import MlpModel, MlpSpec, OutputHead, predict_batch
from .tabular import Table
from .textproc import (
    STOPWORDS,
    compile_pattern,
    pattern_distance,
    porter_stem,
    token_starts,
    tokenize,  # noqa: F401  (unused; bench/tests/test_bench.py traces this binding)
)
from .typerec import QuestionType, classify_question, column_type_distributions

SELECT_FEATURE_DIM = 25
WHERE_FEATURE_DIM = 77

SELECT_SPEC = MlpSpec(SELECT_FEATURE_DIM, (32, 16, 8), OutputHead.BINARY2)
WHERE_SPEC = MlpSpec(WHERE_FEATURE_DIM, (32, 16, 8), OutputHead.BINARY2)


def _load_tags(name: str) -> tuple[str, ...]:
    text = resources.files("tableqa").joinpath(f"data/{name}").read_text("utf-8")
    return tuple(line for line in text.split() if line)


POS_TAGS = _load_tags("pos_tags.txt")
NER_TAGS = _load_tags("ner_tags.txt")
DEP_TAGS = _load_tags("dep_tags.txt")

assert len(POS_TAGS) == 12 and len(NER_TAGS) == 6 and len(DEP_TAGS) == 37


@dataclass(frozen=True)
class TokenTags:
    pos: str
    ner: str
    dep: str


# ---------------------------------------------------------------------------
# Heuristic tags
# ---------------------------------------------------------------------------

_WH_PRON = {"who", "whom", "what", "where", "when", "why", "how"}
_WH_DET = {"whose", "which"}
_DATE_TOKENS = {
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
    "monday", "tuesday", "wednesday", "thursday", "friday", "saturday",
    "sunday", "today", "tomorrow", "yesterday", "year", "month", "week",
}
_VERB_TOKENS = {
    "is", "are", "was", "were", "be", "been", "being", "am",
    "do", "does", "did", "done", "have", "has", "had",
    "get", "gets", "got", "make", "makes", "made", "go", "goes", "went",
    "play", "plays", "played", "live", "lives", "lived",
    "win", "wins", "won", "cost", "costs", "start", "starts", "started",
    "become", "became", "born", "stand", "stands", "open", "opens",
    "work", "works", "hold", "holds", "held", "can", "could", "will",
    "would", "should",
}
_LOCATION_GAZETTEER = {
    "louisiana", "portugal", "boston", "washington", "rochester",
    "texas", "jersey", "york", "orleans", "baton", "rouge", "paris",
    "london", "lisbon", "madrid", "austin", "sacramento", "france",
    "spain", "germany", "usa", "america", "pittsburgh", "amsterdam",
    "europe", "england", "china", "japan", "africa", "australia",
    "salem", "denver", "phoenix", "atlanta",
}


def heuristic_tags(question: str,
                   starts: list[tuple[str, int]]) -> list[TokenTags]:
    """One TokenTags per token of ``starts``, ``token_starts(question)``.

    Wh-words map to PRON or DET; digit tokens to NUM/QUANTITY; month and
    weekday words to DATETIME; non-initial tokens that start with a capital
    in the question to PROPN with a gazetteer deciding LOCATION vs PERSON;
    a small verb list to VERB.
    Everything else is NOUN with no entity. The first verb gets the root
    relation; every other token gets the unspecified-dependency tag.
    """
    tags = []
    root_seen = False
    for i, (lower, start) in enumerate(starts):
        pos, ner = "NOUN", "NONE"
        if lower in _WH_PRON:
            pos = "PRON"
        elif lower in _WH_DET:
            pos = "DET"
        elif lower.isdigit():
            pos, ner = "NUM", "QUANTITY"
        elif lower in _DATE_TOKENS:
            pos, ner = "PROPN", "DATETIME"
        elif lower in _VERB_TOKENS:
            pos = "VERB"
        elif i > 0 and question[start].isupper():
            pos = "PROPN"
            ner = "LOCATION" if lower in _LOCATION_GAZETTEER else "PERSON"
        dep = "dep"
        if pos == "VERB" and not root_seen:
            dep = "root"
            root_seen = True
        tags.append(TokenTags(pos=pos, ner=ner, dep=dep))
    return tags


# ---------------------------------------------------------------------------
# The parsed question
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParsedQuestion:
    """A question as every stage reads it, from one ``token_starts`` scan."""

    text: str
    tokens: tuple[str, ...]             # stop words kept
    tags: tuple[TokenTags, ...]         # one per token
    qtype: QuestionType | None          # None for a question without tokens
    qtype_onehot: np.ndarray | None = field(compare=False)   # follows qtype
    where_words: tuple[int, ...]        # indices of the non-stop tokens
    content_stems: tuple[str, ...]      # stems of those tokens


def parse_question(text: str) -> ParsedQuestion:
    """``text`` parsed; a question without tokens parses too, with no type."""
    starts = token_starts(text)
    tokens = tuple(token for token, _ in starts)
    qtype, onehot = classify_question(tokens) if tokens else (None, None)
    where_words = tuple(i for i, t in enumerate(tokens) if t not in STOPWORDS)
    return ParsedQuestion(
        text=text, tokens=tokens, tags=tuple(heuristic_tags(text, starts)),
        qtype=qtype, qtype_onehot=onehot, where_words=where_words,
        content_stems=tuple(porter_stem(tokens[i]) for i in where_words),
    )


def column_types(question: ParsedQuestion, table: Table,
                 coltype_model: MlpModel) -> np.ndarray:
    """(n_columns, 7) column-type distributions of ``table``; EmptyQuestion
    first for a question without tokens, which has no type to featurize."""
    if question.qtype is None:
        raise EmptyQuestion("cannot classify an empty question")
    return column_type_distributions(table, coltype_model)


def where_candidates(table: Table, question: ParsedQuestion) -> list[tuple[int, int]]:
    """(column, question-token index) pairs the WHERE classifier scores."""
    return [(c, w) for c in range(table.n_columns) for w in question.where_words]


# ---------------------------------------------------------------------------
# Featurizers: one matrix per (question, table), filled block by block
# ---------------------------------------------------------------------------

def _proximity_block(column_tokens: tuple[str, ...], q_all: list[int],
                     q_content: list[int], store: EmbeddingStore) -> list[float]:
    """avg, avg-sans-stopwords, max, max-sans-stopwords of token cosines;
    ``q_all``/``q_content`` are the question's rows with and without stop
    words.

    Out-of-vocabulary tokens are dropped before the pair loop, and each
    token is looked up once; they have no cosine, so the remaining pairs
    give the same floats in the same (column token, question token) order.
    """
    c_all = store.known_rows(column_tokens)
    c_content = store.known_rows(t for t in column_tokens if t not in STOPWORDS)
    out = [0.0] * 4
    for slot, c_rows, q_rows in ((0, c_all, q_all), (1, c_content, q_content)):
        sims = [
            s for i in c_rows for j in q_rows
            if (s := cosine(store, i, j)) is not None
        ]
        if sims:
            out[slot] = float(np.mean(sims))
            out[slot + 2] = float(np.max(sims))
    return out


def _header_distances(header_stems: tuple[str, ...], patterns) -> list[float]:
    """The lowest and second-lowest edit distance between a header stem and
    a compiled content stem of the question (both the lowest for a single
    pair, zeros for none)."""
    distances = sorted(pattern_distance(p, h) for h in header_stems for p in patterns)
    if not distances:
        return [0.0, 0.0]
    return [float(distances[0]), float(distances[min(1, len(distances) - 1)])]


def featurize_select(table: Table, question: ParsedQuestion,
                     coltypes: np.ndarray, store: EmbeddingStore) -> np.ndarray:
    """(n_columns, 25): per column, n_columns | proximity(4) | column type(7) |
    question type(11) | header edit distance(2)."""
    out = np.empty((table.n_columns, SELECT_FEATURE_DIM))
    out[:, 0] = float(table.n_columns)
    out[:, 5:12] = coltypes
    out[:, 12:23] = question.qtype_onehot
    q_all = store.known_rows(question.tokens)
    q_content = store.known_rows(question.tokens[w] for w in question.where_words)
    patterns = [compile_pattern(stem) for stem in question.content_stems]
    for c, column_tokens in enumerate(table.column_tokens):
        out[c, 1:5] = _proximity_block(column_tokens, q_all, q_content, store)
        out[c, 23:25] = _header_distances(table.header_stems[c], patterns)
    return out


def _nearest_token_distance(word: str, pattern,
                            vocab: dict[int, list[str]]) -> float:
    """Least normalized edit distance from ``word`` (compiled as
    ``pattern``) to a token of the column vocabulary ``vocab`` (1.0 for a
    column without tokens).

    The column's distinct tokens are visited nearest length first. A
    token is skipped when its length gap over the longer length, a lower
    bound on its distance, already reaches the best distance found.
    """
    n = len(word)
    if word in vocab.get(n, ()):
        return 0.0
    best = 1.0
    for length in sorted(vocab, key=lambda m: abs(m - n)):
        longest = max(length, n)
        bound = abs(length - n) / longest
        for token in vocab[length]:
            if bound >= best:
                break
            best = min(best, pattern_distance(pattern, token) / longest)
    return best


def featurize_where(table: Table, candidates: list[tuple[int, int]],
                    select_columns: set[int], question: ParsedQuestion,
                    coltypes: np.ndarray) -> np.ndarray:
    """(len(candidates), 77): per (column, question-token index) candidate,
    min norm edit distance | avg cell length | row count | in-SELECT flag |
    column type(7) | question type(11) | POS(12) | NER(6) | dependency(37).

    ``select_columns`` is the gold SELECT set during training and the
    predicted set at inference, per the error-isolation contract.
    """
    out = np.zeros((len(candidates), WHERE_FEATURE_DIM))
    if not candidates:
        return out
    columns = [c for c, _ in candidates]
    words = [w for _, w in candidates]
    tokens = [question.tokens[w] for w in words]
    patterns = {token: compile_pattern(token) for token in dict.fromkeys(tokens)}
    nearest: dict[tuple[int, str], float] = {}
    for c, token in zip(columns, tokens):
        if (c, token) not in nearest:
            nearest[c, token] = _nearest_token_distance(token, patterns[token],
                                                        table.column_vocab[c])
    out[:, 0] = [nearest[key] for key in zip(columns, tokens)]
    out[:, 1] = [table.mean_cell_length[c] for c in columns]
    out[:, 2] = float(table.n_rows)
    out[:, 3] = [c in select_columns for c in columns]
    out[:, 4:11] = coltypes[columns]
    out[:, 11:22] = question.qtype_onehot
    rows = np.arange(len(candidates))
    for offset, inventory, attr in ((22, POS_TAGS, "pos"), (34, NER_TAGS, "ner"),
                                    (40, DEP_TAGS, "dep")):
        out[rows, [offset + inventory.index(getattr(question.tags[w], attr))
                   for w in words]] = 1.0
    return out


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict_select(table: Table, model: MlpModel, question: ParsedQuestion,
                   coltypes: np.ndarray, store: EmbeddingStore) -> set[int]:
    """Columns classified into the projection; never empty.

    When no column goes positive, the single column with the highest
    positive-class probability is used (a query needs a projection).
    """
    if model is None:
        raise UntrainedModel("no SELECT model supplied")
    probs = predict_batch(model, featurize_select(table, question, coltypes, store))
    positive = {c for c in range(table.n_columns) if probs[c].argmax() == 1}
    if positive:
        return positive
    return {int(probs[:, 1].argmax())}


def predict_where(table: Table, model: MlpModel, question: ParsedQuestion,
                  coltypes: np.ndarray, select_pred: set[int]) -> set[tuple[int, str]]:
    """(column index, keyword) pairs classified into the WHERE clause.

    The empty set is legal: single-row tables usually need no filter.
    Keywords are the surface forms of non-stopword question tokens.
    """
    if model is None:
        raise UntrainedModel("no WHERE model supplied")
    candidates = where_candidates(table, question)
    if not candidates:
        return set()
    probs = predict_batch(model, featurize_where(table, candidates, select_pred,
                                                 question, coltypes))
    return {
        (c, question.tokens[w])
        for (c, w), p in zip(candidates, probs)
        if p.argmax() == 1
    }
