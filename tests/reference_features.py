"""The SELECT and WHERE feature bodies as they were before the table token
views and the stacked proximity product: they tokenize the question and
every cell on each call, and ``reference_proximity_block`` takes one
``cosine`` per (column token, question token) pair. The featurizers in
``src/`` must give the same bytes.
"""

from __future__ import annotations

import numpy as np

from tableqa.clauses import DEP_TAGS, NER_TAGS, POS_TAGS
from tableqa.embed import cosine
from tableqa.textproc import compile_pattern, pattern_distance, tokenize
from tableqa.typerec import (
    ColumnType,
    classify_column_type,
    classify_question,
    extract_column_type_features,
)


def reference_column_type_distributions(table, model):
    out = np.zeros((table.n_columns, len(ColumnType)))
    for c in range(table.n_columns):
        _, out[c] = classify_column_type(
            extract_column_type_features(table.column(c)), model
        )
    return out


def reference_proximity_block(question, column_text, store):
    out = np.zeros(4)
    for slot, drop in ((0, False), (2, True)):
        q_tokens = tokenize(question, drop_stopwords=drop).tokens
        c_tokens = tokenize(column_text, drop_stopwords=drop).tokens
        sims = [
            s for ct in c_tokens for qt in q_tokens
            if (i := store.rows.get(ct)) is not None
            and (j := store.rows.get(qt)) is not None
            and (s := cosine(store, i, j)) is not None
        ]
        if sims:
            out[slot] = float(np.mean(sims))
            out[slot + 1] = float(np.max(sims))
    return np.array([out[0], out[2], out[1], out[3]])


def reference_header_distance_block(question, header):
    h_stems = tokenize(header, drop_stopwords=True).stems
    q_stems = tokenize(question, drop_stopwords=True).stems
    distances = sorted(
        pattern_distance(compile_pattern(q), h) for h in h_stems for q in q_stems
    )
    if not distances:
        return np.zeros(2)
    lowest = distances[0]
    second = distances[1] if len(distances) > 1 else lowest
    return np.array([float(lowest), float(second)])


def normalized_distance(a, b):
    """Edit distance over the longer length, for two strings not both empty."""
    return pattern_distance(compile_pattern(a), b) / max(len(a), len(b))


def reference_min_word_column_distance(word, table, column_index):
    best = 1.0
    for cell in table.column(column_index):
        for token in tokenize(cell).tokens:
            best = min(best, normalized_distance(word, token))
            if best == 0.0:
                return 0.0
    return best


def reference_select(question, table, c, coltype, store):
    _, qtype = classify_question(tokenize(question).tokens)
    return np.concatenate([
        np.array([float(table.n_columns)]),
        reference_proximity_block(question, " ".join(table.column(c)), store),
        coltype[c],
        qtype,
        reference_header_distance_block(question, table.headers[c]),
    ])


def reference_where(question, table, c, w, select_columns, coltype, tags):
    _, qtype = classify_question(tokenize(question).tokens)
    word = tokenize(question).tokens[w]
    non_empty = [cell for cell in table.column(c) if cell.strip()]
    avg_len = float(np.mean([len(cell) for cell in non_empty])) if non_empty else 0.0

    def onehot(tag, inventory):
        return np.eye(len(inventory))[inventory.index(tag)]

    return np.concatenate([
        np.array([
            reference_min_word_column_distance(word, table, c),
            avg_len,
            float(table.n_rows),
            1.0 if c in select_columns else 0.0,
        ]),
        coltype[c],
        qtype,
        onehot(tags[w].pos, POS_TAGS),
        onehot(tags[w].ner, NER_TAGS),
        onehot(tags[w].dep, DEP_TAGS),
    ])
