"""tableqa: question answering over web-extracted tables.

A natural-language question is translated into a structured query
(SELECT / FROM / WHERE with a word-embedding proximity operator) by a
staged pipeline of feature-engineered classifiers, executed against an
in-memory table, and scored with retrieval and answer-cell metrics.

Sub-modules, in pipeline order:

- ``tabular``: table data model, file ingestion, table-kind recognition,
  key-value to entity-instance transposition.
- ``textproc``: tokenizer, stop list, Porter stemmer, edit distance from a
  compiled word.
- ``embed``: word-embedding store, its saved binary form, cosine
  proximity and the ~ operator.
- ``retrieval``: TF-IDF source selection, the saved index's file format,
  and precision-at-k.
- ``nn``: seed-deterministic MLP core (batch norm, softmax, SGD) and
  text-format model files.
- ``typerec``: column data-type recognition and the question-type rules.
- ``clauses``: SELECT and WHERE featurization and binary classifiers.
- ``query``: structured-query AST, parser, printer, executor, and the
  two row-selection algorithms.
- ``harness``: manifest loading, training orchestration, evaluation
  metrics, and the end-to-end pipeline sweep.
- ``cli``: the ``tableqa`` command-line shell.

The package itself exports the names README's library example and the
benchmark import; the rest is imported from its module.
"""

from .embed import SimMatchConfig, load_embeddings
from .harness import (
    ModelBundle,
    ingest_corpus,
    load_corpus,
    load_manifest,
    load_table_kinds,
    run_pipeline,
)
from .query import execute, parse_query
from .tabular import Table

__version__ = "0.1.0"

__all__ = [
    "ModelBundle",
    "SimMatchConfig",
    "Table",
    "execute",
    "ingest_corpus",
    "load_corpus",
    "load_embeddings",
    "load_manifest",
    "load_table_kinds",
    "parse_query",
    "run_pipeline",
    "__version__",
]
