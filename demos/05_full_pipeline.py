"""End to end: train every model, answer a question, sweep the grid.

Trains the column-type, SELECT and WHERE classifiers on the manifest's
train split, answers the flagship question under the golden-table scope,
then evaluates every (table-selection scope x row-selection mode)
combination, reproducing the expected orderings: a wider retrieval scope
never helps, and word-match row selection beats the embedding variant.

Run from the repository root:  python3 demos/05_full_pipeline.py
"""

from tableqa.embed import load_embeddings
from tableqa.harness import (
    ModelBundle,
    RowMode,
    Scope,
    Split,
    cell_prf,
    ingest_corpus,
    load_corpus,
    load_manifest,
    load_table_kinds,
    run_pipeline,
    sweep_pipeline,
    train_select_model,
    train_where_model,
)
from tableqa.nn import TrainConfig
from tableqa.query import print_query
from tableqa.retrieval import build_index
from tableqa.typerec import (
    extract_column_type_features,
    load_column_labels,
    train_column_type_model,
)

tables = ingest_corpus(load_corpus("fixtures/tables"),
                       kinds=load_table_kinds("fixtures/table_types.txt"))
store = load_embeddings("fixtures/pipeline.vec")
manifest = load_manifest("fixtures/manifest.txt", tables, store)
train_entries = [e for e in manifest if e.split is Split.TRAIN]
print(f"{len(tables)} tables, {len(manifest)} questions "
      f"({len(train_entries)} train)")

print("\ntraining column-type, SELECT, and WHERE models...")
labels = load_column_labels("fixtures/column_labels.txt")
bundle = ModelBundle()
bundle.coltype_model = train_column_type_model(
    [(extract_column_type_features(tables[t].column(i)), c)
     for t, i, c in labels],
    TrainConfig(epochs=300, seed=11),
)
bundle.select_model = train_select_model(train_entries, tables, store, bundle,
                                         TrainConfig(epochs=300, seed=21))
bundle.where_model = train_where_model(train_entries, tables, store, bundle,
                                       TrainConfig(epochs=300, seed=22))

entry = next(e for e in manifest if "husband" in e.question)
result = run_pipeline(entry.question, tables, None, bundle, store,
                      golden_table=tables[entry.table_id])
table = tables[result.table_id]
print(f"\nQ: {entry.question}")
print(f"  constructed: {print_query(result.query)}")
for r, c in sorted(result.cells):
    print(f"  answer cell ({r},{c}): {table.rows[r][c]}")
_, _, f1 = cell_prf(set(result.cells), set(entry.gold_cells))
print(f"  cell F1 vs gold: {f1:.2f}")

print("\nscope x row-mode sweep (macro precision / recall / F1):")
# the all-tables scope ranks against an index over every table
index = build_index(list(tables.values()))
grid = sweep_pipeline(manifest, tables, index, bundle, store)
for scope in Scope:
    for mode in RowMode:
        p, r, f = grid[(scope, mode)].macro
        print(f"  {scope.value:11s} {mode.value:10s} "
              f"P={p:.3f} R={r:.3f} F1={f:.3f}")
print("\nexpected orderings: golden >= individual >= all, "
      "and wordmatch >= embedding per scope")
