"""Finding the answer-bearing table with TF-IDF vector similarity.

Builds the index over the ingested fixture corpus, ranks tables for a
few questions under the three similarity measures, and reports P@k over
the whole manifest.

Run from the repository root:  python3 demos/03_source_selection.py
"""

from tableqa.embed import load_embeddings
from tableqa.harness import (
    evaluate_retrieval,
    ingest_corpus,
    load_corpus,
    load_manifest,
    load_table_kinds,
)
from tableqa.retrieval import Similarity, build_index, score

tables = ingest_corpus(load_corpus("fixtures/tables"),
                       kinds=load_table_kinds("fixtures/table_types.txt"))
store = load_embeddings("fixtures/pipeline.vec")
manifest = load_manifest("fixtures/manifest.txt", tables, store)
index = build_index(list(tables.values()))
print(f"indexed {len(tables)} tables, vocabulary of {len(index.idf)} stems")

for question in ["What is the capital of Louisiana?",
                 "Who is the husband of Whoopi Goldberg?",
                 "How many moons does Jupiter have?"]:
    ranked = score(index, question, Similarity.COSINE, k=3)
    top = ", ".join(f"{tid} ({s:.3f})" for tid, s in ranked)
    print(f"\n  {question}\n    cosine top-3: {top}")

print("\nP@k over the manifest (adjusted counts manifest-declared alternates):")
report = evaluate_retrieval(manifest, index)
for sim in Similarity:
    p = report[sim]["p_at_k"]
    adj = report[sim]["adjusted_p_at_k"]
    line = "  ".join(f"P@{k}={v:.3f}" for k, v in sorted(p.items()))
    print(f"  {sim.value:13s} {line}   adjusted P@1={adj[1]:.3f}")
