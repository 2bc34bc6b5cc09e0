"""The structured-query mini-grammar and its executor.

Parses and runs gold queries against fixture tables, including the ~
embedding-match operator, conjunctions, ORDER BY / LIMIT, and the two row
selection algorithms that map predicted WHERE pairs to rows.

Run from the repository root:  python3 demos/04_structured_queries.py
"""

from tableqa.embed import load_embeddings
from tableqa.errors import UnsupportedConstruct
from tableqa.harness import ingest_corpus, load_corpus, load_table_kinds
from tableqa.query import (
    execute,
    parse_query,
    print_query,
    select_rows_embedding,
    select_rows_word_match,
)

tables = ingest_corpus(load_corpus("fixtures/tables"),
                       kinds=load_table_kinds("fixtures/table_types.txt"))
store = load_embeddings("fixtures/pipeline.vec")


def show(text, table_id):
    table = tables[table_id]
    q = parse_query(text)
    cells = execute(q, table, store)
    print(f"\n  {print_query(q)}")
    for r, c in sorted(cells):
        print(f"    ({r},{c}) [{table.headers[c]}] = {table.rows[r][c]}")


print("queries against the fixture corpus:")
show("SELECT \"Capital\" FROM \"state-capitals\" WHERE \"State\" ~ 'louisiana'",
     "state-capitals")
show('SELECT "born" FROM "donald-trump"', "donald-trump")
show("SELECT \"Date\" FROM \"ufc-fights\" WHERE \"Fighter\" ~ 'lesnar' "
     "ORDER BY \"Date\" DESC LIMIT 1", "ufc-fights")

# Deliberately unsupported constructs fail loudly rather than miscompute.
try:
    parse_query("SELECT \"Date\" FROM \"t\" WHERE (\"A\" ~ 'x') OR (\"B\" ~ 'y')")
except UnsupportedConstruct as exc:
    print(f"\nrejected as designed: {exc}")

# Row selection from predicted (column, keyword) pairs.
capitals = tables["state-capitals"]
pairs = {(0, "louisiana")}
print(f"\nword-match rows for {pairs}: "
      f"{sorted(select_rows_word_match(capitals, pairs))}")
print(f"embedding rows for an out-of-vocabulary keyword fall back to all: "
      f"{sorted(select_rows_embedding(capitals, pairs, store))}")
