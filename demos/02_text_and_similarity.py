"""Text normalization and the ~ operator's three matching stages.

Shows the tokenizer (lowercase, alphanumeric split, stop words, Porter
stems), edit distance from a compiled word, and how a cell matches a
keyword by equality, substring, or embedding distance.

Run from the repository root:  python3 demos/02_text_and_similarity.py
"""

from tableqa.embed import SIM_MATCH_THRESHOLD, cosine, load_embeddings, sim_match
from tableqa.textproc import compile_pattern, pattern_distance, tokenize

question = "Who is the husband of Whoopi Goldberg?"
kept = tokenize(question)
dropped = tokenize(question, drop_stopwords=True)
print(f"question: {question}")
print(f"  tokens:             {list(kept.tokens)}")
print(f"  without stop words: {list(dropped.tokens)}")
print(f"  stems:              {list(dropped.stems)}")

height_cell = "6' 3''"
print(f'\nheight cell "{height_cell}" tokenizes to {list(tokenize(height_cell).tokens)}')

# A word is compiled once and then measured against many texts, as the
# WHERE featurizer does with each question word against a column's tokens.
kitten = compile_pattern("kitten")
print()
for text in ("sitting", "mitten", "kitten", ""):
    print(f"edit distance('kitten', {text!r}) = {pattern_distance(kitten, text)}")
print(f"normalized by the longer length, ('cat', 'cats') -> "
      f"{pattern_distance(compile_pattern('cat'), 'cats') / len('cats')}")

# The toy embedding places spouse/husband close together and president,
# capital orthogonal to them.
store = load_embeddings("fixtures/toy.vec")
row = store.rows
print(f"\ntoy embedding: dim={store.dim}, vocabulary={len(store)}")
print(f"cosine(spouse, husband)    = {cosine(store, row['spouse'], row['husband']):.4f}")
print(f"cosine(president, capital) = {cosine(store, row['president'], row['capital']):.4f}")

print(f"\n~ operator stages (embedding: cosine distance <= {SIM_MATCH_THRESHOLD}):")
print(f"  equality:  'Washington' ~ 'Washington' -> "
      f"{sim_match(store, 'Washington', 'Washington')}")
print(f"  substring: 'UFC 200' ~ 'UFC'           -> "
      f"{sim_match(store, 'UFC 200', 'UFC')}")
print(f"  embedding: 'spouse' ~ 'husband'        -> "
      f"{sim_match(store, 'spouse', 'husband')}")
print(f"  no match:  'capital' ~ 'husband'       -> "
      f"{sim_match(store, 'capital', 'husband')}")
