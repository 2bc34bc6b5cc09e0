"""Seeded synthetic corpus for the large-corpus benchmark workload.

Writes every input the program receives:

    tables/            one CSV per table: entity-instance grids and
                       key-value cards (some with several value columns)
    table_kinds.txt    table_id <TAB> entity-instance | key-value
    column_labels.txt  post-ingest column types for the first labelled tables
    manifest.txt       templated questions with gold queries and cells, in
                       the order the benchmark asks them
    corpus.vec         a 32-dim embedding for every word token in the corpus

The tables, embeddings and question set come from one fixed stream
(``CORPUS_SEED``); the workload seed only orders the manifest. A corpus
redrawn per seed moved retrieval P@1 from 0.21 to 0.30 between two
seeds, more than any regression bound could absorb, so the seed varies
the order in which the program is asked, not what it is asked.

Uses the standard library only and draws every value from
``random.Random`` integer draws, so the same seed gives byte-identical
files on any platform. It never imports the program: gold cells follow
from how the tables are built, and the ``~`` operator's embedding stage is
kept from firing on non-gold rows by checking cosines here with a margin
below the program's default threshold.

    python3 -c "import corpus; corpus.generate(1, 'out')"   # from bench/
"""

from __future__ import annotations

import csv
import math
import random
from itertools import accumulate
from pathlib import Path

CORPUS_SEED = 20190318
N_TABLES = 5800            # 100x the 58-table fixture corpus
DIM = 32
VOCAB_WORDS = 22000        # pool for entity names and free text
ATTRIBUTE_WORDS = 400      # pool for headers and key-value keys
LABELLED_TABLES = 60       # column labels cover the first tables only
# The ~ operator matches at cosine distance <= 0.45 (similarity >= 0.55);
# keyword tokens keep similarity below this to every other row's key tokens.
MAX_KEY_COSINE = 0.5

SPLITS = (("train", 40), ("test", 12), ("dev", 168))

_CONSONANTS = "bdgklmnprstvz"
_VOWELS = "aeiou"
_MONTHS = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")
_WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
             "Saturday", "Sunday")
_TEMPLATE_WORDS = ("what", "is", "the", "of", "when", "was", "how", "many",
                   "does", "have", "much", "who", "yes", "no", "true", "false",
                   "usd", "http", "www", "com")

# value kind -> post-ingest column type label
_KIND_LABEL = {
    "text": "Text", "count": "Numerical", "year": "DateTime",
    "date": "DateTime", "weekday": "DateTime", "money": "Currency",
    "percent": "Percentage", "bool": "Boolean", "url": "URL",
}
_VALUE_KINDS = ("text", "text", "text", "count", "count", "year", "date",
                "weekday", "money", "percent", "bool", "url")


def _words(rng: random.Random, n: int, syllables: int, taken: set) -> list[str]:
    """n distinct consonant-vowel pseudo-words, none already in taken."""
    out = []
    while len(out) < n:
        w = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                    for _ in range(syllables))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


class _Builder:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        taken: set[str] = set()
        self.vocab = _words(self.rng, VOCAB_WORDS, 3, taken)
        self.attributes = _words(self.rng, ATTRIBUTE_WORDS, 3, taken)
        # Zipf-like weights so free text shares common words across tables
        self.text_cum = list(accumulate(1.0 / (i + 1) for i in range(len(self.vocab))))
        self.seed = seed
        self.vectors: dict[str, tuple[int, ...]] = {}

    # -- values -----------------------------------------------------------

    def vector(self, word: str) -> tuple[int, ...]:
        # drawn from (seed, word) alone, so the order of lookups does not matter
        vec = self.vectors.get(word)
        if vec is None:
            r = random.Random(f"{self.seed}:{word}")
            vec = tuple(r.randint(-1000, 1000) for _ in range(DIM))
            self.vectors[word] = vec
        return vec

    def text_word(self) -> str:
        return self.rng.choices(self.vocab, cum_weights=self.text_cum)[0]

    def entity(self) -> str:
        n = 1 if self.rng.random() < 0.6 else 2
        return " ".join(self.rng.choice(self.vocab).capitalize() for _ in range(n))

    def value(self, kind: str) -> str:
        r = self.rng
        if kind == "text":
            return " ".join(self.text_word() for _ in range(r.randint(1, 2))).capitalize()
        if kind == "count":
            return f"{r.randint(1, 9_999_999):,}" if r.random() < 0.5 else str(r.randint(0, 999))
        if kind == "year":
            return str(r.randint(1500, 2020))
        if kind == "date":
            return f"{r.choice(_MONTHS)} {r.randint(1, 28)}, {r.randint(1800, 2020)}"
        if kind == "weekday":
            return r.choice(_WEEKDAYS)
        if kind == "money":
            if r.random() < 0.7:
                return f"${r.randint(1, 99_999):,}.{r.randint(0, 99):02d}"
            return f"{r.randint(1, 9999)} USD"
        if kind == "percent":
            return f"{r.randint(0, 100)}.{r.randint(0, 9)}%"
        if kind == "bool":
            return r.choice(("yes", "no", "true", "false"))
        return f"http://www.{self.text_word()}.com/{self.rng.choice(self.vocab)}"

    # -- tables -----------------------------------------------------------

    def entity_instance(self):
        r = self.rng
        n_cols = r.randint(2, 4)
        headers = r.sample(self.attributes, n_cols)
        kinds = ["key"] + [r.choice(_VALUE_KINDS) for _ in range(n_cols - 1)]
        n_rows = r.randint(2, 8)
        keys = []
        while len(keys) < n_rows:
            name = self.entity()
            if name not in keys:
                keys.append(name)
        rows = [[key] + [self.value(k) for k in kinds[1:]] for key in keys]
        labels = ["Text"] + [_KIND_LABEL[k] for k in kinds[1:]]
        return headers, rows, labels, kinds

    def key_value(self):
        r = self.rng
        n_keys = r.randint(2, 6)
        n_values = 1 if r.random() < 0.85 else r.randint(2, 3)
        keys = r.sample(self.attributes, n_keys)
        kinds = [r.choice(_VALUE_KINDS) for _ in keys]
        headers = [r.choice(("Property", "Key"))] + (
            ["Value"] if n_values == 1 else [f"Value {i + 1}" for i in range(n_values)]
        )
        rows = [[key] + [self.value(kind) for _ in range(n_values)]
                for key, kind in zip(keys, kinds)]
        labels = [_KIND_LABEL[k] for k in kinds]
        return headers, rows, labels, keys, kinds

    # -- questions --------------------------------------------------------

    def _cosine(self, a: str, b: str) -> float:
        va, vb = self.vector(a), self.vector(b)
        dot = sum(x * y for x, y in zip(va, vb))
        return dot / math.sqrt(sum(x * x for x in va) * sum(y * y for y in vb))

    def keyword_for(self, keys: list[str], row: int) -> str | None:
        """A token of keys[row] that the ~ operator matches in that row only."""
        others = [k.lower() for i, k in enumerate(keys) if i != row]
        other_tokens = {t for k in others for t in k.split()}
        for token in keys[row].lower().split():
            if any(token in other for other in others):
                continue
            if all(self._cosine(token, t) < MAX_KEY_COSINE for t in other_tokens):
                return token
        return None


def _question(kind: str, header: str, subject: str) -> str:
    if kind in ("year", "date", "weekday"):
        return f"When was the {header} of {subject}?"
    if kind == "count":
        return f"How many {header} does {subject} have?"
    if kind == "money":
        return f"How much is the {header} of {subject}?"
    return f"What is the {header} of {subject}?"


def _tokens(text: str) -> list[str]:
    word = []
    out = []
    for ch in text.lower() + " ":
        if ch.isascii() and ch.isalnum():
            word.append(ch)
        elif word:
            out.append("".join(word))
            word = []
    return out


def generate(seed: int, out_dir) -> dict:
    """Write the corpus, its manifest in ``seed`` order, under ``out_dir``."""
    out = Path(out_dir)
    tables_dir = out / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    b = _Builder(CORPUS_SEED)
    rng = b.rng

    table_ids: list[str] = []
    seen_ids: set[str] = set()
    while len(table_ids) < N_TABLES:
        tid = f"{rng.choice(b.vocab)}-{rng.choice(b.vocab)}"
        if tid not in seen_ids:
            seen_ids.add(tid)
            table_ids.append(tid)

    kinds_lines = []
    label_lines = []
    candidates = []   # (table_id, question, gold query, cells)
    words: set[str] = set(_TEMPLATE_WORDS)
    for i, tid in enumerate(table_ids):
        if rng.random() < 0.5:
            headers, rows, labels, kinds = b.entity_instance()
            kind = "entity-instance"
            row = rng.randrange(len(rows))
            col = rng.randrange(1, len(headers))
            keyword = b.keyword_for([r[0] for r in rows], row)
            if keyword is not None:
                query = (f'SELECT "{headers[col]}" FROM "{tid}" '
                         f'WHERE "{headers[0]}" ~ \'{keyword}\'')
                question = _question(kinds[col], headers[col], rows[row][0])
                candidates.append((tid, question, query, [(row, col)]))
        else:
            headers, rows, labels, keys, kinds = b.key_value()
            kind = "key-value"
            col = rng.randrange(len(keys))
            subject = " ".join(w.capitalize() for w in tid.split("-"))
            query = f'SELECT "{keys[col]}" FROM "{tid}"'
            question = _question(kinds[col], keys[col], subject)
            # transposed: one row per value column, keys become headers
            cells = [(r, col) for r in range(len(headers) - 1)]
            candidates.append((tid, question, query, cells))
        with open(tables_dir / f"{tid}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(headers)
            writer.writerows(rows)
        kinds_lines.append(f"{tid}\t{kind}\n")
        if i < LABELLED_TABLES:
            label_lines.extend(f"{tid}\t{c}\t{label}\n" for c, label in enumerate(labels))
        for cell in [tid] + headers + [c for r in rows for c in r]:
            words.update(t for t in _tokens(cell) if not t.isdigit())

    n_questions = sum(n for _, n in SPLITS)
    picked = sorted(rng.sample(range(len(candidates)), n_questions))
    rng.shuffle(picked)
    manifest = []
    pos = 0
    for split, count in SPLITS:
        for _ in range(count):
            tid, question, query, cells = candidates[picked[pos]]
            pos += 1
            cells_s = ",".join(f"{r}:{c}" for r, c in cells)
            manifest.append(f"s{pos:04d}\t{split}\t{tid}\t-\t{cells_s}\t"
                            f"{question}\t{query}\n")
            words.update(_tokens(question))

    with open(out / "table_kinds.txt", "w", encoding="utf-8") as fh:
        fh.writelines(kinds_lines)
    with open(out / "column_labels.txt", "w", encoding="utf-8") as fh:
        fh.writelines(label_lines)
    random.Random(seed).shuffle(manifest)
    with open(out / "manifest.txt", "w", encoding="utf-8") as fh:
        fh.write("# qid <TAB> split <TAB> table_id <TAB> alternates(,|-) "
                 "<TAB> cells(r:c,...) <TAB> question <TAB> gold query\n")
        fh.writelines(manifest)
    with open(out / "corpus.vec", "w", encoding="utf-8") as fh:
        for word in sorted(words):
            fh.write(word + " " + " ".join(f"{v / 1000:.3f}" for v in b.vector(word)) + "\n")
    return {"tables": N_TABLES, "questions": n_questions, "labels": len(label_lines),
            "embedded_words": len(words)}

