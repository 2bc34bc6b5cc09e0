import io
import itertools
import math
import random
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableqa.errors import BadIndex, NoIndexedWord, NoTables
from tableqa.harness import TableDir, load_corpus
from tableqa.retrieval import (
    Similarity,
    TfIdfIndex,
    build_index,
    index_bytes,
    load_index,
    precision_at_k,
    question_vector,
    save_index,
    score,
    table_stems,
)
from tableqa.tabular import Table, TableKind, transpose_key_value
from tableqa.textproc import tokenize


def make_table(tid, words):
    return Table(id=tid, name=tid, headers=["col"], rows=[[w] for w in words])


def weight_of(index, tid, stem):
    """The index's weight for ``stem`` in table ``tid``; None when the
    stem is absent from that table."""
    j = index.columns[stem]
    lo, hi = index.indptr[j], index.indptr[j + 1]
    row = index.table_ids.index(tid)
    hits = np.flatnonzero(index.rows[lo:hi] == row)
    return float(index.weights[lo + hits[0]]) if hits.size else None


def disjoint_corpus(n=10, words_per_table=4):
    # per-table vocabulary shares no stems across tables
    tables = []
    for i in range(n):
        words = [f"zuzu{i}x{j}" for j in range(words_per_table)]
        tables.append(make_table(f"t{i:02d}", words))
    return tables


class TestBuildIndex:
    def test_single_table_all_weights_zero(self):
        index = build_index([make_table("only", ["apple", "banana"])])
        # with one table every posting is that table's
        assert all(w == 0.0 for w in index.weights)

    def test_stem_in_all_tables_has_zero_idf(self):
        tables = [make_table(f"t{i}", ["shared", f"own{i}"]) for i in range(4)]
        index = build_index(tables)
        assert index.idf["share"] == pytest.approx(0.0)

    def test_stem_in_one_of_four_tables(self):
        tables = [make_table(f"t{i}", ["shared"] if i else ["shared", "unique"])
                  for i in range(4)]
        index = build_index(tables)
        assert index.idf["uniqu"] == pytest.approx(math.log(4))

    def test_no_tables_rejected(self):
        with pytest.raises(NoTables):
            build_index([])

    def test_headers_and_name_in_bag(self):
        t = Table(id="prices", name="prices", headers=["Lowest Price"],
                  rows=[["$3"]])
        index = build_index([t, make_table("other", ["banana"])])
        assert weight_of(index, "prices", "price") is not None

    def test_term_frequency_counts(self):
        t = make_table("rep", ["apple", "apple", "apple"])
        index = build_index([t, make_table("other", ["pear"])])
        assert weight_of(index, "rep", "appl") == pytest.approx(3 * math.log(2))


class TestScore:
    def test_identical_vector_gives_inv_euclidean_one(self):
        tables = disjoint_corpus(3)
        index = build_index(tables)
        # same token bag as the table itself: name, headers, cells
        question = " ".join([tables[1].name] + tables[1].headers
                            + [c[0] for c in tables[1].rows])
        ranked = score(index, question, Similarity.INV_EUCLIDEAN)
        assert ranked[0][0] == "t01"
        assert ranked[0][1] == pytest.approx(1.0)

    def test_no_shared_stems_gives_zero_cosine(self):
        index = build_index(disjoint_corpus(3))
        ranked = score(index, "completely unrelated zuzu0x0", Similarity.COSINE)
        assert ranked[0][0] == "t00"
        assert all(s == 0.0 for _, s in ranked[1:])

    def test_gold_first_under_all_similarities(self):
        tables = disjoint_corpus(3)
        index = build_index(tables)
        for sim in Similarity:
            for i, table in enumerate(tables):
                question = f"what about {table.rows[0][0]} and {table.rows[1][0]}"
                assert score(index, question, sim)[0][0] == f"t{i:02d}", sim

    def test_deterministic_tie_break_by_table_id(self):
        # t00 scores above the three tables tied at zero
        index = build_index(disjoint_corpus(4))
        ranked = score(index, "nothing shared but zuzu0x0", Similarity.COSINE)
        assert [tid for tid, _ in ranked] == ["t00", "t01", "t02", "t03"]

    def test_cosine_invariant_to_question_scaling_dot_is_not(self):
        tables = disjoint_corpus(3)
        index = build_index(tables)
        once = "zuzu1x0"
        thrice = "zuzu1x0 zuzu1x0 zuzu1x0"
        cos_once = dict(score(index, once, Similarity.COSINE))["t01"]
        cos_thrice = dict(score(index, thrice, Similarity.COSINE))["t01"]
        assert cos_once == pytest.approx(cos_thrice)
        dot_once = dict(score(index, once, Similarity.DOT))["t01"]
        dot_thrice = dict(score(index, thrice, Similarity.DOT))["t01"]
        assert dot_thrice == pytest.approx(3 * dot_once)
        assert dot_thrice > dot_once

    def test_inv_euclidean_in_unit_interval(self):
        tables = disjoint_corpus(5)
        index = build_index(tables)
        for q in ["zuzu0x0", "zuzu3x1 zuzu3x2", "nothing but zuzu4x3"]:
            for _, s in score(index, q, Similarity.INV_EUCLIDEAN):
                assert 0.0 < s <= 1.0

    def test_unknown_question_stems_dropped(self):
        index = build_index(disjoint_corpus(2))
        vector = question_vector(index, ("martian", "zuzu1x0"), "martian zuzu1x0")
        assert vector == {"zuzu1x0": index.idf["zuzu1x0"]}


class TestNoIndexedWord:
    """A question with no word the index holds is refused under every
    similarity, with the message retrieve, ask and the sweep print."""

    @pytest.mark.parametrize("sim", list(Similarity))
    @pytest.mark.parametrize("question", ["the of a", "", "martian vocabulary"])
    def test_score_refuses_it(self, corpus_index, sim, question):
        message = f"question has no indexed word to rank tables by: {question!r}"
        with pytest.raises(NoIndexedWord) as exc:
            score(corpus_index, question, sim, k=2)
        assert str(exc.value) == message

    def test_question_vector_refuses_it(self):
        index = build_index(disjoint_corpus(2))
        with pytest.raises(NoIndexedWord, match="rank tables by: 'martian'$"):
            question_vector(index, ("martian", "vocabulari"), "martian")


class TestPrecisionAtK:
    def test_gold_always_first(self):
        rankings = {f"q{i}": [f"t{i}", "x", "y"] for i in range(5)}
        gold = {f"q{i}": f"t{i}" for i in range(5)}
        assert precision_at_k(rankings, gold, 1) == 1.0

    def test_hand_counted_example(self):
        rankings = {
            "q1": ["a", "gold1", "b", "c"],
            "q2": ["a", "b", "c", "gold2"],
        }
        gold = {"q1": "gold1", "q2": "gold2"}
        assert precision_at_k(rankings, gold, 3) == 0.5

    def test_monotone_in_k(self):
        rng = random.Random(17)
        tids = [f"t{i}" for i in range(12)]
        for _ in range(200):
            ranking = rng.sample(tids, len(tids))
            rankings = {"q": ranking}
            gold = {"q": rng.choice(tids)}
            values = [precision_at_k(rankings, gold, k) for k in range(1, 13)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_alternates_count_when_listed(self):
        rankings = {"q": ["alt", "gold"]}
        gold = {"q": "gold"}
        assert precision_at_k(rankings, gold, 1) == 0.0
        assert precision_at_k(rankings, gold, 1, alternates={"q": {"alt"}}) == 1.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            precision_at_k({}, {"q": "t"}, 0)


class TestDisjointCorpusProperty:
    def test_p_at_1_is_one_under_all_similarities(self):
        tables = disjoint_corpus(10)
        index = build_index(tables)
        questions = {f"q{i}": f"tell me about {t.rows[0][0]} {t.rows[2][0]}"
                     for i, t in enumerate(tables)}
        gold = {f"q{i}": t.id for i, t in enumerate(tables)}
        for sim in Similarity:
            rankings = {qid: [tid for tid, _ in score(index, q, sim)]
                        for qid, q in questions.items()}
            assert precision_at_k(rankings, gold, 1) == 1.0, sim


# ---------------------------------------------------------------------------
# Reference: the per-table dict walk that the matrix index replaced
# ---------------------------------------------------------------------------

def _dot(a: dict[str, float], b: dict[str, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    return sum(w * b[s] for s, w in a.items() if s in b)


def _norm(v: dict[str, float]) -> float:
    return math.sqrt(sum(w * w for w in v.values()))


def _similarity(q: dict[str, float], t: dict[str, float], sim: Similarity) -> float:
    if sim is Similarity.DOT:
        return _dot(q, t)
    if sim is Similarity.COSINE:
        nq, nt = _norm(q), _norm(t)
        if nq == 0.0 or nt == 0.0:
            return 0.0
        return _dot(q, t) / (nq * nt)
    support = set(q) | set(t)
    dist = math.sqrt(sum((q.get(s, 0.0) - t.get(s, 0.0)) ** 2 for s in support))
    return 1.0 / (1.0 + dist)


def reference_vectors(tables) -> dict[str, dict[str, float]]:
    term_counts = {t.id: Counter(table_stems(t)) for t in tables}
    df = Counter()
    for counts in term_counts.values():
        df.update(counts.keys())
    idf = {stem: math.log(len(tables) / d) for stem, d in df.items()}
    return {tid: {stem: tf * idf[stem] for stem, tf in counts.items()}
            for tid, counts in term_counts.items()}


def indexes_a_word(index, question) -> bool:
    return any(s in index.idf for s in tokenize(question, drop_stopwords=True).stems)


def reference_score(index, vectors, question, sim):
    q = question_vector(index, tokenize(question, drop_stopwords=True).stems,
                        question)
    scored = [(tid, _similarity(q, vec, sim)) for tid, vec in vectors.items()]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


# Summation order differs from the dict walk, so scores may differ in the
# last bits of a float64; a mathematical tie may then break either way.
TOLERANCE = 1e-12


def assert_matches_reference(index, vectors, question, exact_order):
    if not indexes_a_word(index, question):
        for sim in Similarity:
            with pytest.raises(NoIndexedWord):
                score(index, question, sim)
        return
    for sim in Similarity:
        got = score(index, question, sim)
        want = reference_score(index, vectors, question, sim)
        assert sorted(t for t, _ in got) == sorted(t for t, _ in want)
        got_scores = dict(got)
        for tid, value in want:
            assert got_scores[tid] == pytest.approx(value, rel=TOLERANCE,
                                                    abs=TOLERANCE), (sim, tid)
        if exact_order:
            assert [t for t, _ in got] == [t for t, _ in want], sim
            continue
        position = {tid: i for i, (tid, _) in enumerate(got)}
        for i, (a, a_score) in enumerate(want):
            for b, b_score in want[i + 1:]:
                if a_score - b_score > TOLERANCE:
                    assert position[a] < position[b], (sim, a, b)


_WORDS = ["apple", "apples", "banana", "cherry", "run", "running", "runner",
          "the", "of", "zebra", "t0", "t1"]


@st.composite
def corpora_and_questions(draw):
    word = st.sampled_from(_WORDS)
    tables = [
        Table(id=f"t{i}", name=draw(word), headers=[draw(word)],
              rows=[[w] for w in draw(st.lists(word, max_size=8))])
        for i in range(draw(st.integers(1, 6)))
    ]
    bags = [[t.name, *t.headers, *(row[0] for row in t.rows)] for t in tables]
    words = draw(st.one_of(
        st.lists(st.sampled_from(_WORDS + ["unindexed"]), max_size=8),
        st.sampled_from(bags).flatmap(st.permutations),
    ))
    return tables, " ".join(words)


class TestMatchesDictReference:
    @settings(max_examples=300, deadline=None)
    @given(corpora_and_questions())
    def test_generated_corpora(self, case):
        tables, question = case
        assert_matches_reference(build_index(tables), reference_vectors(tables),
                                 question, exact_order=False)

    def test_fixture_questions(self, corpus, manifest):
        tables = list(corpus.values())
        index, vectors = build_index(tables), reference_vectors(tables)
        assert len(manifest) == 52
        for entry in manifest:
            assert_matches_reference(index, vectors, entry.question,
                                     exact_order=True)


# ---------------------------------------------------------------------------
# Reference: the Counter-per-table index build that the array build replaced
# ---------------------------------------------------------------------------

def reference_build_index(tables: list[Table]) -> TfIdfIndex:
    term_counts = {t.id: Counter(table_stems(t)) for t in tables}
    n = len(tables)
    df = Counter()
    for counts in term_counts.values():
        df.update(counts.keys())
    idf = {stem: math.log(n / d) for stem, d in df.items()}
    columns = {stem: j for j, stem in enumerate(idf)}
    table_ids = tuple(sorted(term_counts))
    rows, cols, weights, sq_norms, n_stems = [], [], [], [], []
    for row, tid in enumerate(table_ids):
        vector = [(columns[stem], tf * idf[stem])
                  for stem, tf in term_counts[tid].items()]
        sq_norms.append(sum(w * w for _, w in vector))
        n_stems.append(len(vector))
        rows.extend([row] * len(vector))
        cols.extend(col for col, _ in vector)
        weights.extend(w for _, w in vector)
    cols = np.asarray(cols, dtype=np.int64)
    by_column = np.argsort(cols, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=len(idf)))))
    return TfIdfIndex(
        table_ids=table_ids, idf=idf, columns=columns, indptr=indptr,
        rows=np.asarray(rows, dtype=np.int64)[by_column],
        weights=np.asarray(weights, dtype=np.float64)[by_column],
        sq_norms=np.asarray(sq_norms, dtype=np.float64),
        n_stems=np.asarray(n_stems, dtype=np.int64),
    )


def assert_index_equals_reference(tables):
    assert_same_index(build_index(tables), reference_build_index(tables))


def assert_same_index(got, want):
    """Equal ids, idf and columns (order included) and arrays (dtype,
    shape and bytes); ``got``'s arrays are read-only."""
    assert got.table_ids == want.table_ids
    for name in ("idf", "columns"):
        assert list(getattr(got, name)) == list(getattr(want, name)), name
        assert (np.array(list(getattr(got, name).values())).tobytes()
                == np.array(list(getattr(want, name).values())).tobytes()), name
    for name in ("indptr", "rows", "weights", "sq_norms", "n_stems"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable, name


# empty and blank cells, stop words alone and among words, repeats within a
# cell, stems shared by several words, digits and a non-ASCII capital
_CELLS = ["apple", "Apples", "apple apple", "run running", "Runner-up", "zebra",
          "the", "of the", "", "  ", "1946", "$3.50", "İllinois", "t0"]


@st.composite
def table_lists(draw):
    cell = st.sampled_from(_CELLS)
    tables = []
    for i in range(draw(st.integers(1, 6))):
        # some ids repeat: the last table under an id is the one indexed
        tid = draw(st.sampled_from([f"t{i}", "t0"]))
        if draw(st.booleans()):
            keys = draw(st.lists(cell, min_size=1, max_size=4, unique=True))
            values = draw(st.lists(st.lists(cell, min_size=1, max_size=2),
                                   min_size=len(keys), max_size=len(keys)))
            width = min(len(v) for v in values)
            kv = Table(id=tid, name=draw(cell), headers=draw(
                           st.lists(cell, min_size=width + 1, max_size=width + 1)),
                       rows=[[k, *v[:width]] for k, v in zip(keys, values)],
                       kind=TableKind.KEY_VALUE)
            tables.append(transpose_key_value(kv))
            continue
        n_cols = draw(st.integers(1, 3))
        row = st.lists(cell, min_size=n_cols, max_size=n_cols)
        tables.append(Table(id=tid, name=draw(cell), headers=draw(row),
                            rows=draw(st.lists(row, max_size=4))))
    return tables


class TestBuildMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(table_lists())
    def test_generated_table_lists(self, tables):
        assert_index_equals_reference(tables)

    def test_fixture_corpus(self, raw_corpus, corpus):
        assert_index_equals_reference(list(raw_corpus.values()))
        assert_index_equals_reference(list(corpus.values()))


# ---------------------------------------------------------------------------
# Top-k: score(..., k) is the full ranking cut to k
# ---------------------------------------------------------------------------

@st.composite
def corpora_with_ties(draw):
    # copies of drawn tables under later ids tie exactly with their original
    tables, question = draw(corpora_and_questions())
    copies = draw(st.lists(st.sampled_from(tables), max_size=4))
    tables += [Table(id=f"u{i}", name=t.name, headers=list(t.headers),
                     rows=[list(row) for row in t.rows])
               for i, t in enumerate(copies)]
    # "unindexed" is in no table, "the of" is all stop words
    question = draw(st.sampled_from([question, "", "unindexed", "the of"]))
    return tables, question


def assert_top_k_is_prefix(index, question, ks):
    if not indexes_a_word(index, question):
        for sim, k in itertools.product(Similarity, [None, *ks]):
            with pytest.raises(NoIndexedWord):
                score(index, question, sim, k)
        return
    for sim in Similarity:
        full = score(index, question, sim)
        for k in ks:
            assert score(index, question, sim, k) == full[:k], (sim, k)


class TestTopK:
    @settings(max_examples=300, deadline=None)
    @given(corpora_with_ties())
    def test_generated_corpora(self, case):
        tables, question = case
        n = len(tables)
        ks = [k for k in (1, 2, 3, n - 1, n, n + 5) if k >= 1]
        assert_top_k_is_prefix(build_index(tables), question, ks)

    def test_ties_at_the_cut_break_by_table_id(self):
        tables = [Table(id=tid, name="fruit", headers=["col"], rows=[["apple"]])
                  for tid in ("d", "b", "c", "a")]
        index = build_index(tables + [make_table("e", ["zebra"])])
        assert len({s for _, s in score(index, "apple", Similarity.DOT, 4)}) == 1
        for sim in Similarity:
            assert [t for t, _ in score(index, "apple", sim, 2)] == ["a", "b"]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        index = build_index(disjoint_corpus(3))
        with pytest.raises(ValueError):
            score(index, "zuzu0x0", Similarity.COSINE, k)

    def test_fixture_questions(self, corpus, manifest):
        index = build_index(list(corpus.values()))
        assert len(manifest) == 52
        for entry in manifest:
            assert_top_k_is_prefix(index, entry.question, (1, 5))


# ---------------------------------------------------------------------------
# The saved index
# ---------------------------------------------------------------------------

REBUILD = "delete it and run `tableqa ingest` again to rebuild it"


def _saved_arrays(index) -> dict:
    with np.load(io.BytesIO(index_bytes(index))) as npz:
        return {name: npz[name] for name in npz.files}


def _write_arrays(path, arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class TestSavedIndex:
    def test_workspace_index_equals_a_build_over_its_tables(self, cli_workspace):
        # ingest builds it from the tables in memory; a build over the
        # tables read back from the workspace gives the same index
        tables = load_corpus(cli_workspace / "tables")
        got = load_index(cli_workspace / "index.npz", TableDir(cli_workspace / "tables"))
        assert_same_index(got, build_index(list(tables.values())))

    @settings(max_examples=100, deadline=None)
    @given(table_lists())
    def test_round_trip(self, tables):
        index = build_index(tables)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.npz"
            assert save_index(index, path) is True
            assert save_index(index, path) is False     # same bytes: not rewritten
            loaded = load_index(path, reversed(index.table_ids))
        assert_same_index(loaded, index)
        assert index_bytes(loaded) == index_bytes(index)

    def test_equal_indexes_give_equal_bytes(self, corpus):
        tables = list(corpus.values())
        assert index_bytes(build_index(tables)) == index_bytes(build_index(tables))

    def test_missing_file(self, tmp_path):
        path = tmp_path / "index.npz"
        with pytest.raises(BadIndex) as exc:
            load_index(path, ["a"])
        assert str(exc.value) == f"{path}: missing; run `tableqa ingest` to build it"

    @pytest.mark.parametrize("data", [b"", b"PK\x03\x04", b"tableqa-mlp v2\n",
                                      b"\x93NUMPY"], ids=["empty", "zip-magic",
                                                          "text", "npy-magic"])
    def test_unreadable_file(self, tmp_path, data):
        path = tmp_path / "index.npz"
        path.write_bytes(data)
        with pytest.raises(BadIndex, match=re.escape(f"{path}: not a readable index (")):
            load_index(path, ["a"])

    def test_directory_is_not_a_readable_index(self, tmp_path):
        path = tmp_path / "index.npz"
        path.mkdir()
        with pytest.raises(BadIndex, match=re.escape(f"{path}: not a readable index (")):
            load_index(path, ["a"])

    def test_a_plain_array_is_not_an_index(self, tmp_path):
        path = tmp_path / "index.npz"
        with path.open("wb") as fh:
            np.save(fh, np.zeros(3))
        with pytest.raises(BadIndex, match="not an .npz archive"):
            load_index(path, ["a"])

    @staticmethod
    def _damaged(name, value):
        def damage(arrays):
            arrays[name] = value(arrays[name])
        return damage

    @pytest.mark.parametrize("damage, problem", [
        (lambda a: a.pop("rows"), "holds arrays "),
        (lambda a: a.update(extra=np.zeros(1)), "holds arrays "),
        (lambda a: a.update(rows=a["rows"].astype(np.int32)),
         "array rows is int32 of shape (17,), expected one dimension of int64"),
        (lambda a: a.update(idf=a["idf"].reshape(1, -1)),
         "array idf is float64 of shape (1, 12), expected one dimension of float64"),
        (lambda a: a.update(table_ids=a["table_ids"].astype(object)),
         "allow_pickle=False"),
        (lambda a: a.update(table_ids=a["table_ids"][:0], sq_norms=a["sq_norms"][:0],
                            n_stems=a["n_stems"][:0]), "indexes no table"),
        (lambda a: a.update(table_ids=a["table_ids"][::-1]),
         "array table_ids is not in ascending order without repeats"),
        (lambda a: a.update(weights=a["weights"][:-1]),
         "array weights has 16 entries, expected 17"),
        (lambda a: a.update(indptr=a["indptr"] + 1),
         "array indptr does not delimit the postings of each stem"),
        (lambda a: a.update(rows=a["rows"] + 2), "array rows holds a row outside 0..2"),
        (lambda a: a.update(n_stems=a["n_stems"] + 1),
         "array n_stems does not count each table's stems"),
        (lambda a: a.update(weights=np.where(a["weights"] > 0, np.nan, 0.0)),
         "array weights holds a negative or non-finite value"),
        (lambda a: a.update(idf=-a["idf"] - 1.0),
         "array idf holds a negative or non-finite value"),
        (lambda a: a.update(sq_norms=a["sq_norms"] * np.inf),
         "array sq_norms holds a negative or non-finite value"),
        (lambda a: a.update(stems=np.array(["appl"] * 12)), "array stems repeats a stem"),
    ], ids=["missing-array", "extra-array", "dtype", "shape", "pickled", "no-table",
            "unsorted-ids", "length", "indptr", "rows", "n-stems", "nan", "negative",
            "inf", "repeated-stem"])
    def test_damaged_arrays(self, tmp_path, damage, problem):
        tables = [make_table("a", ["apple", "pear", "plum"]),
                  make_table("b", ["apple", "kiwi", "fig", "lime"]),
                  make_table("c", ["apple", "pear", "date", "lemon", "nut"])]
        arrays = _saved_arrays(build_index(tables))
        damage(arrays)
        path = tmp_path / "index.npz"
        _write_arrays(path, arrays)
        with pytest.raises(BadIndex) as exc:
            load_index(path, ["a", "b", "c"])
        message = str(exc.value)
        assert message.startswith(f"{path}: ")
        assert problem in message
        assert message.endswith(f"; {REBUILD}")

    @pytest.mark.parametrize("ids, what", [
        (["a", "b", "c", "d"], "lacks 'd'"),
        (["a", "b"], "indexes 'c', no longer there"),
        (["a", "b", "d"], "lacks 'd'; indexes 'c', no longer there"),
        (["a", "b", "c", "d", "e", "f", "g"], "lacks 'd', 'e', 'f' and 1 more"),
    ])
    def test_other_tables_are_out_of_date(self, tmp_path, ids, what):
        path = tmp_path / "index.npz"
        save_index(build_index([make_table(t, [t]) for t in "abc"]), path)
        with pytest.raises(BadIndex) as exc:
            load_index(path, ids)
        assert str(exc.value) == f"{path}: out of date with the tables: {what}; {REBUILD}"
