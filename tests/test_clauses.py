import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableqa import clauses
from tableqa.clauses import (
    DEP_TAGS,
    NER_TAGS,
    POS_TAGS,
    SELECT_FEATURE_DIM,
    WHERE_FEATURE_DIM,
    column_types,
    featurize_select,
    featurize_where,
    heuristic_tags,
    parse_question,
    predict_select,
    predict_where,
    where_candidates,
)
from tableqa.embed import load_embeddings, proximity
from tableqa.errors import EmptyQuestion, UntrainedModel
from tableqa.harness import gold_select_indices
from tableqa.nn import init_model
from tableqa.tabular import Table
from tableqa.textproc import (
    compile_pattern,
    pattern_distance,
    token_starts,
    tokenize,
)
from tableqa.typerec import (
    COLUMN_TYPE_SPEC,
    N_COLUMN_TYPES,
    QuestionType,
    classify_column_type,
    classify_question,
    extract_column_type_features,
)


@pytest.fixture(scope="module")
def store(fixtures_dir):
    return load_embeddings(fixtures_dir / "toy.vec")


@pytest.fixture(scope="module")
def coltype_model():
    # untrained but deterministic: enough for layout and invariance checks
    return init_model(COLUMN_TYPE_SPEC, seed=0)


def write_store(path, vectors):
    """The store loaded from ``vectors`` written as a ``.vec`` file."""
    path.write_text("".join(
        f"{token} {' '.join(repr(float(x)) for x in vector)}\n"
        for token, vector in vectors.items()))
    return load_embeddings(path)


@pytest.fixture(scope="module")
def extended_store(store, tmp_path_factory):
    """The toy store plus vectors for two stop words and a number."""
    rng = np.random.default_rng(5)
    return write_store(tmp_path_factory.mktemp("stores") / "extended.vec", {
        **{token: store.lookup(token) for token in store.rows},
        **{w: rng.normal(size=store.dim) for w in ("the", "is", "1946")},
    })


def tags_of(question):
    return heuristic_tags(question, token_starts(question))


def inputs(question, table, coltype_model):
    """``question`` parsed, and the column types of ``table`` beside it."""
    parsed = parse_question(question)
    return parsed, column_types(parsed, table, coltype_model)


class TestParseQuestion:
    def test_fields(self):
        got = parse_question("What is the capital of Texas?")
        assert got == parse_question("What is the capital of Texas?")
        assert got.tokens == ("what", "is", "the", "capital", "of", "texas")
        assert got.where_words == (3, 5)
        assert got.content_stems == ("capit", "texa")
        assert got.qtype is QuestionType.ENTITY
        assert got.qtype_onehot.tobytes() == \
            classify_question(got.tokens)[1].tobytes()

    # stop words, digits, and characters whose lowercase is longer or
    # absent from the token alphabet
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(list("İKΣßﬁ aZ9?'-")),
                              st.sampled_from(["the ", "Of ", "is ", "running "]),
                              st.characters())).map("".join))
    def test_tokens_and_stems_equal_tokenize(self, text):
        # retrieval ranks by these stems, so they must be tokenize's
        parsed = parse_question(text)
        assert parsed.text == text
        assert parsed.tokens == tokenize(text).tokens
        content = tokenize(text, drop_stopwords=True)
        assert tuple(parsed.tokens[w] for w in parsed.where_words) == content.tokens
        assert parsed.content_stems == content.stems

    def test_tokenless_question_fails_at_featurization(self, coltype_model):
        parsed = parse_question("???")
        assert (parsed.tokens, parsed.qtype, parsed.qtype_onehot) == ((), None, None)
        with pytest.raises(EmptyQuestion, match="cannot classify an empty question"):
            column_types(parsed, state_capital_table(), coltype_model)

    def test_given_tokens_are_read(self):
        assert classify_question(("who", "is"))[0] is QuestionType.HUMAN
        assert [t.pos for t in heuristic_tags("Who is", [("who", 0)])] == ["PRON"]


class TestHeuristicTagger:
    def test_digit_token(self):
        tags = tags_of("5")
        assert tags[0].pos == "NUM"
        assert tags[0].ner == "QUANTITY"

    def test_proper_noun_person(self):
        question = "Who is the husband of Whoopi Goldberg"
        tags = tags_of(question)
        tokens = tokenize(question).tokens
        goldberg = tags[tokens.index("goldberg")]
        assert goldberg.pos == "PROPN"
        assert goldberg.ner == "PERSON"

    def test_gazetteer_location(self):
        question = "What is the capital of Louisiana"
        tags = tags_of(question)
        tokens = tokenize(question).tokens
        louisiana = tags[tokens.index("louisiana")]
        assert louisiana.pos == "PROPN"
        assert louisiana.ner == "LOCATION"

    def test_wh_word_and_root_verb(self):
        tags = tags_of("Who is the husband")
        assert tags[0].pos == "PRON"
        assert tags[1].pos == "VERB"
        assert tags[1].dep == "root"
        assert tags[2].dep == "dep"

    def test_alignment_with_tokenizer(self):
        for q in ["What is NAIRU?", "6' 3''", "How many feet are in a mile?"]:
            assert len(tags_of(q)) == len(tokenize(q).tokens)

    def test_dotted_capital_i(self):
        # "İ" lowercases to "i" and a combining dot, which ends the token
        question = "What is the capital of İllinois?"
        tokens = tokenize(question).tokens
        assert tokens[-2:] == ("i", "llinois")
        tags = tags_of(question)
        assert len(tags) == len(tokens)
        assert (tags[-2].pos, tags[-1].pos) == ("PROPN", "NOUN")

    # characters whose lowercase is longer, ASCII, context-dependent or
    # absent from the token alphabet
    @settings(max_examples=300, deadline=None)
    @given(st.text(st.one_of(st.sampled_from(list("İKΣßﬁ aZ9?'-")),
                             st.characters())))
    def test_one_tag_per_token_of_any_question(self, question):
        parsed = parse_question(question)
        assert len(parsed.tags) == len(parsed.tokens)

    def test_tag_inventories_fixed(self):
        assert len(POS_TAGS) == 12
        assert len(NER_TAGS) == 6
        assert len(DEP_TAGS) == 37

    def test_every_emitted_tag_in_inventories(self):
        # each word of every rule list, plus a digit and an unlisted word,
        # first lowercase (the second copy follows a first verb), then
        # capitalized after the start
        words = sorted(clauses._WH_PRON | clauses._WH_DET | clauses._DATE_TOKENS
                       | clauses._VERB_TOKENS | clauses._LOCATION_GAZETTEER)
        emitted = {
            (t.pos, t.ner, t.dep)
            for w in words + ["7", "goldberg"]
            for t in tags_of(f"{w} {w} {w.capitalize()}")
        }
        assert emitted == {
            ("PRON", "NONE", "dep"), ("DET", "NONE", "dep"),
            ("NUM", "QUANTITY", "dep"), ("PROPN", "DATETIME", "dep"),
            ("VERB", "NONE", "root"), ("VERB", "NONE", "dep"),
            ("PROPN", "LOCATION", "dep"), ("PROPN", "PERSON", "dep"),
            ("NOUN", "NONE", "dep"),
        }
        for pos, ner, dep in emitted:
            assert pos in POS_TAGS and ner in NER_TAGS and dep in DEP_TAGS


def state_capital_table():
    return Table(
        id="state-capitals", name="state-capitals",
        headers=["State", "Capital"],
        rows=[["Louisiana", "Baton Rouge"],
              ["Texas", "Austin"],
              ["Oregon", "Salem"]],
    )


class TestFeaturizeSelect:
    def test_single_column_table_count_feature(self, store, coltype_model):
        t = Table(id="one", name="one", headers=["Only"], rows=[["x"]])
        parsed, types = inputs("What is x?", t, coltype_model)
        vec = featurize_select(t, parsed, types, store)[0]
        assert vec.shape == (SELECT_FEATURE_DIM,)
        assert vec[0] == 1.0

    def test_second_min_header_distance(self, store, coltype_model):
        # min distance zero for a header repeating the question words;
        # the second-lowest keeps the feature informative
        t = Table(
            id="nairu", name="nairu",
            headers=["What is NAIRU? CONCEPTS", "History of NAIRU"],
            rows=[["a", "b"]],
        )
        q = "What is NAIRU?"
        parsed, types = inputs(q, t, coltype_model)
        vec = featurize_select(t, parsed, types, store)[0]
        assert vec[23] == 0.0
        assert vec[24] > 0.0

    def test_single_stem_pair_second_min_equals_min(self, store, coltype_model):
        t = Table(id="m", name="m", headers=["Capital"], rows=[["x"]])
        q = "capital?"
        parsed, types = inputs(q, t, coltype_model)
        vec = featurize_select(t, parsed, types, store)[0]
        assert vec[23] == vec[24] == 0.0

    def test_out_of_vocabulary_column_zero_proximity(self, store, coltype_model):
        t = Table(id="oov", name="oov", headers=["Col"], rows=[["qqq zzz"]])
        q = "president?"
        parsed, types = inputs(q, t, coltype_model)
        vec = featurize_select(t, parsed, types, store)[0]
        assert np.array_equal(vec[1:5], np.zeros(4))

    def test_proximity_picks_up_fixture_geometry(self, store, coltype_model):
        t = Table(id="kv", name="kv", headers=["spouse", "capital"],
                  rows=[["spouse", "capital"]])
        q = "husband"
        parsed, types = inputs(q, t, coltype_model)
        spouse_vec, capital_vec = featurize_select(t, parsed, types, store)
        assert spouse_vec[3] > capital_vec[3]

    def test_question_type_block_is_onehot(self, store, coltype_model):
        t = state_capital_table()
        q = "Who is the governor?"
        parsed, types = inputs(q, t, coltype_model)
        vec = featurize_select(t, parsed, types, store)[0]
        _, onehot = classify_question(tokenize(q).tokens)
        assert np.array_equal(vec[12:23], onehot)


class TestFeaturizeWhere:
    def test_exact_word_in_column(self, store, coltype_model):
        t = state_capital_table()
        q = "What is the capital of Louisiana?"
        parsed, types = inputs(q, t, coltype_model)
        word_index = parsed.tokens.index("louisiana")
        vec = featurize_where(t, [(0, word_index)], {1}, parsed, types)[0]
        assert vec.shape == (WHERE_FEATURE_DIM,)
        assert vec[0] == 0.0   # "louisiana" appears verbatim in the column
        assert vec[2] == 3.0   # row count
        assert vec[3] == 0.0   # column 0 not in SELECT set

    def test_in_select_flag(self, store, coltype_model):
        t = state_capital_table()
        q = "What is the capital of Texas?"
        parsed, types = inputs(q, t, coltype_model)
        w = parsed.tokens.index("texas")
        with_flag = featurize_where(t, [(1, w)], {1}, parsed, types)[0]
        without_flag = featurize_where(t, [(1, w)], set(), parsed, types)[0]
        assert with_flag[3] == 1.0
        assert without_flag[3] == 0.0
        assert np.array_equal(with_flag[:3], without_flag[:3])

    def test_single_row_table_row_count(self, store, coltype_model):
        t = Table(id="one", name="one", headers=["spouse"], rows=[["Ted"]])
        q = "Who is the husband?"
        parsed, types = inputs(q, t, coltype_model)
        w = parsed.tokens.index("husband")
        vec = featurize_where(t, [(0, w)], set(), parsed, types)[0]
        assert vec[2] == 1.0

    def test_onehot_blocks_sum_to_at_most_one(self, store, coltype_model):
        rng = random.Random(21)
        words = ["alpha", "Beta", "1999", "capital", "Louisiana", "mile"]
        for _ in range(25):
            n_cols = rng.randrange(1, 5)
            n_rows = rng.randrange(1, 5)
            t = Table(
                id="r", name="r",
                headers=[f"H{i} {rng.choice(words)}" for i in range(n_cols)],
                rows=[[rng.choice(words) for _ in range(n_cols)]
                      for _ in range(n_rows)],
            )
            q = "What is the " + " ".join(rng.choice(words) for _ in range(3))
            parsed, types = inputs(q, t, coltype_model)
            select = featurize_select(t, parsed, types, store)
            assert select.shape == (n_cols, SELECT_FEATURE_DIM)
            assert (select[:, 12:23].sum(axis=1) <= 1.0 + 1e-12).all()
            candidates = where_candidates(t, parsed)
            where = featurize_where(t, candidates, {0}, parsed, types)
            assert where.shape == (len(candidates), WHERE_FEATURE_DIM)
            for lo, hi in ((11, 22), (22, 34), (34, 40), (40, 77)):
                assert (where[:, lo:hi].sum(axis=1) <= 1.0 + 1e-12).all()

    def test_sibling_column_order_invariance(self, store, coltype_model):
        q = "What is the capital of Louisiana?"
        t1 = Table(id="a", name="a", headers=["State", "Capital", "Flag"],
                   rows=[["Louisiana", "Baton Rouge", "pelican"]])
        t2 = Table(id="a", name="a", headers=["State", "Flag", "Capital"],
                   rows=[["Louisiana", "pelican", "Baton Rouge"]])
        parsed1, types1 = inputs(q, t1, coltype_model)
        parsed2, types2 = inputs(q, t2, coltype_model)
        s1 = featurize_select(t1, parsed1, types1, store)[0]
        s2 = featurize_select(t2, parsed2, types2, store)[0]
        assert np.array_equal(s1, s2)
        w = parsed1.tokens.index("louisiana")
        w1 = featurize_where(t1, [(0, w)], set(), parsed1, types1)[0]
        w2 = featurize_where(t2, [(0, w)], set(), parsed2, types2)[0]
        assert np.array_equal(w1, w2)


def nearest(word, cells):
    """The WHERE featurizer's least normalized distance from ``word`` to
    the tokens of a one-column table of ``cells``."""
    table = Table(id="v", name="v", headers=["h"], rows=[[c] for c in cells])
    return clauses._nearest_token_distance(word, compile_pattern(word),
                                           table.column_vocab[0])


class TestNearestTokenDistance:
    def test_equal_token(self):
        assert nearest("mile", ["a mile"]) == 0.0

    def test_full_substitution(self):
        assert nearest("a", ["b"]) == 1.0

    def test_cat_cats(self):
        assert nearest("cat", ["cats"]) == 0.25

    def test_column_without_tokens(self):
        assert nearest("cat", ["", "--"]) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abz", min_size=1, max_size=6),
           st.lists(st.text(alphabet="abz ", max_size=8), min_size=1, max_size=6))
    def test_least_over_all_tokens(self, word, cells):
        # the search skips tokens by their length gap; it must still find
        # the least distance over every token, within [0, 1]
        tokens = [t for c in cells for t in tokenize(c).tokens]
        want = min((normalized_distance(word, t) for t in tokens), default=1.0)
        assert nearest(word, cells) == want
        assert 0.0 <= want <= 1.0


class TestPrediction:
    def test_select_never_empty(self, store, coltype_model):
        from tableqa.clauses import SELECT_SPEC

        t = state_capital_table()
        q = "What is the capital of Louisiana?"
        parsed, types = inputs(q, t, coltype_model)
        model = init_model(SELECT_SPEC, seed=0)
        # force the all-negative degenerate case via a huge negative-class bias
        model.biases[-1] = np.array([50.0, -50.0])
        picked = predict_select(t, model, parsed, types, store)
        assert len(picked) == 1

    def test_select_all_positive_degenerate(self, store, coltype_model):
        from tableqa.clauses import SELECT_SPEC

        t = state_capital_table()
        q = "What is the capital of Louisiana?"
        parsed, types = inputs(q, t, coltype_model)
        model = init_model(SELECT_SPEC, seed=0)
        model.biases[-1] = np.array([-50.0, 50.0])
        picked = predict_select(t, model, parsed, types, store)
        assert picked == {0, 1}

    def test_single_column_always_selected(self, store, coltype_model):
        from tableqa.clauses import SELECT_SPEC

        t = Table(id="one", name="one", headers=["Only"], rows=[["x"]])
        q = "What is x?"
        parsed, types = inputs(q, t, coltype_model)
        model = init_model(SELECT_SPEC, seed=3)
        assert predict_select(t, model, parsed, types, store) == {0}

    def test_where_empty_for_stopword_only_question(self, store, coltype_model):
        from tableqa.clauses import WHERE_SPEC

        t = state_capital_table()
        q = "What is the of?"
        parsed, types = inputs(q, t, coltype_model)
        model = init_model(WHERE_SPEC, seed=0)
        model.biases[-1] = np.array([-50.0, 50.0])  # even all-positive yields none
        assert predict_where(t, model, parsed, types, set()) == set()

    def test_untrained_model_rejected(self, store, coltype_model):
        t = state_capital_table()
        q = "What is the capital?"
        parsed, types = inputs(q, t, coltype_model)
        with pytest.raises(UntrainedModel):
            predict_select(t, None, parsed, types, store)
        with pytest.raises(UntrainedModel):
            predict_where(t, None, parsed, types, set())


# ---------------------------------------------------------------------------
# Reference featurizer: the feature bodies as they were before the table
# token views, tokenizing the question and every cell on each call
# ---------------------------------------------------------------------------

def reference_column_type_distributions(table, model):
    out = np.zeros((table.n_columns, N_COLUMN_TYPES))
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
            if (s := proximity(store, ct, qt)) is not None
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


def assert_matches_reference(question, table, model, store, select_columns):
    """Every row of the SELECT and WHERE matrices of ``question`` against
    ``table`` is byte-equal to the reference featurizer's vector, on a
    fresh copy of the table and on one whose views are already built."""
    for t in (replace(table), table):
        parsed, types = inputs(question, t, model)
        assert parsed.tokens == tokenize(question).tokens
        content = tokenize(question, drop_stopwords=True)
        assert tuple(parsed.tokens[w] for w in parsed.where_words) == content.tokens
        assert parsed.content_stems == content.stems
        coltype = reference_column_type_distributions(t, model)
        assert types.tobytes() == coltype.tobytes()
        select = featurize_select(t, parsed, types, store)
        assert select.shape == (t.n_columns, SELECT_FEATURE_DIM)
        for c, got in enumerate(select):
            want = reference_select(question, t, c, coltype, store)
            assert got.tobytes() == want.tobytes(), (question, t.id, c)
        candidates = where_candidates(t, parsed)
        assert candidates == [(c, w) for c in range(t.n_columns)
                              for w in parsed.where_words]
        where = featurize_where(t, candidates, select_columns, parsed, types)
        assert where.shape == (len(candidates), WHERE_FEATURE_DIM)
        for (c, w), got in zip(candidates, where):
            want = reference_where(question, t, c, w, select_columns,
                                   coltype, parsed.tags)
            assert got.tobytes() == want.tobytes(), (question, t.id, c, w)


class TestMatchesReferenceFeaturizer:
    @pytest.mark.parametrize("store_name", ["pipeline.vec", "toy.vec"])
    def test_every_fixture_question_on_its_gold_table(
        self, manifest, corpus, fixtures_dir, trained_coltype_model, store_name
    ):
        store = load_embeddings(fixtures_dir / store_name)
        for entry in manifest:
            table = corpus[entry.table_id]
            assert_matches_reference(entry.question, table,
                                     trained_coltype_model, store,
                                     gold_select_indices(entry, table))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_tables(self, extended_store, coltype_model, data):
        # in-vocabulary words (one with a zero vector), stop words (some
        # in the vocabulary), digits, near-misses of different lengths,
        # empty and multi-token cells
        store = extended_store
        words = ["spouse", "husband", "president", "capital", "zero", "the",
                 "of", "is", "1946", "capitol", "spouses", "pres", "Baton Rouge",
                 "", "  ", "$349.99", "yes", "June 14, 1946", "presidency"]
        word = st.sampled_from(words)
        n_cols = data.draw(st.integers(1, 4))
        rows = data.draw(st.lists(st.lists(word, min_size=n_cols, max_size=n_cols),
                                  min_size=1, max_size=5))
        headers = data.draw(st.lists(word, min_size=n_cols, max_size=n_cols))
        question = " ".join(data.draw(st.lists(word, min_size=1, max_size=6)))
        if not tokenize(question).tokens:
            question += " capital"
        table = Table(id="r", name="r", headers=headers, rows=rows)
        assert_matches_reference(question, table, coltype_model, store, {0})


def _random_store(path, words, seed):
    rng = np.random.default_rng(seed)
    return write_store(path, {w: rng.normal(size=4) for w in words})


class TestViewsHoldNoStoreOrModel:
    QUESTION = "Who is the husband of the president?"

    def table(self):
        return Table(id="s", name="s", headers=["spouse", "title"],
                     rows=[["husband of Ted", "president"],
                           ["wife", "capital city"]])

    def test_two_stores(self, coltype_model, tmp_path):
        shared = self.table()
        words = tokenize(self.QUESTION).tokens + sum(shared.column_tokens, ())
        stores = [_random_store(tmp_path / f"{seed}.vec", words, seed)
                  for seed in (1, 2)]
        parsed, types = inputs(self.QUESTION, shared, coltype_model)
        got = [featurize_select(shared, parsed, types, s)[0] for s in stores]
        for vec, s in zip(got, stores):
            fresh = self.table()
            want = featurize_select(
                fresh, *inputs(self.QUESTION, fresh, coltype_model), s)[0]
            assert vec.tobytes() == want.tobytes()
        assert not np.array_equal(got[0][1:5], got[1][1:5])

    def test_two_column_type_models(self, coltype_model, trained_coltype_model):
        models = [coltype_model, trained_coltype_model]
        shared = self.table()
        got = [inputs(self.QUESTION, shared, m)[1] for m in models]
        for dists, m in zip(got, models):
            want = inputs(self.QUESTION, self.table(), m)[1]
            assert dists.tobytes() == want.tobytes()
        assert not np.array_equal(got[0], got[1])
