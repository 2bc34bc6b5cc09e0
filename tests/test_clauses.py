import random

import numpy as np
import pytest

from tableqa.clauses import (
    DEP_TAGS,
    NER_TAGS,
    POS_TAGS,
    SELECT_FEATURE_DIM,
    WHERE_FEATURE_DIM,
    AuxSignals,
    HeuristicTagger,
    SidecarTagger,
    TokenTags,
    build_aux,
    candidate_word_indices,
    featurize_select,
    featurize_where,
    predict_select,
    predict_where,
    tag_tokens,
)
from tableqa.embed import load_embeddings
from tableqa.errors import SidecarMismatch, UntrainedModel
from tableqa.nn import init_model
from tableqa.tabular import Table
from tableqa.textproc import tokenize
from tableqa.typerec import COLUMN_TYPE_SPEC, classify_question


@pytest.fixture(scope="module")
def store(fixtures_dir):
    return load_embeddings(fixtures_dir / "toy.vec")


@pytest.fixture(scope="module")
def coltype_model():
    # untrained but deterministic: enough for layout and invariance checks
    return init_model(COLUMN_TYPE_SPEC, seed=0)


def make_aux(question, table, coltype_model):
    return build_aux(question, table, coltype_model)


class TestHeuristicTagger:
    def test_digit_token(self):
        tags = tag_tokens("5", HeuristicTagger())
        assert tags[0].pos == "NUM"
        assert tags[0].ner == "QUANTITY"

    def test_proper_noun_person(self):
        question = "Who is the husband of Whoopi Goldberg"
        tags = tag_tokens(question, HeuristicTagger())
        tokens = tokenize(question).tokens
        goldberg = tags[tokens.index("goldberg")]
        assert goldberg.pos == "PROPN"
        assert goldberg.ner == "PERSON"

    def test_gazetteer_location(self):
        question = "What is the capital of Louisiana"
        tags = tag_tokens(question, HeuristicTagger())
        tokens = tokenize(question).tokens
        louisiana = tags[tokens.index("louisiana")]
        assert louisiana.pos == "PROPN"
        assert louisiana.ner == "LOCATION"

    def test_wh_word_and_root_verb(self):
        tags = tag_tokens("Who is the husband", HeuristicTagger())
        assert tags[0].pos == "PRON"
        assert tags[1].pos == "VERB"
        assert tags[1].dep == "root"
        assert tags[2].dep == "dep"

    def test_alignment_with_tokenizer(self):
        for q in ["What is NAIRU?", "6' 3''", "How many feet are in a mile?"]:
            assert len(tag_tokens(q, HeuristicTagger())) == len(tokenize(q).tokens)

    def test_tag_inventories_fixed(self):
        assert len(POS_TAGS) == 12
        assert len(NER_TAGS) == 6
        assert len(DEP_TAGS) == 37

    def test_invalid_tag_rejected(self):
        with pytest.raises(ValueError):
            TokenTags(pos="XYZ", ner="NONE", dep="dep")


class TestSidecarTagger:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "tags.tsv"
        p.write_text("q1\tWho/PRON/NONE/dep is/VERB/NONE/root\n")
        tagger = SidecarTagger(p)
        tags = tag_tokens("Who is", tagger, question_id="q1")
        assert tags[0].pos == "PRON"
        assert tags[1].dep == "root"

    def test_wrong_token_count(self, tmp_path):
        p = tmp_path / "tags.tsv"
        p.write_text("q1\tWho/PRON/NONE/dep\n")
        with pytest.raises(SidecarMismatch):
            tag_tokens("Who is the husband", SidecarTagger(p), question_id="q1")

    def test_missing_question(self, tmp_path):
        p = tmp_path / "tags.tsv"
        p.write_text("q1\tWho/PRON/NONE/dep\n")
        with pytest.raises(SidecarMismatch):
            tag_tokens("Who", SidecarTagger(p), question_id="q2")

    @pytest.mark.parametrize("record, message", [
        ("is/VERB/NONE", "bad sidecar record 'is/VERB/NONE' for question 'q2'"),
        ("is/XYZ/NONE/root", "unknown POS tag 'XYZ'"),
        ("is/VERB/ALIEN/root", "unknown NER tag 'ALIEN'"),
        ("is/VERB/NONE/nosuchrel", "unknown dependency tag 'nosuchrel'"),
    ], ids=["malformed", "pos", "ner", "dep"])
    def test_bad_record_names_file_and_line(self, tmp_path, record, message):
        p = tmp_path / "tags.tsv"
        p.write_text("# qid<TAB>tags\nq1\tWho/PRON/NONE/dep\n"
                     f"q2\tWho/PRON/NONE/dep {record}\n")
        with pytest.raises(SidecarMismatch) as exc:
            SidecarTagger(p)
        assert str(exc.value) == f"{p}:3: {message}"


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
        aux = make_aux("What is x?", t, coltype_model)
        vec = featurize_select("What is x?", t, 0, aux, store)
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
        aux = make_aux(q, t, coltype_model)
        vec = featurize_select(q, t, 0, aux, store)
        assert vec[23] == 0.0
        assert vec[24] > 0.0

    def test_single_stem_pair_second_min_equals_min(self, store, coltype_model):
        t = Table(id="m", name="m", headers=["Capital"], rows=[["x"]])
        q = "capital?"
        aux = make_aux(q, t, coltype_model)
        vec = featurize_select(q, t, 0, aux, store)
        assert vec[23] == vec[24] == 0.0

    def test_out_of_vocabulary_column_zero_proximity(self, store, coltype_model):
        t = Table(id="oov", name="oov", headers=["Col"], rows=[["qqq zzz"]])
        q = "president?"
        aux = make_aux(q, t, coltype_model)
        vec = featurize_select(q, t, 0, aux, store)
        assert np.array_equal(vec[1:5], np.zeros(4))

    def test_proximity_picks_up_fixture_geometry(self, store, coltype_model):
        t = Table(id="kv", name="kv", headers=["spouse", "capital"],
                  rows=[["spouse", "capital"]])
        q = "husband"
        aux = make_aux(q, t, coltype_model)
        spouse_vec = featurize_select(q, t, 0, aux, store)
        capital_vec = featurize_select(q, t, 1, aux, store)
        assert spouse_vec[3] > capital_vec[3]

    def test_question_type_block_is_onehot(self, store, coltype_model):
        t = state_capital_table()
        q = "Who is the governor?"
        aux = make_aux(q, t, coltype_model)
        vec = featurize_select(q, t, 0, aux, store)
        _, onehot = classify_question(q)
        assert np.array_equal(vec[12:23], onehot)


class TestFeaturizeWhere:
    def test_exact_word_in_column(self, store, coltype_model):
        t = state_capital_table()
        q = "What is the capital of Louisiana?"
        aux = make_aux(q, t, coltype_model)
        word_index = aux.question_tokens.index("louisiana")
        vec = featurize_where(q, t, 0, word_index, {1}, aux, store)
        assert vec.shape == (WHERE_FEATURE_DIM,)
        assert vec[0] == 0.0   # "louisiana" appears verbatim in the column
        assert vec[2] == 3.0   # row count
        assert vec[3] == 0.0   # column 0 not in SELECT set

    def test_in_select_flag(self, store, coltype_model):
        t = state_capital_table()
        q = "What is the capital of Texas?"
        aux = make_aux(q, t, coltype_model)
        w = aux.question_tokens.index("texas")
        with_flag = featurize_where(q, t, 1, w, {1}, aux, store)
        without_flag = featurize_where(q, t, 1, w, set(), aux, store)
        assert with_flag[3] == 1.0
        assert without_flag[3] == 0.0
        assert np.array_equal(with_flag[:3], without_flag[:3])

    def test_single_row_table_row_count(self, store, coltype_model):
        t = Table(id="one", name="one", headers=["spouse"], rows=[["Ted"]])
        q = "Who is the husband?"
        aux = make_aux(q, t, coltype_model)
        w = aux.question_tokens.index("husband")
        vec = featurize_where(q, t, 0, w, set(), aux, store)
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
            aux = make_aux(q, t, coltype_model)
            for c in range(n_cols):
                svec = featurize_select(q, t, c, aux, store)
                assert svec.shape == (SELECT_FEATURE_DIM,)
                assert svec[12:23].sum() <= 1.0 + 1e-12
                for w in candidate_word_indices(aux):
                    wvec = featurize_where(q, t, c, w, {0}, aux, store)
                    assert wvec.shape == (WHERE_FEATURE_DIM,)
                    assert wvec[11:22].sum() <= 1.0 + 1e-12
                    assert wvec[22:34].sum() <= 1.0 + 1e-12
                    assert wvec[34:40].sum() <= 1.0 + 1e-12
                    assert wvec[40:77].sum() <= 1.0 + 1e-12

    def test_sibling_column_order_invariance(self, store, coltype_model):
        q = "What is the capital of Louisiana?"
        t1 = Table(id="a", name="a", headers=["State", "Capital", "Flag"],
                   rows=[["Louisiana", "Baton Rouge", "pelican"]])
        t2 = Table(id="a", name="a", headers=["State", "Flag", "Capital"],
                   rows=[["Louisiana", "pelican", "Baton Rouge"]])
        aux1 = make_aux(q, t1, coltype_model)
        aux2 = make_aux(q, t2, coltype_model)
        s1 = featurize_select(q, t1, 0, aux1, store)
        s2 = featurize_select(q, t2, 0, aux2, store)
        assert np.array_equal(s1, s2)
        w = aux1.question_tokens.index("louisiana")
        w1 = featurize_where(q, t1, 0, w, set(), aux1, store)
        w2 = featurize_where(q, t2, 0, w, set(), aux2, store)
        assert np.array_equal(w1, w2)


class TestPrediction:
    def test_select_never_empty(self, store, coltype_model):
        from tableqa.clauses import SELECT_SPEC

        t = state_capital_table()
        q = "What is the capital of Louisiana?"
        aux = make_aux(q, t, coltype_model)
        model = init_model(SELECT_SPEC, seed=0)
        # force the all-negative degenerate case via a huge negative-class bias
        model.biases[-1] = np.array([50.0, -50.0])
        picked = predict_select(q, t, model, aux, store)
        assert len(picked) == 1

    def test_select_all_positive_degenerate(self, store, coltype_model):
        from tableqa.clauses import SELECT_SPEC

        t = state_capital_table()
        q = "What is the capital of Louisiana?"
        aux = make_aux(q, t, coltype_model)
        model = init_model(SELECT_SPEC, seed=0)
        model.biases[-1] = np.array([-50.0, 50.0])
        picked = predict_select(q, t, model, aux, store)
        assert picked == {0, 1}

    def test_single_column_always_selected(self, store, coltype_model):
        from tableqa.clauses import SELECT_SPEC

        t = Table(id="one", name="one", headers=["Only"], rows=[["x"]])
        q = "What is x?"
        aux = make_aux(q, t, coltype_model)
        model = init_model(SELECT_SPEC, seed=3)
        assert predict_select(q, t, model, aux, store) == {0}

    def test_where_empty_for_stopword_only_question(self, store, coltype_model):
        from tableqa.clauses import WHERE_SPEC

        t = state_capital_table()
        q = "What is the of?"
        aux = make_aux(q, t, coltype_model)
        model = init_model(WHERE_SPEC, seed=0)
        model.biases[-1] = np.array([-50.0, 50.0])  # even all-positive yields none
        assert predict_where(q, t, model, aux, set(), store) == set()

    def test_untrained_model_rejected(self, store, coltype_model):
        t = state_capital_table()
        q = "What is the capital?"
        aux = make_aux(q, t, coltype_model)
        with pytest.raises(UntrainedModel):
            predict_select(q, t, None, aux, store)
        with pytest.raises(UntrainedModel):
            predict_where(q, t, None, aux, set(), store)
