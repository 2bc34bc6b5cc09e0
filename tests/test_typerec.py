import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableqa.errors import (DimensionMismatch, EmptyQuestion, MalformedLine,
                            TableQAError, UntrainedModel)
from tableqa.nn import TrainConfig, init_model
from tableqa.tabular import Table
from tableqa.textproc import tokenize
from tableqa.typerec import (
    COLUMN_TYPE_SPEC,
    ColumnType,
    ColumnTypeFeatures,
    N_QUESTION_TYPES,
    QuestionType,
    classify_column_type,
    classify_question,
    column_type_distributions,
    extract_column_type_features,
    load_column_labels,
    train_column_type_model,
)


class TestColumnFeatures:
    def test_boolean_column(self):
        f = extract_column_type_features(["yes", "no", "yes"])
        assert f.boolean == 1.0

    def test_token_bounded_boolean(self):
        f = extract_column_type_features(["nowhere", "notrue"])
        assert f.boolean == 0.0

    def test_currency_symbol(self):
        f = extract_column_type_features(["$349.99", "plain"])
        assert f.currency == 0.5

    def test_currency_iso_code_whole_token(self):
        assert extract_column_type_features(["3.1 billion USD (2018)"]).currency == 1.0
        assert extract_column_type_features(["usda report"]).currency == 0.0

    def test_year_range(self):
        assert extract_column_type_features(["1776"]).year == 1.0
        assert extract_column_type_features(["1492"]).year == 0.0
        assert extract_column_type_features(["2021"]).year == 0.0

    def test_numeric_parsing(self):
        f = extract_column_type_features(["349.99", "1,234", "6' 3''", "n/a"])
        assert f.numeric == 0.5

    def test_only_digits_allows_separators(self):
        f = extract_column_type_features(["1,234.5", "12 kg"])
        assert f.only_digits == 0.5

    def test_month_and_weekday(self):
        f = extract_column_type_features(["June 14, 1946", "Monday"])
        assert f.month == 0.5
        assert f.weekday == 0.5

    def test_url(self):
        assert extract_column_type_features(["http://x.org", "https://y.io"]).url == 1.0

    def test_percentage(self):
        assert extract_column_type_features(["42%", "x"]).percentage == 0.5

    def test_empty_column_is_all_zero(self):
        f = extract_column_type_features(["", "   "])
        assert np.array_equal(f.as_vector(), np.zeros(9))

    def test_components_in_unit_interval_and_permutation_invariant(self):
        rng = random.Random(3)
        pool = ["$5", "yes", "1999", "http://a", "42%", "word soup", "3.14", ""]
        for _ in range(50):
            cells = [rng.choice(pool) for _ in range(rng.randrange(1, 8))]
            f1 = extract_column_type_features(cells)
            shuffled = cells[:]
            rng.shuffle(shuffled)
            f2 = extract_column_type_features(shuffled)
            assert f1 == f2
            assert np.all(f1.as_vector() >= 0.0) and np.all(f1.as_vector() <= 1.0)


def labeled_column_pool(rng, n=240):
    """Synthetic labeled columns with clean per-type signal."""
    samples = []
    makers = {
        ColumnType.DATETIME: lambda: [
            f"{rng.choice(['January', 'June', 'Oct'])} {rng.randrange(1, 28)}, "
            f"{rng.randrange(1900, 2020)}" for _ in range(4)],
        ColumnType.CURRENCY: lambda: [f"${rng.randrange(1, 2000)}.99" for _ in range(4)],
        ColumnType.PERCENTAGE: lambda: [f"{rng.randrange(1, 99)}%" for _ in range(4)],
        ColumnType.NUMERICAL: lambda: [str(rng.randrange(21, 1499)) for _ in range(4)],
        ColumnType.BOOLEAN: lambda: [rng.choice(["yes", "no"]) for _ in range(4)],
        ColumnType.TEXT: lambda: [rng.choice(["alpha beta", "some words", "notes"])
                                  for _ in range(4)],
        ColumnType.URL: lambda: [f"http://site{rng.randrange(99)}.org"
                                 for _ in range(4)],
    }
    types = list(makers)
    for i in range(n):
        ctype = types[i % len(types)]
        samples.append((extract_column_type_features(makers[ctype]()), ctype))
    return samples


class TestColumnClassifier:
    def test_distribution_sums_to_one_at_initialization(self):
        model = init_model(COLUMN_TYPE_SPEC, seed=0)
        _, probs = classify_column_type(
            ColumnTypeFeatures(*([0.0] * 9)), model
        )
        assert probs.shape == (7,)
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_learns_labeled_columns(self):
        rng = random.Random(8)
        samples = labeled_column_pool(rng)
        rng.shuffle(samples)
        split = int(len(samples) * 0.75)
        model = train_column_type_model(samples[:split],
                                        TrainConfig(epochs=200, seed=1))
        held_out = samples[split:]
        hits = sum(classify_column_type(f, model)[0] is t for f, t in held_out)
        assert hits / len(held_out) >= 0.9

    def test_price_column_confident(self):
        rng = random.Random(8)
        model = train_column_type_model(labeled_column_pool(rng),
                                        TrainConfig(epochs=200, seed=1))
        label, probs = classify_column_type(
            extract_column_type_features(["$349.99", "$799.99", "$1199.99"]), model
        )
        assert label is ColumnType.CURRENCY
        assert probs[ColumnType.CURRENCY.value] > 0.5

    def test_mostly_text_cell_with_digits_leans_text(self):
        rng = random.Random(8)
        model = train_column_type_model(labeled_column_pool(rng),
                                        TrainConfig(epochs=200, seed=1))
        label, _ = classify_column_type(
            extract_column_type_features(["4-5 years (In the wild)"]), model
        )
        assert label in (ColumnType.TEXT, ColumnType.NUMERICAL)

    def test_untrained_model_rejected(self):
        with pytest.raises(UntrainedModel):
            classify_column_type(ColumnTypeFeatures(*([0.0] * 9)), None)


def seeded_column_type_model(seed):
    """A column-type model with seeded weights and batch-norm parameters,
    so no layer is an identity."""
    model = init_model(COLUMN_TYPE_SPEC, seed)
    rng = np.random.default_rng(seed)
    for bn in model.batchnorms:
        bn.gamma = rng.uniform(0.5, 2.0, bn.gamma.shape)
        bn.beta = rng.normal(size=bn.beta.shape)
        bn.running_mean = rng.normal(size=bn.running_mean.shape)
        bn.running_var = rng.uniform(0.1, 3.0, bn.running_var.shape)
    for b in model.biases:
        b[:] = rng.normal(size=b.shape)
    return model


def per_column_distributions(table, model):
    """``classify_column_type`` per column, stacked: one forward each."""
    return np.array([classify_column_type(f, model)[1]
                     for f in table.column_type_features])


class TestColumnTypeDistributions:
    # one stacked forward per table, byte-equal to one forward per column

    def test_every_fixture_table(self, corpus, trained_coltype_model):
        for table in corpus.values():
            got = column_type_distributions(table, trained_coltype_model)
            want = per_column_distributions(table, trained_coltype_model)
            assert got.shape == (table.n_columns, 7)
            assert got.tobytes() == want.tobytes(), table.id

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           rows=st.lists(st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
                         min_size=1, max_size=12))
    def test_random_features_and_models(self, seed, rows):
        model = seeded_column_type_model(seed)
        table = Table(id="t", name="t", headers=[f"c{i}" for i in range(len(rows))],
                      rows=[])
        table.column_type_features = tuple(ColumnTypeFeatures(*r) for r in rows)
        got = column_type_distributions(table, model)
        assert got.tobytes() == per_column_distributions(table, model).tobytes()

    def test_model_checked_as_per_column(self):
        table = Table(id="t", name="t", headers=["a"], rows=[["1"]])
        with pytest.raises(UntrainedModel):
            column_type_distributions(table, None)
        with pytest.raises(DimensionMismatch):
            column_type_distributions(table, init_model(
                replace(COLUMN_TYPE_SPEC, input_dim=8), seed=0))


def classify(question):
    return classify_question(tokenize(question).tokens)


class TestQuestionTyping:
    CASES = {
        "Is the store open?": QuestionType.YESNO,
        "Are cats mammals": QuestionType.YESNO,
        "Who is the husband of Whoopi Goldberg?": QuestionType.HUMAN,
        "Whose record is it?": QuestionType.HUMAN,
        "Where is the Super Bowl being played this year?": QuestionType.LOCATION,
        "When is easter this year?": QuestionType.NUMERIC_DATE,
        "What year was the first moon landing?": QuestionType.NUMERIC_DATE,
        "What day is easter on this year?": QuestionType.NUMERIC_DATE,
        "How many feet are in a mile?": QuestionType.NUMERIC_COUNT,
        "How long do cats live?": QuestionType.NUMERIC_PERIOD,
        "How much does Straight Talk cell phone service cost": QuestionType.NUMERIC_MONEY,
        "How much caffeine is in coffee?": QuestionType.NUMERIC,
        "What is the price of the dell xps 13?": QuestionType.NUMERIC_MONEY,
        "What does NAIRU stand for?": QuestionType.ABBREVIATION,
        "Why is the sky blue?": QuestionType.DESCRIPTION,
        "How do I get a refund?": QuestionType.DESCRIPTION,
        "What is the capital of Louisiana?": QuestionType.ENTITY,
        "What is Washington Wizards record?": QuestionType.ENTITY,
    }

    def test_rule_table(self):
        for question, expected in self.CASES.items():
            qtype, _ = classify(question)
            assert qtype is expected, question

    def test_onehot_has_exactly_one_hot(self):
        for question in self.CASES:
            qtype, onehot = classify(question)
            assert onehot.shape == (N_QUESTION_TYPES,)
            assert onehot.sum() == 1.0
            assert onehot[qtype.value] == 1.0

    def test_empty_question_rejected(self):
        with pytest.raises(EmptyQuestion):
            classify("  ?!  ")

    def test_every_question_maps_to_one_type(self):
        rng = random.Random(0)
        words = ["what", "team", "mile", "is", "cost", "how", "where",
                 "year", "long", "много", "42"]
        for _ in range(200):
            q = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 7)))
            try:
                qtype, onehot = classify(q)
            except EmptyQuestion:
                continue
            assert isinstance(qtype, QuestionType)
            assert onehot.sum() == 1.0


class TestLoadColumnLabels:
    def test_fixture_labels_load(self, fixtures_dir):
        labels = load_column_labels(fixtures_dir / "column_labels.txt")
        assert labels[0] == ("us-presidents", 0, ColumnType.TEXT)

    @pytest.mark.parametrize("line", [
        "state-capitals\t0",                 # one tab
        "state-capitals\t0\tText\textra",    # three tabs
        "state-capitals\tx\tText",           # non-integer column index
        "state-capitals\t0\tentity",         # unknown column type
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "labels.txt"
        path.write_text(f"# comment\nus-presidents\t0\tText\n{line}\n")
        with pytest.raises(MalformedLine) as exc:
            load_column_labels(path)
        assert str(exc.value).startswith(f"{path}:3: ")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_or_names_the_line(self, fixtures_dir,
                                                  tmp_path_factory, mutate,
                                                  names_a_line, data):
        # truncated, or one character substituted, deleted or inserted
        path = tmp_path_factory.getbasetemp() / "mutated-column_labels.txt"
        text = (fixtures_dir / "column_labels.txt").read_text(encoding="utf-8")
        path.write_text(mutate(data, text), encoding="utf-8")
        try:
            load_column_labels(path)
        except TableQAError as exc:
            names_a_line(str(exc), path)
