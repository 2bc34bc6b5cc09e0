import re
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableqa import clauses, harness, textproc
from tableqa.clauses import (
    column_types,
    featurize_select,
    featurize_where,
    parse_question,
    predict_select,
    predict_where,
)
from tableqa.errors import AllZero, MalformedFile, TableQAError, ValidationFailure
from tableqa.harness import (
    ModelBundle,
    PipelineStageError,
    QuestionOutcome,
    RowMode,
    Scope,
    Split,
    SweepCell,
    TableDir,
    build_select_samples,
    build_where_samples,
    cell_prf,
    evaluate_retrieval,
    evaluate_select,
    evaluate_where,
    gold_select_indices,
    gold_where_pairs,
    load_corpus,
    load_manifest,
    load_table_kinds,
    metrics_from_confusion,
    run_pipeline,
    select_source,
    split_index,
    sweep_pipeline,
)
from tableqa.nn import load_model
from tableqa.retrieval import Similarity
from tableqa.tabular import TableKind
from tableqa.textproc import tokenize


class TestCorpusLoading:
    def test_corpus_size_and_kinds(self, raw_corpus, table_kinds):
        assert len(raw_corpus) >= 40
        kinds = [table_kinds[t] for t in raw_corpus]
        assert kinds.count(TableKind.KEY_VALUE) >= 20
        assert kinds.count(TableKind.ENTITY_INSTANCE) >= 20

    def test_ingest_transposes_key_value(self, corpus):
        whoopi = corpus["whoopi-goldberg"]
        assert whoopi.kind is TableKind.ENTITY_INSTANCE
        assert "spouse" in whoopi.headers
        assert whoopi.n_rows == 1

    def test_multi_value_key_value_table(self, corpus):
        laptops = corpus["laptop-compare"]
        assert laptops.headers[0] == "product"
        assert laptops.n_rows == 5

    def test_entity_instance_untouched(self, raw_corpus, corpus):
        assert corpus["state-capitals"].rows == raw_corpus["state-capitals"].rows


class TestTableDir:
    @staticmethod
    def _tables_dir(tmp_path):
        tables = tmp_path / "tables"
        tables.mkdir()
        (tables / "a.csv").write_text("x,y\n1,2\n")
        (tables / "b.tsv").write_text("p\tq\n3\t4\n")
        (tables / "bad.csv").write_text("x,y\nonly one\n")
        (tmp_path / "outside.csv").write_text("o\nv\n")
        return tables

    def test_reads_only_the_named_tables(self, tmp_path, monkeypatch):
        tables_dir = self._tables_dir(tmp_path)
        read = []
        real_load = harness.load_table

        def counting(path, fmt, **kwargs):
            read.append(Path(path).name)
            return real_load(path, fmt, **kwargs)

        monkeypatch.setattr(harness, "load_table", counting)
        tables = TableDir(tables_dir)
        assert list(tables) == ["a", "b", "bad"] and len(tables) == 3
        assert "bad" in tables and "absent" not in tables
        assert read == []
        assert tables["b"].headers == ["p", "q"]
        assert tables["b"] is tables.get("b")
        assert read == ["b.tsv"]
        with pytest.raises(MalformedFile, match="bad.csv:2: row has 1 cells"):
            tables["bad"]

    def test_load_corpus_reads_every_table(self, tmp_path):
        tables_dir = self._tables_dir(tmp_path)
        with pytest.raises(MalformedFile, match="bad.csv:2: row has 1 cells"):
            load_corpus(tables_dir)
        (tables_dir / "bad.csv").unlink()
        assert load_corpus(tables_dir) == dict(TableDir(tables_dir))

    def test_an_id_is_never_joined_into_a_path(self, tmp_path):
        tables = TableDir(self._tables_dir(tmp_path))
        for tid in ("../outside", str(tmp_path / "outside"), "a.csv", ""):
            assert tid not in tables
            with pytest.raises(KeyError):
                tables[tid]

    @pytest.mark.parametrize("read", [load_corpus, TableDir], ids=["eager", "lazy"])
    def test_later_sorted_file_wins_a_shared_stem(self, tmp_path, read):
        (tmp_path / "a.csv").write_text("from-csv\n")
        (tmp_path / "a.tsv").write_text("from-tsv\n")
        assert read(tmp_path)["a"].headers == ["from-tsv"]

    def test_only_csv_and_tsv_names_with_a_stem(self, tmp_path):
        for name in (".csv", "upper.CSV", "notes.txt", "plain"):
            (tmp_path / name).write_text("x\n1\n")
        (tmp_path / "..csv").write_text("x\n1\n")
        assert list(load_corpus(tmp_path)) == ["."]

    @pytest.mark.parametrize("spelling", ["tables/", "./tables", "tables//", "."])
    def test_paths_spelled_as_pathlib_joins_them(self, tmp_path, monkeypatch,
                                                 spelling):
        tables = self._tables_dir(tmp_path)
        monkeypatch.chdir(tables if spelling == "." else tmp_path)
        expected = Path(spelling) / "bad.csv"
        with pytest.raises(MalformedFile) as exc:
            load_corpus(spelling)
        assert str(exc.value).startswith(f"{expected}:2: row has ")


class TestGoldQueryParsedOnce:
    def test_one_parse_per_entry_from_loading_to_where_samples(
            self, fixtures_dir, corpus, pipeline_store, trained_coltype_model,
            monkeypatch):
        bundle = ModelBundle(coltype_model=trained_coltype_model)
        parsed = []
        real_parse = harness.parse_query

        def counting(text):
            parsed.append(text)
            return real_parse(text)

        monkeypatch.setattr(harness, "parse_query", counting)
        entries = load_manifest(fixtures_dir / "manifest.txt", corpus, pipeline_store)
        build_select_samples(entries, corpus, pipeline_store, bundle)
        build_where_samples(entries, corpus, pipeline_store, bundle)
        assert parsed == [e.gold_query for e in entries]
        assert all(e.query == real_parse(e.gold_query) for e in entries)


class TestManifest:
    def test_all_entries_validate(self, manifest):
        assert len(manifest) >= 40
        splits = [e.split for e in manifest]
        assert splits.count(Split.TRAIN) > splits.count(Split.DEV) > \
            splits.count(Split.TEST)

    def test_gold_extraction(self, manifest, corpus):
        entry = next(e for e in manifest if e.qid == "q01")
        table = corpus[entry.table_id]
        assert gold_select_indices(entry, table) == {1}
        assert gold_where_pairs(entry, table) == {(0, "louisiana")}

    def test_alternates_parsed(self, manifest):
        with_alts = [e for e in manifest if e.alternates]
        assert with_alts
        assert any("amazon-river" in e.alternates for e in with_alts)

    def test_empty_manifest(self, tmp_path, corpus, pipeline_store):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing here\n")
        assert load_manifest(p, corpus, pipeline_store) == []

    def test_byte_order_mark_is_dropped(self, fixtures_dir, tmp_path, corpus,
                                        pipeline_store, manifest):
        # the first line is an entry, so a kept mark would start its qid
        p = tmp_path / "bom.txt"
        lines = (fixtures_dir / "manifest.txt").read_text(encoding="utf-8")
        p.write_text("\ufeff" + lines.split("\n", 1)[1], encoding="utf-8")
        assert load_manifest(p, corpus, pipeline_store) == manifest

    def test_inconsistent_entry_rejected(self, tmp_path, corpus, pipeline_store):
        p = tmp_path / "bad.txt"
        p.write_text(
            "qx\ttrain\tstate-capitals\t-\t0:0\t"
            "What is the capital of Texas?\t"
            "SELECT \"Capital\" FROM \"state-capitals\" WHERE \"State\" ~ 'texas'\n"
        )
        with pytest.raises(ValidationFailure) as exc:
            load_manifest(p, corpus, pipeline_store)
        assert exc.value.failures[0][0] == "qx"

    def test_unknown_table_rejected(self, tmp_path, corpus, pipeline_store):
        p = tmp_path / "bad.txt"
        p.write_text("qy\ttrain\tnope\t-\t0:0\tq?\tSELECT \"a\" FROM \"nope\"\n")
        with pytest.raises(ValidationFailure):
            load_manifest(p, corpus, pipeline_store)


_GOLD = "SELECT \"Capital\" FROM \"state-capitals\" WHERE \"State\" ~ 'texas'"


class TestManifestErrorsNameTheLine:
    @pytest.mark.parametrize("cells, message", [
        ("0:1:2", "bad cell '0:1:2', expected row:column"),
        ("1:1,x:1", "bad cell 'x:1', expected row:column"),
        ("1", "bad cell '1', expected row:column"),
        ("", "bad cell '', expected row:column"),
        ("0:1", "gold query yields [(1, 1)], manifest says [(0, 1)]"),
    ], ids=["three-parts", "not-a-number", "no-colon", "empty", "wrong-cells"])
    def test_cause_is_prefixed_with_path_and_line(self, tmp_path, corpus,
                                                  pipeline_store, cells, message):
        p = tmp_path / "bad.txt"
        p.write_text(
            "# qid split table alternates cells question query\n"
            f"q1\ttrain\tstate-capitals\t-\t{cells}\tCapital of Texas?\t{_GOLD}\n"
        )
        with pytest.raises(ValidationFailure) as exc:
            load_manifest(p, corpus, pipeline_store)
        assert exc.value.failures == [("q1", f"{p}:2: {message}")]

    @pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                        reason="int() converts strings of any length")
    def test_limit_of_more_digits_than_int_converts(self, tmp_path, corpus,
                                                    pipeline_store):
        p = tmp_path / "bad.txt"
        query = 'SELECT "Capital" FROM "state-capitals" LIMIT ' + "9" * 5000
        p.write_text("# qid split table alternates cells question query\n"
                     f"q1\ttrain\tstate-capitals\t-\t0:1\tCapitals?\t{query}\n")
        with pytest.raises(ValidationFailure) as exc:
            load_manifest(p, corpus, pipeline_store)
        assert exc.value.failures == [("q1", f"{p}:2: LIMIT expects a positive integer, "
                                             "got one of 5000 digits (at position 45)")]

    def test_every_failing_line_is_named(self, tmp_path, corpus, pipeline_store):
        p = tmp_path / "bad.txt"
        p.write_text(
            f"q1\ttrain\tstate-capitals\t-\t1:1\tCapital of Texas?\t{_GOLD}\n"
            "q2\ttrain\tnope\t-\t0:0\tq?\tSELECT \"a\" FROM \"nope\"\n"
            "\n"
            "only\tthree\tfields\n"
            "q4\tsometimes\tstate-capitals\t-\t1:1\tCapital of Texas?\t{_GOLD}\n"
        )
        with pytest.raises(ValidationFailure) as exc:
            load_manifest(p, corpus, pipeline_store)
        assert exc.value.failures == [
            ("q2", f"{p}:2: unknown table 'nope'"),
            ("line 4", f"{p}:4: expected 7 fields, got 3"),
            ("q4", f"{p}:5: 'sometimes' is not a valid Split"),
        ]


class TestMutatedInputsNameTheLine:
    # the fixture file truncated, or with one character substituted,
    # deleted or inserted

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_kinds_load_or_name_the_line(self, fixtures_dir, tmp_path_factory,
                                         mutate, names_a_line, data):
        path = tmp_path_factory.getbasetemp() / "mutated-table_types.txt"
        text = (fixtures_dir / "table_types.txt").read_text(encoding="utf-8")
        path.write_text(mutate(data, text), encoding="utf-8")
        try:
            load_table_kinds(path)
        except TableQAError as exc:
            names_a_line(str(exc), path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_manifest_lines_parse_or_name_the_line(self, fixtures_dir,
                                                   tmp_path_factory, corpus,
                                                   pipeline_store, mutate,
                                                   names_a_line, data):
        path = tmp_path_factory.getbasetemp() / "mutated-manifest.txt"
        text = (fixtures_dir / "manifest.txt").read_text(encoding="utf-8")
        path.write_text(mutate(data, text), encoding="utf-8")
        try:
            load_manifest(path, corpus, pipeline_store)
        except ValidationFailure as exc:
            for _, cause in exc.failures:
                names_a_line(cause, path)


class TestConfusionMetrics:
    def test_select_clause_train_row(self):
        m = metrics_from_confusion(tp=182, fp=209, fn=30, tn=1001)
        assert round(m.accuracy * 100, 1) == 83.2
        assert round(m.recall * 100, 1) == 85.8
        assert round(m.precision * 100, 1) == 46.5

    def test_where_clause_train_row(self):
        m = metrics_from_confusion(tp=95, fp=106, fn=0, tn=4107)
        assert round(m.accuracy * 100, 1) == 97.5
        assert round(m.recall * 100, 1) == 100.0
        assert round(m.precision * 100, 1) == 47.3

    def test_perfect_classifier(self):
        m = metrics_from_confusion(tp=1, fp=0, fn=0, tn=1)
        assert m.accuracy == m.precision == m.recall == 1.0

    def test_zero_denominators(self):
        m = metrics_from_confusion(tp=0, fp=0, fn=2, tn=3)
        assert m.precision == 0.0
        assert m.recall == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(AllZero):
            metrics_from_confusion(0, 0, 0, 0)


class TestCellPrf:
    def test_exact_match(self):
        assert cell_prf({(0, 1)}, {(0, 1)}) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        assert cell_prf({(0, 0)}, {(1, 1)}) == (0.0, 0.0, 0.0)

    def test_superset_prediction(self):
        p, r, f1 = cell_prf({(0, 1), (0, 2)}, {(0, 1)})
        assert p == 0.5
        assert r == 1.0
        assert f1 == pytest.approx(2 / 3)

    def test_empty_prediction(self):
        assert cell_prf(set(), {(0, 0)}) == (0.0, 0.0, 0.0)


def entry_by_tokens(manifest):
    """Manifest entry per question, keyed by the question's tokens (what
    the clause predictors see of it, in ``ParsedQuestion.tokens``)."""
    by_tokens = {tokenize(e.question).tokens: e for e in manifest}
    assert len(by_tokens) == len(manifest)
    return by_tokens


def use_oracles(monkeypatch, manifest):
    """Replace the pipeline's SELECT/WHERE classifiers with stubs that
    answer with the gold SELECT/WHERE sets."""
    by_tokens = entry_by_tokens(manifest)

    def select_oracle(table, model, question, types, store):
        return gold_select_indices(by_tokens[question.tokens], table)

    def where_oracle(table, model, question, types, select_cols):
        return gold_where_pairs(by_tokens[question.tokens], table)

    monkeypatch.setattr(harness, "predict_select", select_oracle)
    monkeypatch.setattr(harness, "predict_where", where_oracle)


class TestPipelineWithOracles:
    def test_lossless_on_every_entry(self, manifest, corpus, pipeline_store,
                                     trained_coltype_model, monkeypatch):
        use_oracles(monkeypatch, manifest)
        bundle = ModelBundle(coltype_model=trained_coltype_model)
        for entry in manifest:
            result = run_pipeline(
                entry.question, corpus, None, bundle, pipeline_store,
                row_mode=RowMode.WORD_MATCH,
                golden_table=corpus[entry.table_id],
            )
            _, _, f1 = cell_prf(set(result.cells), set(entry.gold_cells))
            assert f1 == 1.0, entry.qid
            assert result.query.from_table == entry.table_id

    def test_constructed_query_carries_clauses(self, manifest, corpus,
                                               pipeline_store,
                                               trained_coltype_model,
                                               monkeypatch):
        use_oracles(monkeypatch, manifest)
        bundle = ModelBundle(coltype_model=trained_coltype_model)
        entry = next(e for e in manifest if e.qid == "q01")
        result = run_pipeline(
            entry.question, corpus, None, bundle, pipeline_store,
            golden_table=corpus[entry.table_id],
        )
        assert result.query.select == ("Capital",)
        assert result.query.where[0].column == "State"
        assert result.query.where[0].keyword == "louisiana"

    def test_stage_error_annotated(self, manifest, corpus, pipeline_store,
                                   trained_coltype_model, monkeypatch):
        def broken(table, model, question, types, store):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "predict_select", broken)
        bundle = ModelBundle(coltype_model=trained_coltype_model)
        entry = manifest[0]
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(entry.question, corpus, None, bundle, pipeline_store,
                         golden_table=corpus[entry.table_id])
        assert exc.value.stage == "select-clause"
        assert "boom" in str(exc.value)

    def test_sweep_records_failures_without_aborting(self, manifest, corpus,
                                                     corpus_index, pipeline_store,
                                                     trained_coltype_model,
                                                     monkeypatch):
        calls = {"n": 0}
        by_tokens = entry_by_tokens(manifest)

        def flaky(table, model, question, types, store):
            calls["n"] += 1
            if calls["n"] % 7 == 0:
                raise RuntimeError("intermittent")
            return gold_select_indices(by_tokens[question.tokens], table)

        use_oracles(monkeypatch, manifest)
        monkeypatch.setattr(harness, "predict_select", flaky)
        bundle = ModelBundle(coltype_model=trained_coltype_model)
        grid = sweep_pipeline(manifest[:10], corpus, corpus_index, bundle,
                              pipeline_store)
        assert all(len(cell.outcomes) == 10 for cell in grid.values())
        failures = [f for cell in grid.values() for f in cell.failures]
        assert failures
        for failure in failures:
            assert failure.f1 == 0.0
            assert "select-clause" in failure.error


class TestWhereFlagConsistency:
    def test_training_and_inference_paths_agree_on_same_select_set(
        self, manifest, corpus, pipeline_store, trained_coltype_model
    ):
        # with predicted SELECT equal to gold SELECT, the in-SELECT flag
        # and the full 77-dim vector are identical on both paths
        import numpy as np

        entry = next(e for e in manifest if e.qid == "q01")
        table = corpus[entry.table_id]
        question = parse_question(entry.question)
        types = column_types(question, table, trained_coltype_model)
        gold = gold_select_indices(entry, table)
        pairs = [(c, w) for c in range(table.n_columns)
                 for w in range(len(question.tokens))]
        training = featurize_where(table, pairs, gold, question, types)
        inference = featurize_where(table, pairs, set(gold), question, types)
        assert np.array_equal(training, inference)


class TestNoIndexedWord:
    """A question with no word the index holds is a source-selection error
    wherever it is ranked."""

    MESSAGE = ("[source-selection] question has no indexed word to rank "
               "tables by: 'the of a'")

    def test_select_source_and_run_pipeline(self, corpus, corpus_index,
                                            pipeline_store):
        index = corpus_index
        with pytest.raises(PipelineStageError) as exc:
            select_source(parse_question("the of a"), corpus, index)
        assert (exc.value.stage, str(exc.value)) == ("source-selection",
                                                     self.MESSAGE)
        with pytest.raises(PipelineStageError, match=re.escape(self.MESSAGE)):
            run_pipeline("the of a", corpus, index, ModelBundle(),
                         pipeline_store)

    def test_sweep_scores_it_as_a_failure(self, manifest, corpus, corpus_index,
                                          pipeline_store):
        entry = replace(manifest[0], question="the of a")
        grid = sweep_pipeline([entry], corpus, corpus_index, ModelBundle(),
                              pipeline_store)
        for (scope, _), cell in grid.items():
            if scope is Scope.GOLDEN_TABLE:
                continue
            assert [(o.qid, o.f1, o.error) for o in cell.outcomes] == \
                [(entry.qid, 0.0, self.MESSAGE)]

    def test_retrieval_evaluation_scores_it_as_a_miss(self, manifest, corpus_index):
        # inverse-Euclidean would rank its all-zero vector by table norm
        entry = replace(manifest[0], question="the of a",
                        table_id="wizards-record", alternates=())
        report = evaluate_retrieval([entry], corpus_index)
        for sim in Similarity:
            assert report[sim] == {"p_at_k": {1: 0.0, 3: 0.0, 5: 0.0, 10: 0.0},
                                   "adjusted_p_at_k": None}, sim

    def test_only_that_question_is_a_miss(self, manifest, corpus_index):
        unindexed = replace(manifest[0], qid="unindexed", question="the of a")
        report = evaluate_retrieval(manifest + [unindexed], corpus_index)
        want = evaluate_retrieval(manifest, corpus_index)
        n = len(manifest)
        for sim in Similarity:
            for key in ("p_at_k", "adjusted_p_at_k"):
                assert report[sim][key] == {
                    k: round(p * n) / (n + 1) for k, p in want[sim][key].items()}


def count_scans(monkeypatch):
    """The texts passed to ``token_starts`` and to ``tokenize`` from now
    on, through any tableqa module's binding."""
    scans, tokenized = [], []
    real_scan, real_tokenize = textproc.token_starts, textproc.tokenize

    def counting_scan(text):
        scans.append(text)
        return real_scan(text)

    def counting_tokenize(text, *args, **kwargs):
        tokenized.append(text)
        return real_tokenize(text, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "tableqa":
            continue
        if getattr(module, "token_starts", None) is real_scan:
            monkeypatch.setattr(module, "token_starts", counting_scan)
        if getattr(module, "tokenize", None) is real_tokenize:
            monkeypatch.setattr(module, "tokenize", counting_tokenize)
    return scans, tokenized


class TestEachQuestionScannedOnce:
    """Every stage reads one parse of the question: one ``token_starts``
    scan per question, and ``tokenize`` never sees it."""

    def test_parse_question(self, monkeypatch):
        question = "What is the capital of Texas?"
        want = parse_question(question)
        scans, tokenized = count_scans(monkeypatch)
        assert parse_question(question) == want
        assert (scans, tokenized) == ([question], [])

    @pytest.mark.parametrize("with_index", [True, False])
    def test_run_pipeline(self, manifest, corpus, corpus_index, pipeline_store,
                          trained_bundle, monkeypatch, with_index):
        index = corpus_index if with_index else None

        def run(entry):
            golden = None if with_index else corpus[entry.table_id]
            return run_pipeline(entry.question, corpus, index, trained_bundle,
                                pipeline_store, golden_table=golden)

        entries = manifest[:10]
        want = [run(e) for e in entries]
        scans, tokenized = count_scans(monkeypatch)
        assert [run(e) for e in entries] == want
        questions = [e.question for e in entries]
        assert scans == questions
        assert not set(tokenized) & set(questions)

    def test_sweep_pipeline(self, manifest, corpus, corpus_index, pipeline_store,
                            trained_bundle, monkeypatch):
        scans, tokenized = count_scans(monkeypatch)
        sweep_pipeline(manifest, corpus, corpus_index, trained_bundle,
                       pipeline_store)
        questions = [e.question for e in manifest]
        assert scans == questions
        assert not set(tokenized) & set(questions)

    def test_evaluate_retrieval(self, manifest, corpus_index, monkeypatch):
        scans, tokenized = count_scans(monkeypatch)
        evaluate_retrieval(manifest, corpus_index)
        questions = [e.question for e in manifest]
        assert scans == questions
        assert not set(tokenized) & set(questions)


class TestTokenlessQuestion:
    """A question without a single token fails in the stage that first
    needs one: source selection with an index, featurization without."""

    def test_golden_table_fails_at_featurization(self, corpus, pipeline_store,
                                                 trained_bundle):
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline("???", corpus, None, trained_bundle, pipeline_store,
                         golden_table=corpus["state-capitals"])
        assert str(exc.value) == \
            "[featurization] cannot classify an empty question"

    def test_index_fails_at_source_selection(self, corpus, corpus_index,
                                             pipeline_store, trained_bundle):
        index = corpus_index
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline("???", corpus, index, trained_bundle, pipeline_store)
        assert str(exc.value) == ("[source-selection] question has no indexed "
                                  "word to rank tables by: '???'")


class TestRetrievalEvaluation:
    def test_p_at_k_shape_and_monotonicity(self, manifest, corpus_index):
        report = evaluate_retrieval(manifest, corpus_index)
        for sim in Similarity:
            p = report[sim]["p_at_k"]
            assert set(p) == {1, 3, 5, 10}
            assert p[1] <= p[3] <= p[5] <= p[10]

    def test_adjusted_at_least_plain(self, manifest, corpus_index):
        report = evaluate_retrieval(manifest, corpus_index)
        for sim in Similarity:
            plain = report[sim]["p_at_k"]
            adjusted = report[sim]["adjusted_p_at_k"]
            assert adjusted is not None
            for k in plain:
                assert adjusted[k] >= plain[k]

    def test_fixture_retrieval_quality(self, manifest, corpus_index):
        report = evaluate_retrieval(manifest, corpus_index)
        best = max(report[sim]["p_at_k"][1] for sim in Similarity)
        assert best >= 0.6


# The per-clause loops that the shared gold walk, ``where_candidates`` and
# the confusion counter replaced, verbatim.

def reference_build_select_samples(entries, tables, store, bundle):
    """(25-dim vector, in-SELECT label) per (question, column)."""
    samples = []
    for entry in entries:
        table = tables[entry.table_id]
        question = parse_question(entry.question)
        types = column_types(question, table, bundle.coltype_model)
        gold = gold_select_indices(entry, table)
        features = featurize_select(table, question, types, store)
        for c in range(table.n_columns):
            samples.append((features[c], int(c in gold)))
    return samples


def reference_build_where_samples(entries, tables, store, bundle):
    """(77-dim vector, in-WHERE label) per (question, column, word).

    The in-SELECT flag comes from the gold SELECT clause, isolating WHERE
    training from SELECT prediction errors.
    """
    samples = []
    for entry in entries:
        table = tables[entry.table_id]
        question = parse_question(entry.question)
        types = column_types(question, table, bundle.coltype_model)
        gold_select = gold_select_indices(entry, table)
        gold_pairs = gold_where_pairs(entry, table)
        for c in range(table.n_columns):
            for w in question.where_words:
                vec = featurize_where(table, [(c, w)], gold_select, question, types)[0]
                label = int((c, question.tokens[w]) in gold_pairs)
                samples.append((vec, label))
    return samples


def reference_evaluate_select(entries, tables, store, bundle):
    tp = fp = fn = tn = 0
    for entry in entries:
        table = tables[entry.table_id]
        question = parse_question(entry.question)
        types = column_types(question, table, bundle.coltype_model)
        gold = gold_select_indices(entry, table)
        predicted = predict_select(table, bundle.select_model, question, types, store)
        for c in range(table.n_columns):
            hit, truth = c in predicted, c in gold
            tp += hit and truth
            fp += hit and not truth
            fn += truth and not hit
            tn += not hit and not truth
    return metrics_from_confusion(tp, fp, fn, tn)


def reference_evaluate_where(entries, tables, store, bundle):
    tp = fp = fn = tn = 0
    for entry in entries:
        table = tables[entry.table_id]
        question = parse_question(entry.question)
        types = column_types(question, table, bundle.coltype_model)
        gold_select = gold_select_indices(entry, table)
        gold_pairs = gold_where_pairs(entry, table)
        predicted = predict_where(table, bundle.where_model, question, types,
                                  gold_select)
        for c in range(table.n_columns):
            for w in question.where_words:
                pair = (c, question.tokens[w])
                hit, truth = pair in predicted, pair in gold_pairs
                tp += hit and truth
                fp += hit and not truth
                fn += truth and not hit
                tn += not hit and not truth
    return metrics_from_confusion(tp, fp, fn, tn)


@pytest.fixture(scope="module")
def trained_bundle(cli_workspace):
    models = cli_workspace / "models"
    return ModelBundle(select_model=load_model(models / "select.model"),
                       where_model=load_model(models / "where.model"),
                       coltype_model=load_model(models / "column-type.model"))


class TestMatchesReferenceLoops:
    @pytest.mark.parametrize("build, reference", [
        (build_select_samples, reference_build_select_samples),
        (build_where_samples, reference_build_where_samples),
    ])
    def test_samples_equal_in_order(self, manifest, corpus, pipeline_store,
                                    trained_bundle, build, reference):
        got = build(manifest, corpus, pipeline_store, trained_bundle)
        want = reference(manifest, corpus, pipeline_store, trained_bundle)
        assert len(got) == len(want)
        assert [label for _, label in got] == [label for _, label in want]
        for (vec, _), (ref, _) in zip(got, want):
            assert vec.dtype == ref.dtype
            assert vec.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("evaluate, reference", [
        (evaluate_select, reference_evaluate_select),
        (evaluate_where, reference_evaluate_where),
    ])
    def test_confusion_metrics_equal(self, manifest, corpus, pipeline_store,
                                     trained_bundle, evaluate, reference):
        for split in Split:
            entries = [e for e in manifest if e.split is split]
            got = evaluate(entries, corpus, pipeline_store, trained_bundle)
            assert got == reference(entries, corpus, pipeline_store,
                                    trained_bundle)
            assert got.fp + got.fn > 0    # the models are not perfect here


# The sweep before its cells shared stage results, verbatim: one
# run_pipeline call per (scope, row mode, entry).

def reference_entry_outcome(entry, tables, index, bundle, store, row_mode,
                            scope) -> QuestionOutcome:
    golden = tables[entry.table_id] if scope is Scope.GOLDEN_TABLE else None
    try:
        result = run_pipeline(
            entry.question, tables, index, bundle, store,
            row_mode=row_mode, golden_table=golden,
        )
    except PipelineStageError as exc:
        return QuestionOutcome(entry.qid, 0.0, 0.0, 0.0, error=str(exc))
    if result.table_id != entry.table_id:
        # wrong source table: no chance of recovering the gold cells
        return QuestionOutcome(entry.qid, 0.0, 0.0, 0.0)
    p, r, f = cell_prf(set(result.cells), set(entry.gold_cells))
    return QuestionOutcome(entry.qid, p, r, f)


def reference_sweep_pipeline(entries, tables, index, bundle, store):
    indexes = {split: split_index(entries, tables, split)
               for split in {e.split for e in entries}}
    indexes[None] = index

    grid = {}
    for scope in Scope:
        for row_mode in RowMode:
            outcomes = []
            for entry in entries:
                index = indexes[entry.split if scope is Scope.INDIVIDUAL_SET else None]
                outcomes.append(reference_entry_outcome(entry, tables, index, bundle,
                                                        store, row_mode, scope))
            grid[(scope, row_mode)] = SweepCell(scope, row_mode, outcomes)
    return grid


def _hashed(*parts) -> int:
    return zlib.crc32("|".join(parts).encode("utf-8"))


def fail_select_on_some_pairs(monkeypatch):
    """predict_select raises for a fixed subset of (question, table) pairs,
    on every call for that pair."""
    def flaky(table, model, question, types, store):
        if _hashed(*question.tokens, table.id) % 7 == 0:
            raise RuntimeError(f"no SELECT for {table.id}")
        return predict_select(table, model, question, types, store)

    monkeypatch.setattr(harness, "predict_select", flaky)


def fail_retrieval_on_some_questions(monkeypatch):
    """Building the question's vector raises for a fixed subset of
    questions, whichever index."""
    real = harness.question_vector

    def flaky(index, stems, text):
        if _hashed(*stems) % 5 == 0:
            raise RuntimeError("index unavailable")
        return real(index, stems, text)

    monkeypatch.setattr(harness, "question_vector", flaky)


def fail_embedding_rows_on_some_tables(monkeypatch):
    """Embedding row selection raises for a fixed subset of tables."""
    real = harness.select_rows_embedding

    def flaky(table, pairs, store):
        if _hashed(table.id) % 4 == 0:
            raise RuntimeError("no embedding rows")
        return real(table, pairs, store)

    monkeypatch.setattr(harness, "select_rows_embedding", flaky)


class TestMatchesReferenceSweep:
    @pytest.mark.parametrize("break_stage, stage", [
        (None, None),
        (fail_select_on_some_pairs, "select-clause"),
        (fail_retrieval_on_some_questions, "source-selection"),
        (fail_embedding_rows_on_some_tables, "row-selection"),
    ], ids=["trained", "select-fails", "retrieval-fails", "rows-fail"])
    def test_grid_equals_cell_by_cell_runs(self, manifest, corpus, corpus_index,
                                           pipeline_store, trained_bundle,
                                           monkeypatch, break_stage, stage):
        if break_stage is not None:
            break_stage(monkeypatch)
        got = sweep_pipeline(manifest, corpus, corpus_index, trained_bundle,
                             pipeline_store)
        want = reference_sweep_pipeline(manifest, corpus, corpus_index,
                                        trained_bundle, pipeline_store)
        assert list(got) == list(want)
        assert got == want
        errors = [o.error for cell in got.values() for o in cell.failures]
        if stage is None:
            assert not errors
            assert any(cell.macro[2] > 0 for cell in got.values())
        else:
            assert errors
            assert all(e.startswith(f"[{stage}] ") for e in errors)

    def test_failing_on_nth_call_reaches_every_cell_sharing_it(
            self, manifest, corpus, corpus_index, pipeline_store, trained_bundle,
            monkeypatch):
        # the sweep predicts SELECT once per (question, table), so a failure
        # on every 7th of its calls fails every cell that reached that pair,
        # as failing the pair on each per-cell call does
        calls, failed = [], set()

        def nth(table, model, question, types, store):
            calls.append(None)
            if len(calls) % 7 == 0:
                failed.add((question.tokens, table.id))
                raise RuntimeError("intermittent")
            return predict_select(table, model, question, types, store)

        def replay(table, model, question, types, store):
            if (question.tokens, table.id) in failed:
                raise RuntimeError("intermittent")
            return predict_select(table, model, question, types, store)

        monkeypatch.setattr(harness, "predict_select", nth)
        got = sweep_pipeline(manifest, corpus, corpus_index, trained_bundle,
                             pipeline_store)
        assert len(failed) == len(calls) // 7 > 0
        monkeypatch.setattr(harness, "predict_select", replay)
        want = reference_sweep_pipeline(manifest, corpus, corpus_index,
                                        trained_bundle, pipeline_store)
        assert got == want

    def test_clauses_predicted_once_per_question_and_table(
            self, manifest, corpus, corpus_index, pipeline_store, trained_bundle,
            monkeypatch):
        calls = []

        def counting(predict, name):
            def wrapper(table, model, question, *args):
                calls.append((name, question.tokens, table.id))
                return predict(table, model, question, *args)
            return wrapper

        monkeypatch.setattr(harness, "predict_select",
                            counting(clauses.predict_select, "select"))
        monkeypatch.setattr(harness, "predict_where",
                            counting(clauses.predict_where, "where"))

        sweep_pipeline(manifest, corpus, corpus_index, trained_bundle,
                       pipeline_store)
        shared = list(calls)
        calls.clear()
        reference_sweep_pipeline(manifest, corpus, corpus_index, trained_bundle,
                                 pipeline_store)

        for name in ("select", "where"):
            once = [c for c in shared if c[0] == name]
            per_cell = [c for c in calls if c[0] == name]
            assert len(per_cell) == 6 * len(manifest) == 312
            assert len(once) == len(set(once)) == len(set(per_cell)) == 108
            assert set(once) == set(per_cell)
