"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` to get one line per
criterion; each passing test also prints an `ACCEPTANCE PASS` line with
its headline measurement.
"""

import random
import time
from collections import Counter

import numpy as np
import pytest

from nn_gradient_check import gradient_check
from tableqa import harness
from tableqa.clauses import (
    SELECT_FEATURE_DIM,
    WHERE_FEATURE_DIM,
    column_types,
    featurize_select,
    featurize_where,
    parse_question,
    where_candidates,
)
from tableqa.embed import SimMatchConfig, load_embeddings, sim_match
from tableqa.harness import (
    ModelBundle,
    RowMode,
    Scope,
    Split,
    cell_prf,
    gold_select_indices,
    gold_where_pairs,
    metrics_from_confusion,
    run_pipeline,
    sweep_pipeline,
    train_select_model,
    train_where_model,
)
from tableqa.nn import MlpSpec, OutputHead, TrainConfig, init_model
from tableqa.query import intersect_cells, parse_query, select_rows_word_match
from tableqa.retrieval import Similarity, build_index, precision_at_k, score
from tableqa.tabular import (
    Table,
    TableKind,
    classify_table_type,
    extract_table_type_features,
    train_table_type_model,
    transpose_grid,
    transpose_key_value,
)
from tableqa.textproc import tokenize
from tableqa.typerec import (
    COLUMN_TYPE_SPEC,
    classify_column_type,
    extract_column_type_features,
    load_column_labels,
    train_column_type_model,
)


def _pass(name, detail):
    print(f"ACCEPTANCE PASS: {name} ({detail})")


class TestMetricArithmetic:
    def test_confusion_metric_rows(self):
        start = time.perf_counter()
        select_row = metrics_from_confusion(tp=182, fp=209, fn=30, tn=1001)
        where_row = metrics_from_confusion(tp=95, fp=106, fn=0, tn=4107)
        elapsed = time.perf_counter() - start
        assert round(select_row.accuracy * 100, 1) == 83.2
        assert round(select_row.recall * 100, 1) == 85.8
        assert round(select_row.precision * 100, 1) == 46.5
        assert round(where_row.accuracy * 100, 1) == 97.5
        assert round(where_row.recall * 100, 1) == 100.0
        assert round(where_row.precision * 100, 1) == 47.3
        assert elapsed < 1e-3
        _pass("metric-arithmetic", f"{elapsed * 1e6:.0f} us")


class TestGradientCorrectness:
    def test_all_architectures_ten_seeds(self):
        architectures = [
            MlpSpec(25, (32, 16, 8), OutputHead.BINARY2),
            MlpSpec(77, (32, 16, 8), OutputHead.BINARY2),
            MlpSpec(9, (32, 32), OutputHead.SOFTMAX7),
        ]
        start = time.perf_counter()
        worst = 0.0
        for seed in range(10):
            spec = architectures[seed % len(architectures)]
            rng = np.random.default_rng(1000 + seed)
            batch = [
                (rng.normal(size=spec.input_dim),
                 int(rng.integers(0, spec.output.n_classes)))
                for _ in range(3)
            ]
            worst = max(worst, gradient_check(spec, batch, epsilon=1e-5,
                                              seed=seed))
        elapsed = time.perf_counter() - start
        assert worst < 1e-4
        assert elapsed < 5.0
        _pass("gradient-correctness",
              f"max rel err {worst:.2e}, {elapsed:.2f}s")


class TestManifestRoundTrip:
    def test_every_entry_lossless_under_oracle_stubs(
        self, manifest, corpus, pipeline_store, trained_coltype_model,
        monkeypatch
    ):
        by_tokens = {tokenize(e.question).tokens: e for e in manifest}
        assert len(by_tokens) == len(manifest)
        monkeypatch.setattr(
            harness, "predict_select",
            lambda t, model, question, types, store:
                gold_select_indices(by_tokens[question.tokens], t))
        monkeypatch.setattr(
            harness, "predict_where",
            lambda t, model, question, types, sel:
                gold_where_pairs(by_tokens[question.tokens], t))
        bundle = ModelBundle(coltype_model=trained_coltype_model)
        start = time.perf_counter()
        for entry in manifest:
            query = parse_query(entry.gold_query)
            assert query.from_table == entry.table_id
            result = run_pipeline(
                entry.question, corpus, None, bundle, pipeline_store,
                row_mode=RowMode.WORD_MATCH,
                golden_table=corpus[entry.table_id],
            )
            _, _, f1 = cell_prf(set(result.cells), set(entry.gold_cells))
            assert f1 == 1.0, entry.qid
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        _pass("manifest-round-trip",
              f"{len(manifest)} entries, {elapsed * 1e3:.0f} ms")


class TestTransposeSoundness:
    def test_involution_multiset_rectangularity(self):
        rng = random.Random(42)
        start = time.perf_counter()
        for i in range(100):
            n_rows = rng.randrange(1, 8)
            n_cols = rng.randrange(1, 6)
            grid = [[f"{r}.{c}.{rng.randrange(100)}" for c in range(n_cols)]
                    for r in range(n_rows)]
            assert transpose_grid(transpose_grid(grid)) == grid

            keys = [f"key{j}" for j in range(n_rows)]
            rows = [[keys[j]] + grid[j] for j in range(n_rows)]
            kv = Table(id=f"t{i}", name=f"t{i}",
                       headers=["Key"] + [f"V{c}" for c in range(n_cols)],
                       rows=rows, kind=TableKind.KEY_VALUE)
            out = transpose_key_value(kv)
            assert out.n_rows == n_cols
            assert all(len(r) == n_rows for r in out.rows)
            before = Counter(c for row in rows for c in row)
            after = Counter(out.headers) + Counter(
                c for row in out.rows for c in row
            )
            assert before == after
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        _pass("transpose-soundness", f"100 tables, {elapsed * 1e3:.0f} ms")


class TestRetrievalSanity:
    def test_disjoint_corpus_and_monotonicity(self):
        start = time.perf_counter()
        tables = [
            Table(id=f"t{i:02d}", name=f"t{i:02d}", headers=["col"],
                  rows=[[f"vox{i}term{j}"] for j in range(4)])
            for i in range(10)
        ]
        index = build_index(tables)
        gold = {f"q{i}": t.id for i, t in enumerate(tables)}
        questions = {f"q{i}": f"about {t.rows[0][0]} and {t.rows[3][0]}"
                     for i, t in enumerate(tables)}
        for sim in Similarity:
            rankings = {qid: [tid for tid, _ in score(index, q, sim)]
                        for qid, q in questions.items()}
            assert precision_at_k(rankings, gold, 1) == 1.0, sim

        rng = random.Random(7)
        tids = [f"t{i}" for i in range(15)]
        for _ in range(1000):
            ranking = rng.sample(tids, len(tids))
            gold_one = {"q": rng.choice(tids)}
            values = [precision_at_k({"q": ranking}, gold_one, k)
                      for k in range(1, 16)]
            assert all(a <= b for a, b in zip(values, values[1:]))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        _pass("retrieval-sanity", f"{elapsed * 1e3:.0f} ms")


class TestTableTypeClassifier:
    def test_accuracy_on_labeled_fixture_set(self, raw_corpus, table_kinds):
        assert len(raw_corpus) >= 40
        kinds = [table_kinds[t] for t in raw_corpus]
        assert kinds.count(TableKind.KEY_VALUE) >= 20
        assert kinds.count(TableKind.ENTITY_INSTANCE) >= 20

        ids = sorted(raw_corpus)
        train_ids = ids[::2]
        start = time.perf_counter()
        model = train_table_type_model([
            (extract_table_type_features(raw_corpus[t]), table_kinds[t])
            for t in train_ids
        ])
        train_time = time.perf_counter() - start
        hits = sum(
            classify_table_type(extract_table_type_features(raw_corpus[t]),
                                model) is table_kinds[t]
            for t in ids
        )
        accuracy = hits / len(ids)
        assert accuracy >= 0.95
        assert train_time < 10.0
        # spot checks: a two-column key-header card and a wide uniform grid
        whoopi = extract_table_type_features(raw_corpus["whoopi-goldberg"])
        presidents = extract_table_type_features(raw_corpus["us-presidents"])
        assert classify_table_type(whoopi, model) is TableKind.KEY_VALUE
        assert classify_table_type(presidents, model) is TableKind.ENTITY_INSTANCE
        _pass("table-type-classifier",
              f"accuracy {accuracy:.3f} on {len(ids)} tables, "
              f"trained in {train_time:.2f}s")


class TestColumnTypeClassifier:
    def test_held_out_accuracy(self, fixtures_dir, corpus):
        labels = load_column_labels(fixtures_dir / "column_labels.txt")
        assert len(labels) >= 200
        featurized = [
            (extract_column_type_features(corpus[t].column(i)), c)
            for t, i, c in labels
        ]
        train_set = [x for i, x in enumerate(featurized) if i % 4 != 0]
        held_out = [x for i, x in enumerate(featurized) if i % 4 == 0]
        start = time.perf_counter()
        model = train_column_type_model(train_set,
                                        TrainConfig(epochs=300, seed=11))
        train_time = time.perf_counter() - start
        hits = sum(classify_column_type(f, model)[0] is c for f, c in held_out)
        accuracy = hits / len(held_out)
        assert accuracy >= 0.90
        assert train_time < 30.0
        _pass("column-type-classifier",
              f"held-out accuracy {accuracy:.3f} on {len(held_out)} of "
              f"{len(labels)} columns, trained in {train_time:.2f}s")


class TestFeatureLayoutContracts:
    def test_dimensions_and_onehot_sums_on_random_tables(self, pipeline_store):
        rng = random.Random(99)
        coltype_model = init_model(COLUMN_TYPE_SPEC, seed=0)
        words = ["Louisiana", "1999", "$5", "yes", "mile", "http://x",
                 "Baton Rouge", "42%", "word"]
        start = time.perf_counter()
        for _ in range(30):
            n_cols = rng.randrange(1, 6)
            n_rows = rng.randrange(1, 5)
            table = Table(
                id="r", name="r",
                headers=[f"H{i} {rng.choice(words)}" for i in range(n_cols)],
                rows=[[rng.choice(words) for _ in range(n_cols)]
                      for _ in range(n_rows)],
            )
            question = "What is the " + " ".join(
                rng.choice(words) for _ in range(rng.randrange(1, 4))
            )
            parsed = parse_question(question)
            types = column_types(parsed, table, coltype_model)
            select = featurize_select(table, parsed, types, pipeline_store)
            assert select.shape == (n_cols, SELECT_FEATURE_DIM)
            assert (select[:, 12:23].sum(axis=1) <= 1.0 + 1e-12).all()
            candidates = where_candidates(table, parsed)
            where = featurize_where(table, candidates, {0}, parsed, types)
            assert where.shape == (len(candidates), WHERE_FEATURE_DIM)
            for lo, hi in ((11, 22), (22, 34), (34, 40), (40, 77)):
                assert (where[:, lo:hi].sum(axis=1) <= 1.0 + 1e-12).all()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        _pass("feature-layout-contracts", f"{elapsed * 1e3:.0f} ms")


class TestSimMatchContract:
    def test_operator_contract(self, fixtures_dir):
        store = load_embeddings(fixtures_dir / "toy.vec")
        start = time.perf_counter()
        cfg = SimMatchConfig()
        # reflexivity
        for text in ["Washington", "UFC 200", "6' 3''", "anything at all"]:
            assert sim_match(store, cfg, text, text)
        # substring fallback
        assert sim_match(store, cfg, "UFC 200", "UFC")
        # authored toy geometry
        assert sim_match(store, cfg, "spouse", "husband")
        assert not sim_match(store, cfg, "capital", "husband")
        # threshold monotonicity
        rng = random.Random(3)
        vocab = ["spouse", "husband", "president", "capital", "zero", "oov"]
        for _ in range(200):
            cell, kw = rng.choice(vocab), rng.choice(vocab)
            low = rng.uniform(0.01, 1.2)
            high = low + rng.uniform(0.0, 1.0)
            if sim_match(store, SimMatchConfig(threshold=low), cell, kw):
                assert sim_match(store, SimMatchConfig(threshold=high), cell, kw)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        _pass("sim-match-contract", f"{elapsed * 1e3:.0f} ms")


class TestDirectionalClaims:
    def test_scope_and_row_mode_orderings(self, manifest, corpus, corpus_index,
                                          pipeline_store,
                                          trained_coltype_model):
        start = time.perf_counter()
        bundle = ModelBundle(coltype_model=trained_coltype_model)
        train_entries = [e for e in manifest if e.split is Split.TRAIN]
        bundle.select_model = train_select_model(
            train_entries, corpus, pipeline_store, bundle,
            TrainConfig(epochs=300, seed=21),
        )
        bundle.where_model = train_where_model(
            train_entries, corpus, pipeline_store, bundle,
            TrainConfig(epochs=300, seed=22),
        )
        grid = sweep_pipeline(manifest, corpus, corpus_index, bundle,
                              pipeline_store)
        elapsed = time.perf_counter() - start

        f1 = {key: cell.macro[2] for key, cell in grid.items()}
        for mode in RowMode:
            assert f1[(Scope.GOLDEN_TABLE, mode)] >= \
                f1[(Scope.INDIVIDUAL_SET, mode)] >= \
                f1[(Scope.ALL_SETS, mode)], mode
        for scope in Scope:
            assert f1[(scope, RowMode.WORD_MATCH)] >= \
                f1[(scope, RowMode.EMBEDDING)], scope
        assert elapsed < 120.0
        summary = ", ".join(
            f"{s.value}/{m.value}={f1[(s, m)]:.3f}"
            for s in Scope for m in RowMode
        )
        _pass("directional-claims", f"{summary}; {elapsed:.1f}s")


class TestDeterminism:
    def test_every_train_task_byte_identical(self, cli_workspace, fixtures_dir,
                                             tmp_path):
        from tableqa.cli import main

        fx = str(fixtures_dir)
        ws = str(cli_workspace)
        start = time.perf_counter()
        variants = {
            "table-type": ["--tables", f"{fx}/tables",
                           "--kinds", f"{fx}/table_types.txt"],
            "column-type": ["--labels", f"{fx}/column_labels.txt",
                            "--epochs", "40"],
            "select": ["--manifest", f"{fx}/manifest.txt",
                       "--embeddings", f"{fx}/pipeline.vec", "--epochs", "40"],
            "where": ["--manifest", f"{fx}/manifest.txt",
                      "--embeddings", f"{fx}/pipeline.vec", "--epochs", "40"],
        }
        for task, extra in variants.items():
            outs = []
            for run in (1, 2):
                out = tmp_path / f"{task}.{run}.model"
                code = main(["train", "--task", task, "--workspace", ws,
                             "--seed", "7", "--out", str(out)] + extra)
                assert code == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], task
        elapsed = time.perf_counter() - start
        _pass("determinism",
              f"4 tasks x 2 runs byte-identical, {elapsed:.1f}s")


class TestManifestScale:
    def test_corpus_and_split_shape(self, manifest, raw_corpus):
        # supporting check: corpus and manifest sized per the fixture plan
        assert len(manifest) >= 40
        counts = Counter(e.split for e in manifest)
        ratio = counts[Split.TRAIN] / len(manifest)
        assert 0.6 <= ratio <= 0.8
        _pass("fixture-scale",
              f"{len(raw_corpus)} tables, {len(manifest)} questions, "
              f"train share {ratio:.2f}")
