"""Tests of the benchmark itself: generator, tracer and output format."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_byte_stable_across_processes(tmp_path):
    corpus.generate(3, tmp_path / "a")
    # a second process with another hash seed must write the same bytes
    subprocess.run(
        [sys.executable, "-c", f"import corpus; corpus.generate(3, {str(tmp_path / 'b')!r})"],
        cwd=BENCH, check=True, capture_output=True,
        env={**os.environ, "PYTHONHASHSEED": "123"},
    )
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert len(a) == corpus.N_TABLES + 4
    assert a == b
    corpus.generate(4, tmp_path / "c")
    assert _files(tmp_path / "c")["manifest.txt"] != a["manifest.txt"]


def test_generated_corpus_passes_the_programs_validation(tmp_path):
    from tableqa.embed import load_embeddings
    from tableqa.harness import (ingest_corpus, load_corpus, load_manifest,
                                 load_table_kinds)
    from tableqa.textproc import STOPWORDS, tokenize
    from tableqa.typerec import load_column_labels

    counts = corpus.generate(5, tmp_path)
    tables = ingest_corpus(load_corpus(tmp_path / "tables"),
                           kinds=load_table_kinds(tmp_path / "table_kinds.txt"))
    store = load_embeddings(tmp_path / "corpus.vec")
    entries = load_manifest(tmp_path / "manifest.txt", tables, store)
    assert len(entries) == counts["questions"]
    assert {e.split.value for e in entries} == {"train", "dev", "test"}
    kinds = set(load_table_kinds(tmp_path / "table_kinds.txt").values())
    assert {k.value for k in kinds} == {"entity-instance", "key-value"}
    for tid, index, _ in load_column_labels(tmp_path / "column_labels.txt"):
        assert 0 <= index < tables[tid].n_columns
    vocab = {line.split(" ", 1)[0]
             for line in (tmp_path / "corpus.vec").read_text().splitlines()}
    for e in entries[:50]:
        words = [t for t in tokenize(e.question, drop_stopwords=True).tokens
                 if not t.isdigit()]
        assert words and all(w in vocab for w in words)
    assert not (vocab - set(corpus._TEMPLATE_WORDS)) & STOPWORDS


def test_tracer_wraps_every_binding_and_restores_them():
    import tableqa
    from tableqa import clauses, retrieval, textproc

    original = textproc.tokenize
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert textproc.tokenize is not original
        assert clauses.tokenize is textproc.tokenize
        assert retrieval.tokenize is textproc.tokenize
        tracer.set_phase("ask")
        retrieval.table_stems(tableqa.Table("t", "t", ["Capital"], [["Baton Rouge"]]))
        tracer.set_phase("idle")
    finally:
        tracer.uninstall()
    assert textproc.tokenize is original and clauses.tokenize is original
    self_s, total_s, calls, _, _ = tracer.merged()
    assert calls[("ask", "retrieval.table_stems")] == 1
    assert calls[("ask", "textproc.tokenize")] == 1
    assert calls[("ask", "textproc.porter_stem")] == 4   # t, capital, baton, rouge
    outer = total_s[("ask", "retrieval.table_stems")]
    inner = total_s[("ask", "textproc.tokenize")]
    assert self_s[("ask", "retrieval.table_stems")] == pytest.approx(outer - inner, abs=1e-4)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_metric_names_and_units_match_benchmark_json():
    result = {"setup_s": 0.5, "latencies": [0.01 * (i + 1) for i in range(200)],
              "train_s": 4.0, "eval_s": 1.5, "answer_f1": 0.5,
              "retrieval_p_at_1": 0.25}
    e2e = worker.end_to_end(result)
    assert {k: u for k, (_, u) in e2e.items()} == _declared("end_to_end")
    assert e2e["ask_p50_ms"][0] == pytest.approx(1005.0)

    traced = {"traced": (0.2, [0.01] * 4), "untraced": (0.1, [0.008] * 4),
              "questions": 4}
    layer = worker.per_layer(traced, spans.Tracer())
    assert {k: u for k, (_, u) in layer.items()} == _declared("per_layer")
    assert layer["ask.traced_ms_per_q"][0] == pytest.approx(10.0)
    assert layer["trace.overhead_ms_per_q"][0] == pytest.approx(2.0)


def test_result_and_fingerprint_lines():
    fingerprint = {"models": {"where": "ab"}, "answers": worker.digest([["t", [[0, 1]]]])}
    lines = worker.result_lines(
        fingerprint, {"ask_questions": 200},
        {"setup_s": (0.5, "s")}, attempted=3, failed=0, problems=[])
    assert lines[0].startswith("fingerprint ")
    assert json.loads(lines[0].split(" ", 1)[1]) == fingerprint
    assert len(fingerprint["answers"]) == 64
    last = json.loads(lines[-1])
    assert last == {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"setup_s": {"value": 0.5, "unit": "s"}},
                    "checks": []}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qa-fixture", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
