"""`ingest` saves the all-tables retrieval index as `<ws>/index.npz`, with
the sha256 of each table file; the commands that rank all tables load it
and read only the workspace tables they reach. A missing, damaged or
out-of-date index is an error naming the file and how to rebuild it, and
so is a table file edited since ingest."""

import contextlib
import hashlib
import io
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableqa import cli, harness
from tableqa.cli import main
from tableqa.harness import TableDir, load_corpus
from tableqa.retrieval import build_index, index_bytes, load_index

QUESTION = "What is the capital of Louisiana?"


def run(argv):
    """(exit code, stdout, stderr) of an in-process ``tableqa`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def ingest(fx, ws, tables=None):
    return run(["ingest", "--tables", tables or fx / "tables",
                "--kinds", fx / "table_types.txt", "--workspace", ws])


def file_digests(tables_dir):
    """Table id -> the sha256 of its file, as ingest saves them."""
    return {p.stem: hashlib.sha256(p.read_bytes()).digest()
            for p in Path(tables_dir).iterdir()}


def commands(ws, fx):
    """The four commands that load the index, by name."""
    inputs = ["--manifest", fx / "manifest.txt", "--embeddings", fx / "pipeline.vec"]
    return {
        "ask": ["ask", QUESTION, "--workspace", ws, "--sim", "cosine", *inputs],
        "retrieve": ["retrieve", "--workspace", ws, "--question", QUESTION,
                     "--sim", "cosine"],
        "eval-retrieval": ["eval", "--task", "retrieval", "--workspace", ws,
                           "--format", "json", *inputs],
        "pipeline-eval": ["pipeline-eval", "--workspace", ws, "--split", "test",
                          "--format", "json", *inputs],
    }


@pytest.fixture
def ws(cli_workspace, tmp_path):
    """A copy of the trained fixture workspace that a test may damage."""
    copy = tmp_path / "ws"
    shutil.copytree(cli_workspace, copy)
    return copy


@pytest.fixture(scope="module")
def pristine(cli_workspace, fixtures_dir):
    """Each command's (exit code, stdout) on the undamaged workspace."""
    return {name: run(argv)[:2]
            for name, argv in commands(cli_workspace, fixtures_dir).items()}


class TestIngestSavesTheIndex:
    def test_unchanged_reingest_builds_nothing(self, fixtures_dir, tmp_path,
                                               monkeypatch):
        builds = []
        real_build = cli.build_index
        monkeypatch.setattr(cli, "build_index", lambda tables: builds.append(
            len(tables)) or real_build(tables))
        ws = tmp_path / "ws"
        assert ingest(fixtures_dir, ws)[0] == 0
        saved = (ws / "index.npz").read_bytes()
        assert builds == [58]
        assert ingest(fixtures_dir, ws)[0] == 0
        assert builds == [58]
        assert (ws / "index.npz").read_bytes() == saved

    def test_missing_index_is_rebuilt_by_a_reingest(self, fixtures_dir, tmp_path):
        ws = tmp_path / "ws"
        assert ingest(fixtures_dir, ws)[0] == 0
        saved = (ws / "index.npz").read_bytes()
        (ws / "index.npz").unlink()
        assert ingest(fixtures_dir, ws)[0] == 0
        assert (ws / "index.npz").read_bytes() == saved

    @pytest.mark.parametrize("damage", ["no-digests", "garbage", "one-stale-digest"])
    def test_reingest_repairs_an_unreadable_or_stale_index(
            self, ws, fixtures_dir, pristine, damage):
        # an index from before digests, one of garbage bytes and one whose
        # digest of a table is not its file's are each rebuilt by ingest
        path = ws / "index.npz"
        saved = path.read_bytes()
        if damage == "garbage":
            path.write_bytes(b"not an index\n" * 64)
        else:
            with np.load(path) as archive:
                arrays = {name: archive[name] for name in archive.files}
            if damage == "no-digests":
                del arrays["digests"]
            else:
                arrays["digests"][0] = b"\x01" * 32
            with open(path, "wb") as fh:
                np.savez(fh, **arrays)
        argv = commands(ws, fixtures_dir)["ask"]
        assert run(argv)[0] == 1
        assert ingest(fixtures_dir, ws)[0] == 0
        assert path.read_bytes() == saved
        assert run(argv)[:2] == pristine["ask"]
        assert pristine["ask"][0] == 0

    def test_deleted_table_is_no_longer_ranked(self, fixtures_dir, tmp_path):
        src, ws = tmp_path / "src", tmp_path / "ws"
        shutil.copytree(fixtures_dir / "tables", src)
        assert ingest(fixtures_dir, ws, src)[0] == 0
        argv = ["retrieve", "--workspace", ws, "--sim", "cosine",
                "--question", "Where was Albert Einstein born?"]
        assert run(argv)[1].splitlines()[0].split()[1] == "albert-einstein"
        (src / "albert-einstein.csv").unlink()
        assert ingest(fixtures_dir, ws, src)[0] == 0
        code, out, _ = run(argv)
        assert code == 0 and "albert-einstein" not in out
        index = load_index(ws / "index.npz", TableDir(ws / "tables"))
        assert "albert-einstein" not in index.table_ids

    def test_an_ingest_cut_short_leaves_no_stale_index(self, fixtures_dir, tmp_path,
                                                       monkeypatch):
        # the table is rewritten, then ingest fails before it saves the
        # index: the old index must not survive to rank the new table
        src, ws = tmp_path / "src", tmp_path / "ws"
        shutil.copytree(fixtures_dir / "tables", src)
        assert ingest(fixtures_dir, ws, src)[0] == 0
        path = src / "state-capitals.csv"
        path.write_text(path.read_text().replace("Baton Rouge", "Baton Rogue"))

        def failing(tables_dir):
            raise OSError("listing failed")

        monkeypatch.setattr(cli, "table_files", failing)
        assert ingest(fixtures_dir, ws, src)[:2] == (1, "")
        assert not (ws / "index.npz").exists()
        monkeypatch.undo()
        assert ingest(fixtures_dir, ws, src)[0] == 0
        fresh = build_index(list(load_corpus(ws / "tables").values()))
        assert (ws / "index.npz").read_bytes() == index_bytes(
            fresh, file_digests(ws / "tables"))

    def test_corpus_without_tables_is_error(self, fixtures_dir, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, out, err = ingest(fixtures_dir, tmp_path / "ws", empty)
        assert (code, out) == (1, "")
        assert err == f"error: {empty}: no table files to ingest\n"
        assert not (tmp_path / "ws").exists()


def _truncated(ws, fx):
    path = ws / "index.npz"
    path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])


def _model_copied_over(ws, fx):
    shutil.copyfile(ws / "models" / "where.model", ws / "index.npz")


def _deleted(ws, fx):
    (ws / "index.npz").unlink()


def _table_added(ws, fx):
    tables = ws / "tables"
    shutil.copyfile(tables / "beethoven.csv", tables / "zz-extra.csv")


def _table_removed(ws, fx):
    # a table the manifest does not name, so manifest validation passes
    (ws / "tables" / "beethoven.csv").unlink()


def recover(message, ws, fx):
    """Do what the error message says to rebuild the index."""
    if "delete it and run `tableqa ingest` again" in message:
        (ws / "index.npz").unlink()
    else:
        assert "run `tableqa ingest` to build it" in message, message
    assert ingest(fx, ws)[0] == 0


class TestBadIndex:
    @pytest.mark.parametrize("command", ["ask", "retrieve", "eval-retrieval",
                                         "pipeline-eval"])
    @pytest.mark.parametrize("damage, problem", [
        (_truncated, "not a readable index"),
        (_model_copied_over, "not a readable index"),
        (_deleted, "missing"),
        (_table_added, "out of date with the tables: lacks 'zz-extra'"),
        (_table_removed, "out of date with the tables: indexes 'beethoven', "
                         "no longer there"),
    ], ids=["truncated", "model-file", "deleted", "table-added", "table-removed"])
    def test_is_an_error_naming_the_file_until_rebuilt(self, ws, fixtures_dir,
                                                      pristine, command, damage,
                                                      problem):
        damage(ws, fixtures_dir)
        argv = commands(ws, fixtures_dir)[command]
        code, out, err = run(argv)
        assert code == 1
        assert err.startswith(f"error: {ws / 'index.npz'}: {problem}")
        assert err.count("\n") == 1 and "Traceback" not in err
        recover(err, ws, fixtures_dir)
        assert run(argv)[:2] == pristine[command]

    def test_golden_ask_does_not_need_it(self, ws, fixtures_dir, monkeypatch):
        # it reads the table digests saved beside the index, not the index
        def no_index(path, table_ids):
            raise AssertionError("the index was loaded")

        monkeypatch.setattr(cli, "load_index", no_index)
        code, out, _ = run(["ask", "Who is the husband of Whoopi Goldberg?",
                            "--workspace", ws, "--scope", "golden",
                            "--manifest", fixtures_dir / "manifest.txt",
                            "--embeddings", fixtures_dir / "pipeline.vec"])
        assert code == 0 and "gold: match" in out

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_mutated_index(self, cli_workspace, fixtures_dir, pristine, mutate,
                           data):
        # one byte string changed as the mutate fixture changes a text:
        # bytes that are not UTF-8 ride along as lone surrogates
        saved = (cli_workspace / "index.npz").read_bytes()
        text = saved.decode("utf-8", "surrogateescape")
        damaged = mutate(data, text).encode("utf-8", "surrogateescape")
        with tempfile.TemporaryDirectory() as tmp:
            ws = Path(tmp) / "ws"
            ws.mkdir()
            (ws / "tables").symlink_to(cli_workspace / "tables")
            (ws / "index.npz").write_bytes(damaged)
            code, out, err = run(commands(ws, fixtures_dir)["retrieve"])
        if code == 0:   # the damage missed every byte that is read
            assert (code, out) == pristine["retrieve"]
        else:
            assert code == 1
            assert err.startswith(f"error: {ws / 'index.npz'}: ")
            assert "Traceback" not in err


def changed(table):
    return f"error: {table}: changed since ingest; run tableqa ingest\n"


class TestTablesReadOnFirstUse:
    def test_edited_table_ranked_first_names_the_file(self, ws, fixtures_dir):
        table = ws / "tables" / "state-capitals.csv"
        table.write_text("State,Capital,Population\nTexas,Austin\n")
        argv = ["ask", QUESTION, "--workspace", ws, "--sim", "cosine",
                "--embeddings", fixtures_dir / "pipeline.vec"]
        assert run(argv)[::2] == (1, changed(table))

    def test_repl_prints_it_and_answers_the_next_question(self, ws, fixtures_dir,
                                                         monkeypatch):
        table = ws / "tables" / "state-capitals.csv"
        table.write_text("State,Capital,Population\nTexas,Austin\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(
            f"{QUESTION}\nWho is the husband of Whoopi Goldberg?\n\n"))
        code, out, err = run(["ask", "--repl", "--workspace", ws, "--sim", "cosine",
                              "--embeddings", fixtures_dir / "pipeline.vec"])
        assert code == 0
        assert err == changed(table)
        assert "table: whoopi-goldberg" in out and "Lyle Trachtenberg" in out

    def test_pipeline_eval_reads_only_the_tables_it_reaches(self, ws, fixtures_dir,
                                                            pristine, monkeypatch):
        read, builds = [], []
        real_load, real_build = harness.load_table, harness.build_index
        monkeypatch.setattr(harness, "load_table", lambda path, fmt, **kw: read.append(
            path) or real_load(path, fmt, **kw))
        monkeypatch.setattr(harness, "build_index", lambda tables: builds.append(
            len(tables)) or real_build(tables))
        argv = commands(ws, fixtures_dir)["pipeline-eval"]
        assert run(argv)[:2] == pristine["pipeline-eval"]
        manifest = harness.parse_manifest(fixtures_dir / "manifest.txt")
        gold = {line.entry.table_id for line in manifest}
        test_gold = {line.entry.table_id for line in manifest
                     if line.entry.split is harness.Split.TEST}
        assert len(read) == len(set(read)) < 58
        assert {Path(p).stem for p in read} >= gold
        assert builds == [len(test_gold)]


class TestEditedTable:
    def test_is_an_error_until_a_reingest_restores_the_answer(self, ws, fixtures_dir,
                                                             pristine):
        table = ws / "tables" / "state-capitals.csv"
        table.write_text(table.read_text().replace("Louisiana", "Zanzibar"))
        argv = commands(ws, fixtures_dir)
        assert run(argv["ask"]) == (1, "", changed(table))
        assert run(argv["pipeline-eval"]) == (1, "", changed(table))
        # retrieve reads no table: it ranks by the index as ingested
        assert run(argv["retrieve"])[:2] == pristine["retrieve"]
        assert ingest(fixtures_dir, ws)[0] == 0
        assert "cell (0,1) [Capital]: Baton Rouge" in pristine["ask"][1]
        assert run(argv["ask"])[:2] == pristine["ask"]
