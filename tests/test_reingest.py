"""`ingest` makes the workspace mirror its corpus, and every workspace
file is written only when its bytes change."""

import builtins
import contextlib
import csv
import io
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableqa import cli
from tableqa.cli import main
from tableqa.harness import TableDir, ingest_corpus, load_corpus, load_table_kinds
from tableqa.nn import dump_model
from tableqa.tabular import TableKind


def _ingest(tables, kinds, ws):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["ingest", "--tables", str(tables), "--kinds", str(kinds),
                     "--workspace", str(ws)])
    return code, out.getvalue(), err.getvalue()


def _stats(ws: Path) -> dict:
    """(mtime_ns, inode) of every file under ``ws``."""
    return {p.relative_to(ws): (p.stat().st_mtime_ns, p.stat().st_ino)
            for p in sorted(ws.rglob("*")) if p.is_file()}


def _tree(ws: Path) -> dict:
    return {p.relative_to(ws): p.read_bytes()
            for p in sorted(ws.rglob("*")) if p.is_file()}


@contextlib.contextmanager
def _opened_for_writing():
    """The paths ``open`` is asked to write, append or create while the
    block runs."""
    paths = []
    real_open = builtins.open

    def recording(file, mode="r", *args, **kwargs):
        if any(c in mode for c in "wax+"):
            paths.append(file)
        return real_open(file, mode, *args, **kwargs)

    builtins.open = recording
    try:
        yield paths
    finally:
        builtins.open = real_open


@pytest.fixture
def corpus_copy(fixtures_dir, tmp_path):
    """A copy of the fixture tables that a test may edit, and the kinds."""
    tables = tmp_path / "src"
    shutil.copytree(fixtures_dir / "tables", tables)
    return tables, fixtures_dir / "table_types.txt"


class TestMirror:
    def test_deleted_table_is_removed_from_the_workspace(self, corpus_copy,
                                                         tmp_path):
        tables, kinds = corpus_copy
        ws = tmp_path / "ws"
        assert _ingest(tables, kinds, ws)[0] == 0
        (tables / "albert-einstein.csv").unlink()
        code, out, _ = _ingest(tables, kinds, ws)
        assert code == 0
        assert out == (f"ingested 57 tables into {ws / 'tables'} (28 transposed);"
                       " removed 1 stale table file\n")
        assert len(list((ws / "tables").iterdir())) == 57
        assert "albert-einstein" not in load_corpus(ws / "tables")
        assert "albert-einstein" not in (ws / "table_kinds.txt").read_text()

    def test_stale_tsv_does_not_shadow_the_fresh_csv(self, corpus_copy, tmp_path):
        # of a .csv and a .tsv with one stem, load_corpus reads the .tsv
        tables, kinds = corpus_copy
        ws = tmp_path / "ws"
        (ws / "tables").mkdir(parents=True)
        (ws / "tables" / "state-capitals.tsv").write_text("stale\nrow\n")
        code, out, _ = _ingest(tables, kinds, ws)
        assert code == 0
        assert out.endswith("; removed 1 stale table file\n")
        assert not (ws / "tables" / "state-capitals.tsv").exists()
        fresh = load_corpus(ws / "tables")["state-capitals"]
        assert fresh.headers == load_corpus(tables)["state-capitals"].headers

    def test_files_that_are_not_tables_are_left_alone(self, corpus_copy,
                                                      tmp_path):
        tables, kinds = corpus_copy
        ws = tmp_path / "ws"
        others = ["notes.txt", "upper.CSV", ".csv", "plain"]
        (ws / "tables" / "sub").mkdir(parents=True)
        for name in others:
            (ws / "tables" / name).write_text("x\n1\n")
        (ws / "tables" / "stale.csv").write_text("x\n1\n")
        code, out, _ = _ingest(tables, kinds, ws)
        assert code == 0
        assert out.endswith("; removed 1 stale table file\n")
        left = {p.name for p in (ws / "tables").iterdir()}
        assert left == {f"{tid}.csv" for tid in load_corpus(tables)} \
            | set(others) | {"sub"}

    def test_summary_is_unchanged_when_nothing_is_removed(self, fixtures_dir,
                                                          tmp_path):
        ws = tmp_path / "ws"
        for _ in range(2):
            code, out, _ = _ingest(fixtures_dir / "tables",
                                   fixtures_dir / "table_types.txt", ws)
            assert code == 0
            assert out == f"ingested 58 tables into {ws / 'tables'} (29 transposed)\n"

    @pytest.mark.parametrize("name", ["albert-einstein.csv", "stale.csv"],
                             ids=["written", "stale"])
    def test_directory_named_like_a_table_is_error(self, fixtures_dir, tmp_path,
                                                   name):
        ws = tmp_path / "ws"
        (ws / "tables" / name).mkdir(parents=True)
        code, out, err = _ingest(fixtures_dir / "tables",
                                 fixtures_dir / "table_types.txt", ws)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and name in err
        assert "Traceback" not in err


class TestWritesOnlyWhatChanged:
    def test_reingesting_an_unchanged_corpus_opens_no_file_for_writing(
            self, fixtures_dir, tmp_path):
        ws = tmp_path / "ws"
        args = (fixtures_dir / "tables", fixtures_dir / "table_types.txt", ws)
        assert _ingest(*args)[0] == 0
        before = _stats(ws)
        with _opened_for_writing() as written:
            assert _ingest(*args)[0] == 0
        assert written == []
        assert _stats(ws) == before

    def test_changed_table_is_rewritten_and_the_rest_kept(self, corpus_copy,
                                                          tmp_path):
        tables, kinds = corpus_copy
        ws = tmp_path / "ws"
        assert _ingest(tables, kinds, ws)[0] == 0
        before = _stats(ws)
        path = tables / "state-capitals.csv"
        path.write_text(path.read_text().replace("Baton Rouge", "Baton Rogue"))
        with _opened_for_writing() as written:
            assert _ingest(tables, kinds, ws)[0] == 0
        # the index covers the table's words, so it is rebuilt and rewritten
        changed = [Path("tables") / "state-capitals.csv", Path("index.npz")]
        assert [Path(p).relative_to(ws) for p in written] == changed
        assert "Baton Rogue" in (ws / changed[0]).read_text()
        after = _stats(ws)
        assert {k: v for k, v in after.items() if k not in changed} == \
            {k: v for k, v in before.items() if k not in changed}

    def test_retraining_rewrites_the_model_it_changed(self, cli_workspace,
                                                      fixtures_dir, tmp_path,
                                                      monkeypatch):
        # the bench compares the model files of same-seed trainings, so a
        # write skipped wrongly would look like a reproducible model
        ws = tmp_path / "ws"
        shutil.copytree(cli_workspace, ws)
        saved = []
        real_save = cli.save_model

        def recording(model, path):
            saved.append(model)
            real_save(model, path)

        monkeypatch.setattr(cli, "save_model", recording)
        model = ws / "models" / "column-type.model"
        contents = []
        for seed in ("7", "8", "8"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["train", "--task", "column-type", "--workspace",
                             str(ws), "--labels",
                             str(fixtures_dir / "column_labels.txt"),
                             "--seed", seed, "--epochs", "20"]) == 0
            assert model.read_text() == dump_model(saved[-1])
            contents.append((model.read_bytes(), model.stat().st_mtime_ns))
        assert contents[0][0] != contents[1][0]
        assert contents[1] == contents[2]       # same seed: not rewritten

    def test_unchanged_report_is_not_rewritten(self, cli_workspace, fixtures_dir,
                                               tmp_path):
        ws = tmp_path / "ws"
        shutil.copytree(cli_workspace, ws)
        argv = ["eval", "--task", "table-type", "--workspace", str(ws),
                "--tables", str(fixtures_dir / "tables"),
                "--kinds", str(fixtures_dir / "table_types.txt")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
            report = ws / "reports" / "table-type.json"
            before = report.stat().st_mtime_ns, report.read_bytes()
            with _opened_for_writing() as written:
                assert main(argv) == 0
        assert written == []
        assert (report.stat().st_mtime_ns, report.read_bytes()) == before


# ---------------------------------------------------------------------------
# Any sequence of corpus edits
# ---------------------------------------------------------------------------

# two TSV sources, key-value and entity-instance tables, and a table whose
# kind may flip both ways
_POOL = ("state-capitals", "easter-dates", "world-rivers", "whoopi-goldberg",
         "albert-einstein", "laptop-compare", "cm-inch", "planet-facts")
_CELL = st.text(alphabet="ab ,\"\t\né", max_size=4)


def _reference_kinds_text(raw) -> bytes:
    """table_kinds.txt as ingest wrote it before it went through
    ``write_if_changed``: one line per table, written to an open file."""
    with io.StringIO(newline="") as fh:
        for tid, table in sorted(raw.items()):
            fh.write(f"{tid}\t{table.kind.value}\n")
        return fh.getvalue().encode("utf-8")


def _write_source(tables: Path, table, fmt: str):
    for other in ("csv", "tsv"):
        (tables / f"{table.id}.{other}").unlink(missing_ok=True)
    with open(tables / f"{table.id}.{fmt}", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter="," if fmt == "csv" else "\t")
        writer.writerow(table.headers)
        writer.writerows(table.rows)


def _source_format(tables: Path, tid: str) -> str:
    return "tsv" if (tables / f"{tid}.tsv").exists() else "csv"


def _transposes(table) -> bool:
    keys = table.column(0)
    return table.n_columns >= 2 and len(set(keys)) == len(keys)


def _apply(data, edit, tables: Path, kinds: dict, pool: dict):
    """One edit of the source directory or of ``kinds``; False when the
    drawn edit does not apply."""
    present = sorted(load_corpus(tables))
    absent = [tid for tid in _POOL if tid not in present]
    if edit == "add":
        if not absent:
            return False
        tid = data.draw(st.sampled_from(absent))
        _write_source(tables, pool[tid], data.draw(st.sampled_from(["csv", "tsv"])))
        return True
    if not present:
        return False
    tid = data.draw(st.sampled_from(present))
    table = TableDir(tables)[tid]
    if edit == "delete":
        if len(present) == 1:
            return False
        (tables / f"{tid}.{_source_format(tables, tid)}").unlink()
    elif edit == "modify":
        # a value cell: never column 0, which a key-value table keys on
        row = data.draw(st.integers(0, table.n_rows - 1))
        col = data.draw(st.integers(1, table.n_columns - 1))
        rows = [list(r) for r in table.rows]
        rows[row][col] = data.draw(_CELL)
        _write_source(tables, replace(table, rows=rows),
                      _source_format(tables, tid))
    elif edit == "flip-kind":
        flipped = TableKind.ENTITY_INSTANCE if kinds[tid] is TableKind.KEY_VALUE \
            else TableKind.KEY_VALUE
        if flipped is TableKind.KEY_VALUE and not _transposes(table):
            return False
        kinds[tid] = flipped
    else:   # csv <-> tsv, the same table
        fmt = _source_format(tables, tid)
        _write_source(tables, table, "tsv" if fmt == "csv" else "csv")
    return True


class TestAnyEditSequence:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_workspace_mirrors_the_corpus_after_every_ingest(self, fixtures_dir,
                                                             data):
        fixture_kinds = load_table_kinds(fixtures_dir / "table_types.txt")
        fixture_tables = TableDir(fixtures_dir / "tables")
        pool = {tid: fixture_tables[tid] for tid in _POOL}
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            tables, ws = tmp / "src", tmp / "ws"
            tables.mkdir()
            kinds = {tid: fixture_kinds[tid] for tid in _POOL}
            for tid in _POOL[:data.draw(st.integers(1, len(_POOL)))]:
                _write_source(tables, pool[tid], _source_format(fixtures_dir
                                                                / "tables", tid))
            edits = data.draw(st.lists(st.sampled_from(
                ["add", "delete", "modify", "flip-kind", "rename"]), max_size=6))
            for step, edit in enumerate([None] + edits):
                if edit is not None and not _apply(data, edit, tables, kinds, pool):
                    continue
                kinds_path = tmp / "kinds.txt"
                kinds_path.write_text("".join(f"{tid}\t{kind.value}\n"
                                              for tid, kind in kinds.items()))
                code, _, err = _ingest(tables, kinds_path, ws)
                assert code == 0, err

                raw = load_corpus(tables)
                expected = ingest_corpus(raw, load_table_kinds(kinds_path))
                got = load_corpus(ws / "tables")
                assert got == {tid: replace(t, kind=TableKind.UNKNOWN)
                               for tid, t in expected.items()}
                assert sorted(p.name for p in (ws / "tables").iterdir()) == \
                    sorted(f"{tid}.csv" for tid in raw)
                assert (ws / "table_kinds.txt").read_bytes() == \
                    _reference_kinds_text(raw)
                # and byte for byte what a first ingest writes
                fresh = tmp / f"fresh-{step}"
                assert _ingest(tables, kinds_path, fresh)[0] == 0
                assert _tree(ws) == _tree(fresh)
                shutil.rmtree(fresh)
