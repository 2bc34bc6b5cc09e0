"""The commands that take `--embeddings` keep the parsed `.vec` as
`<ws>/embeddings.npz`, keyed on the sha256 of the `.vec` bytes: a later
command with the same bytes loads it and parses no text, other bytes
replace it, and a damaged file is an error naming it and the fix."""

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableqa import cli, embed
from tableqa.cli import main
from tableqa.embed import EmbeddingStore, load_embeddings, load_store, save_store
from tableqa.errors import BadStore

REBUILD = "delete it and the next command rebuilds it from the .vec"


def run(argv):
    """(exit code, stdout, stderr) of an in-process ``tableqa`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def assert_same_store(got, want):
    assert list(got.rows.items()) == list(want.rows.items())
    assert got.matrix.dtype == want.matrix.dtype
    assert got.matrix.shape == want.matrix.shape
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.norms.tobytes() == want.norms.tobytes()


def listing(ws):
    return sorted(p.name for p in ws.iterdir())


def ask(ws, fx, vec=None):
    return ["ask", "What is the capital of Louisiana?", "--workspace", ws,
            "--sim", "cosine", "--embeddings", vec or fx / "pipeline.vec"]


@pytest.fixture
def ws(cli_workspace, fixtures_dir, tmp_path):
    """A copy of the trained fixture workspace, with the store of
    ``pipeline.vec``."""
    copy = tmp_path / "ws"
    shutil.copytree(cli_workspace, copy)
    cli.Workspace(copy).store(fixtures_dir / "pipeline.vec")
    return copy


@pytest.fixture(scope="module")
def saved_store(fixtures_dir, tmp_path_factory):
    """The bytes of ``pipeline.vec``'s store file."""
    vec = fixtures_dir / "pipeline.vec"
    path = tmp_path_factory.mktemp("store") / "embeddings.npz"
    save_store(load_embeddings(vec), sha256(vec), path)
    return path.read_bytes()


# lines of a .vec: tokens drawn from few letters of both cases, so that
# tokens repeat, also as another case of an earlier one
_TOKENS = st.text(alphabet="aAbBzZé", min_size=1, max_size=3)
_VALUES = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def vec_texts(draw):
    dim = draw(st.integers(1, 4))
    lines = draw(st.lists(st.tuples(_TOKENS, st.lists(_VALUES, min_size=dim,
                                                      max_size=dim)),
                          min_size=1, max_size=25))
    return "".join(f"{token} {' '.join(map(repr, vector))}\n"
                   for token, vector in lines)


class TestStoreEqualsTheParse:
    @settings(max_examples=100, deadline=None)
    @given(vec_texts())
    def test_saved_and_loaded_store_equals_the_parsed(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            ws = Path(tmp)
            vec = ws / "words.vec"
            vec.write_text(text, encoding="utf-8")
            parsed = load_embeddings(vec)
            # the first call parses and saves, the second loads the save
            assert_same_store(cli.Workspace(ws).store(vec), parsed)
            assert (ws / "embeddings.npz").exists()
            with mock.patch.object(cli, "load_embeddings",
                                   side_effect=AssertionError("parsed again")):
                assert_same_store(cli.Workspace(ws).store(vec), parsed)

    def test_equal_stores_give_equal_bytes(self, fixtures_dir, tmp_path):
        vec = fixtures_dir / "pipeline.vec"
        paths = [tmp_path / "a.npz", tmp_path / "b.npz"]
        for path in paths:
            assert save_store(load_embeddings(vec), sha256(vec), path) is True
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.npz", "b.npz"]

    def test_token_ending_in_nul_is_not_saved(self, tmp_path):
        # numpy's string arrays drop trailing NULs, so the token would not
        # come back as it was
        store = EmbeddingStore({"a\0": 0}, np.ones((1, 2)))
        assert save_store(store, "0" * 64, tmp_path / "e.npz") is False
        assert list(tmp_path.iterdir()) == []


class TestWorkspaceStore:
    def test_hit_parses_nothing_and_rewrites_nothing(self, ws, fixtures_dir,
                                                     monkeypatch):
        path = ws / "embeddings.npz"
        before = path.stat().st_mtime_ns, path.read_bytes(), listing(ws)
        monkeypatch.setattr(cli, "load_embeddings", mock.Mock(
            side_effect=AssertionError("parsed the .vec")))
        code, out, _ = run(ask(ws, fixtures_dir))
        assert code == 0 and "Baton Rouge" in out
        assert (path.stat().st_mtime_ns, path.read_bytes(), listing(ws)) == before

    def test_other_vec_replaces_the_file(self, ws, fixtures_dir):
        path = ws / "embeddings.npz"
        pipeline, toy = fixtures_dir / "pipeline.vec", fixtures_dir / "toy.vec"
        assert load_store(path, sha256(pipeline)) is not None
        before = listing(ws)
        assert_same_store(cli.Workspace(ws).store(toy), load_embeddings(toy))
        assert load_store(path, sha256(pipeline)) is None
        assert_same_store(load_store(path, sha256(toy)), load_embeddings(toy))
        assert listing(ws) == before    # no temp file is left behind

    def test_malformed_vec_names_its_line(self, ws, fixtures_dir, tmp_path,
                                          names_a_line):
        # the workspace holds the store of the undamaged file
        vec = tmp_path / "pipeline.vec"
        lines = (fixtures_dir / "pipeline.vec").read_text("utf-8").splitlines(True)
        lines[2] = lines[2].replace(" 0.0", " x", 1)
        vec.write_text("".join(lines), encoding="utf-8")
        saved = (ws / "embeddings.npz").read_bytes()
        code, out, err = run(ask(ws, fixtures_dir, vec))
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        names_a_line(err[len("error: "):], vec)
        assert err.startswith(f"error: {vec}:3: ")
        assert (ws / "embeddings.npz").read_bytes() == saved

    def test_read_only_workspace_answers_from_the_parse(self, ws, fixtures_dir,
                                                        monkeypatch):
        want = run(ask(ws, fixtures_dir))
        (ws / "embeddings.npz").unlink()
        before = listing(ws)
        ws.chmod(0o555)
        try:
            if os.access(ws, os.W_OK):
                # a privileged user writes through the mode bits: fail the
                # temp file's creation as the mode would
                def read_only(file, mode="r", *args, **kwargs):
                    if "w" in mode:
                        raise PermissionError(13, "Permission denied", str(file))
                    return open(file, mode, *args, **kwargs)

                monkeypatch.setattr(embed, "open", read_only, raising=False)
            assert run(ask(ws, fixtures_dir)) == want
            assert listing(ws) == before
        finally:
            ws.chmod(0o755)


def _save_arrays(path, **arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class TestBadStore:
    @staticmethod
    def _arrays(vec):
        store = load_embeddings(vec)
        return {"sha256": np.array(sha256(vec)),
                "tokens": np.array(list(store.rows)), "matrix": store.matrix}

    @pytest.mark.parametrize("damage, problem", [
        (lambda a: a.pop("tokens"), "holds arrays ['matrix', 'sha256'], "
                                    "expected ['matrix', 'sha256', 'tokens']"),
        (lambda a: a.update(extra=np.zeros(1)), "holds arrays "),
        (lambda a: a.update(sha256=np.array([a["sha256"]])),
         "array sha256 is <U64 of shape (1,), expected one string"),
        (lambda a: a.update(tokens=np.arange(36)),
         "array tokens is int64 of shape (36,), expected one non-empty dimension of str"),
        (lambda a: a.update(tokens=a["tokens"][:0], matrix=a["matrix"][:0]),
         "of shape (0,), expected one non-empty dimension of str"),
        (lambda a: a.update(matrix=a["matrix"].astype(np.float32)),
         "array matrix is float32 of shape (36, 6), expected float64 of shape (36, d > 0)"),
        (lambda a: a.update(matrix=a["matrix"][:-1]),
         "array matrix is float64 of shape (35, 6), expected float64 of shape (36, d > 0)"),
        (lambda a: a.update(matrix=a["matrix"][:, :0]), "array matrix is float64 of shape (36, 0)"),
        (lambda a: a.update(matrix=np.where(a["matrix"] > 0.5, np.inf, a["matrix"])),
         "array matrix holds a non-finite value"),
        (lambda a: a["tokens"].__setitem__(1, a["tokens"][0]),
         "array tokens repeats a token"),
        (lambda a: a.update(tokens=a["tokens"].astype(object)), "allow_pickle=False"),
    ], ids=["missing-array", "extra-array", "sha256-shape", "tokens-dtype", "no-token",
            "matrix-dtype", "matrix-rows", "no-dimension", "inf", "repeated-token",
            "pickled"])
    def test_damaged_arrays(self, ws, fixtures_dir, damage, problem):
        vec = fixtures_dir / "pipeline.vec"
        arrays = self._arrays(vec)
        damage(arrays)
        path = ws / "embeddings.npz"
        _save_arrays(path, **arrays)
        with pytest.raises(BadStore) as exc:
            cli.Workspace(ws).store(vec)
        message = str(exc.value)
        assert message.startswith(f"{path}: ")
        assert problem in message
        assert message.endswith(f"; {REBUILD}")

    @pytest.mark.parametrize("foreign", ["index.npz", "models/where.model", "npy"])
    def test_foreign_file_is_an_error_naming_it(self, ws, fixtures_dir, foreign):
        path = ws / "embeddings.npz"
        if foreign == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            shutil.copyfile(ws / foreign, path)
        code, out, err = run(ask(ws, fixtures_dir))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ")
        assert err.endswith(f"; {REBUILD}\n")
        assert err.count("\n") == 1 and "Traceback" not in err
        # doing what the message says restores the answer
        path.unlink()
        code, out, _ = run(ask(ws, fixtures_dir))
        assert code == 0 and "Baton Rouge" in out
        assert load_store(path, sha256(fixtures_dir / "pipeline.vec")) is not None

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mutated_store(self, saved_store, fixtures_dir, mutate, data):
        # one byte string changed as the mutate fixture changes a text:
        # bytes that are not UTF-8 ride along as lone surrogates
        vec = fixtures_dir / "pipeline.vec"
        damaged = mutate(data, saved_store.decode("utf-8", "surrogateescape"))
        with tempfile.TemporaryDirectory() as tmp:
            ws = Path(tmp)
            path = ws / "embeddings.npz"
            path.write_bytes(damaged.encode("utf-8", "surrogateescape"))
            try:
                store = cli.Workspace(ws).store(vec)
            except BadStore as exc:
                assert str(exc).startswith(f"{path}: ")
                assert str(exc).endswith(f"; {REBUILD}")
            else:   # the damage missed what is read, or the digest it keys on
                assert_same_store(store, load_embeddings(vec))
