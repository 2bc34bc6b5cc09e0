import dataclasses
import math
import random
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableqa import embed
from tableqa.embed import (
    SimMatchConfig,
    load_embeddings,
    proximity,
    sim_match,
)
from tableqa.errors import EmptyFile, MalformedLine, NotText


@pytest.fixture(scope="module")
def toy(fixtures_dir):
    return load_embeddings(fixtures_dir / "toy.vec")


class TestLoad:
    def test_two_line_file(self, tmp_path):
        p = tmp_path / "two.vec"
        p.write_text("a 1 0\nb 0 1\n")
        store = load_embeddings(p)
        assert store.dim == 2
        assert len(store) == 2

    def test_arity_mismatch(self, tmp_path):
        p = tmp_path / "bad.vec"
        p.write_text("a 1 0\nc 1\n")
        with pytest.raises(MalformedLine):
            load_embeddings(p)

    def test_unparsable_float(self, tmp_path):
        p = tmp_path / "bad.vec"
        p.write_text("a 1 zero\n")
        with pytest.raises(MalformedLine):
            load_embeddings(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.vec"
        p.write_text("")
        with pytest.raises(EmptyFile):
            load_embeddings(p)

    def test_toy_fixture_round_trip(self, toy, fixtures_dir):
        assert toy.dim == 3
        assert len(toy) == 5
        # every fixture line reproduces exactly
        for line in (fixtures_dir / "toy.vec").read_text().splitlines():
            token, *vals = line.split()
            assert np.array_equal(toy.lookup(token),
                                  np.array([float(v) for v in vals]))

    def test_byte_order_mark_is_dropped(self, tmp_path):
        p = tmp_path / "bom.vec"
        p.write_bytes(b"\xef\xbb\xbfa 1 2\nb 3 4\n")
        assert list(load_embeddings(p).rows) == ["a", "b"]

    def test_lookup_case_insensitive(self, toy):
        assert np.array_equal(toy.lookup("SPOUSE"), toy.lookup("spouse"))


class TestProximity:
    def test_self_similarity_is_one(self, toy):
        assert proximity(toy, "spouse", "spouse") == pytest.approx(1.0)

    def test_orthogonal_vectors(self, toy):
        assert proximity(toy, "president", "capital") == pytest.approx(0.0)

    def test_out_of_vocabulary_is_absent(self, toy):
        assert proximity(toy, "spouse", "nonesuch") is None

    def test_zero_norm_is_absent(self, toy):
        assert proximity(toy, "zero", "spouse") is None

    def test_symmetry(self, toy):
        tokens = ["spouse", "husband", "president", "capital"]
        for a in tokens:
            for b in tokens:
                assert proximity(toy, a, b) == pytest.approx(proximity(toy, b, a))

    def test_range(self, toy):
        tokens = ["spouse", "husband", "president", "capital"]
        for a in tokens:
            for b in tokens:
                assert -1.0 - 1e-12 <= proximity(toy, a, b) <= 1.0 + 1e-12


class TestTokenDistance:
    def test_cosine_distance(self, toy):
        # the embedding stage fires when 1 - cosine similarity is within
        # the threshold, and not for any threshold below it
        d = 1.0 - proximity(toy, "spouse", "husband")
        assert 0.0 < d < 0.45
        assert sim_match(toy, SimMatchConfig(threshold=d), "spouse", "husband")
        assert not sim_match(toy, SimMatchConfig(threshold=d * (1 - 1e-9)),
                             "spouse", "husband")


class TestSimMatch:
    def test_exact_match_stage(self, toy):
        assert sim_match(toy, SimMatchConfig(), "Washington", "Washington")
        assert sim_match(toy, SimMatchConfig(), "  washington ", "WASHINGTON")

    def test_substring_stage(self, toy):
        assert sim_match(toy, SimMatchConfig(), "UFC 200", "UFC")

    def test_embedding_stage_spouse_husband(self, toy):
        assert sim_match(toy, SimMatchConfig(), "spouse", "husband")

    def test_distant_tokens_do_not_match(self, toy):
        assert not sim_match(toy, SimMatchConfig(), "capital", "husband")

    def test_out_of_vocabulary_does_not_match(self, toy):
        assert not sim_match(toy, SimMatchConfig(), "melania", "wharton")

    def test_reflexive_for_arbitrary_strings(self, toy):
        for text in ["", "UFC 200", "6' 3''", "not in any vocabulary"]:
            assert sim_match(toy, SimMatchConfig(), text, text)

    def test_threshold_monotonicity(self, toy):
        cells = ["spouse", "husband", "president", "capital", "zero", "oov"]
        rng = random.Random(2)
        for _ in range(100):
            cell, kw = rng.choice(cells), rng.choice(cells)
            low = rng.uniform(0.01, 1.0)
            high = low + rng.uniform(0.0, 1.0)
            if sim_match(toy, SimMatchConfig(threshold=low), cell, kw):
                assert sim_match(toy, SimMatchConfig(threshold=high), cell, kw)

    def test_multi_word_keyword_matches_on_any_token(self, toy):
        # "current president" matches a cell containing a president-like token
        assert sim_match(toy, SimMatchConfig(), "president", "current president")


class TestConfig:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            SimMatchConfig(threshold=0.0)
        with pytest.raises(ValueError):
            SimMatchConfig(threshold=float("inf"))

    def test_default_is_cosine(self):
        # the threshold is a cosine distance; there is no other metric
        assert [f.name for f in dataclasses.fields(SimMatchConfig)] == ["threshold"]
        assert SimMatchConfig().threshold == pytest.approx(0.45)


class TestNonFiniteComponents:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_rejected_with_file_and_line(self, tmp_path, value):
        p = tmp_path / "bad.vec"
        p.write_text(f"a 1 0\nb 0 {value}\n")
        with pytest.raises(MalformedLine) as exc:
            load_embeddings(p)
        assert str(exc.value).startswith(f"{p}:2: ")

    def test_large_finite_components_load(self, tmp_path):
        p = tmp_path / "big.vec"
        p.write_text("a 1e308 1e308\n")
        assert load_embeddings(p).lookup("a").tolist() == [1e308, 1e308]


class TestNotUtf8:
    def test_bad_byte_names_file_and_line(self, tmp_path):
        p = tmp_path / "latin1.vec"
        p.write_bytes(b"a 1 0\nb 0 1\ncaf\xe9 1 1\n")
        with pytest.raises(NotText) as exc:
            load_embeddings(p)
        assert str(exc.value) == f"{p}:3: not UTF-8 text (byte 0xe9)"


class TestMatrixStore:
    def test_rows_index_one_read_only_matrix(self, toy):
        assert toy.matrix.shape == (len(toy), toy.dim)
        assert sorted(toy.rows.values()) == list(range(len(toy)))
        for token, row in toy.rows.items():
            assert toy.lookup(token) is not None
            assert toy.lookup(token).tobytes() == toy.matrix[row].tobytes()
        assert not toy.matrix.flags.writeable and not toy.norms.flags.writeable

    def test_repeated_token_keeps_its_last_vector(self, tmp_path):
        p = tmp_path / "repeat.vec"
        p.write_text("a 1 0\nB 0 1\nA 3 4\n")
        store = load_embeddings(p)
        assert len(store) == 2 and store.matrix.shape == (2, 2)
        assert store.lookup("a").tolist() == [3.0, 4.0]
        assert store.norms.tolist() == [5.0, 1.0]

    def test_underscored_digits_parse_as_float_does(self, tmp_path):
        p = tmp_path / "underscore.vec"
        p.write_text("a 1_0 .5\n")
        assert load_embeddings(p).lookup("a").tolist() == [10.0, 0.5]

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_first_bad_line_wins_across_blocks(self, tmp_path, block):
        # with blocks of one to three values, the bad value on line 3 sits
        # in an earlier block than, or the same block as, the short line 4
        p = tmp_path / "bad.vec"
        p.write_text("a 1\nb 2\nc x\nd\n")
        with mock.patch.object(embed, "_BLOCK_VALUES", block):
            with pytest.raises(MalformedLine) as exc:
                load_embeddings(p)
        assert str(exc.value) == f"{p}:3: could not convert string to float: 'x'"


# ---------------------------------------------------------------------------
# Reference: the per-line loader and the per-call proximity that the matrix
# store replaced
# ---------------------------------------------------------------------------

@dataclass
class ReferenceStore:
    dim: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)

    def lookup(self, token: str) -> np.ndarray | None:
        return self.vectors.get(token.lower())


def reference_load_embeddings(path) -> ReferenceStore:
    store = None
    with open(str(path), encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, *values = parts
            if store is None:
                if not values:
                    raise MalformedLine(f"{path}:{lineno}: no vector components")
                store = ReferenceStore(dim=len(values))
            elif len(values) != store.dim:
                raise MalformedLine(
                    f"{path}:{lineno}: expected {store.dim} components, got {len(values)}"
                )
            try:
                floats = [float(v) for v in values]
            except ValueError as exc:
                raise MalformedLine(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, floats)):
                raise MalformedLine(f"{path}:{lineno}: non-finite vector component")
            store.vectors[token.lower()] = np.array(floats, dtype=np.float64)
    if store is None:
        raise EmptyFile(f"{path}: no embedding entries")
    return store


def reference_proximity(store: ReferenceStore, a: str, b: str) -> float | None:
    va = store.lookup(a)
    vb = store.lookup(b)
    if va is None or vb is None:
        return None
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        return None
    return float(va @ vb / (na * nb))


def assert_store_equals_reference(store, want):
    assert store.dim == want.dim
    assert list(store.rows) == list(want.vectors)
    for token, vector in want.vectors.items():
        row = store.rows[token]
        assert store.matrix[row].tobytes() == vector.tobytes(), token
        assert store.norms[row] == float(np.linalg.norm(vector)), token


def load_both(path):
    """``(store, reference store)``, or the two exceptions' types and messages."""
    outcomes = []
    for load in (load_embeddings, reference_load_embeddings):
        try:
            outcomes.append(load(path))
        except (MalformedLine, EmptyFile) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


class TestMatchesReference:
    @pytest.mark.parametrize("name", ["toy.vec", "pipeline.vec"])
    def test_fixture_store_and_every_proximity(self, fixtures_dir, name):
        store, want = load_both(fixtures_dir / name)
        assert_store_equals_reference(store, want)
        tokens = list(want.vectors) + ["nonesuch"]
        for a in tokens:
            for b in tokens:
                got = proximity(store, a.upper(), b)
                expected = reference_proximity(want, a.upper(), b)
                assert (got is None) == (expected is None), (a, b)
                assert got is None or got.hex() == expected.hex(), (a, b)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_alike_or_fails_alike(self, fixtures_dir,
                                                     tmp_path_factory, mutate,
                                                     data):
        # block sizes from one value to several lines, so a bad line can sit
        # in any block, after a full block or before a short line
        name = data.draw(st.sampled_from(["toy.vec", "pipeline.vec"]))
        text = (fixtures_dir / name).read_text(encoding="utf-8")
        path = tmp_path_factory.getbasetemp() / f"mutated-{name}"
        path.write_text(mutate(data, text), encoding="utf-8")
        block = data.draw(st.sampled_from([1, 2, 7, 8192]))
        with mock.patch.object(embed, "_BLOCK_VALUES", block):
            store, want = load_both(path)
        if isinstance(want, tuple):
            assert store == want
        else:
            assert_store_equals_reference(store, want)
