import dataclasses
import random

import numpy as np
import pytest

from tableqa.embed import (
    EmbeddingStore,
    SimMatchConfig,
    load_embeddings,
    proximity,
    sim_match,
)
from tableqa.errors import EmptyFile, MalformedLine


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
