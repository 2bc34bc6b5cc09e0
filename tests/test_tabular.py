import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableqa import textproc
from tableqa.errors import (
    DuplicateKeys,
    MalformedFile,
    MalformedLine,
    NotKeyValue,
    NotText,
    TableQAError,
    UntrainedModel,
)
from tableqa.tabular import (
    Table,
    TableFormat,
    TableKind,
    TableTypeFeatures,
    TableTypeModel,
    classify_table_type,
    extract_table_type_features,
    load_table,
    load_table_type_model,
    save_table_type_model,
    train_table_type_model,
    transpose_grid,
    transpose_key_value,
)
from reference_loaders import (
    outcome,
    reference_load_table,
    reference_load_table_type_model,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadTable:
    def test_minimal_csv(self, tmp_path):
        t = load_table(write(tmp_path, "t.csv", "a,b\n1,2\n"), TableFormat.CSV)
        assert t.headers == ["a", "b"]
        assert t.rows == [["1", "2"]]
        assert t.kind is TableKind.UNKNOWN
        assert t.id == "t"

    def test_ragged_rows_rejected(self, tmp_path):
        p = write(tmp_path, "bad.csv", "a,b\n1,2\n1,2,3\n")
        with pytest.raises(MalformedFile):
            load_table(p, TableFormat.CSV)

    def test_ragged_row_names_the_line_it_starts_on(self, tmp_path):
        # the quoted cell of the second record spans lines 2 and 3
        p = write(tmp_path, "bad.csv", 'a,b\n"x\ny",2\n1,2,3\n')
        with pytest.raises(MalformedFile) as exc:
            load_table(p, TableFormat.CSV)
        assert str(exc.value) == f"{p}:4: row has 3 cells, expected 2"

    def test_ragged_row_after_a_blank_line(self, tmp_path):
        p = write(tmp_path, "bad.tsv", "a\tb\n\n1\t2\n")
        with pytest.raises(MalformedFile) as exc:
            load_table(p, TableFormat.TSV)
        assert str(exc.value) == f"{p}:2: row has 0 cells, expected 2"

    @pytest.mark.parametrize("text", ["a,b\n1\n2,3\n",
                                      "a,b\nx," + "y" * 140_000 + "\n3,4\n"],
                             ids=["ragged-row", "long-cell"])
    def test_file_closed_when_a_record_is_rejected(self, tmp_path, monkeypatch,
                                                   text):
        # every file load_table opens is closed while the error, and the
        # traceback that ``exc`` holds, is still alive
        opened = []

        def tracked(*args, **kwargs):
            fh = open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(textproc, "open", tracked, raising=False)
        p = write(tmp_path, "bad.csv", text)
        with pytest.raises(TableQAError) as exc:
            load_table(p, TableFormat.CSV)
        assert [fh.name for fh in opened] == [str(p)], exc.value
        assert all(fh.closed for fh in opened), exc.value

    def test_empty_file_rejected(self, tmp_path):
        p = write(tmp_path, "empty.csv", "")
        with pytest.raises(MalformedFile) as exc:
            load_table(p, TableFormat.CSV)
        assert str(exc.value) == f"{p}:1: empty file"

    @pytest.mark.parametrize("text", ["\n", "\n1,2\n", '""\n1\n'])
    def test_zero_columns_name_line_one(self, tmp_path, text):
        p = write(tmp_path, "zero.csv", text)
        with pytest.raises(MalformedFile) as exc:
            load_table(p, TableFormat.CSV)
        assert str(exc.value) == f"{p}:1: zero columns"

    def test_tsv_and_cells_verbatim(self, tmp_path):
        p = write(tmp_path, "t.tsv", "h1\th2\n a ,x\tb\n")
        t = load_table(p, TableFormat.TSV)
        assert t.rows == [[" a ,x", "b"]]

    def test_quoted_cells(self, tmp_path):
        p = write(tmp_path, "q.csv", 'name,note\nx,"a, quoted cell"\n')
        t = load_table(p, TableFormat.CSV)
        assert t.rows == [["x", "a, quoted cell"]]

    def test_cell_over_field_limit_names_file_and_line(self, tmp_path):
        # the csv module refuses a field longer than 131,072 characters
        p = write(tmp_path, "long.csv", "a,b\n1,2\nx," + "y" * 140_000 + "\n3,4\n")
        with pytest.raises(MalformedLine) as exc:
            load_table(p, TableFormat.CSV)
        assert str(exc.value).startswith(f"{p}:3: field larger than field limit")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes("\ufeffState,Capital\nTexas,Austin\n".encode("utf-8"))
        assert load_table(p, TableFormat.CSV).headers == ["State", "Capital"]

    def test_six_column_header_only_is_fine(self, tmp_path):
        p = write(tmp_path, "p.csv", "President,Party,Term,Born,Died,Spouse\n")
        t = load_table(p, TableFormat.CSV)
        assert t.n_columns == 6
        assert t.rows == []


class TestMutatedTablesNameTheLine:
    # a fixture table truncated, or with one character substituted, deleted
    # or inserted, either loads or raises an error naming a line of the file

    @pytest.mark.parametrize("pattern", ["*.csv", "easter-dates.tsv",
                                         "world-rivers.tsv"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_load_or_name_the_line(self, fixtures_dir, tmp_path_factory, mutate,
                                   names_a_line, pattern, data):
        source = data.draw(st.sampled_from(
            sorted((fixtures_dir / "tables").glob(pattern))))
        path = tmp_path_factory.getbasetemp() / f"mutated{source.suffix}"
        path.write_text(mutate(data, source.read_text(encoding="utf-8")),
                        encoding="utf-8")
        fmt = TableFormat.CSV if source.suffix == ".csv" else TableFormat.TSV
        try:
            load_table(path, fmt)
        except TableQAError as exc:
            if path.read_text(encoding="utf-8-sig"):
                names_a_line(str(exc), path)
            else:
                assert str(exc) == f"{path}:1: empty file"


class TestMatchesReferenceLoaders:
    # the file read whole, then parsed: the same tables, models and errors
    # as the reference loaders, which decode and parse line by line

    def test_fixture_tables(self, fixtures_dir):
        paths = sorted((fixtures_dir / "tables").iterdir())
        assert {p.suffix for p in paths} == {".csv", ".tsv"}
        for path in paths:
            fmt = TableFormat.CSV if path.suffix == ".csv" else TableFormat.TSV
            assert load_table(path, fmt) == reference_load_table(path, fmt), path

    @pytest.mark.parametrize("pattern", ["*.csv", "*.tsv"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_table_loads_alike_or_fails_alike(self, fixtures_dir,
                                                      tmp_path_factory, mutate,
                                                      pattern, data):
        source = data.draw(st.sampled_from(
            sorted((fixtures_dir / "tables").glob(pattern))))
        path = tmp_path_factory.getbasetemp() / f"mutated-whole{source.suffix}"
        path.write_text(mutate(data, source.read_text(encoding="utf-8")),
                        encoding="utf-8")
        fmt = TableFormat.CSV if source.suffix == ".csv" else TableFormat.TSV
        assert outcome(load_table, path, fmt) == outcome(reference_load_table,
                                                         path, fmt)

    def test_bad_byte_past_the_first_decode_chunk_is_reported_first(self,
                                                                     tmp_path):
        # the one case where the two differ: the reference decodes 8 KB at
        # a time and meets the ragged row on line 2 before the bad byte
        p = tmp_path / "late.csv"
        p.write_bytes(b"a,b\n1,2,3\n" + b"x,y\n" * 3000 + b"\xff,1\n")
        with pytest.raises(NotText) as exc:
            load_table(p, TableFormat.CSV)
        assert str(exc.value) == f"{p}:3003: not UTF-8 text (byte 0xff)"
        assert outcome(reference_load_table, p, TableFormat.CSV) == (
            MalformedFile, f"{p}:2: row has 3 cells, expected 2")

    @staticmethod
    def table_type_arrays(model):
        return [(a.dtype, a.shape, a.tobytes())
                for a in (model.weights, model.mean, model.scale)] \
            + [model.bias.hex()]

    def test_fixture_table_type_model(self, cli_workspace):
        path = cli_workspace / "models" / "table-type.model"
        assert self.table_type_arrays(load_table_type_model(path)) \
            == self.table_type_arrays(reference_load_table_type_model(path))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_table_type_model_loads_alike_or_fails_alike(
            self, cli_workspace, tmp_path_factory, mutate, data):
        text = (cli_workspace / "models" / "table-type.model").read_text(
            encoding="utf-8")
        path = tmp_path_factory.getbasetemp() / "mutated-whole-table-type.model"
        path.write_text(mutate(data, text), encoding="utf-8")
        got = outcome(load_table_type_model, path)
        want = outcome(reference_load_table_type_model, path)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert self.table_type_arrays(got) == self.table_type_arrays(want)


class TestTableInvariants:
    def test_rectangularity_enforced(self):
        with pytest.raises(MalformedFile):
            Table(id="x", name="x", headers=["a", "b"], rows=[["1"]])

    def test_zero_columns_rejected(self):
        with pytest.raises(MalformedFile):
            Table(id="x", name="x", headers=[], rows=[])


class TestFeatures:
    def test_property_header_flag(self):
        t = Table(id="p", name="p", headers=["Property", "Value"],
                  rows=[["born", "1946"]])
        f = extract_table_type_features(t)
        assert f.has_key_or_property_header == 1
        assert f.n_columns == 2

    def test_all_digit_column_has_zero_digit_variance(self):
        t = Table(id="d", name="d", headers=["year"],
                  rows=[["1946"], ["2001"], ["1999"]])
        f = extract_table_type_features(t)
        assert f.norm_digit_presence_variance == 0.0

    def test_hand_computed_length_variance(self):
        t = Table(id="v", name="v", headers=["c"], rows=[["one"], ["two three"]])
        f = extract_table_type_features(t)
        assert f.norm_word_len_variance == pytest.approx(0.0625)

    def test_url_columns_excluded_from_adjusted_count(self):
        t = Table(id="u", name="u", headers=["name", "link"],
                  rows=[["a", "http://x"], ["b", "https://y"]])
        f = extract_table_type_features(t)
        assert f.n_columns == 2
        assert f.n_columns_sans_url == 1

    def test_single_row_table_variances_zero(self):
        t = Table(id="s", name="s", headers=["a", "b"], rows=[["one 1", "two"]])
        f = extract_table_type_features(t)
        assert f.norm_word_len_variance == 0.0
        assert f.norm_digit_presence_variance == 0.0

    def test_row_permutation_invariance(self):
        rows = [["aa bb", "1"], ["c", "x2"], ["dd ee ff", "nope"]]
        t1 = Table(id="r", name="r", headers=["a", "b"], rows=rows)
        t2 = Table(id="r", name="r", headers=["a", "b"], rows=rows[::-1])
        assert extract_table_type_features(t1) == extract_table_type_features(t2)

    def test_empty_cells_count_as_zero_tokens_and_no_digit(self):
        t = Table(id="e", name="e", headers=["a"], rows=[[""], ["word word"]])
        f = extract_table_type_features(t)
        # 0/2 and 2/2 tokens -> variance of [0, 1] = 0.25
        assert f.norm_word_len_variance == pytest.approx(0.25)
        assert f.norm_digit_presence_variance == 0.0

    def test_zero_row_table_variances_zero(self):
        t = Table(id="z", name="z", headers=["a", "Key"], rows=[])
        f = extract_table_type_features(t)
        assert f == TableTypeFeatures(2, 2, 1, 0.0, 0.0)


# ---------------------------------------------------------------------------
# The table-kind features before they were computed with array ops, one
# np.mean per column; the array version must give the same floats.
# ---------------------------------------------------------------------------

def reference_population_variance(values):
    if not values:
        return 0.0
    arr = np.asarray(values, dtype=np.float64)
    return float(np.mean((arr - arr.mean()) ** 2))


def reference_table_type_features(table):
    columns = [table.column(i) for i in range(table.n_columns)]
    n_sans_url = sum(
        1 for cells in columns
        if not ([c for c in cells if c.strip()]
                and all("http" in c for c in cells if c.strip()))
    )
    has_kp = int(any("key" in h.lower() or "property" in h.lower()
                     for h in table.headers))
    len_variances = []
    digit_variances = []
    for cells in columns:
        counts = [len(cell.split()) for cell in cells]
        max_count = max(counts, default=0)
        if max_count > 0:
            len_variances.append(
                reference_population_variance([c / max_count for c in counts]))
        else:
            len_variances.append(0.0)
        digit_variances.append(reference_population_variance(
            [float(any(ch.isdigit() for ch in cell)) for cell in cells]
        ))
    return TableTypeFeatures(
        n_columns=table.n_columns,
        n_columns_sans_url=n_sans_url,
        has_key_or_property_header=has_kp,
        norm_word_len_variance=float(np.mean(len_variances)),
        norm_digit_presence_variance=float(np.mean(digit_variances)),
    )


def assert_features_match_reference(table):
    got = extract_table_type_features(table)
    want = reference_table_type_features(table)
    assert got == want, table.id
    assert got.as_vector().tobytes() == want.as_vector().tobytes(), table.id


# empty and blank cells, URLs, digits (ASCII, Arabic-Indic and superscript,
# all of which ``str.isdigit`` accepts), and one to several words
_CELLS = ["", "  ", "http://x.org/a", "see https://y", "1946", "a1 b", "x²",
          "٣ apples", "one", "two words", "three little words",
          "a b c d e f g h i j", "June 14, 1946"]


class TestFeaturesMatchReference:
    def test_fixture_tables(self, raw_corpus):
        for table in raw_corpus.values():
            assert_features_match_reference(table)

    # 8 rows and fewer, 9 to 128, and over 128: where numpy's pairwise
    # summation changes its path
    @settings(max_examples=150, deadline=None)
    @given(n_rows=st.one_of(st.integers(0, 8), st.integers(9, 128),
                            st.integers(129, 300)),
           columns=st.lists(st.tuples(st.sampled_from(["mixed", "url", "empty",
                                                       "constant"]),
                                      st.integers(0, 2 ** 32 - 1)),
                            min_size=1, max_size=5),
           headers=st.lists(st.sampled_from(["name", "Key", "PROPERTY", "born",
                                             "value", ""]),
                            min_size=5, max_size=5))
    def test_random_tables(self, n_rows, columns, headers):
        grid = []
        for pattern, seed in columns:
            rng = random.Random(seed)
            if pattern == "url":
                pool = ["http://x.org/a", "see https://y", ""]
            elif pattern == "empty":
                pool = ["", "  "]
            elif pattern == "constant":
                pool = [rng.choice(_CELLS)]
            else:
                pool = _CELLS
            grid.append([rng.choice(pool) for _ in range(n_rows)])
        rows = [list(row) for row in zip(*grid)] if n_rows else []
        table = Table(id="h", name="h", headers=headers[:len(columns)], rows=rows)
        assert_features_match_reference(table)


def synthetic_corpus(rng, n_per_kind=30):
    """Separable two-kind corpus exercising the five features."""
    samples = []
    for i in range(n_per_kind):
        # key-value: 2 columns, key-ish header, uneven value lengths
        header = ["Key" if i % 2 else "Property", "Value"]
        rows = []
        for j in range(5):
            words = "w " * rng.randrange(1, 8)
            value = words.strip() if j % 2 else f"{words}{rng.randrange(1900, 2020)}"
            rows.append([f"attr{j}", value])
        t = Table(id=f"kv{i}", name=f"kv{i}", headers=header, rows=rows)
        samples.append((extract_table_type_features(t), TableKind.KEY_VALUE))
    for i in range(n_per_kind):
        # entity-instance: wider, uniform per-column patterns
        headers = [f"col{j}" for j in range(4 + i % 3)]
        rows = [[f"item {r} {c}" if c else str(1900 + r) for c in range(len(headers))]
                for r in range(6)]
        t = Table(id=f"ei{i}", name=f"ei{i}", headers=headers, rows=rows)
        samples.append((extract_table_type_features(t), TableKind.ENTITY_INSTANCE))
    return samples


class TestClassifier:
    def test_learns_separable_corpus(self):
        rng = random.Random(11)
        samples = synthetic_corpus(rng)
        model = train_table_type_model(samples)
        correct = sum(classify_table_type(f, model) is kind for f, kind in samples)
        assert correct / len(samples) >= 0.95

    def test_zeroed_weights_tie_break_to_entity_instance(self):
        model = TableTypeModel(weights=np.zeros(5), bias=0.0)
        f = TableTypeFeatures(2, 2, 1, 0.3, 0.3)
        assert classify_table_type(f, model) is TableKind.ENTITY_INSTANCE

    def test_untrained_model_rejected(self):
        with pytest.raises(UntrainedModel):
            classify_table_type(TableTypeFeatures(1, 1, 0, 0.0, 0.0), TableTypeModel())

    def test_training_deterministic(self):
        samples = synthetic_corpus(random.Random(3), n_per_kind=10)
        m1 = train_table_type_model(samples)
        m2 = train_table_type_model(samples)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias


class TestTableTypeModelFile:
    @pytest.fixture(scope="class")
    def model(self):
        return train_table_type_model(synthetic_corpus(random.Random(5)))

    def test_round_trip_is_exact(self, model, tmp_path):
        path = tmp_path / "tt.model"
        save_table_type_model(model, path)
        loaded = load_table_type_model(path)
        for name in ("weights", "mean", "scale"):
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()
        assert loaded.bias == model.bias
        assert type(loaded.bias) is float

    def test_saves_are_byte_identical(self, model, tmp_path):
        save_table_type_model(model, tmp_path / "a.model")
        save_table_type_model(model, tmp_path / "b.model")
        first = (tmp_path / "a.model").read_bytes()
        assert first == (tmp_path / "b.model").read_bytes()
        assert first.decode().splitlines()[0] == "tableqa-tabletype v2"
        shapes = [line.split(" ")[1:3] for line in first.decode().splitlines()[1:-1]]
        assert shapes == [["weights", "5"], ["mean", "5"], ["scale", "5"],
                          ["bias", "1"]]

    def test_untrained_model_not_saved(self, tmp_path):
        with pytest.raises(UntrainedModel):
            save_table_type_model(TableTypeModel(), tmp_path / "tt.model")

    @pytest.mark.parametrize("how, line", [
        ("truncated", 2), ("cut-line", 3), ("missing-array", 5), ("bad-float", 2),
        ("nan", 5), ("inf", 3), ("shape", 4), ("unknown-array", 5), ("v1", 1),
        ("empty", 1),
    ])
    def test_corrupt_file_names_file_and_line(self, model, tmp_path, how, line):
        path = tmp_path / "tt.model"
        save_table_type_model(model, path)
        path.write_text(corrupt_table_type_file(path.read_text(), how))
        with pytest.raises(TableQAError) as exc:
            load_table_type_model(path)
        assert str(exc.value).startswith(f"{path}:{line}: ")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_or_names_its_line(self, model, tmp_path_factory,
                                                  mutate, data):
        # truncated, or one character substituted, deleted or inserted
        path = tmp_path_factory.getbasetemp() / "mutated-table-type.model"
        save_table_type_model(model, path)
        path.write_text(mutate(data, path.read_text(encoding="utf-8")),
                        encoding="utf-8")
        try:
            load_table_type_model(path)
        except UntrainedModel as exc:
            assert re.match(re.escape(f"{path}:") + r"\d+: ", str(exc)), str(exc)


def corrupt_table_type_file(text, how):
    """A damaged copy of a saved table-type model file."""
    lines = text.splitlines(keepends=True)
    if how == "truncated":        # cut after two lines
        return "".join(lines[:2])
    if how == "cut-line":         # cut inside the mean line
        return "".join(lines[:2]) + lines[2][:len(lines[2]) // 2]
    if how == "missing-array":
        return "".join(lines[:2] + lines[3:])
    if how == "bad-float":
        return "".join(lines[:1] + [lines[1].replace(" 5 ", " 5 x", 1)] + lines[2:])
    if how == "nan":
        return "".join(lines[:4] + ["array bias 1 nan\n"] + lines[5:])
    if how == "inf":
        fields = lines[2].split(" ")
        fields[4] = "-inf"
        return "".join(lines[:2] + [" ".join(fields)] + lines[3:])
    if how == "shape":
        return "".join(lines[:3] + [lines[3].replace(" 5 ", " 1,5 ", 1)] + lines[4:])
    if how == "unknown-array":
        return "".join(lines[:4] + ["array offset 1 0.0\n"] + lines[4:])
    if how == "v1":
        # the unchecked format this file replaced
        return ("tableqa-tabletype v1\n"
                "array weights 0.1 0.2 0.3 0.4 0.5\n"
                "array mean 0.0 0.0 0.0 0.0 0.0\n"
                "array scale 1.0 1.0 1.0 1.0 1.0\n"
                "bias -0.5\nend\n")
    assert how == "empty"
    return ""


class TestCellViews:
    def test_mean_cell_length_skips_blank_cells(self):
        t = Table(id="m", name="m", headers=["a", "b", "c"],
                  rows=[["ab", "", "x y"], ["abcd", "  ", "abcd"], ["", " ", " "]])
        assert t.mean_cell_length == (3.0, 0.0, 3.5)


class TestTranspose:
    def test_five_key_table_becomes_single_row(self):
        t = Table(
            id="donald-trump", name="donald-trump",
            headers=["Key", "Value"],
            rows=[["spouse", "Melania Trump (m. 2005)"],
                  ["born", "June 14, 1946"],
                  ["height", "6' 3''"],
                  ["net worth", "3.1 billion USD (2018)"],
                  ["education", "Wharton School (1966-1968)"]],
            kind=TableKind.KEY_VALUE,
        )
        out = transpose_key_value(t)
        assert out.headers == ["spouse", "born", "height", "net worth", "education"]
        assert out.n_rows == 1
        assert out.rows[0][1] == "June 14, 1946"
        assert out.kind is TableKind.ENTITY_INSTANCE

    def test_one_by_one(self):
        t = Table(id="m", name="m", headers=["Key", "Value"], rows=[["a", "1"]],
                  kind=TableKind.KEY_VALUE)
        out = transpose_key_value(t)
        assert out.headers == ["a"]
        assert out.rows == [["1"]]

    def test_multi_value_columns_give_multiple_rows(self):
        t = Table(
            id="laptops", name="laptops",
            headers=["Feature", "1", "2"],
            rows=[["product", "acer", "dell"], ["ram", "4 gb", "8 gb"]],
            kind=TableKind.KEY_VALUE,
        )
        out = transpose_key_value(t)
        assert out.headers == ["product", "ram"]
        assert out.rows == [["acer", "4 gb"], ["dell", "8 gb"]]

    def test_not_key_value_rejected(self):
        t = Table(id="e", name="e", headers=["a", "b"], rows=[["1", "2"]])
        with pytest.raises(NotKeyValue):
            transpose_key_value(t)

    def test_duplicate_keys_rejected(self):
        t = Table(id="d", name="d", headers=["Key", "Value"],
                  rows=[["born", "x"], ["born", "y"]], kind=TableKind.KEY_VALUE)
        with pytest.raises(DuplicateKeys):
            transpose_key_value(t)

    def test_transposed_table_builds_its_own_views(self):
        t = Table(
            id="laptops", name="laptops",
            headers=["Feature", "1", "2"],
            rows=[["product", "acer", "dell"], ["ram", "4 gb", "8 gb"]],
            kind=TableKind.KEY_VALUE,
        )
        views = ("cell_tokens", "column_tokens", "column_vocab",
                 "header_stems", "column_type_features")
        source = {name: getattr(t, name) for name in views}
        out = transpose_key_value(t)
        assert not set(views) & set(vars(out))
        assert [[cell.tokens for cell in column] for column in out.cell_tokens] \
            == [[("acer",), ("dell",)], [("4", "gb"), ("8", "gb")]]
        assert out.column_tokens == (("acer", "dell"), ("4", "gb", "8", "gb"))
        assert out.column_vocab == ({4: ["acer", "dell"]}, {1: ["4", "8"], 2: ["gb"]})
        assert out.header_stems == (("product",), ("ram",))
        assert len(out.column_type_features) == 2
        assert out.column_type_features[1].numeric == 0.0
        assert {name: getattr(t, name) for name in views} == source

    def test_grid_transpose_is_involution(self):
        rng = random.Random(99)
        for _ in range(50):
            rows = [[f"{r}:{c}" for c in range(rng.randrange(1, 6))]
                    for r in range(rng.randrange(1, 6))]
            width = len(rows[0])
            rows = [row[:width] + ["pad"] * (width - len(row)) for row in rows]
            assert transpose_grid(transpose_grid(rows)) == rows

    @settings(max_examples=200, deadline=None)
    @given(keys=st.lists(st.text(max_size=6), min_size=1, max_size=6, unique=True),
           n_value_cols=st.integers(1, 4), data=st.data())
    def test_generated_key_value_tables(self, keys, n_value_cols, data):
        rows = [[key] + data.draw(st.lists(st.text(max_size=6),
                                           min_size=n_value_cols,
                                           max_size=n_value_cols))
                for key in keys]
        t = Table(id="kv", name="kv",
                  headers=["Key"] + [f"V{c}" for c in range(n_value_cols)],
                  rows=rows, kind=TableKind.KEY_VALUE)
        out = transpose_key_value(t)
        assert out.headers == keys
        assert out.n_rows == n_value_cols
        for i, row in enumerate(out.rows):
            assert row == [rows[j][i + 1] for j in range(len(keys))]
        assert out.kind is TableKind.ENTITY_INSTANCE

    def test_cell_multiset_and_rectangularity_preserved(self):
        rng = random.Random(5)
        for i in range(100):
            n_rows = rng.randrange(1, 7)
            n_value_cols = rng.randrange(1, 5)
            keys = [f"k{j}" for j in range(n_rows)]
            rows = [[keys[j]] + [f"v{j}.{c}{rng.randrange(10)}"
                                 for c in range(n_value_cols)]
                    for j in range(n_rows)]
            t = Table(id=f"t{i}", name=f"t{i}",
                      headers=["Key"] + [f"V{c}" for c in range(n_value_cols)],
                      rows=rows, kind=TableKind.KEY_VALUE)
            out = transpose_key_value(t)
            # rectangular with one row per original value column
            assert out.n_rows == n_value_cols
            assert all(len(r) == n_rows for r in out.rows)
            before = Counter(cell for row in rows for cell in row)
            after = Counter(out.headers) + Counter(
                cell for row in out.rows for cell in row
            )
            assert before == after
