import re
import warnings
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from tableqa.embed import load_embeddings
from tableqa.harness import (
    ingest_corpus,
    load_corpus,
    load_manifest,
    load_table_kinds,
)
from tableqa.nn import TrainConfig
from tableqa.retrieval import build_index
from tableqa.textproc import read_lines
from tableqa.typerec import (
    extract_column_type_features,
    load_column_labels,
    train_column_type_model,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# a failing property prints the blob that @reproduce_failure replays it from
settings.register_profile("tableqa", print_blob=True)
settings.load_profile("tableqa")

# The hypothesis plugin imports this module when it reports a failing
# example. Its libcst import warns (mypy_extensions.TypedDict is
# deprecated), and under -W error that warning would replace the report
# with an INTERNALERROR. Importing it here, with only that import's
# DeprecationWarning ignored, keeps every warning of the tests an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:     # no libcst: the plugin skips the patch as well
        pass


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def pipeline_store(fixtures_dir):
    return load_embeddings(fixtures_dir / "pipeline.vec")


@pytest.fixture(scope="session")
def table_kinds(fixtures_dir):
    return load_table_kinds(fixtures_dir / "table_types.txt")


@pytest.fixture(scope="session")
def raw_corpus(fixtures_dir):
    return load_corpus(fixtures_dir / "tables")


@pytest.fixture(scope="session")
def corpus(raw_corpus, table_kinds):
    return ingest_corpus(raw_corpus, kinds=table_kinds)


@pytest.fixture(scope="session")
def corpus_index(corpus):
    """The TF-IDF index over every ingested fixture table."""
    return build_index(list(corpus.values()))


@pytest.fixture(scope="session")
def manifest(fixtures_dir, corpus, pipeline_store):
    return load_manifest(fixtures_dir / "manifest.txt", corpus, pipeline_store)


@pytest.fixture(scope="session")
def trained_coltype_model(fixtures_dir, corpus):
    labels = load_column_labels(fixtures_dir / "column_labels.txt")
    samples = [
        (extract_column_type_features(corpus[tid].column(idx)), ctype)
        for tid, idx, ctype in labels
    ]
    return train_column_type_model(samples, TrainConfig(epochs=300, seed=11))


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory, fixtures_dir):
    """Workspace with ingested tables and all four trained models."""
    from tableqa.cli import main

    ws = tmp_path_factory.mktemp("workspace")
    fx = str(fixtures_dir)
    assert main(["ingest", "--tables", f"{fx}/tables",
                 "--kinds", f"{fx}/table_types.txt",
                 "--workspace", str(ws)]) == 0
    assert main(["train", "--task", "table-type", "--workspace", str(ws),
                 "--tables", f"{fx}/tables", "--kinds", f"{fx}/table_types.txt",
                 "--seed", "7"]) == 0
    assert main(["train", "--task", "column-type", "--workspace", str(ws),
                 "--labels", f"{fx}/column_labels.txt", "--seed", "7"]) == 0
    assert main(["train", "--task", "select", "--workspace", str(ws),
                 "--manifest", f"{fx}/manifest.txt",
                 "--embeddings", f"{fx}/pipeline.vec", "--seed", "7"]) == 0
    assert main(["train", "--task", "where", "--workspace", str(ws),
                 "--manifest", f"{fx}/manifest.txt",
                 "--embeddings", f"{fx}/pipeline.vec", "--seed", "7"]) == 0
    return ws


_MUTATION_CHARS = st.one_of(st.sampled_from(list("0123456789 \n\t-+.,eE_naif")),
                            st.characters(codec="utf-8"))


@pytest.fixture(scope="session")
def mutate():
    """``mutate(data, text)``: ``text`` truncated, or with one character
    substituted, deleted or inserted, drawn through hypothesis ``data``.

    Positions favour the first lines and the start of each line, where a
    model file keeps its magic, spec and array names.
    """
    def mutate(data, text):
        line_starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
        i = data.draw(st.one_of(
            st.integers(0, min(len(text), 120)),
            st.integers(0, len(text)),
            st.builds(lambda start, off: min(start + off, len(text)),
                      st.sampled_from(line_starts), st.integers(0, 16)),
        ))
        how = data.draw(st.sampled_from(["truncate", "substitute", "delete", "insert"]))
        if how == "truncate":
            return text[:i]
        if how == "insert":
            return text[:i] + data.draw(_MUTATION_CHARS) + text[i:]
        i = min(i, len(text) - 1)
        if how == "delete":
            return text[:i] + text[i + 1:]
        return text[:i] + data.draw(_MUTATION_CHARS) + text[i + 1:]
    return mutate


@pytest.fixture(scope="session")
def names_a_line():
    """``names_a_line(message, path)``: assert that ``message`` starts with
    ``<path>:<n>: `` for a line ``n`` of the text file ``path``."""
    def names_a_line(message, path):
        match = re.match(re.escape(f"{path}:") + r"(\d+): ", message)
        assert match, message
        assert 1 <= int(match.group(1)) <= len(list(read_lines(path))), message
    return names_a_line
