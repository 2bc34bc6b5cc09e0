"""Word-embedding storage and the semantic proximity primitive.

Backs both the proximity features and the ~ operator: a cell matches a
keyword if they are equal, if the keyword is a substring of the cell, or
failing both, if any token pair sits within a fixed embedding distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyFile, MalformedLine
from .textproc import tokenize


@dataclass(frozen=True)
class SimMatchConfig:
    """Match threshold for the embedding fallback stage of ~.

    ``threshold`` is a maximum cosine distance (1 - cosine similarity).
    """

    threshold: float = 0.45

    def __post_init__(self):
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"threshold must be finite and positive: {self.threshold}")


@dataclass
class EmbeddingStore:
    """Token -> d-dimensional vector map; lookups are lowercased."""

    dim: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)

    def lookup(self, token: str) -> np.ndarray | None:
        return self.vectors.get(token.lower())

    def __len__(self) -> int:
        return len(self.vectors)


def load_embeddings(path) -> EmbeddingStore:
    """Parse the plain-text `token f1 ... fd` format, one entry per line.

    The dimension is inferred from the first line; later lines with a
    different arity, an unparsable float or a nan/inf component raise
    MalformedLine.
    """
    store: EmbeddingStore | None = None
    with open(str(path), encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, *values = parts
            if store is None:
                if not values:
                    raise MalformedLine(f"{path}:{lineno}: no vector components")
                store = EmbeddingStore(dim=len(values))
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


def proximity(store: EmbeddingStore, a: str, b: str) -> float | None:
    """Cosine similarity of two tokens; None when either is out of vocabulary
    or has a zero-norm vector."""
    va = store.lookup(a)
    vb = store.lookup(b)
    if va is None or vb is None:
        return None
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        return None
    return float(va @ vb / (na * nb))


def sim_match(store: EmbeddingStore, cfg: SimMatchConfig, cell: str, keyword: str) -> bool:
    """Three-stage cell/keyword match: equality, substring, embedding distance.

    Stage 1 compares lowercased trimmed strings. Stage 2 is LIKE-style
    containment of the keyword in the cell. Stage 3 tokenizes both sides
    and fires when any (cell token, keyword token) pair is within
    cfg.threshold cosine distance; out-of-vocabulary pairs never match.
    """
    cell_norm = cell.strip().lower()
    keyword_norm = keyword.strip().lower()
    if cell_norm == keyword_norm:
        return True
    if keyword_norm and keyword_norm in cell_norm:
        return True
    keyword_tokens = tokenize(keyword).tokens
    for cell_token in tokenize(cell).tokens:
        for keyword_token in keyword_tokens:
            sim = proximity(store, cell_token, keyword_token)
            if sim is not None and 1.0 - sim <= cfg.threshold:
                return True
    return False
