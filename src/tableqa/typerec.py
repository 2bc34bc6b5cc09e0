"""Column data-type recognition and question-type classification.

Column typing extracts nine per-column proportion features and feeds a
small softmax network; the resulting 7-way distribution is reused as a
feature downstream. Question typing is a deterministic rule cascade over
eleven types (six coarse classes, yes/no, four numeric sub-classes),
documented as a table in the README.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyQuestion, MalformedLine, UntrainedModel
from .nn import MlpModel, MlpSpec, OutputHead, TrainConfig, predict_batch, train
from .tabular import Table
from .textproc import TokenList, parse_number, read_lines, tokenize


class ColumnType(enum.Enum):
    DATETIME = 0
    CURRENCY = 1
    PERCENTAGE = 2
    NUMERICAL = 3
    BOOLEAN = 4
    TEXT = 5
    URL = 6

    @classmethod
    def from_name(cls, name: str) -> "ColumnType":
        return cls[name.strip().upper()]


COLUMN_TYPE_FEATURE_DIM = 9
COLUMN_TYPE_SPEC = MlpSpec(
    input_dim=COLUMN_TYPE_FEATURE_DIM,
    hidden=(32, 32),
    output=OutputHead.SOFTMAX7,
)

_CURRENCY_CHARS = set("$€£¥")
_CURRENCY_TOKENS = {"usd", "eur", "gbp"}
_BOOLEAN_TOKENS = {"yes", "no", "true", "false"}
_MONTH_TOKENS = {
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
    "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "oct",
    "nov", "dec",
}
_WEEKDAY_TOKENS = {
    "monday", "tuesday", "wednesday", "thursday", "friday",
    "saturday", "sunday",
}


@dataclass(frozen=True)
class ColumnTypeFeatures:
    """Nine proportions in [0,1], computed over the column's non-empty cells."""

    numeric: float
    only_digits: float
    currency: float
    percentage: float
    boolean: float
    year: float
    month: float
    weekday: float
    url: float

    def as_vector(self) -> np.ndarray:
        return np.array([
            self.numeric, self.only_digits, self.currency, self.percentage,
            self.boolean, self.year, self.month, self.weekday, self.url,
        ], dtype=np.float64)


def _only_digits(cell: str) -> bool:
    text = cell.strip()
    return bool(text) and any(c.isdigit() for c in text) \
        and all(c.isdigit() or c in ".," for c in text)


def _is_year_token(token: str) -> bool:
    return token.isdigit() and 1500 <= int(token) <= 2020


def extract_column_type_features(
    column: list[str], tokens: Sequence[TokenList] | None = None
) -> ColumnTypeFeatures:
    """Features of ``column``; ``tokens``, when given, is ``tokenize(cell)``
    per cell (a table's ``cell_tokens`` entry), read instead of
    tokenizing again."""
    if tokens is None:
        tokens = [tokenize(cell) if cell.strip() else None for cell in column]
    cells = [(c, set(t.tokens)) for c, t in zip(column, tokens) if c.strip()]
    if not cells:
        return ColumnTypeFeatures(*([0.0] * COLUMN_TYPE_FEATURE_DIM))
    n = len(cells)
    counts = [0] * COLUMN_TYPE_FEATURE_DIM
    for cell, words in cells:
        lowered = cell.lower()
        counts[0] += parse_number(cell) is not None
        counts[1] += _only_digits(cell)
        counts[2] += bool(_CURRENCY_CHARS & set(cell)) or bool(_CURRENCY_TOKENS & words)
        counts[3] += "%" in cell
        counts[4] += bool(_BOOLEAN_TOKENS & words)
        counts[5] += any(_is_year_token(t) for t in words)
        counts[6] += bool(_MONTH_TOKENS & words)
        counts[7] += bool(_WEEKDAY_TOKENS & words)
        counts[8] += "http" in lowered
    return ColumnTypeFeatures(*(c / n for c in counts))


def _check_column_type_model(model: MlpModel | None) -> None:
    if model is None:
        raise UntrainedModel("no column-type model supplied")
    if model.spec.input_dim != COLUMN_TYPE_FEATURE_DIM \
            or model.spec.output is not OutputHead.SOFTMAX7:
        raise DimensionMismatch(
            f"column-type model must be {COLUMN_TYPE_FEATURE_DIM}-in/7-out, "
            f"got {model.spec}"
        )


def classify_column_type(
    features: ColumnTypeFeatures, model: MlpModel | None
) -> tuple[ColumnType, np.ndarray]:
    """Most likely column type plus the full 7-way distribution."""
    _check_column_type_model(model)
    probs = predict_batch(model, features.as_vector()[None, :])[0]
    return ColumnType(int(probs.argmax())), probs


def column_type_distributions(table: Table, model: MlpModel) -> np.ndarray:
    """Per-column 7-way type distributions for a whole table, row-major.

    One forward over the columns stacked as ``(n_columns, 1, 9)``: numpy's
    stacked matmul multiplies each one-row matrix on its own, so every row
    is byte-equal to ``classify_column_type`` of that column. A plain
    ``(n_columns, 9)`` batch is one matrix product and may round differently.
    """
    _check_column_type_model(model)
    features = np.array([f.as_vector() for f in table.column_type_features])
    return predict_batch(model, features[:, None, :])[:, 0]


def train_column_type_model(
    samples: list[tuple[ColumnTypeFeatures, ColumnType]],
    cfg: TrainConfig = TrainConfig(),
) -> MlpModel:
    data = [(f.as_vector(), t.value) for f, t in samples]
    return train(COLUMN_TYPE_SPEC, data, cfg)


def load_column_labels(path) -> list[tuple[str, int, ColumnType]]:
    """Parse the labels file: `table_id <TAB> column_index <TAB> type` per line."""
    out = []
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise MalformedLine(
                f"{path}:{lineno}: expected 'table_id<TAB>column_index<TAB>type', "
                f"got {len(parts) - 1} tabs"
            )
        table_id, index, name = parts
        try:
            column = int(index)
        except ValueError:
            raise MalformedLine(
                f"{path}:{lineno}: column index is not an integer: {index!r}"
            ) from None
        if column < 0:
            raise MalformedLine(f"{path}:{lineno}: negative column index {column}")
        try:
            ctype = ColumnType.from_name(name)
        except KeyError:
            raise MalformedLine(
                f"{path}:{lineno}: unknown column type {name!r}"
            ) from None
        out.append((table_id, column, ctype))
    return out


# ---------------------------------------------------------------------------
# Question typing
# ---------------------------------------------------------------------------

class QuestionType(enum.Enum):
    ABBREVIATION = 0
    ENTITY = 1
    DESCRIPTION = 2
    HUMAN = 3
    LOCATION = 4
    NUMERIC = 5
    YESNO = 6
    NUMERIC_DATE = 7
    NUMERIC_COUNT = 8
    NUMERIC_PERIOD = 9
    NUMERIC_MONEY = 10


N_QUESTION_TYPES = len(QuestionType)

_AUX_VERBS = {
    "is", "are", "was", "were", "am", "be", "do", "does", "did",
    "can", "could", "will", "would", "shall", "should", "may",
    "might", "must", "has", "have", "had",
}
_MONEY_CUES = {"cost", "costs", "price", "prices", "pay", "worth", "money"}


def _has_bigram(tokens: tuple[str, ...], first: str, second: str) -> bool:
    return any(a == first and b == second for a, b in zip(tokens, tokens[1:]))


def classify_question(tokens: tuple[str, ...]) -> tuple[QuestionType, np.ndarray]:
    """Deterministic rule cascade over a question's ``tokenize(...).tokens``;
    returns the type and its one-hot encoding.

    Rules fire in a fixed priority order, so every question maps to exactly
    one of the eleven types.
    """
    if not tokens:
        raise EmptyQuestion("cannot classify an empty question")
    token_set = set(tokens)

    qtype = QuestionType.ENTITY
    if tokens[0] in _AUX_VERBS:
        qtype = QuestionType.YESNO
    elif token_set & {"who", "whose", "whom"}:
        qtype = QuestionType.HUMAN
    elif "where" in token_set:
        qtype = QuestionType.LOCATION
    elif "when" in token_set or any(
        _has_bigram(tokens, "what", unit) for unit in ("year", "day", "date")
    ):
        qtype = QuestionType.NUMERIC_DATE
    elif _has_bigram(tokens, "how", "many"):
        qtype = QuestionType.NUMERIC_COUNT
    elif _has_bigram(tokens, "how", "long"):
        qtype = QuestionType.NUMERIC_PERIOD
    elif _has_bigram(tokens, "how", "much") and token_set & _MONEY_CUES:
        qtype = QuestionType.NUMERIC_MONEY
    elif _has_bigram(tokens, "how", "much"):
        qtype = QuestionType.NUMERIC
    elif token_set & {"cost", "costs", "price", "prices"}:
        qtype = QuestionType.NUMERIC_MONEY
    elif _has_bigram(tokens, "stand", "for") or "abbreviation" in token_set \
            or "acronym" in token_set:
        qtype = QuestionType.ABBREVIATION
    elif token_set & {"how", "why"}:
        qtype = QuestionType.DESCRIPTION

    onehot = np.zeros(N_QUESTION_TYPES)
    onehot[qtype.value] = 1.0
    return qtype, onehot
