"""Exception hierarchy shared by all tableqa modules."""


class TableQAError(Exception):
    """Base class for all errors raised by this package."""


# --- input files ---

class NotText(TableQAError):
    """An input file holds bytes that are not UTF-8 text."""


# --- table ingestion and transformation ---

class MalformedFile(TableQAError):
    """Table file is empty, has zero columns, or has ragged rows."""


class NotKeyValue(TableQAError):
    """Transpose requested on a table that is not tagged key-value."""


class DuplicateKeys(TableQAError):
    """Two identical key cells would collide as headers after transpose."""


class TableChanged(TableQAError):
    """A workspace table file's bytes differ from those ingest wrote."""


# --- embeddings ---

class MalformedLine(TableQAError):
    """An input line has the wrong arity or a field that does not parse."""


class EmptyFile(TableQAError):
    """Embedding file contains no entries."""


class BadStore(TableQAError):
    """A saved embedding store is unreadable or damaged."""


# --- retrieval ---

class NoTables(TableQAError):
    """An index cannot be built over zero tables."""


class NoIndexedWord(TableQAError):
    """A question holds no word the index holds, so nothing ranks tables."""


class BadIndex(TableQAError):
    """A saved index is missing, damaged, or does not index the tables it
    is loaded for."""


# --- neural network core ---

class DimensionMismatch(TableQAError):
    """Input vector length does not match the model's input dimension."""


class EmptyData(TableQAError):
    """Training requested on an empty dataset."""


class LabelOutOfRange(TableQAError):
    """A training label is outside the output head's class range."""


class UntrainedModel(TableQAError):
    """Prediction requested from a model that has not been trained."""


# --- typing and question analysis ---

class EmptyQuestion(TableQAError):
    """Question classification requires a non-empty question."""


# --- structured queries ---

class QuerySyntaxError(TableQAError):
    """Query text does not match the mini-grammar.

    Carries the character position where parsing failed.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedConstruct(TableQAError):
    """Query uses a construct the executor deliberately refuses.

    OR-disjunctions, sub-queries, aggregate functions and EXTERNAL()
    calls are flagged loudly instead of being silently miscomputed.
    """


class UnknownColumn(TableQAError):
    """Query names a column the target table does not have."""


class NonNumericComparison(TableQAError):
    """A > or < conjunct hit a cell that does not parse as a number."""


class TableMismatch(TableQAError, ValueError):
    """A query's FROM names another table than the one it runs against."""


class OutOfBounds(TableQAError):
    """A row or column index is outside the table's bounds."""


# --- harness ---

class ValidationFailure(TableQAError):
    """One or more manifest entries failed their internal-consistency check."""

    def __init__(self, failures):
        self.failures = list(failures)
        lines = "; ".join(f"{qid}: {cause}" for qid, cause in self.failures)
        super().__init__(f"manifest validation failed: {lines}")


class AllZero(TableQAError):
    """Confusion-matrix metrics are undefined when every count is zero."""
