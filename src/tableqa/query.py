"""Structured-query AST, parser, printer, and execution against a Table.

The mini-grammar (also the manifest's gold-query format):

    SELECT col[, col...] FROM table
        [WHERE col (~ | LIKE | = | > | <) 'keyword' [AND ...]]
        [ORDER BY col (ASC | DESC)]
        [LIMIT n]

Identifiers may be double-quoted (internal quotes doubled); keywords are
single-quoted. OR-disjunctions, sub-queries, aggregate functions and
EXTERNAL() are deliberately rejected with UnsupportedConstruct so gold
files containing them are flagged instead of silently miscomputed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .embed import EmbeddingStore, sim_match
from .errors import (
    NonNumericComparison,
    OutOfBounds,
    QuerySyntaxError,
    TableMismatch,
    UnknownColumn,
    UnsupportedConstruct,
)
from .tabular import Table
from .textproc import parse_number

CellSet = set  # of (row index, column index) pairs


class Operator(enum.Enum):
    SIM_MATCH = "~"
    LIKE = "LIKE"
    EQUALS = "="
    GREATER = ">"
    LESS = "<"


@dataclass(frozen=True)
class Condition:
    column: str
    keyword: str
    operator: Operator


@dataclass(frozen=True)
class StructuredQuery:
    select: tuple[str, ...]
    from_table: str
    where: tuple[Condition, ...] = ()
    order_by: tuple[str, str] | None = None   # (column, "ASC" | "DESC")
    limit: int | None = None

    def __post_init__(self):
        if not self.select:
            raise ValueError("SELECT list cannot be empty")
        if self.limit is not None and self.limit < 1:
            raise ValueError("LIMIT must be positive")


# ---------------------------------------------------------------------------
# Tokenizer + recursive-descent parser
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "ORDER", "BY", "LIMIT",
    "ASC", "DESC", "ASCENDING", "DESCENDING", "LIKE", "EXTERNAL",
}
_UNSUPPORTED_WORDS = {"OR", "EXTERNAL", "COUNT", "SUM", "AVG", "JOIN"}
_SYMBOLS = "~=<>,"
_WORD_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.")


def _scan(text: str):
    """Yield (kind, value, position) tokens; kind in WORD/IDENT/STRING/SYM."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(" or c == ")":
            raise UnsupportedConstruct(
                f"parenthesized constructs (OR groups, sub-queries, aggregates, "
                f"EXTERNAL) are not executable (at position {i})"
            )
        if c in _SYMBOLS:
            yield ("SYM", c, i)
            i += 1
            continue
        if c == '"' or c == "'":
            quote = c
            start = i
            i += 1
            buf = []
            while True:
                if i >= n:
                    raise QuerySyntaxError(f"unterminated {quote} quote", start)
                if text[i] == quote:
                    if i + 1 < n and text[i + 1] == quote:  # doubled quote
                        buf.append(quote)
                        i += 2
                        continue
                    i += 1
                    break
                buf.append(text[i])
                i += 1
            yield ("IDENT" if quote == '"' else "STRING", "".join(buf), start)
            continue
        if c in _WORD_CHARS:
            start = i
            while i < n and text[i] in _WORD_CHARS:
                i += 1
            yield ("WORD", text[start:i], start)
            continue
        raise QuerySyntaxError(f"unexpected character {c!r}", i)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_scan(text))
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise QuerySyntaxError("unexpected end of query", len(self.text))
        self.pos += 1
        return tok

    def _at_keyword(self, *names) -> bool:
        tok = self._peek()
        return tok is not None and tok[0] == "WORD" and tok[1].upper() in names

    def _expect_keyword(self, name: str):
        tok = self._next()
        if tok[0] != "WORD" or tok[1].upper() != name:
            raise QuerySyntaxError(f"expected {name}, got {tok[1]!r}", tok[2])

    def _identifier(self) -> str:
        tok = self._next()
        kind, value, pos = tok
        if kind == "IDENT":
            return value
        if kind == "WORD":
            upper = value.upper()
            if upper in _UNSUPPORTED_WORDS:
                raise UnsupportedConstruct(
                    f"{upper} is not executable (at position {pos})"
                )
            if upper in _KEYWORDS:
                raise QuerySyntaxError(f"expected identifier, got keyword {value!r}", pos)
            return value
        raise QuerySyntaxError(f"expected identifier, got {value!r}", pos)

    def _keyword_value(self) -> str:
        tok = self._next()
        kind, value, pos = tok
        if kind in ("STRING", "IDENT", "WORD"):
            if kind == "WORD" and value.upper() in _KEYWORDS:
                raise QuerySyntaxError(f"expected value, got keyword {value!r}", pos)
            return value
        raise QuerySyntaxError(f"expected keyword value, got {value!r}", pos)

    def parse(self) -> StructuredQuery:
        self._expect_keyword("SELECT")
        if self._at_keyword("FROM"):
            tok = self._peek()
            raise QuerySyntaxError("empty SELECT list", tok[2])
        select = [self._identifier()]
        while self._peek() is not None and self._peek()[:2] == ("SYM", ","):
            self._next()
            select.append(self._identifier())
        self._expect_keyword("FROM")
        from_table = self._identifier()

        where = []
        if self._at_keyword("WHERE"):
            self._next()
            where.append(self._condition())
            while self._at_keyword("AND"):
                self._next()
                where.append(self._condition())
        if self._at_keyword("OR"):
            tok = self._peek()
            raise UnsupportedConstruct(f"OR is not executable (at position {tok[2]})")

        order_by = None
        if self._at_keyword("ORDER"):
            self._next()
            self._expect_keyword("BY")
            column = self._identifier()
            direction = "ASC"
            if self._at_keyword("ASC", "ASCENDING", "DESC", "DESCENDING"):
                word = self._next()[1].upper()
                direction = "DESC" if word.startswith("DESC") else "ASC"
            order_by = (column, direction)

        limit = None
        if self._at_keyword("LIMIT"):
            self._next()
            tok = self._next()
            if tok[0] != "WORD" or not tok[1].isdigit() or int(tok[1]) < 1:
                raise QuerySyntaxError(f"LIMIT expects a positive integer, got {tok[1]!r}",
                                       tok[2])
            limit = int(tok[1])

        trailing = self._peek()
        if trailing is not None:
            if trailing[0] == "WORD" and trailing[1].upper() in _UNSUPPORTED_WORDS:
                raise UnsupportedConstruct(
                    f"{trailing[1].upper()} is not executable "
                    f"(at position {trailing[2]})"
                )
            raise QuerySyntaxError(f"unexpected trailing {trailing[1]!r}", trailing[2])
        return StructuredQuery(
            select=tuple(select), from_table=from_table,
            where=tuple(where), order_by=order_by, limit=limit,
        )

    def _condition(self) -> Condition:
        column = self._identifier()
        tok = self._next()
        kind, value, pos = tok
        op = None
        if kind == "SYM" and value in ("~", "=", ">", "<"):
            op = Operator(value)
        elif kind == "WORD" and value.upper() == "LIKE":
            op = Operator.LIKE
        if op is None:
            raise QuerySyntaxError(f"expected operator (~, LIKE, =, >, <), got {value!r}",
                                   pos)
        return Condition(column=column, keyword=self._keyword_value(), operator=op)


def parse_query(text: str) -> StructuredQuery:
    return _Parser(text).parse()


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _quote_value(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def print_query(q: StructuredQuery) -> str:
    """Canonical text form; parse_query(print_query(q)) == q."""
    parts = ["SELECT", ", ".join(_quote_ident(c) for c in q.select),
             "FROM", _quote_ident(q.from_table)]
    if q.where:
        conds = [f"{_quote_ident(c.column)} {c.operator.value} {_quote_value(c.keyword)}"
                 for c in q.where]
        parts += ["WHERE", " AND ".join(conds)]
    if q.order_by:
        parts += ["ORDER BY", _quote_ident(q.order_by[0]), q.order_by[1]]
    if q.limit is not None:
        parts += ["LIMIT", str(q.limit)]
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _column_index(table: Table, name: str) -> int:
    try:
        return table.headers.index(name)
    except ValueError:
        raise UnknownColumn(
            f"table {table.id!r} has no column {name!r} "
            f"(headers: {table.headers})"
        ) from None


def _condition_holds(cond: Condition, cell: str, store) -> bool:
    if cond.operator is Operator.SIM_MATCH:
        return sim_match(store, cell, cond.keyword)
    if cond.operator is Operator.LIKE:
        return cond.keyword.lower() in cell.lower()
    if cond.operator is Operator.EQUALS:
        return cell.strip() == cond.keyword.strip()
    cell_num = parse_number(cell)
    bound = parse_number(cond.keyword)
    if cell_num is None or bound is None:
        raise NonNumericComparison(
            f"cannot compare {cell!r} {cond.operator.value} {cond.keyword!r}"
        )
    return cell_num > bound if cond.operator is Operator.GREATER else cell_num < bound


def execute(q: StructuredQuery, table: Table, store: EmbeddingStore) -> CellSet:
    """Cells at (surviving rows x SELECT columns), row indices original."""
    if q.from_table != table.id:
        raise TableMismatch(f"query targets {q.from_table!r}, table is {table.id!r}")
    select_idx = [_column_index(table, name) for name in q.select]
    cond_idx = [(_column_index(table, c.column), c) for c in q.where]

    rows = [
        r for r in range(table.n_rows)
        if all(_condition_holds(c, table.rows[r][ci], store)
               for ci, c in cond_idx)
    ]

    if q.order_by is not None:
        order_idx = _column_index(table, q.order_by[0])
        cells = {r: table.rows[r][order_idx] for r in rows}
        numbers = {r: parse_number(v) for r, v in cells.items()}
        descending = q.order_by[1] == "DESC"
        if rows and all(v is not None for v in numbers.values()):
            rows = sorted(rows, key=lambda r: numbers[r], reverse=descending)
        else:
            # mixed or non-numeric column: lexicographic, still deterministic
            rows = sorted(rows, key=lambda r: cells[r], reverse=descending)
    if q.limit is not None:
        rows = rows[: q.limit]

    return {(r, c) for r in rows for c in select_idx}


# ---------------------------------------------------------------------------
# Row selection from predicted (column, keyword) pairs
# ---------------------------------------------------------------------------

def select_rows_word_match(table: Table, pairs) -> set[int]:
    """Rows with the highest count of exact token matches; all rows if no pairs.

    Cells are tokenized, so a keyword matches whole words only ("art" does
    not hit "Carter"). Ties return every argmax row.
    """
    all_rows = set(range(table.n_rows))
    if not pairs:
        return all_rows
    scores = {r: 0 for r in all_rows}
    for column_index, keyword in pairs:
        target = keyword.lower()
        cells = table.cell_tokens[column_index]
        for r in all_rows:
            if target in cells[r].tokens:
                scores[r] += 1
    if not scores:
        return all_rows
    best = max(scores.values())
    return {r for r, s in scores.items() if s == best}


def select_rows_embedding(table: Table, pairs, store: EmbeddingStore) -> set[int]:
    """Rows at the global minimum embedding distance across all pairs.

    Per pair, a row's distance is the minimum Euclidean distance between
    any in-vocabulary token of its cell and the keyword vector. Pairs whose
    keyword is out of vocabulary contribute no constraint; if nothing
    resolves, all rows are returned.
    """
    all_rows = set(range(table.n_rows))
    if not pairs:
        return all_rows
    assignments: dict[int, float] = {}
    for column_index, keyword in pairs:
        kw_vec = store.lookup(keyword)
        if kw_vec is None:
            continue
        cells = table.cell_tokens[column_index]
        for r in all_rows:
            best = None
            for row in store.known_rows(cells[r].tokens):
                d = float(np.linalg.norm(store.matrix[row] - kw_vec))
                best = d if best is None else min(best, d)
            if best is not None:
                prev = assignments.get(r)
                assignments[r] = best if prev is None else min(prev, best)
    if not assignments:
        return all_rows
    global_min = min(assignments.values())
    return {r for r, d in assignments.items() if d == global_min}


def intersect_cells(table: Table, rows, cols) -> CellSet:
    """Cartesian product of row and column index sets, bounds-checked."""
    for r in rows:
        if not (0 <= r < table.n_rows):
            raise OutOfBounds(f"row {r} outside table {table.id!r} "
                              f"({table.n_rows} rows)")
    for c in cols:
        if not (0 <= c < table.n_columns):
            raise OutOfBounds(f"column {c} outside table {table.id!r} "
                              f"({table.n_columns} columns)")
    return {(r, c) for r in rows for c in cols}
