"""Structured-query AST, parser, printer, and execution against a Table.

The mini-grammar (also the manifest's gold-query format):

    SELECT col[, col...] FROM table
        [WHERE col (~ | LIKE | = | > | <) 'keyword' [AND ...]]
        [ORDER BY col (ASC | DESC)]
        [LIMIT n]

Whitespace may separate tokens. A bare word (a name, a grammar word in
any case, or a number) is a run of ASCII letters, digits, ``_``, ``.`` and
``-``. Identifiers may be double-quoted and keywords are single-quoted; a
quote inside either is doubled, and the first quote that no second quote
follows closes it. An unclosed quote or any other character is a
QuerySyntaxError at its position. OR-disjunctions, sub-queries, aggregate
functions and EXTERNAL() are deliberately rejected with UnsupportedConstruct
so gold files containing them are flagged instead of silently miscomputed.
"""

from __future__ import annotations

import enum
import re
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
# a token and the whitespace before it; the last alternative ends the text
_TOKEN = re.compile(r"""\s*(?:(?P<WORD>[A-Za-z0-9_.-]+)
    |(?P<IDENT>"[^"]*(?:""[^"]*)*"(?!"))|(?P<STRING>'[^']*(?:''[^']*)*'(?!'))
    |(?P<SYM>[~=<>,])|(?P<PAREN>[()])|(?P<UNCLOSED>["'])|(?P<OTHER>.)|\Z)""",
                    re.VERBOSE | re.DOTALL)


def _scan(text: str):
    """Yield (kind, value, position) tokens; kind in WORD/IDENT/STRING/SYM."""
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "WORD" or kind == "SYM":
            yield kind, m[kind], m.start(kind)
        elif kind == "IDENT" or kind == "STRING":
            quote = m[kind][0]
            yield kind, m[kind][1:-1].replace(quote * 2, quote), m.start(kind)
        elif kind == "PAREN":
            raise UnsupportedConstruct(
                f"parenthesized constructs (OR groups, sub-queries, aggregates, "
                f"EXTERNAL) are not executable (at position {m.start(kind)})")
        elif kind == "UNCLOSED":
            raise QuerySyntaxError(f"unterminated {m[kind]} quote", m.start(kind))
        elif kind == "OTHER":
            raise QuerySyntaxError(f"unexpected character {m[kind]!r}", m.start(kind))


def _refuse_unsupported(kind, value, pos):
    if kind == "WORD" and value.upper() in _UNSUPPORTED_WORDS:
        raise UnsupportedConstruct(f"{value.upper()} is not executable (at position {pos})")


class _Parser:
    def __init__(self, text: str):
        # an END token past the last one: the parser never reads past the list
        self.tokens = [*_scan(text), ("END", "", len(text))]
        self.pos = 0

    def _next(self):
        tok = self.tokens[self.pos]
        if tok[0] == "END":
            raise QuerySyntaxError("unexpected end of query", tok[2])
        self.pos += 1
        return tok

    def _accept(self, *names) -> str | None:
        """The next word, upper-cased and consumed, if it is one of names."""
        kind, value, _ = self.tokens[self.pos]
        if kind == "WORD" and value.upper() in names:
            self.pos += 1
            return value.upper()
        return None

    def _expect_keyword(self, name: str):
        kind, value, pos = self._next()
        if kind != "WORD" or value.upper() != name:
            raise QuerySyntaxError(f"expected {name}, got {value!r}", pos)

    def _identifier(self) -> str:
        kind, value, pos = self._next()
        _refuse_unsupported(kind, value, pos)
        if kind == "WORD" and value.upper() in _KEYWORDS:
            raise QuerySyntaxError(f"expected identifier, got keyword {value!r}", pos)
        if kind == "WORD" or kind == "IDENT":
            return value
        raise QuerySyntaxError(f"expected identifier, got {value!r}", pos)

    def _keyword_value(self) -> str:
        kind, value, pos = self._next()
        if kind == "SYM":
            raise QuerySyntaxError(f"expected keyword value, got {value!r}", pos)
        if kind == "WORD" and value.upper() in _KEYWORDS:
            raise QuerySyntaxError(f"expected value, got keyword {value!r}", pos)
        return value

    def parse(self) -> StructuredQuery:
        self._expect_keyword("SELECT")
        if self._accept("FROM"):
            raise QuerySyntaxError("empty SELECT list", self.tokens[self.pos - 1][2])
        select = [self._identifier()]
        while self.tokens[self.pos][:2] == ("SYM", ","):
            self._next()
            select.append(self._identifier())
        self._expect_keyword("FROM")
        from_table = self._identifier()

        where = []
        if self._accept("WHERE"):
            where.append(self._condition())
            while self._accept("AND"):
                where.append(self._condition())

        order_by = None
        if self._accept("ORDER"):
            self._expect_keyword("BY")
            column = self._identifier()
            word = self._accept("ASC", "ASCENDING", "DESC", "DESCENDING") or "ASC"
            order_by = (column, "DESC" if word.startswith("DESC") else "ASC")

        limit = None
        if self._accept("LIMIT"):
            kind, value, pos = self._next()
            try:
                limit = int(value) if kind == "WORD" and value.isdigit() else 0
            except ValueError:      # more digits than Python converts to an int
                raise QuerySyntaxError("LIMIT expects a positive integer, got one of "
                                       f"{len(value)} digits", pos) from None
            if limit < 1:
                raise QuerySyntaxError(f"LIMIT expects a positive integer, got {value!r}",
                                       pos)

        kind, value, pos = self.tokens[self.pos]
        if kind != "END":
            _refuse_unsupported(kind, value, pos)
            raise QuerySyntaxError(f"unexpected trailing {value!r}", pos)
        return StructuredQuery(select=tuple(select), from_table=from_table,
                               where=tuple(where), order_by=order_by, limit=limit)

    def _condition(self) -> Condition:
        column = self._identifier()
        kind, value, pos = self._next()
        if kind == "WORD" and value.upper() == "LIKE":
            op = Operator.LIKE
        elif kind == "SYM" and value != ",":
            op = Operator(value)
        else:
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
