"""The gold-query scanner and parser that ``query.parse_query`` replaced, verbatim.

``_scan`` walks the text one character at a time. ``query._scan`` must
give the same tokens for every string, and ``query.parse_query`` the
same ``StructuredQuery``, or an error of the same class, message and
``.position``.
"""

from __future__ import annotations

from tableqa.errors import QuerySyntaxError, UnsupportedConstruct
from tableqa.query import (_KEYWORDS, _UNSUPPORTED_WORDS, Condition, Operator,
                           StructuredQuery)

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


def reference_parse_query(text: str) -> StructuredQuery:
    return _Parser(text).parse()
