"""Tokenizer for GhostDB's SQL dialect.

Supports the paper's surface: ``CREATE TABLE`` with the ``HIDDEN``
annotation and ``REFERENCES`` clauses, Select-Project-Join queries
with conjunctive predicates (comparisons, ``BETWEEN``, ``IN``) plus the
aggregate and ``ORDER BY`` / ``LIMIT`` extensions, and the incremental
DML statements ``INSERT INTO`` and ``DELETE FROM``.

:func:`tokenize`, :func:`normalize_sql` and the one-token probe
:func:`leading_keyword` all lex through one compiled pattern.
"""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import SqlSyntaxError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "CREATE", "TABLE", "HIDDEN",
    "REFERENCES", "BETWEEN", "IN", "GROUP", "BY", "AS", "INT", "INTEGER",
    "SMALLINT", "BIGINT", "FLOAT", "CHAR", "COUNT", "SUM", "MIN", "MAX",
    "AVG", "NOT", "NULL", "PRIMARY", "KEY", "DISTINCT", "INSERT", "INTO",
    "VALUES", "DELETE", "ORDER", "ASC", "DESC", "LIMIT", "OFFSET",
}

#: token kinds
KW = "kw"
IDENT = "ident"
NUMBER = "number"
STRING = "string"
OP = "op"
EOF = "eof"

#: one token, kind = the group that matched; ``bad`` takes any other
#: character, so a scan skips only whitespace.  ``1.`` is ``1`` ``.``
_TOKEN = re.compile(r"""
      (?P<number>-?\d+(?:\.\d+)?)
    | (?P<word>[^\W\d]\w*)
    | (?P<string>'[^']*')
    | (?P<op><=|>=|<>|!=|[=<>(),.*;?])
    | (?P<bad>\S)
""", re.VERBOSE)


class Token(NamedTuple):
    """One lexed token: kind, source text and position."""

    kind: str
    value: str
    pos: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r})"


def _scan(text: str) -> Iterator[Tuple[str, str, int]]:
    """``(kind, text, pos)`` per token; a string keeps its quotes.

    A leading ``-`` belongs to a number only at the start or after an
    operator or keyword other than ``)``; anywhere else it is an
    unexpected character, like any character no token starts with.
    """
    prev_kind, prev = OP, ""
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value = m.group()
        if kind == "word":
            upper = value.upper()
            if upper in KEYWORDS:
                kind, value = KW, upper
            else:
                kind = IDENT
        elif kind == "bad":
            if value == "'":
                raise SqlSyntaxError(
                    f"unterminated string at position {m.start()}")
            raise SqlSyntaxError(
                f"unexpected character {value!r} at position {m.start()}")
        elif value[0] == "-" and (prev_kind not in (OP, KW) or prev == ")"):
            raise SqlSyntaxError(
                f"unexpected character '-' at position {m.start()}")
        yield kind, value, m.start()
        prev_kind, prev = kind, value


def tokenize(text: str) -> List[Token]:
    """Split ``text`` into tokens; raises :class:`SqlSyntaxError`."""
    tokens = [Token(kind, value[1:-1] if kind == STRING else value, pos)
              for kind, value, pos in _scan(text)]
    tokens.append(Token(EOF, "", len(text)))
    return tokens


def normalize_sql(text: str) -> str:
    """Canonical single-spaced form of ``text``, for cache keys.

    Two statements that differ only in whitespace, keyword case or a
    trailing semicolon normalize identically; string literals keep
    their quotes so they cannot collide with identifiers.
    """
    # only an operator lexes to a bare ";" (a string keeps its quotes)
    return " ".join([value for _, value, _ in _scan(text) if value != ";"])


def leading_keyword(text: str) -> Optional[str]:
    """The upper-cased first token of ``text`` if it is a keyword (what
    kind of statement the text is), else ``None``; lexes one token."""
    m = _TOKEN.search(text)
    if m is None or m.lastgroup != "word":
        return None
    word = m.group("word").upper()
    return word if word in KEYWORDS else None
