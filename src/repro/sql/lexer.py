"""SQL lexer.

Turns SQL text into a stream of :class:`Token`.  Identifiers and keywords
are case-insensitive; string literals use single quotes with ``''`` as the
escape; ``?`` is a positional parameter placeholder (H-Store stored
procedures bind parameters positionally).  ``--`` starts a line comment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from ..common.errors import LexError

KEYWORDS = frozenset(
    """
    select insert update delete from where group by having order limit offset
    distinct as and or not in between like is null true false values into set
    join inner left on asc desc case when then else end exists primary key
    create table unique all union count sum avg min max
    """.split()
)


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    PARAM = "PARAM"
    OP = "OP"
    EOF = "EOF"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: Any
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.type.value}, {self.value!r}@{self.position})"


_TWO_CHAR_OPS = ("<=", ">=", "<>", "!=")
_ONE_CHAR_OPS = "+-*/%=<>(),.;"


def tokenize(text: str) -> list[Token]:
    """Tokenise ``text``; raises :class:`LexError` on illegal input."""
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == "-":
            nl = text.find("\n", i)
            i = n if nl == -1 else nl + 1
            continue
        if ch == "?":
            tokens.append(Token(TokenType.PARAM, None, i))
            i += 1
            continue
        if ch == "'":
            value, i = _read_string(text, i)
            tokens.append(Token(TokenType.STRING, value, i))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            value, j = _read_number(text, i)
            tokens.append(Token(TokenType.NUMBER, value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j].lower()
            if word in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, word, i))
            else:
                tokens.append(Token(TokenType.IDENT, word, i))
            i = j
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(TokenType.OP, "<>" if two == "!=" else two, i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(TokenType.OP, ch, i))
            i += 1
            continue
        raise LexError(f"illegal character {ch!r} at position {i}", i)
    tokens.append(Token(TokenType.EOF, None, n))
    return tokens


def _read_string(text: str, start: int) -> tuple[str, int]:
    """Read a single-quoted string starting at ``start``; returns
    (value, index-after-closing-quote)."""
    parts: list[str] = []
    i = start + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise LexError(f"unterminated string literal starting at {start}", start)


def _read_number(text: str, start: int) -> tuple[int | float, int]:
    i = start
    n = len(text)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt.isdigit() or (nxt in "+-" and i + 2 < n and text[i + 2].isdigit()):
                seen_exp = True
                i += 2 if nxt in "+-" else 1
            else:
                break
        else:
            break
    literal = text[start:i]
    if seen_dot or seen_exp:
        return float(literal), i
    return int(literal), i

