"""PathQL tokenizer.

PathQL is the textual form of the paper's regular path expressions, using
the paper's own set-builder syntax for atoms:

.. code-block:: text

    [i, alpha, _] . [_, beta, _]* . (([_, alpha, j] . {(j, alpha, i)}) | [_, alpha, k])

Token inventory:

* punctuation — ``[ ] ( ) { } , ;``
* operators — ``.`` (concatenative join), ``&`` (concatenative product),
  ``|`` (union), ``*`` (star), ``+`` (plus), ``?`` (optional)
* ``_`` — the wildcard
* values — bare identifiers (``alpha``, ``person0``), integers (``42``,
  taken as int vertex/label values), and single- or double-quoted strings
  for anything else (``'has space'``)
* keywords — ``eps`` (the empty path language) and ``empty`` (the empty
  language); both usable only where a primary expression is expected, so
  they remain usable as quoted vertex names.

The lexer is a hand-rolled scanner with precise error positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from repro.errors import PathQLSyntaxError

__all__ = ["Token", "tokenize", "TokenKind"]


class TokenKind:
    """Token kind constants (plain strings for cheap comparisons)."""

    LBRACKET = "LBRACKET"
    RBRACKET = "RBRACKET"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    LBRACE = "LBRACE"
    RBRACE = "RBRACE"
    COMMA = "COMMA"
    SEMICOLON = "SEMICOLON"
    DOT = "DOT"
    AMP = "AMP"
    PIPE = "PIPE"
    STAR = "STAR"
    PLUS = "PLUS"
    QUESTION = "QUESTION"
    UNDERSCORE = "UNDERSCORE"
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    END = "END"


_PUNCTUATION = {
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    ".": TokenKind.DOT,
    "&": TokenKind.AMP,
    "|": TokenKind.PIPE,
    "*": TokenKind.STAR,
    "+": TokenKind.PLUS,
    "?": TokenKind.QUESTION,
}


@dataclass(frozen=True)
class Token:
    """One lexical token: kind, value (decoded for strings/numbers), offset."""

    kind: str
    value: Union[str, int, None]
    position: int

    def __repr__(self) -> str:
        return "Token({}, {!r}, @{})".format(self.kind, self.value, self.position)


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch in ("_", "-")


def tokenize(text: str) -> List[Token]:
    """Scan PathQL source into tokens (a trailing END token is appended).

    Raises
    ------
    PathQLSyntaxError
        On an unexpected character or an unterminated string.
    """
    tokens: List[Token] = []
    position = 0
    length = len(text)
    while position < length:
        ch = text[position]
        if ch.isspace():
            position += 1
            continue
        if ch in _PUNCTUATION:
            tokens.append(Token(_PUNCTUATION[ch], ch, position))
            position += 1
            continue
        if ch in ("'", '"'):
            end = position + 1
            pieces = []
            while end < length and text[end] != ch:
                pieces.append(text[end])
                end += 1
            if end >= length:
                raise PathQLSyntaxError("unterminated string", position, text)
            tokens.append(Token(TokenKind.STRING, "".join(pieces), position))
            position = end + 1
            continue
        if ch.isdigit():
            end = position
            while end < length and text[end].isdigit():
                end += 1
            tokens.append(Token(TokenKind.NUMBER, int(text[position:end]), position))
            position = end
            continue
        if _is_ident_start(ch):
            end = position
            while end < length and _is_ident_part(text[end]):
                end += 1
            word = text[position:end]
            if word == "_":
                tokens.append(Token(TokenKind.UNDERSCORE, "_", position))
            else:
                tokens.append(Token(TokenKind.IDENT, word, position))
            position = end
            continue
        raise PathQLSyntaxError(
            "unexpected character {!r}".format(ch), position, text)
    tokens.append(Token(TokenKind.END, None, length))
    return tokens
