"""Tokenizer for the SQL subset.

Produces a flat token list consumed by the recursive-descent parser.
Supported lexemes: identifiers (optionally ``schema.column`` qualified via
separate DOT tokens), integer/float literals, single-quoted strings with
``''`` escaping, operators, parentheses, commas, and ``?`` parameter
markers. Keywords are case-insensitive; identifiers preserve case but
compare case-sensitively against the catalog (all generated workloads use
lowercase).

One compiled alternation does the scanning: each match skips leading
whitespace and ``--`` comments and then takes exactly one lexeme, so the
Python-level loop runs once per token instead of once per character.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.core.errors import SqlError

KEYWORDS = {
    "select", "from", "where", "group", "order", "by", "having",
    "and", "or", "not", "between", "in", "as", "asc", "desc",
    "join", "inner", "on", "top", "limit", "insert", "into", "values",
    "update", "set", "delete", "sum", "count", "avg", "min", "max",
    "date", "dateadd", "day", "null", "distinct",
}

# Token types
IDENT = "IDENT"
KEYWORD = "KEYWORD"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
LPAREN = "LPAREN"
RPAREN = "RPAREN"
COMMA = "COMMA"
DOT = "DOT"
STAR = "STAR"
PARAM = "PARAM"
EOF = "EOF"


class Token(NamedTuple):
    """One lexed token: type, value, and source position.

    The position is where the lexeme starts, except for NUMBER and
    STRING tokens, which record where it ends.
    """
    type: str
    value: object
    position: int

    def __repr__(self) -> str:
        return f"Token({self.type}, {self.value!r}@{self.position})"


# Group numbers are what ``tokenize`` dispatches on. A number must be
# tried before the lone dot (``.5`` is a number, ``t.c`` a qualifier and
# ``1.`` an integer followed by a dot), and the catch-all last group
# means the skip prefix never has to backtrack into a comment (after
# the last lexeme it is the end-of-text group that takes the match).
_WORD, _NUMBER, _STRING, _OP, _PUNCT, _END, _BAD = range(1, 8)
_LEXEME = re.compile(r"""
    (?: \s+ | --[^\n]* )*
    (?: ([^\W\d]\w*)                    # identifier or keyword
      | (\d+(?:\.\d+)?|\.\d+)           # integer or float
      | '((?:[^']|'')*)'                # string body, '' escapes a quote
      | (<=|>=|!=|<>|[=<>+\-/])         # operator
      | ([(),?.*])                      # punctuation
      | (\Z)
      | ([\s\S])                        # anything else is an error
    )""", re.VERBOSE)
_PUNCT_TYPES = {"(": LPAREN, ")": RPAREN, ",": COMMA, "?": PARAM,
                ".": DOT, "*": STAR}


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql``; raises :class:`SqlError` on unknown characters."""
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__     # skips NamedTuple's Python-level __new__
    for match in _LEXEME.finditer(sql):
        kind = match.lastindex
        text = match.group(kind)
        end = match.end()
        if kind == _WORD:
            lowered = text.lower()
            if lowered in KEYWORDS:
                append(new(Token, (KEYWORD, lowered, end - len(text))))
            else:
                append(new(Token, (IDENT, text, end - len(text))))
        elif kind == _NUMBER:
            value = float(text) if "." in text else int(text)
            append(new(Token, (NUMBER, value, end)))
        elif kind == _OP:
            append(new(Token, (OP, "!=" if text == "<>" else text,
                               end - len(text))))
        elif kind == _PUNCT:
            append(new(Token, (_PUNCT_TYPES[text], text, end - 1)))
        elif kind == _STRING:
            append(new(Token, (STRING, text.replace("''", "'"), end)))
        elif kind == _END:
            break
        elif text == "'":
            raise SqlError("unterminated string literal")
        else:
            raise SqlError(
                f"unexpected character {text!r} at position {end - 1}")
    append(new(Token, (EOF, None, len(sql))))
    return tokens
