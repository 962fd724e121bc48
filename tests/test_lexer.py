"""The regex lexer against the character loop it replaced.

``reference_tokenize`` is the old ``repro.sql.lexer.tokenize``, moved
here unchanged; ``tokenize`` must produce the same tokens (types, values,
recorded positions) and raise the same ``SqlError`` text.

One deliberate difference is left out of the generated alphabet: the
old loop crashed with ``ValueError`` on characters that are digits to
``str.isdigit`` but not to ``int`` (``²``), and rejected a word that
starts with a numeric non-letter (``½``) which it accepted anywhere
else in a word; the regex reads both as word characters.
"""

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import SqlError
from repro.sql.lexer import (
    COMMA, DOT, EOF, IDENT, KEYWORD, KEYWORDS, LPAREN, NUMBER, OP, PARAM,
    RPAREN, STAR, STRING, Token, tokenize,
)
from tests.sql_corpus import statement_corpus, strings_of_test_sql

_OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">", "+", "-", "/", "*")


def reference_tokenize(sql: str) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and sql[i + 1] == "-":
            # Line comment.
            while i < n and sql[i] != "\n":
                i += 1
            continue
        if ch == "(":
            tokens.append(Token(LPAREN, "(", i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token(RPAREN, ")", i))
            i += 1
            continue
        if ch == ",":
            tokens.append(Token(COMMA, ",", i))
            i += 1
            continue
        if ch == "?":
            tokens.append(Token(PARAM, "?", i))
            i += 1
            continue
        if ch == "'":
            value, i = _read_string(sql, i)
            tokens.append(Token(STRING, value, i))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            value, i = _read_number(sql, i)
            tokens.append(Token(NUMBER, value, i))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token(KEYWORD, lowered, start))
            else:
                tokens.append(Token(IDENT, word, start))
            continue
        if ch == ".":
            tokens.append(Token(DOT, ".", i))
            i += 1
            continue
        matched = False
        for op in _OPERATORS:
            if sql.startswith(op, i):
                if op == "*":
                    tokens.append(Token(STAR, "*", i))
                elif op == "<>":
                    tokens.append(Token(OP, "!=", i))
                else:
                    tokens.append(Token(OP, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        raise SqlError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token(EOF, None, n))
    return tokens


def _read_string(sql: str, i: int):
    """Read a single-quoted string starting at ``i``; '' escapes a quote."""
    i += 1
    parts: List[str] = []
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise SqlError("unterminated string literal")


def _read_number(sql: str, i: int):
    start = i
    n = len(sql)
    seen_dot = False
    while i < n and (sql[i].isdigit() or (sql[i] == "." and not seen_dot)):
        if sql[i] == ".":
            # A trailing dot followed by a non-digit is a qualifier dot.
            if i + 1 >= n or not sql[i + 1].isdigit():
                break
            seen_dot = True
        i += 1
    text = sql[start:i]
    if seen_dot:
        return float(text), i
    return int(text), i


def outcome(lexer, sql: str):
    """The token list with value types made visible (``1 == 1.0``), or
    the error text."""
    try:
        return [(t.type, t.value, type(t.value), t.position)
                for t in lexer(sql)]
    except SqlError as exc:
        return str(exc)


def test_corpus_tokens_match_the_reference():
    good, bad = strings_of_test_sql()
    texts = [sql for sql, _ in statement_corpus() + bad]
    assert len(texts) > 1500
    for sql in texts:
        assert outcome(tokenize, sql) == outcome(reference_tokenize, sql), sql


@pytest.mark.parametrize("sql", [
    "", "   ", "\n\t", "-- only a comment", "--", "a--b\nc", "a - -b", "a -- b",
    "--x\n@", "--@\n#", "1.", "1.5", ".5", "1..5", "1.5.3", ".5.", "t.c", "t.1",
    "t . c", "12abc", "abc.5", "007", "1.50", "<>", "< >", "<=>", "!=", "!",
    "a<>b", "a<=b", "a=>b", "*", "a*b", "'", "''", "''''", "'a''b'", "'a'b'",
    "'abc", "'abc''", "'--'", "'\n'", "x'y'z", "?", "??", "(?,?)", "@", "a @",
    "select @x", "a;b", "\"q\"", "SELECT a", "café _x über1",
    "٣", "a٣", "1٣.5", "a#", "a -", "-", "--\n--\n", "a\r\nb",
    "DATE'2020-01-01'", "top(5)", "x.y.z", "1e5", "1E-5", "0x1F",
])
def test_edge_cases_match_the_reference(sql):
    assert outcome(tokenize, sql) == outcome(reference_tokenize, sql)


_ALPHABET = st.sampled_from(list(
    "abcxyzSELECTfromWhere_ 0123456789 \t\n.,()?*+-/<>=!'@#;\"é٣ "))
_WORDS = st.sampled_from([
    "select", "FROM", "t.c", "1.5", ".5", "1.", "'it''s'", "''", "--c\n",
    "<>", "<=", "!=", "-", "--", "?", "top (3)", "date '2020-01-01'", " ",
    "'", "@", "12ab", "a_b1",
])


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.text(alphabet=_ALPHABET, max_size=40),
    st.lists(_WORDS, max_size=12).map("".join),
    st.lists(_WORDS, max_size=12).map(" ".join),
))
def test_generated_text_matches_the_reference(sql):
    assert outcome(tokenize, sql) == outcome(reference_tokenize, sql)


def test_token_is_a_slotted_tuple():
    token = tokenize("x")[0]
    assert token == (IDENT, "x", 0)
    assert (token.type, token.value, token.position) == (IDENT, "x", 0)
    assert repr(token) == "Token(IDENT, 'x'@0)"
    assert not hasattr(token, "__dict__")
    with pytest.raises(AttributeError):
        token.type = KEYWORD
