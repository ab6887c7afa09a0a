"""Tests for the while-language lexer."""

import time

import pytest

from repro.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import EOF, IDENT, KEYWORD, KIND, LINE, PUNCT, VALUE

from tests.lang import reference_frontend as ref


def _kinds(source):
    return [(t[KIND], t[VALUE]) for t in tokenize(source)]


class TestTokenize:
    def test_empty_source(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0][KIND] == EOF

    def test_keywords_recognized(self):
        kinds = _kinds("class method loop while if else new null")
        assert all(kind == KEYWORD for kind, _ in kinds[:-1])

    def test_identifiers(self):
        tokens = tokenize("foo bar_baz $tmp")
        assert [t[VALUE] for t in tokens[:-1]] == ["foo", "bar_baz", "$tmp"]
        assert all(t[KIND] == IDENT for t in tokens[:-1])

    def test_generated_labels_lex_as_one_token(self):
        # Labels like Main:main/Order survive print/parse round trips.
        tokens = tokenize("Main:main/Order_2")
        assert tokens[0][VALUE] == "Main:main/Order_2"
        assert tokens[0][KIND] == IDENT

    def test_array_marker_single_token(self):
        tokens = tokenize("new C[]")
        values = [t[VALUE] for t in tokens[:-1]]
        assert "[]" in values

    def test_punctuation(self):
        values = [t[VALUE] for t in tokenize("{ } ( ) ; , = . @ *")[:-1]]
        assert values == ["{", "}", "(", ")", ";", ",", "=", ".", "@", "*"]
        assert all(t[KIND] == PUNCT for t in tokenize("{ } ;")[:-1])

    def test_comments_skipped(self):
        tokens = tokenize("x // a comment with = and ;\ny")
        assert [t[VALUE] for t in tokens[:-1]] == ["x", "y"]

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0][LINE:] == (1, 1)
        assert tokens[1][LINE:] == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            tokenize("x = %")
        assert exc.value.line == 1

    def test_dotted_name_splits(self):
        values = [t[VALUE] for t in tokenize("a.b")[:-1]]
        assert values == ["a", ".", "b"]


class TestLongBlankRuns:
    """A run of blanks with no token after it on its line costs linear
    time.  Matching the token regex over the unstripped line retried
    such a run from each of its positions: 10k trailing blanks took
    about 5 s and 20k about 23 s, enough for one request to stall a
    server.  The 10k line comes first so a quadratic lexer fails in
    seconds rather than hanging on the 200k one."""

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param("class A { }%s", id="trailing-blanks"),
            pytest.param("class A { } // note%s", id="comment-then-blanks"),
            pytest.param("class A { %s}", id="blanks-before-a-token"),
        ],
    )
    def test_linear_in_blank_run(self, line):
        for count in (10000, 200000):
            source = line % (" \t" * (count // 2)) + "\nclass B { }   "
            start = time.perf_counter()
            tokens = tokenize(source)
            assert time.perf_counter() - start < 1.0
            assert tokens == [
                (tok.kind, tok.value, tok.line, tok.column)
                for tok in ref.tokenize(source)
            ]
