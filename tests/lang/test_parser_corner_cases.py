"""Parser and lexer corner cases beyond the core grammar tests."""

import pytest

from repro.errors import ParseError
from repro.lang import parse_program
from repro.lang.parser import MAX_NESTING_DEPTH, parse


def nested_ifs(levels):
    """A valid program whose method body nests ``levels`` if-blocks."""
    body = "x = new A @a;"
    for _ in range(levels):
        body = "if (*) { %s }" % body
    return "entry A.m;\nclass A { static method m() { %s } }" % body


class TestCornerCases:
    def test_empty_program(self):
        prog = parse_program("")
        assert prog.entry is None
        assert list(prog.all_methods()) == []

    def test_comment_only_program(self):
        prog = parse_program("// nothing to see here")
        assert list(prog.all_methods()) == []

    def test_comment_at_eof_without_newline(self):
        prog = parse_program("class A { } // trailing")
        assert "A" in prog.classes

    def test_multi_dimensional_array(self):
        prog = parse_program(
            "class A { method m() { x = new A[][] @grid; } }"
        )
        site = prog.site("grid")
        assert site.type.dims == 2

    def test_empty_class(self):
        prog = parse_program("class Empty { }")
        assert prog.cls("Empty").methods == {}

    def test_empty_method(self):
        prog = parse_program("class A { method m() { } }")
        assert prog.method("A.m").body.stmts == []

    def test_deeply_nested_blocks(self):
        body = "x = p;"
        for _ in range(20):
            body = "if (*) { %s }" % body
        prog = parse_program("class A { method m(p) { %s } }" % body)
        depth = sum(
            1
            for s in prog.method("A.m").statements()
            if type(s).__name__ == "IfStmt"
        )
        assert depth == 20

    def test_nesting_at_the_bound_parses(self):
        prog = parse_program(nested_ifs(MAX_NESTING_DEPTH - 1))
        assert prog.site("a") is not None

    def test_nesting_past_the_bound_is_a_parse_error(self):
        source = nested_ifs(1000)
        with pytest.raises(ParseError) as excinfo:
            parse_program(source)
        # Reported at the first block past the bound; the class body's
        # brace is not a block, the method body's opens depth 1.
        line = source.splitlines()[1]
        column = 0
        for _ in range(MAX_NESTING_DEPTH + 2):
            column = line.index("{", column) + 1
        assert (excinfo.value.line, excinfo.value.column) == (2, column)
        assert "nest deeper than %d" % MAX_NESTING_DEPTH in str(excinfo.value)

    def test_many_parameters(self):
        params = ", ".join("p%d" % i for i in range(12))
        prog = parse_program("class A { method m(%s) { return p11; } }" % params)
        assert len(prog.method("A.m").params) == 12

    def test_call_with_no_args(self):
        prog = parse_program(
            "class A { method f() { return; } method m(p) { call p.f(); } }"
        )
        invoke = next(
            s
            for s in prog.method("A.m").statements()
            if type(s).__name__ == "InvokeStmt"
        )
        assert invoke.args == []

    def test_entry_can_precede_or_follow_classes(self):
        first = parse_program("entry A.m;\nclass A { static method m() { } }")
        second = parse_program("class A { static method m() { } }\nentry A.m;")
        assert first.entry == second.entry == "A.m"

    def test_duplicate_class_rejected(self):
        with pytest.raises(Exception):
            parse_program("class A { }\nclass A { }")

    def test_keyword_as_variable_rejected(self):
        with pytest.raises(ParseError):
            parse("class A { method m() { class = null; } }")

    def test_missing_close_brace(self):
        with pytest.raises(ParseError):
            parse("class A { method m() { x = null; }")

    def test_two_statements_one_line(self):
        prog = parse_program("class A { method m(p) { x = p; y = x; } }")
        assert prog.statement_count() == 2

    def test_site_label_with_rich_characters(self):
        prog = parse_program(
            "class A { method m() { x = new A @lib/A:m#0-1; } }"
        )
        assert prog.site("lib/A:m#0-1")

    def test_field_named_like_method(self):
        prog = parse_program(
            "class A { field m; method m() { x = this.m; return x; } }"
        )
        assert "m" in prog.cls("A").fields
        assert "m" in prog.cls("A").methods

    def test_else_if_chain(self):
        prog = parse_program(
            """class A { method m(p) {
              if (*) { a = p; } else { if (*) { b = p; } else { c = p; } }
            } }"""
        )
        ifs = [
            s
            for s in prog.method("A.m").statements()
            if type(s).__name__ == "IfStmt"
        ]
        assert len(ifs) == 2
