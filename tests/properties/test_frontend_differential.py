"""Differential test: the frontend against the original one.

The lexer builds token tuples and the parser indexes parallel
sequences; the validator walks each method once.  The oracle is
:mod:`tests.lang.reference_frontend`: the original token objects,
parser and four-walk validator.  On every input both frontends must
give

* the same ``(kind, value, line, column)`` token list;
* the same ``program_to_text`` of the lowered program;
* the same ``validate_program`` issue list (the reference predates the
  inheritance-cycle check, so cycle issues are compared separately
  with an independent cycle finder);
* or the same ``ParseError`` message, line and column.

Inputs: the 13 corpus apps, memocache ×1/×12/×40, the source
strategies of :mod:`tests.properties.strategies`, truncated or mutated
copies of the corpus sources, and random def/use method bodies that
are often invalid (example counts come from the
hypothesis profile; the nightly workflow runs this module at
``HYPOTHESIS_PROFILE=nightly``).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.apps import build_app, corpus_names
from repro.bench.scale import build_scaled
from repro.errors import IRError, ParseError
from repro.ir.printer import program_to_text
from repro.ir.validate import validate_program
from repro.lang.lexer import tokenize
from repro.lang.lowering import lower
from repro.lang.parser import parse
from repro.lang.tokens import KEYWORDS, PUNCTUATION

from tests.lang import reference_frontend as ref
from tests.properties.strategies import (
    inference_programs,
    loop_programs,
    resource_loop_programs,
    rich_loop_programs,
    store_only_programs,
)

# Example count comes from the hypothesis profile (see conftest.py).
_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_CYCLE = "cyclic inheritance: "


def _cycles(program):
    """Every superclass cycle, found by walking each chain from scratch."""
    found = set()
    for start in program.classes:
        chain = []
        name = start
        while name in program.classes and name not in chain:
            chain.append(name)
            name = program.classes[name].superclass
        if name in chain:
            cycle = chain[chain.index(name):]
            found.add(frozenset(cycle))
    return found


def _frontend(source, lex, parse_source, validate):
    """Everything a frontend says about ``source``, as plain data."""
    try:
        tokens = lex(source)
    except ParseError as exc:
        return ("lex error", str(exc), exc.line, exc.column)
    try:
        program = lower(parse_source(source))
    except ParseError as exc:
        return ("parse error", str(exc), exc.line, exc.column)
    except IRError as exc:  # lowering: duplicate class/method/site
        return ("lower error", str(exc))
    return {
        "tokens": tokens,
        "text": program_to_text(program),
        "issues": validate(program),
        "program": program,
    }


def _reference_tokens(source):
    return [
        (tok.kind, tok.value, tok.line, tok.column)
        for tok in ref.tokenize(source)
    ]


def _assert_same(source):
    expected = _frontend(
        source, _reference_tokens, ref.reference_parse,
        ref.reference_validate_program,
    )
    actual = _frontend(source, tokenize, parse, validate_program)
    if isinstance(expected, tuple) or isinstance(actual, tuple):
        assert actual == expected  # the same error, at the same place
        return
    assert actual["tokens"] == expected["tokens"]
    assert actual["text"] == expected["text"]
    issues = actual["issues"]
    assert [i for i in issues if not i.startswith(_CYCLE)] == expected["issues"]
    cycles = [i[len(_CYCLE):].split(" extends ") for i in issues
              if i.startswith(_CYCLE)]
    assert all(cycle[0] == cycle[-1] for cycle in cycles)
    expected_cycles = _cycles(actual["program"])
    assert {frozenset(cycle) for cycle in cycles} == expected_cycles
    assert len(cycles) == len(expected_cycles)


_CORPUS = {name: build_app(name).source for name in corpus_names()}


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_corpus_app(name):
    _assert_same(_CORPUS[name])


@pytest.mark.parametrize("factor", [1, 12, 40])
def test_memocache_tiling(factor):
    _assert_same(build_scaled("memocache", factor).source)


@_SETTINGS
@given(
    st.one_of(
        loop_programs(allow_threads=True, allow_nested_loops=True),
        store_only_programs(),
        rich_loop_programs(),
        inference_programs(),
        resource_loop_programs().map(lambda drawn: drawn[0]),
    )
)
def test_strategy_programs(source):
    _assert_same(source)


@_SETTINGS
@given(st.sampled_from(sorted(_CORPUS)), st.floats(0.0, 1.0))
def test_truncated_corpus_source(name, where):
    source = _CORPUS[name]
    _assert_same(source[: int(len(source) * where)])


#: Replacement tokens: every keyword and punctuation mark, identifiers
#: that name corpus classes, and characters the lexer rejects.
_VOCABULARY = sorted(KEYWORDS) + list(PUNCTUATION) + [
    "x", "this", "Main", "Object", "[", "]", "%", "/", "1", "é", "\t", "\n",
    "// comment\n",
]


@st.composite
def _mutated_source(draw):
    source = _CORPUS[draw(st.sampled_from(sorted(_CORPUS)))]
    pieces = [tok.value for tok in ref.tokenize(source)[:-1]]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(pieces) - 1))
        action = draw(st.sampled_from(("drop", "copy", "replace")))
        if action == "drop":
            del pieces[at]
        elif action == "copy":
            pieces.insert(at, pieces[draw(st.integers(0, len(pieces) - 1))])
        else:
            pieces[at] = draw(st.sampled_from(_VOCABULARY))
    return " ".join(pieces)


@_SETTINGS
@given(_mutated_source())
def test_mutated_corpus_source(source):
    _assert_same(source)


@_SETTINGS
@given(st.sampled_from(sorted(_CORPUS)), st.floats(0.0, 1.0),
       st.sampled_from(_VOCABULARY))
def test_character_edit_of_corpus_source(name, where, text):
    source = _CORPUS[name]
    at = int((len(source) - 1) * where)
    _assert_same(source[:at] + text + source[at + 1:])


_DA_VARS = ("a", "b", "c", "p")


@st.composite
def _def_use_programs(draw, stray=5):
    """Methods mixing definitions and uses under branches, loops and
    returns: the definite-assignment check's inputs.  One use in
    ``stray + 1`` reads any variable, the others a variable assigned on
    every path so far; with the default most methods hold at most one
    def/use issue, with ``stray=1`` many hold several, whose order is
    then checked too."""
    labels = iter(range(1000))

    def use(assigned):
        if assigned and draw(st.integers(0, stray)):
            return draw(st.sampled_from(sorted(assigned)))
        return draw(st.sampled_from(_DA_VARS))

    def define(assigned):
        name = draw(st.sampled_from(_DA_VARS[:3]))
        assigned.add(name)
        return name

    def cond(assigned):
        kind = draw(st.sampled_from(("*", "nonnull", "null")))
        return "*" if kind == "*" else "%s %s" % (kind, use(assigned))

    def block(depth, assigned, least=0):
        count = draw(st.integers(least, least + 3))
        return " ".join(stmt(depth, assigned) for _ in range(count))

    def stmt(depth, assigned):
        choices = ["def", "copy", "load", "store", "call", "return"]
        if depth < 3:
            choices += ["if", "if", "loop", "while"]
        kind = draw(st.sampled_from(choices))
        if kind == "def":
            return "%s = new C @s%d;" % (define(assigned), next(labels))
        if kind == "copy":
            source = use(assigned)
            return "%s = %s;" % (define(assigned), source)
        if kind == "load":
            base = use(assigned)
            return "%s = %s.f;" % (define(assigned), base)
        if kind == "store":
            return "%s.f = %s;" % (use(assigned), use(assigned))
        if kind == "call":
            receiver, arg = use(assigned), use(assigned)
            return "%s = call %s.m(%s);" % (define(assigned), receiver, arg)
        if kind == "return":
            return "return %s;" % (use(assigned) if draw(st.booleans()) else "")
        if kind == "if":
            test = cond(assigned)
            then_assigned, else_assigned = set(assigned), set(assigned)
            text = "if (%s) { %s } else { %s }" % (
                test,
                block(depth + 1, then_assigned),
                block(depth + 1, else_assigned),
            )
            assigned |= then_assigned & else_assigned
            return text
        head = ("loop L%d" % next(labels)) if kind == "loop" else "while"
        return "%s (%s) { %s }" % (
            head, cond(assigned), block(depth + 1, set(assigned)))

    return "class C { field f; method m(p) { %s } }" % block(
        0, {"p"}, least=3)


@_SETTINGS
@given(_def_use_programs())
def test_def_use_programs(source):
    _assert_same(source)


@_SETTINGS
@given(_def_use_programs(stray=1))
def test_def_use_issue_order(source):
    _assert_same(source)


@pytest.mark.parametrize(
    "source",
    [
        "",
        "// only a comment",
        "class A { } // trailing comment",
        "class A { }   \t\r",
        "class A { method m() { x = new A[][] @a; } }",
        "class A { method m() { x = new A[ ] @a; } }",
        "class A extends A { }",
        "class A extends B { } class B extends A { }",
        "class A { method m() { x = y; } method m() { } }",
        "entry A.m; class A { static method m() { return } }",
        "class A { method m() { if (nonnull) { } } }",
        "class A { method m() { loop { } } }",
        "class A { method m() { while (*) x = null; } }",
        # Def/use issues in CFG order: the else arm before the then arm,
        # the code after a loop before its body, a returning arm after
        # the join, then unreachable code.
        "class A { method m() { if (*) { a.f = b; } else { c.f = d; } } }",
        "class A { method m() { loop L (*) { a.f = b; } c.f = d; } }",
        "class A { method m() { if (null e) { a.f = b; return; } c.f = d; } }",
        "class A { method m() { return; a.f = b; a = null; c.f = d; } }",
        "class A { method m( { } }",
        "a//b",
        "class A { method m() { x = call y.f(a,); } }",
    ],
)
def test_corner_cases(source):
    _assert_same(source)
