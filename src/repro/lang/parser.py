"""Recursive-descent parser for the while language.

Grammar (EBNF, ``[...]`` optional, ``{...}`` repetition)::

    program   ::= { entry_decl | class_decl }
    entry_decl::= "entry" qualified ";"
    class_decl::= ["library"] "class" IDENT ["extends" IDENT] "{" member* "}"
    member    ::= "field" IDENT ";" | method
    method    ::= ["static"] "method" IDENT "(" [params] ")" block
    block     ::= "{" stmt* "}"
    stmt      ::= simple ";" | if_stmt | loop_stmt
    simple    ::= IDENT "=" rhs | IDENT "." IDENT "=" IDENT
                | ["IDENT ="] "call" IDENT "." IDENT "(" [args] ")" ["@" IDENT]
                | "return" [IDENT]
    rhs       ::= "new" IDENT {"[]"} ["@" IDENT] | "null" | IDENT ["." IDENT]
    if_stmt   ::= "if" "(" cond ")" block ["else" block]
    loop_stmt ::= ("loop" IDENT | "while") ["(" cond ")"] block
    cond      ::= "*" | "nonnull" IDENT | "null" IDENT

Semicolons terminate simple statements; blocks need no trailing semicolon.
"""

from repro.errors import ParseError
from repro.lang import ast_nodes as A
from repro.lang.lexer import tokenize
from repro.lang.tokens import EOF, IDENT

#: Deepest block nesting accepted (a method body is depth 1).  The parser
#: and the stages after it recurse once per level, so a bound keeps a
#: hostile input from exhausting the interpreter stack; real programs
#: (the corpus apps nest at most 3 blocks deep) sit far below it.
MAX_NESTING_DEPTH = 100

_COND_OPENERS = ("nonnull", "null")


class Parser:
    """Single-use parser over a token stream.

    The token tuples are split into parallel ``kinds``/``values``/
    ``lines`` sequences indexed by ``self._pos``, which never moves past
    the final EOF token.  Keywords and punctuation are matched by value
    alone (see :mod:`repro.lang.tokens`).
    """

    def __init__(self, source):
        self._tokens = tokenize(source)
        self._kinds, self._values, self._lines, _ = zip(*self._tokens)
        self._pos = 0
        self._depth = 0

    # -- token helpers -----------------------------------------------------

    def _error(self, message, pos=None):
        _, _, line, column = self._tokens[self._pos if pos is None else pos]
        raise ParseError(message, line, column)

    def _expect(self, text):
        """Consume the keyword or punctuation mark ``text``."""
        pos = self._pos
        if self._values[pos] != text:
            self._error("expected %r, found %r" % (text, self._values[pos]), pos)
        self._pos = pos + 1

    def _expect_ident(self, what="identifier"):
        pos = self._pos
        if self._kinds[pos] != IDENT:
            self._error("expected %s, found %r" % (what, self._values[pos]), pos)
        self._pos = pos + 1
        return self._values[pos]

    def _accept(self, text):
        """Consume the keyword or punctuation mark ``text`` if it is next."""
        if self._values[self._pos] == text:
            self._pos += 1
            return True
        return False

    def _names(self, what):
        """``[name {"," name}] ")"`` after an opening parenthesis."""
        names = []
        if not self._accept(")"):
            names.append(self._expect_ident(what))
            while self._accept(","):
                names.append(self._expect_ident(what))
            self._expect(")")
        return names

    # -- grammar -----------------------------------------------------------

    def parse_program(self):
        classes = []
        entry = None
        values = self._values
        while self._kinds[self._pos] != EOF:
            value = values[self._pos]
            if value == "entry":
                self._pos += 1
                first = self._expect_ident("entry class")
                self._expect(".")
                meth = self._expect_ident("entry method")
                entry = "%s.%s" % (first, meth)
                self._expect(";")
            elif value == "class" or value == "library":
                classes.append(self._parse_class())
            else:
                self._error("expected class or entry declaration")
        return A.ProgramNode(classes, entry)

    def _parse_class(self):
        line = self._lines[self._pos]
        is_library = self._accept("library")
        self._expect("class")
        name = self._expect_ident("class name")
        superclass = None
        if self._accept("extends"):
            superclass = self._expect_ident("superclass name")
        self._expect("{")
        fields = []
        methods = []
        values = self._values
        while not self._accept("}"):
            value = values[self._pos]
            if value == "field":
                self._pos += 1
                fields.append(self._expect_ident("field name"))
                self._expect(";")
            elif value == "method" or value == "static":
                methods.append(self._parse_method())
            else:
                self._error("expected field or method declaration")
        return A.ClassNode(name, superclass, is_library, fields, methods, line)

    def _parse_method(self):
        line = self._lines[self._pos]
        is_static = self._accept("static")
        self._expect("method")
        name = self._expect_ident("method name")
        self._expect("(")
        params = self._names("parameter")
        body = self._parse_block()
        return A.MethodNode(name, params, is_static, body, line)

    def _parse_block(self):
        pos = self._pos
        if self._depth == MAX_NESTING_DEPTH:
            self._error("blocks nest deeper than %d" % MAX_NESTING_DEPTH, pos)
        self._expect("{")
        self._depth += 1
        stmts = []
        append = stmts.append
        values = self._values
        parse_stmt = self._parse_stmt
        while values[self._pos] != "}":
            append(parse_stmt())
        self._pos += 1
        self._depth -= 1
        return A.BlockNode(stmts, self._lines[pos])

    def _parse_cond(self):
        pos = self._pos
        value = self._values[pos]
        line = self._lines[pos]
        if value == "*":
            self._pos = pos + 1
            return A.CondNode("*", None, line)
        if value in _COND_OPENERS:
            self._pos = pos + 1
            var = self._expect_ident("condition variable")
            return A.CondNode(value, var, line)
        self._error("expected condition (* | nonnull x | null x)")

    def _parse_stmt(self):
        values = self._values
        kinds = self._kinds
        pos = self._pos
        value = values[pos]
        if value == "if":
            return self._parse_if()
        if value == "loop" or value == "while":
            return self._parse_loop()
        line = self._lines[pos]
        if value == "return":
            pos += 1
            returned = None
            if kinds[pos] == IDENT:
                returned = values[pos]
                pos += 1
            self._pos = pos
            node = A.ReturnNode(returned, line)
        elif value == "call":
            node = self._parse_call(None, line)
        elif kinds[pos] != IDENT:
            self._error("expected statement", pos)
        elif values[pos + 1] == ".":
            # store:  first.field = source
            self._pos = pos + 2
            field = self._expect_ident("field name")
            self._expect("=")
            if self._accept("null"):
                node = A.StoreNullNode(value, field, line)
            else:
                source = self._expect_ident("source variable")
                node = A.StoreNode(value, field, source, line)
        else:
            self._pos = pos + 1
            self._expect("=")
            pos = self._pos
            rhs = values[pos]
            if rhs == "new":
                self._pos = pos + 1
                class_name = self._expect_ident("class name")
                dims = 0
                while self._accept("[]"):
                    dims += 1
                site = self._parse_optional_site()
                node = A.NewNode(value, class_name, dims, site, line)
            elif rhs == "null":
                self._pos = pos + 1
                node = A.NullAssignNode(value, line)
            elif rhs == "call":
                node = self._parse_call(value, line)
            else:
                source = self._expect_ident("right-hand side")
                if self._accept("."):
                    field = self._expect_ident("field name")
                    node = A.LoadNode(value, source, field, line)
                else:
                    node = A.CopyNode(value, source, line)
        self._expect(";")
        return node

    def _parse_if(self):
        line = self._lines[self._pos]
        self._pos += 1  # 'if'
        self._expect("(")
        cond = self._parse_cond()
        self._expect(")")
        then_block = self._parse_block()
        if self._accept("else"):
            else_block = self._parse_block()
        else:
            else_block = A.BlockNode([], line)
        return A.IfNode(cond, then_block, else_block, line)

    def _parse_loop(self):
        pos = self._pos
        line = self._lines[pos]
        self._pos = pos + 1  # 'loop' or 'while'
        label = None
        if self._values[pos] == "loop":
            label = self._expect_ident("loop label")
        if self._accept("("):
            cond = self._parse_cond()
            self._expect(")")
        else:
            cond = A.CondNode("*", None, line)
        body = self._parse_block()
        return A.LoopNode(label, cond, body, line)

    def _parse_optional_site(self):
        if self._accept("@"):
            return self._expect_ident("site label")
        return None

    def _parse_call(self, target, line):
        self._pos += 1  # 'call'
        receiver = self._expect_ident("call receiver")
        self._expect(".")
        method_name = self._expect_ident("method name")
        self._expect("(")
        args = self._names("argument")
        site = self._parse_optional_site()
        return A.CallNode(target, receiver, method_name, args, site, line)


def parse(source):
    """Parse while-language source text into an AST."""
    return Parser(source).parse_program()
