"""The original while-language frontend, kept as the differential oracle.

:func:`tokenize` builds one :class:`Token` object per token and
:class:`Parser` asks each token ``is_kw``/``is_punct`` through a
clamped ``_peek``; :func:`reference_validate_program` walks each method
four or five times and scans every class for every virtual invoke.
Slow, but simple enough to trust.  ``tests/properties/
test_frontend_differential.py`` pins the frontend in ``src/`` to it:
identical tokens, lowered IR, validation issues and ``ParseError``
messages with their positions.
"""

from repro.errors import ParseError, ResolutionError
from repro.ir.stmts import (
    Cond,
    CopyStmt,
    IfStmt,
    InvokeStmt,
    LoadStmt,
    LoopStmt,
    NewStmt,
    NullStmt,
    ReturnStmt,
    StoreNullStmt,
    StoreStmt,
    THIS_VAR,
    walk,
)
from repro.lang import ast_nodes as A
from repro.lang.parser import MAX_NESTING_DEPTH
from repro.lang.tokens import EOF, IDENT, KEYWORD, KEYWORDS, PUNCT, PUNCTUATION


class Token:
    """One lexical token with its 1-based source position."""

    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def is_kw(self, word):
        return self.kind == KEYWORD and self.value == word

    def is_punct(self, text):
        return self.kind == PUNCT and self.value == text

    def __repr__(self):
        return "Token(%s, %r, %d:%d)" % (self.kind, self.value, self.line, self.column)


_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$"
)
_IDENT_CONT = _IDENT_START | frozenset("0123456789/:#-")


def tokenize(source):
    """Convert source text into a list of tokens ending with EOF.

    Comments run from ``//`` to end of line.
    """
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch in _IDENT_START:
            start = i
            start_col = col
            while i < n and source[i] in _IDENT_CONT:
                i += 1
                col += 1
            word = source[start:i]
            # A bare identifier followed by '.' then another identifier is a
            # qualified name (x.f); the lexer leaves the '.' as punctuation.
            kind = KEYWORD if word in KEYWORDS else IDENT
            tokens.append(Token(kind, word, line, start_col))
            continue
        matched = None
        for punct in PUNCTUATION:
            if source.startswith(punct, i):
                matched = punct
                break
        if matched is not None:
            tokens.append(Token(PUNCT, matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(Token(EOF, "", line, col))
    return tokens


class Parser:
    """Single-use parser over a token stream."""

    def __init__(self, source):
        self._tokens = tokenize(source)
        self._pos = 0
        self._depth = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self, offset=0):
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self):
        tok = self._tokens[self._pos]
        if tok.kind != EOF:
            self._pos += 1
        return tok

    def _error(self, message, tok=None):
        tok = tok or self._peek()
        raise ParseError(message, tok.line, tok.column)

    def _expect_punct(self, text):
        tok = self._advance()
        if not tok.is_punct(text):
            self._error("expected %r, found %r" % (text, tok.value), tok)
        return tok

    def _expect_kw(self, word):
        tok = self._advance()
        if not tok.is_kw(word):
            self._error("expected %r, found %r" % (word, tok.value), tok)
        return tok

    def _expect_ident(self, what="identifier"):
        tok = self._advance()
        if tok.kind != IDENT:
            self._error("expected %s, found %r" % (what, tok.value), tok)
        return tok.value

    def _accept_punct(self, text):
        if self._peek().is_punct(text):
            self._advance()
            return True
        return False

    def _accept_kw(self, word):
        if self._peek().is_kw(word):
            self._advance()
            return True
        return False

    # -- grammar -----------------------------------------------------------

    def parse_program(self):
        classes = []
        entry = None
        while self._peek().kind != EOF:
            tok = self._peek()
            if tok.is_kw("entry"):
                self._advance()
                first = self._expect_ident("entry class")
                self._expect_punct(".")
                meth = self._expect_ident("entry method")
                entry = "%s.%s" % (first, meth)
                self._expect_punct(";")
            elif tok.is_kw("library") or tok.is_kw("class"):
                classes.append(self._parse_class())
            else:
                self._error("expected class or entry declaration")
        return A.ProgramNode(classes, entry)

    def _parse_class(self):
        line = self._peek().line
        is_library = self._accept_kw("library")
        self._expect_kw("class")
        name = self._expect_ident("class name")
        superclass = None
        if self._accept_kw("extends"):
            superclass = self._expect_ident("superclass name")
        self._expect_punct("{")
        fields = []
        methods = []
        while not self._accept_punct("}"):
            tok = self._peek()
            if tok.is_kw("field"):
                self._advance()
                fields.append(self._expect_ident("field name"))
                self._expect_punct(";")
            elif tok.is_kw("method") or tok.is_kw("static"):
                methods.append(self._parse_method())
            else:
                self._error("expected field or method declaration")
        return A.ClassNode(name, superclass, is_library, fields, methods, line)

    def _parse_method(self):
        line = self._peek().line
        is_static = self._accept_kw("static")
        self._expect_kw("method")
        name = self._expect_ident("method name")
        self._expect_punct("(")
        params = []
        if not self._accept_punct(")"):
            params.append(self._expect_ident("parameter"))
            while self._accept_punct(","):
                params.append(self._expect_ident("parameter"))
            self._expect_punct(")")
        body = self._parse_block()
        return A.MethodNode(name, params, is_static, body, line)

    def _parse_block(self):
        tok = self._peek()
        if self._depth == MAX_NESTING_DEPTH:
            self._error("blocks nest deeper than %d" % MAX_NESTING_DEPTH, tok)
        self._expect_punct("{")
        self._depth += 1
        stmts = []
        while not self._accept_punct("}"):
            stmts.append(self._parse_stmt())
        self._depth -= 1
        return A.BlockNode(stmts, tok.line)

    def _parse_cond(self):
        tok = self._peek()
        if self._accept_punct("*"):
            return A.CondNode("*", None, tok.line)
        if tok.is_kw("nonnull") or tok.is_kw("null"):
            self._advance()
            var = self._expect_ident("condition variable")
            return A.CondNode(tok.value, var, tok.line)
        self._error("expected condition (* | nonnull x | null x)")

    def _parse_stmt(self):
        tok = self._peek()
        if tok.is_kw("if"):
            return self._parse_if()
        if tok.is_kw("loop") or tok.is_kw("while"):
            return self._parse_loop()
        stmt = self._parse_simple()
        self._expect_punct(";")
        return stmt

    def _parse_if(self):
        line = self._expect_kw("if").line
        self._expect_punct("(")
        cond = self._parse_cond()
        self._expect_punct(")")
        then_block = self._parse_block()
        else_block = A.BlockNode([], line)
        if self._accept_kw("else"):
            else_block = self._parse_block()
        return A.IfNode(cond, then_block, else_block, line)

    def _parse_loop(self):
        tok = self._advance()  # 'loop' or 'while'
        label = None
        if tok.is_kw("loop"):
            label = self._expect_ident("loop label")
        cond = A.CondNode("*", None, tok.line)
        if self._accept_punct("("):
            cond = self._parse_cond()
            self._expect_punct(")")
        body = self._parse_block()
        return A.LoopNode(label, cond, body, tok.line)

    def _parse_optional_site(self):
        if self._accept_punct("@"):
            return self._expect_ident("site label")
        return None

    def _parse_call(self, target, line):
        self._expect_kw("call")
        receiver = self._expect_ident("call receiver")
        self._expect_punct(".")
        method_name = self._expect_ident("method name")
        self._expect_punct("(")
        args = []
        if not self._accept_punct(")"):
            args.append(self._expect_ident("argument"))
            while self._accept_punct(","):
                args.append(self._expect_ident("argument"))
            self._expect_punct(")")
        site = self._parse_optional_site()
        return A.CallNode(target, receiver, method_name, args, site, line)

    def _parse_simple(self):
        tok = self._peek()
        line = tok.line
        if tok.is_kw("return"):
            self._advance()
            value = None
            if self._peek().kind == IDENT:
                value = self._advance().value
            return A.ReturnNode(value, line)
        if tok.is_kw("call"):
            return self._parse_call(None, line)
        if tok.kind != IDENT:
            self._error("expected statement")
        first = self._advance().value
        if self._accept_punct("."):
            # store:  first.field = source
            field = self._expect_ident("field name")
            self._expect_punct("=")
            if self._accept_kw("null"):
                return A.StoreNullNode(first, field, line)
            source = self._expect_ident("source variable")
            return A.StoreNode(first, field, source, line)
        self._expect_punct("=")
        rhs = self._peek()
        if rhs.is_kw("new"):
            self._advance()
            class_name = self._expect_ident("class name")
            dims = 0
            while self._accept_punct("[]"):
                dims += 1
            site = self._parse_optional_site()
            return A.NewNode(first, class_name, dims, site, line)
        if rhs.is_kw("null"):
            self._advance()
            return A.NullAssignNode(first, line)
        if rhs.is_kw("call"):
            return self._parse_call(first, line)
        source = self._expect_ident("right-hand side")
        if self._accept_punct("."):
            field = self._expect_ident("field name")
            return A.LoadNode(first, source, field, line)
        return A.CopyNode(first, source, line)


def _stmt_def(stmt):
    """The variable ``stmt`` assigns, or ``None``."""
    if isinstance(stmt, (NewStmt, CopyStmt, NullStmt, LoadStmt)):
        return stmt.target
    if isinstance(stmt, InvokeStmt) and stmt.target:
        return stmt.target
    return None


def _stmt_uses(stmt):
    """Yield ``(var, role)`` for every variable ``stmt`` reads."""
    if isinstance(stmt, CopyStmt):
        yield stmt.source, "source"
    elif isinstance(stmt, LoadStmt):
        yield stmt.base, "base"
    elif isinstance(stmt, StoreStmt):
        yield stmt.base, "base"
        yield stmt.source, "source"
    elif isinstance(stmt, StoreNullStmt):
        yield stmt.base, "base"
    elif isinstance(stmt, InvokeStmt):
        for arg in stmt.args:
            yield arg, "argument"
        if not stmt.is_static:
            yield stmt.base, "receiver"
    elif isinstance(stmt, ReturnStmt):
        if stmt.value:
            yield stmt.value, "return value"
    elif isinstance(stmt, (IfStmt, LoopStmt)):
        if stmt.cond.kind != Cond.NONDET:
            yield stmt.cond.var, "condition variable"


def _definite_assignment_issues(method, initial, all_defs):
    """Definite-assignment (must-reach) def/use check over the CFG.

    A use is clean only when every path from the method entry assigns
    the variable first: IN[b] is the *intersection* of the predecessors'
    OUT sets, so an assignment on one arm of a branch, or inside a
    (possibly zero-trip) loop body, does not count after the join.
    Branch/loop conditions are checked at the block whose terminator
    evaluates them.  Statements in unreachable blocks (e.g. after a
    ``return``) keep the flow-insensitive check: a variable merely has
    to be assigned *somewhere* in the method.
    """
    from repro.cfg.graph import build_cfg

    issues = []
    cfg = build_cfg(method)
    reachable = cfg.reachable_blocks()  # reverse post-order
    reachable_ids = {block.index for block in reachable}
    block_defs = {}
    for block in cfg.blocks:
        defs = set()
        for stmt in block.stmts:
            target = _stmt_def(stmt)
            if target:
                defs.add(target)
        block_defs[block.index] = defs

    # Must-analysis fixpoint: OUT starts at the universe (top) so loop
    # back-edges do not spuriously kill the entry path's assignments on
    # the first visit; iteration only shrinks the sets.
    universe = set(all_defs) | set(initial)
    out_sets = {block.index: set(universe) for block in reachable}

    def in_set(block):
        if block is cfg.entry:
            return set(initial)
        preds = [p for p in block.preds if p.index in reachable_ids]
        live = set(out_sets[preds[0].index])
        for pred in preds[1:]:
            live &= out_sets[pred.index]
        return live

    changed = True
    while changed:
        changed = False
        for block in reachable:
            new_out = in_set(block) | block_defs[block.index]
            if new_out != out_sets[block.index]:
                out_sets[block.index] = new_out
                changed = True

    def check_block(block, live):
        for stmt in block.stmts:
            for var, role in _stmt_uses(stmt):
                if var not in all_defs:
                    issues.append(
                        "%s: %s %r used but never defined (stmt %r)"
                        % (method.sig, role, var, stmt)
                    )
                elif live is not None and var not in live:
                    issues.append(
                        "%s: %s %r may be unassigned on some path (stmt %r)"
                        % (method.sig, role, var, stmt)
                    )
            target = _stmt_def(stmt)
            if target and live is not None:
                live.add(target)
        # The branch/loop condition is evaluated after the block's
        # straight-line statements, when control leaves the block.
        if block.terminator is not None:
            for var, role in _stmt_uses(block.terminator):
                if var not in all_defs:
                    issues.append(
                        "%s: %s %r used but never defined (stmt %r)"
                        % (method.sig, role, var, block.terminator)
                    )
                elif live is not None and var not in live:
                    issues.append(
                        "%s: %s %r may be unassigned on some path (stmt %r)"
                        % (method.sig, role, var, block.terminator)
                    )

    for block in reachable:
        check_block(block, in_set(block))
    for block in cfg.blocks:
        if block.index not in reachable_ids:
            check_block(block, None)
    return issues


def _method_issues(program, method):
    issues = []
    initial = set(method.params)
    if not method.is_static:
        initial.add(THIS_VAR)

    all_defs = set(initial)
    for stmt in method.statements():
        target = _stmt_def(stmt)
        if target:
            all_defs.add(target)

    issues.extend(_definite_assignment_issues(method, initial, all_defs))

    for stmt in method.statements():
        if isinstance(stmt, NewStmt):
            if stmt.type.class_name not in program.classes:
                issues.append(
                    "%s: allocation of unknown class %s"
                    % (method.sig, stmt.type.class_name)
                )
        elif isinstance(stmt, InvokeStmt) and stmt.is_static:
            try:
                callee = program.method(
                    "%s.%s" % (stmt.static_class, stmt.method_name)
                )
                if not callee.is_static:
                    issues.append(
                        "%s: static call to instance method %s"
                        % (method.sig, callee.sig)
                    )
            except ResolutionError:
                issues.append(
                    "%s: static call to unknown method %s.%s"
                    % (method.sig, stmt.static_class, stmt.method_name)
                )
    return issues


def _arity_issues(program):
    """Check call arity against every possible dispatch target (CHA-style)."""
    issues = []
    for method in program.all_methods():
        for stmt in method.statements():
            if not isinstance(stmt, InvokeStmt):
                continue
            if stmt.is_static:
                try:
                    callee = program.method(
                        "%s.%s" % (stmt.static_class, stmt.method_name)
                    )
                except ResolutionError:
                    continue  # reported by _method_issues
                targets = [callee]
            else:
                targets = [
                    decl.methods[stmt.method_name]
                    for decl in program.classes.values()
                    if stmt.method_name in decl.methods
                ]
                if not targets:
                    issues.append(
                        "%s: virtual call to %s with no target anywhere"
                        % (method.sig, stmt.method_name)
                    )
            for callee in targets:
                if len(callee.params) != len(stmt.args):
                    issues.append(
                        "%s: call to %s passes %d args, expected %d"
                        % (method.sig, callee.sig, len(stmt.args), len(callee.params))
                    )
    return issues


def _loop_label_issues(program):
    issues = []
    seen = {}
    for method in program.all_methods():
        for stmt in method.statements():
            if isinstance(stmt, LoopStmt):
                key = (method.sig, stmt.label)
                if key in seen:
                    issues.append(
                        "%s: duplicate loop label %r" % (method.sig, stmt.label)
                    )
                seen[key] = stmt
    return issues


def reference_validate_program(program):
    """Return a list of issues found in ``program`` (empty when valid)."""
    issues = []
    for decl in program.classes.values():
        if decl.superclass is not None and decl.superclass not in program.classes:
            issues.append(
                "class %s extends unknown class %s" % (decl.name, decl.superclass)
            )
    for method in program.all_methods():
        issues.extend(_method_issues(program, method))
        for stmt in walk(method.body):
            if stmt.uid is None:
                issues.append("%s: unsealed statement %r" % (method.sig, stmt))
                break
    issues.extend(_arity_issues(program))
    issues.extend(_loop_label_issues(program))
    if program.entry:
        try:
            program.entry_method()
        except ResolutionError:
            issues.append("entry method %s does not resolve" % program.entry)
    return issues


def reference_parse(source):
    """Parse source text into an AST with the original parser."""
    return Parser(source).parse_program()
