"""Structural validation of IR programs.

``validate_program`` returns a list of human-readable issues; ``check``
raises :class:`repro.errors.IRError` on the first issue.  Benchmarks and the
frontend run validation so that analysis failures are caught as malformed
input rather than deep inside a solver.

The def/use check is a definite-assignment analysis: a variable use is
clean only when every path from the entry assigns it first, so an
assignment on one branch arm or inside a possibly zero-trip loop body
does not excuse a use after the join.

``validate_program`` walks each method body once.  That walk gathers
the allocation, call, arity and loop-label issues in statement order
and runs the definite-assignment analysis on the structured body: an
``if`` joins by intersection, a loop leaves the set it entered with
(its body may run zero times), and a ``return`` makes the rest of its
block unreachable.  Unreachable statements keep a flow-insensitive
check: a variable merely has to be assigned *somewhere* in the method.
A method's def/use issues are listed in the order of its CFG
(:mod:`repro.cfg.graph`): reachable blocks in reverse post-order, each
block's statements before the condition it ends with, then the
unreachable blocks.  Virtual-call arity targets come from a
method-name index built once per program.
"""

from repro.errors import IRError, ResolutionError
from repro.ir.stmts import (
    Block,
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
)


def _cfg_positions(method):
    """Position of each statement of ``method`` in its CFG's order:
    reachable blocks in reverse post-order, then unreachable blocks, each
    block's statements followed by its terminator (keyed by ``id``)."""
    from repro.cfg.graph import build_cfg

    cfg = build_cfg(method)
    reachable = cfg.reachable_blocks()
    reachable_ids = {block.index for block in reachable}
    positions = {}
    for block in reachable + [
        block for block in cfg.blocks if block.index not in reachable_ids
    ]:
        for stmt in block.stmts:
            positions[id(stmt)] = len(positions)
        if block.terminator is not None:
            positions[id(block.terminator)] = len(positions)
    return positions


class _MethodWalk:
    """One pre-order walk over a method body (see the module docstring).

    ``issues`` are the def/use issues, then the allocation, static-call
    and unsealed-statement issues; ``arity`` and ``labels`` are the
    method's share of the program-wide arity and loop-label lists.
    """

    def __init__(self, program, method, targets_by_name, seen_labels):
        self.program = program
        self.sig = method.sig
        self.targets_by_name = targets_by_name
        self.seen_labels = seen_labels
        self.issues = []
        self.arity = []
        self.labels = []
        self.unsealed = None
        #: ``(stmt, role, var, reachable)`` for every use of a variable
        #: that is not definitely assigned (or is in unreachable code).
        self.unassigned = []
        initial = set(method.params)
        if not method.is_static:
            initial.add(THIS_VAR)
        self.all_defs = set(initial)
        self._block(method.body, set(initial))
        self.issues[:0] = self._def_use_issues(method)
        if self.unsealed is not None:
            self.issues.append(
                "%s: unsealed statement %r" % (self.sig, self.unsealed)
            )

    def _def_use_issues(self, method):
        """The def/use issues, in the order of the method's CFG."""
        found = []
        for stmt, role, var, reachable in self.unassigned:
            if var not in self.all_defs:
                problem = "used but never defined"
            elif reachable:
                problem = "may be unassigned on some path"
            else:
                # Unreachable code only needs an assignment somewhere.
                continue
            message = "%s: %s %r %s (stmt %r)" % (self.sig, role, var, problem, stmt)
            found.append((stmt, message))
        if len(found) > 1:
            positions = _cfg_positions(method)
            found.sort(key=lambda issue: positions[id(issue[0])])
        return [message for _, message in found]

    def _use(self, var, role, stmt, live):
        if live is None or var not in live:
            self.unassigned.append((stmt, role, var, live is not None))

    def _def(self, var, live):
        if var:
            self.all_defs.add(var)
            if live is not None:
                live.add(var)

    def _block(self, block, live):
        """Walk ``block`` entered with assigned set ``live`` (``None``
        when unreachable); returns the set at its end."""
        if self.unsealed is None and block.uid is None:
            self.unsealed = block
        use = self._use
        define = self._def
        for stmt in block.stmts:
            if self.unsealed is None and stmt.uid is None:
                self.unsealed = stmt
            if isinstance(stmt, CopyStmt):
                use(stmt.source, "source", stmt, live)
                define(stmt.target, live)
            elif isinstance(stmt, NewStmt):
                define(stmt.target, live)
                if stmt.type.class_name not in self.program.classes:
                    self.issues.append(
                        "%s: allocation of unknown class %s"
                        % (self.sig, stmt.type.class_name)
                    )
            elif isinstance(stmt, InvokeStmt):
                for arg in stmt.args:
                    use(arg, "argument", stmt, live)
                if not stmt.is_static:
                    use(stmt.base, "receiver", stmt, live)
                define(stmt.target, live)
                self._invoke(stmt)
            elif isinstance(stmt, LoadStmt):
                use(stmt.base, "base", stmt, live)
                define(stmt.target, live)
            elif isinstance(stmt, StoreStmt):
                use(stmt.base, "base", stmt, live)
                use(stmt.source, "source", stmt, live)
            elif isinstance(stmt, StoreNullStmt):
                use(stmt.base, "base", stmt, live)
            elif isinstance(stmt, NullStmt):
                define(stmt.target, live)
            elif isinstance(stmt, ReturnStmt):
                if stmt.value:
                    use(stmt.value, "return value", stmt, live)
                live = None
            elif isinstance(stmt, IfStmt):
                if stmt.cond.kind != Cond.NONDET:
                    use(stmt.cond.var, "condition variable", stmt, live)
                then_live = self._block(
                    stmt.then_block, None if live is None else set(live)
                )
                else_live = self._block(stmt.else_block, live)
                if then_live is None:
                    live = else_live
                elif else_live is not None:
                    live = then_live & else_live
                else:
                    live = then_live
            elif isinstance(stmt, LoopStmt):
                key = (self.sig, stmt.label)
                if key in self.seen_labels:
                    self.labels.append(
                        "%s: duplicate loop label %r" % (self.sig, stmt.label)
                    )
                self.seen_labels.add(key)
                if stmt.cond.kind != Cond.NONDET:
                    use(stmt.cond.var, "condition variable", stmt, live)
                # The body may run zero times: the loop leaves ``live``
                # as it found it.
                self._block(stmt.body, None if live is None else set(live))
            elif isinstance(stmt, Block):
                live = self._block(stmt, live)
        return live

    def _invoke(self, stmt):
        """Static-call and arity issues of one invoke."""
        if stmt.is_static:
            try:
                callee = self.program.method(
                    "%s.%s" % (stmt.static_class, stmt.method_name)
                )
            except ResolutionError:
                self.issues.append(
                    "%s: static call to unknown method %s.%s"
                    % (self.sig, stmt.static_class, stmt.method_name)
                )
                return
            if not callee.is_static:
                self.issues.append(
                    "%s: static call to instance method %s"
                    % (self.sig, callee.sig)
                )
            targets = (callee,)
        else:
            targets = self.targets_by_name.get(stmt.method_name, ())
            if not targets:
                self.arity.append(
                    "%s: virtual call to %s with no target anywhere"
                    % (self.sig, stmt.method_name)
                )
        for callee in targets:
            if len(callee.params) != len(stmt.args):
                self.arity.append(
                    "%s: call to %s passes %d args, expected %d"
                    % (self.sig, callee.sig, len(stmt.args), len(callee.params))
                )


def _inheritance_issues(program):
    """Unknown superclasses, then every superclass cycle (once each,
    named from the first of its classes in declaration order)."""
    classes = program.classes
    issues = []
    for decl in classes.values():
        if decl.superclass is not None and decl.superclass not in classes:
            issues.append(
                "class %s extends unknown class %s" % (decl.name, decl.superclass)
            )
    done = set()
    for name in classes:
        path = []
        on_path = {}
        while name in classes and name not in done and name not in on_path:
            on_path[name] = len(path)
            path.append(name)
            name = classes[name].superclass
        if name in on_path:
            cycle = path[on_path[name]:] + [name]
            issues.append("cyclic inheritance: %s" % " extends ".join(cycle))
        done.update(path)
    return issues


def validate_program(program):
    """Return a list of issues found in ``program`` (empty when valid)."""
    issues = _inheritance_issues(program)
    targets_by_name = {}
    for decl in program.classes.values():
        for name, method in decl.methods.items():
            targets_by_name.setdefault(name, []).append(method)
    seen_labels = set()
    arity = []
    labels = []
    for method in program.all_methods():
        walked = _MethodWalk(program, method, targets_by_name, seen_labels)
        issues.extend(walked.issues)
        arity.extend(walked.arity)
        labels.extend(walked.labels)
    issues.extend(arity)
    issues.extend(labels)
    if program.entry:
        try:
            program.entry_method()
        except ResolutionError:
            issues.append("entry method %s does not resolve" % program.entry)
    return issues


def check(program):
    """Raise :class:`IRError` when ``program`` is malformed."""
    issues = validate_program(program)
    if issues:
        raise IRError("invalid program:\n  " + "\n  ".join(issues))
    return program
