"""Tests for repro.ir.validate."""

import pytest

from repro.errors import IRError
from repro.ir.builder import ProgramBuilder
from repro.ir.validate import check, validate_program
from repro.lang.lowering import lower
from repro.lang.parser import parse


def _issues(source):
    return validate_program(lower(parse(source)))


class TestValidation:
    def test_valid_program_clean(self):
        assert _issues("class A { method m(p) { x = p; return x; } }") == []

    def test_undefined_variable(self):
        issues = _issues("class A { method m() { x = y; } }")
        assert any("'y' used but never defined" in i for i in issues)

    def test_undefined_store_base(self):
        issues = _issues("class A { field f; method m(p) { q.f = p; } }")
        assert any("'q'" in i for i in issues)

    def test_unknown_allocated_class(self):
        issues = _issues("class A { method m() { x = new Ghost; } }")
        assert any("unknown class Ghost" in i for i in issues)

    def test_unknown_superclass(self):
        issues = _issues("class A extends Ghost { }")
        assert any("unknown class Ghost" in i for i in issues)

    def test_static_call_unknown_method(self):
        issues = _issues("class A { method m() { call A.nope(); } }")
        assert any("unknown method A.nope" in i for i in issues)

    def test_static_call_to_instance_method(self):
        issues = _issues(
            "class A { method inst() { return; } method m() { call A.inst(); } }"
        )
        assert any("static call to instance method" in i for i in issues)

    def test_virtual_call_without_target(self):
        issues = _issues("class A { method m(p) { call p.ghost(); } }")
        assert any("no target anywhere" in i for i in issues)

    def test_arity_mismatch(self):
        issues = _issues(
            "class A { method f(a, b) { return; } method m(p) { call p.f(p); } }"
        )
        assert any("passes 1 args, expected 2" in i for i in issues)

    def test_condition_variable_checked(self):
        issues = _issues("class A { method m() { if (nonnull ghost) { } } }")
        assert any("'ghost'" in i for i in issues)

    def test_check_raises(self):
        from repro.lang.parser import parse as p

        prog = lower(p("class A { method m() { x = y; } }"))
        with pytest.raises(IRError):
            check(prog)

    def test_unsealed_statement_detected(self):
        pb = ProgramBuilder()
        mb = pb.cls("A").method("m")
        mb.new("x", "A")
        prog = pb.build()
        # Simulate a statement added after sealing.
        from repro.ir.stmts import NullStmt

        prog.method("A.m").body.stmts.append(NullStmt("x"))
        issues = validate_program(prog)
        assert any("unsealed" in i for i in issues)

    def test_duplicate_loop_labels(self):
        issues = _issues(
            "class A { method m() { loop L { } loop L { } } }"
        )
        assert any("duplicate loop label" in i for i in issues)

    def test_entry_resolution(self):
        issues = validate_program(
            lower(parse("entry A.ghost;\nclass A { }"))
        )
        assert any("entry method" in i for i in issues)


class TestInheritanceCycles:
    def test_two_class_cycle_names_both_classes(self):
        issues = _issues(
            "class A extends B { } class B extends A { }"
        )
        assert issues == ["cyclic inheritance: A extends B extends A"]

    def test_self_extension_is_a_cycle(self):
        assert _issues("class A extends A { }") == [
            "cyclic inheritance: A extends A"
        ]

    def test_every_cycle_reported_once(self):
        issues = _issues(
            "class Tail extends C { } class C extends D { } "
            "class D extends C { } class E extends E { } "
            "class F extends Tail { } class G { }"
        )
        assert issues == [
            "cyclic inheritance: C extends D extends C",
            "cyclic inheritance: E extends E",
        ]

    def test_acyclic_chain_is_clean(self):
        assert _issues(
            "class A extends B { } class B extends C { } class C { }"
        ) == []

    def test_parse_program_rejects_a_cycle(self):
        from repro.lang import parse_program

        with pytest.raises(IRError) as excinfo:
            parse_program(
                "entry Main.main;\n"
                "class Main { static method main() { a = new A @a; "
                "call a.m() @c; } }\n"
                "class A extends B { method m() { return; } }\n"
                "class B extends A { }"
            )
        assert "cyclic inheritance: A extends B extends A" in str(excinfo.value)


class TestSingleWalk:
    def test_issues_keep_their_order_across_kinds(self):
        issues = _issues(
            "class A extends Ghost { field f; "
            "method m(p) { x = new Nope; y = z; call A.s(); call p.g(); "
            "loop L { } loop L { } } "
            "method s() { return; } method g(a) { return; } }"
        )
        assert issues == [
            "class A extends unknown class Ghost",
            "A.m: source 'z' used but never defined (stmt <CopyStmt uid=2 y = z>)",
            "A.m: allocation of unknown class Nope",
            "A.m: static call to instance method A.s",
            "A.m: call to A.g passes 0 args, expected 1",
            "A.m: duplicate loop label 'L'",
        ]

    def test_return_makes_the_rest_unreachable(self):
        # After a return, uses need an assignment somewhere only.
        assert _issues(
            "class A { method m() { return; y = x; x = null; } }"
        ) == []
        assert any(
            "'w' used but never defined" in issue
            for issue in _issues("class A { method m() { return; y = w; } }")
        )

    def test_return_in_one_arm_leaves_the_other_arm_live(self):
        assert _issues(
            "class A { method m(p) { if (*) { return; } else { x = p; } "
            "y = x; } }"
        ) == []


class TestDefiniteAssignment:
    def test_one_arm_definition_flagged_after_join(self):
        issues = _issues(
            "class A { method m() { if (*) { x = null; } else { } y = x; } }"
        )
        assert any("may be unassigned" in i for i in issues)

    def test_both_arms_definition_clean(self):
        issues = _issues(
            "class A { method m() { if (*) { x = null; } "
            "else { x = null; } y = x; } }"
        )
        assert issues == []

    def test_loop_body_definition_not_definite_after_loop(self):
        # The loop may run zero times.
        issues = _issues(
            "class A { method m() { loop L (*) { x = null; } y = x; } }"
        )
        assert any("may be unassigned" in i for i in issues)

    def test_use_before_def_across_back_edge(self):
        # First iteration reads x before any assignment.
        issues = _issues(
            "class A { method m() { loop L (*) { y = x; x = null; } } }"
        )
        assert any("may be unassigned" in i for i in issues)

    def test_def_before_loop_survives_back_edge(self):
        issues = _issues(
            "class A { method m() { x = null; loop L (*) { y = x; x = y; } } }"
        )
        assert issues == []

    def test_condition_variable_checked_at_branch(self):
        issues = _issues(
            "class A { method m() { if (*) { g = null; } else { } "
            "if (nonnull g) { } } }"
        )
        assert any(
            "condition variable" in i and "may be unassigned" in i
            for i in issues
        )

    def test_loop_condition_checked_at_header(self):
        issues = _issues(
            "class A { method m() { loop L (nonnull x) { x = null; } } }"
        )
        assert any("condition variable" in i for i in issues)

    def test_never_defined_keeps_original_message(self):
        issues = _issues("class A { method m() { x = y; } }")
        assert any("'y' used but never defined" in i for i in issues)
        assert not any("may be unassigned" in i for i in issues)

    def test_unreachable_code_stays_flow_insensitive(self):
        # After return: 'x' is assigned *somewhere*, so the unreachable
        # use is tolerated; a never-defined variable is still reported.
        issues = _issues(
            "class A { method m() { x = null; return; y = x; z = ghost; } }"
        )
        assert not any("may be unassigned" in i for i in issues)
        assert any("'ghost' used but never defined" in i for i in issues)

    def test_params_and_this_definitely_assigned(self):
        issues = _issues(
            "class A { field f; method m(p) { this.f = p; return this; } }"
        )
        assert issues == []
