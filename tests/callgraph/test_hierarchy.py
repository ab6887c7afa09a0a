"""Tests for class-hierarchy queries."""

from repro.callgraph.hierarchy import ClassHierarchy
from repro.lang import parse_program

_SOURCE = """
class Base { method m() { return; } method only_base() { return; } }
class Mid extends Base { }
class Sub extends Mid { method m() { return; } }
class Other { method m() { return; } }
"""


def _hierarchy():
    return ClassHierarchy(parse_program(_SOURCE, validate=False))


class TestHierarchy:
    def test_subclasses_of_base(self):
        h = _hierarchy()
        assert h.subclasses_of("Base") == {"Base", "Mid", "Sub"}

    def test_subclasses_of_leaf(self):
        assert _hierarchy().subclasses_of("Sub") == {"Sub"}

    def test_subclasses_of_object_is_everything(self):
        h = _hierarchy()
        assert {"Base", "Mid", "Sub", "Other", "Object"} <= h.subclasses_of("Object")

    def test_all_targets_by_name(self):
        h = _hierarchy()
        targets = {m.sig for m in h.all_targets("m")}
        assert targets == {"Base.m", "Sub.m", "Other.m"}

    def test_all_targets_missing(self):
        assert _hierarchy().all_targets("ghost") == []
