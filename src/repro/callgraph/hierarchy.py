"""Class-hierarchy queries shared by the call-graph builders."""


class ClassHierarchy:
    """Precomputed subclass/superclass relations of a program."""

    def __init__(self, program):
        self.program = program
        self._subclasses = {name: set() for name in program.classes}
        for name in program.classes:
            cur = name
            while cur is not None:
                self._subclasses[cur].add(name)
                cur = program.cls(cur).superclass

    def subclasses_of(self, name):
        """All classes equal to or transitively extending ``name``."""
        return set(self._subclasses.get(name, ()))

    def all_targets(self, method_name):
        """Every method named ``method_name`` anywhere in the hierarchy —
        the dispatch approximation used when the receiver type is unknown
        (our variables are untyped, as in the while language)."""
        return [
            decl.methods[method_name]
            for decl in self.program.classes.values()
            if method_name in decl.methods
        ]
