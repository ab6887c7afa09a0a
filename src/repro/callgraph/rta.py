"""Rapid type analysis call-graph construction.

RTA refines CHA by only dispatching virtual calls to methods of classes
that are instantiated somewhere in code already found reachable.  It runs
as a fixed point: discovering a new reachable method can discover new
instantiated classes, which can resolve more call sites.

The fixed point is indexed so each unit of work happens once: a class's
dispatch table (method name -> target) is built when the class is first
instantiated, a new virtual invoke links against the instantiated
classes whose table has its name, and a new class links only the pending
invokes whose names its table has.  Edges come out in a fixed order —
a new invoke's targets by class name, a new class's invokes by discovery
— which ``targets_of_site`` and everything truncating on it (context
enumeration's ``max_contexts_per_site``) observe.
"""

from bisect import insort
from itertools import count

from repro.callgraph.cha import CallEdge, CallGraph
from repro.ir.stmts import InvokeStmt, NewStmt


def build_rta(program, entries=None):
    """Build an RTA call graph from ``entries`` (default: program entry)."""
    entry_sigs = entries or [program.entry]
    graph = CallGraph(program, entry_sigs)

    reachable = set()
    work = []
    linked = set()
    #: instantiated class -> its dispatch table, method name -> target
    tables = {}
    #: method name -> sorted instantiated classes whose table has it
    by_name = {}
    #: method name -> [(discovery seq, caller, invoke)] virtual invokes
    pending = {}
    discovery = count()

    def reach(method):
        if method.sig not in reachable:
            reachable.add(method.sig)
            work.append(method)

    def link(caller, invoke, target):
        key = (invoke.uid, target.sig)
        if key not in linked:
            linked.add(key)
            graph.add_edge(CallEdge(caller, invoke, target))
            reach(target)

    def dispatch_table(class_name):
        """Method name -> target, first declaration up the chain wins."""
        table = {}
        cur = class_name
        while cur is not None:
            decl = program.cls(cur)
            for name, method in decl.methods.items():
                table.setdefault(name, method)
            cur = decl.superclass
        return table

    for sig in entry_sigs:
        reach(program.method(sig))

    while work:
        method = work.pop()
        for stmt in method.statements():
            if isinstance(stmt, NewStmt):
                name = stmt.type.class_name
                if stmt.type.is_array or name in tables:
                    continue
                table = tables[name] = dispatch_table(name)
                waiting = []
                for method_name in table:
                    insort(by_name.setdefault(method_name, []), name)
                    waiting.extend(pending.get(method_name, ()))
                waiting.sort(key=lambda entry: entry[0])
                for _, caller, invoke in waiting:
                    link(caller, invoke, table[invoke.method_name])
            elif isinstance(stmt, InvokeStmt):
                if stmt.is_static:
                    callee = program.method(
                        "%s.%s" % (stmt.static_class, stmt.method_name)
                    )
                    link(method, stmt, callee)
                else:
                    invokes = pending.setdefault(stmt.method_name, [])
                    invokes.append((next(discovery), method, stmt))
                    for class_name in by_name.get(stmt.method_name, ()):
                        link(method, stmt, tables[class_name][stmt.method_name])
    return graph
