"""In-memory spans for the traced run, and the wrappers that record them.

The traced run wraps calls into each layer of the analyzer at the name
its caller looks up (a module global, a dict entry or a class
attribute), so the program itself is unchanged.  Every wrapper opens a
span, calls through, and closes the span; a span's parent is the span
open on the same thread when it started.  Spans stay in memory until
the run ends.  A layer's self time is its span's duration minus the
durations of its direct children.

A target that no longer exists raises ``LookupError`` at install time,
so a rename in the program stops the traced run instead of silently
dropping a layer.
"""

import functools
import importlib
import threading
import time

# Span record fields.
NAME, START, END, PARENT, THREAD, COUNTS = range(6)


def _tokens(tokens):
    return {"tokens": len(tokens)}


def _edges(graph):
    return {"edges": len(graph.edges)}


def _candidates(catalog):
    return {"candidates": len(catalog.candidates)}


def _scope(result):
    _scope_obj, fresh = result
    return {"scoped_solves": int(fresh)}


def _incremental(result):
    _scan, outcome = result
    return {"served": len(outcome.served), "rechecked": len(outcome.rechecked)}


#: (module, attribute, dict key or None, span name, counts-of-result).
#: Attributes with a dot are class attributes (``Class.method``).
TARGETS = (
    ("repro.lang.parser", "tokenize", None, "lang.lex", _tokens),
    ("repro.lang", "parse", None, "lang.parse", None),
    ("repro.lang", "lower", None, "lang.lower", None),
    ("repro.lang", "check", None, "ir.validate", None),
    ("repro.core.pipeline.session", "_CALLGRAPH_BUILDERS", "rta",
     "callgraph.rta", _edges),
    ("repro.pta.queries", "PAG", None, "pta.pag", None),
    ("repro.pta.kernel", "solve_selected", None, "pta.solve", None),
    ("repro.pta.cfl", "solve_selected", None, "pta.solve", None),
    ("repro.core.summaries.compose", "solve_selected", None, "pta.solve",
     None),
    ("repro.core.summaries", "ProgramSummaries.build", None,
     "summaries.build", None),
    ("repro.core.summaries", "RegionScoper.scope_for", None,
     "summaries.scope", _scope),
    ("repro.core.infer", "infer_candidates", None, "infer.catalog",
     _candidates),
    ("repro.core.pipeline.session", "AnalysisSession.check", None,
     "pipeline.region", None),
    ("repro.core.canonical", "canonical_scan_dict", None, "canonical.render",
     None),
    ("repro.server.pool", "SessionPool.analyze", None, "server.pool", None),
    ("repro.server.pool", "changed_scan", None, "incremental.changed_scan",
     _incremental),
    ("repro.server.pool", "snapshot_scan", None, "incremental.snapshot", None),
    ("repro.server.pool", "snapshot_shared", None, "cache.shared_snapshot",
     None),
    ("repro.server.coordinator", "snapshot_shared", None,
     "cache.shared_snapshot", None),
    ("repro.server.pool", "program_digest", None, "cache.digest", None),
    ("repro.server.app", "program_digest", None, "cache.digest", None),
    ("repro.server.coordinator", "program_digest", None, "cache.digest",
     None),
    ("repro.core.incremental.snapshot", "program_digest", None,
     "cache.digest", None),
    ("repro.core.cache.serialize", "program_digest", None, "cache.digest",
     None),
)

#: Targets in modules that only the service imports.
SERVER_MODULES = ("repro.server.",)


class Tracer:
    """Records spans; installs and removes the layer wrappers."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    # -- recording -----------------------------------------------------------

    def open(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else -1, threading.get_ident(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def close(self, index, counts=None):
        self.spans[index][END] = time.perf_counter()
        self.spans[index][COUNTS] = counts
        self._local.stack.pop()

    def wrap(self, name, fn, counts=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(index, counts(result) if counts and result
                             is not None else None)

        return traced

    # -- installing ----------------------------------------------------------

    def install(self, server=True):
        """Wrap every target; ``server=False`` skips the service modules
        (the in-process workloads never import them)."""
        for module_name, attr, key, name, counts in TARGETS:
            if not server and module_name.startswith(SERVER_MODULES):
                continue
            module = importlib.import_module(module_name)
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            if not hasattr(owner, leaf):
                raise LookupError("%s has no %s" % (module_name, attr))
            if key is not None:
                table = getattr(owner, leaf)
                original = table[key]
                table[key] = self.wrap(name, original, counts)
                self._undo.append((table.__setitem__, key, original))
                continue
            raw = owner.__dict__[leaf] if isinstance(owner, type) else (
                getattr(owner, leaf))
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__, counts))
            else:
                patched = self.wrap(name, raw, counts)
            setattr(owner, leaf, patched)
            self._undo.append((functools.partial(setattr, owner), leaf, raw))

    def uninstall(self):
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)


def self_times(spans):
    """``{index: self seconds}`` for every closed span."""
    own = {}
    for index, record in enumerate(spans):
        if record[END] is None:
            continue
        own[index] = own.get(index, 0.0) + record[END] - record[START]
        parent = record[PARENT]
        if parent >= 0:
            own[parent] = own.get(parent, 0.0) - (record[END] - record[START])
    return own


def children_of(spans):
    """``{parent index: [child indexes]}``."""
    kids = {}
    for index, record in enumerate(spans):
        kids.setdefault(record[PARENT], []).append(index)
    return kids


def subtree(kids, root):
    """Indexes of ``root`` and every span below it."""
    out = []
    work = [root]
    while work:
        index = work.pop()
        out.append(index)
        work.extend(kids.get(index, ()))
    return out
