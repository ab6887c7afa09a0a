"""The incremental scan engine: serve what provably didn't change.

:func:`changed_scan` is the ``scan --changed-since <snapshot>`` entry
point.  Given the *new* program and a snapshot of a prior scan
(:mod:`~repro.core.incremental.snapshot`), it picks the cheapest tier
that is still sound:

**Identical program** — the caller passes the program's digest and it
equals the snapshot's: nothing is dirty, so the engine takes the fast
path without digesting methods, comparing structure, decoding the
stored flow graph or closing over it.

**Fast path** — the common one-method-edit case.  When the class
structure digest is unchanged and every dirty method kept its
*dispatch signature* (:func:`~repro.core.incremental.digests.
dispatch_signature`), RTA guarantees the new call graph is identical
to the snapshot's modulo statement uids — so the engine builds **no
session, no call graph and no points-to substrate**.  It overlays the
dirty methods' new local flow edges onto the snapshot's value-flow
graph (rebinding their call edges from the stored callsite-level edge
map), closes the dirty variables over the union of both graphs, and
serves every region whose footprint avoids the dirty set and the
closure.  Served reports are decoded straight from the snapshot; their
program-size stats are patched arithmetically from the stored
``size_counts``/``stmt_counts``.  An analysis session is created
lazily only if some region actually needs re-checking.

**Slow path** — a dirty method changed its dispatch signature (added a
call, instantiated a new class).  The call graph may have moved
anywhere, so the engine builds a full session, compares callsite-level
call edges to widen the dirty set with dispatch-retargeted methods
whose text never changed, builds the new program's flow graph, and
closes over both graphs.

**Full fallback** — correct by construction — whenever serving cannot
be justified at all: schema/substrate/config mismatch, class structure
changes (new/removed classes, fields, methods, entry, supertypes:
these reshape CHA/RTA globally), or ``model_threads`` (thread
summaries are whole-program).

In every tier the closure runs *forward* (facts the edit can now
produce) and, when the library flows-in condition is on, *backward*
(visibility the edit can now observe); the union over both program
versions' graphs covers added *and* removed flows.

The invariant, enforced by the golden and property suites: an
incremental scan's canonical JSON is byte-identical to a cold scan of
the new program.
"""

from repro.core.incremental.digests import (
    callsite_edges,
    digest_dirty,
    dispatch_signature,
    method_digests,
    structure_digest,
)
from repro.core.incremental.flowgraph import (
    FlowGraph,
    add_local_edges,
    bind_invoke,
    build_flowgraph,
    closure_union,
)
from repro.core.incremental.reports import decode_report
from repro.core.regions import candidate_loops, region_text
from repro.core.scan import ScanResult, scan_all_loops
from repro.ir.stmts import InvokeStmt


class IncrementalOutcome:
    """What the engine did, for observability and the CLI profile."""

    __slots__ = (
        "served",
        "rechecked",
        "dirty_methods",
        "full_fallback",
        "fallback_reason",
        "fast_path",
    )

    def __init__(self):
        self.served = []
        self.rechecked = []
        self.dirty_methods = set()
        self.full_fallback = False
        self.fallback_reason = None
        self.fast_path = False

    def counters(self):
        return {
            "incremental_served": len(self.served),
            "incremental_rechecked": len(self.rechecked),
            "incremental_dirty_methods": len(self.dirty_methods),
            "incremental_full_fallback": int(self.full_fallback),
            "incremental_fast_path": int(self.fast_path),
        }

    def format(self):
        if self.full_fallback:
            return "incremental: full fallback (%s)" % self.fallback_reason
        return (
            "incremental: %d served, %d re-checked, %d dirty methods%s"
            % (
                len(self.served),
                len(self.rechecked),
                len(self.dirty_methods),
                " (fast path)" if self.fast_path else "",
            )
        )


def _config_matches(snapshot, config):
    return list(snapshot.get("config", ())) == sorted(
        config.describe().items()
    )


def changed_scan(
    program,
    snapshot,
    config=None,
    specs=None,
    auto_regions=False,
    top=None,
    session=None,
    cache=None,
    deadline=None,
    shared_snapshot=None,
    program_dig=None,
):
    """Scan ``program``, serving unchanged regions from ``snapshot``.

    Returns ``(ScanResult, IncrementalOutcome)``.  The result is
    canonically byte-identical to ``scan_all_loops`` of the new program
    under the same region selection; only the work differs.

    ``deadline`` (a :class:`repro.pta.queries.Deadline`) bounds the
    demand-driven query work of any region that does need re-checking;
    served regions cost no queries, so a warm scan never degrades.

    ``shared_snapshot`` is an optional :func:`~repro.core.cache.
    serialize.snapshot_shared` dict from a prior session over the *same*
    program; if a session does have to be built (slow path, re-check),
    it hydrates from the snapshot — call graph and solved points-to
    included — instead of rebuilding the substrate.  A snapshot that
    does not match the program is silently ignored.

    ``program_dig`` is ``program``'s digest when the caller already has
    it; it lets an unchanged program skip change detection.
    """
    from repro.core.config import DetectorConfig
    from repro.core.pipeline.session import AnalysisSession

    if session is not None:
        config = session.config
    else:
        config = config or DetectorConfig()
    outcome = IncrementalOutcome()

    def get_session():
        nonlocal session
        if session is None:
            shared = None
            if shared_snapshot is not None:
                from repro.core.cache.serialize import hydrate_shared
                from repro.errors import CacheError

                try:
                    shared = hydrate_shared(
                        program, config, shared_snapshot, program_dig
                    )
                except (CacheError, LookupError):
                    shared = None  # different program/config: rebuild
            session = AnalysisSession(
                program, config, cache=cache, shared=shared
            )
            if shared is None and isinstance(shared_snapshot, dict):
                # The snapshot belongs to an earlier program version, so
                # its substrate is useless — but its per-method summary
                # payloads are digest-keyed (schema v5): every method the
                # edit did not touch hydrates its intra summary instead
                # of recomputing it.
                salvaged = shared_snapshot.get("summaries")
                if salvaged and tuple(
                    shared_snapshot.get("substrate_key", ())
                ) == tuple(config.substrate_key()):
                    session.shared.seed_summary_cache(salvaged["methods"])
        return session

    reason = _fallback_reason(snapshot, config)
    identical = (
        reason is None
        and session is None
        and program_dig is not None
        and program_dig == snapshot.get("program_digest")
    )
    if reason is None and not identical and _structure_changed(
        snapshot, program
    ):
        reason = "class structure changed (classes/fields/methods/entry)"
    if reason is not None:
        return _full(
            outcome, reason, program, get_session(), specs, auto_regions,
            top, deadline,
        )

    if identical:
        # Same program text: no dirty methods, no flows to close over.
        outcome.fast_path = True
        new_digests = snapshot["method_digests"]
        dirty, deleted = set(), set()
        graphs = ()
        tainted = set()
    else:
        new_digests = method_digests(program)
        dirty, deleted = digest_dirty(snapshot["method_digests"], new_digests)
        outcome.dirty_methods = set(dirty)

        stored_dispatch = snapshot["dispatch_sigs"]
        fast = not deleted and session is None and all(
            dispatch_signature(program.method(sig)) == stored_dispatch.get(sig)
            for sig in dirty
        )

        old_graph = FlowGraph.from_plain(snapshot["flowgraph"])
        if fast:
            outcome.fast_path = True
            graphs = [old_graph, _build_overlay(program, snapshot, dirty)]
        else:
            new_edges = callsite_edges(program, get_session().callgraph)
            old_edges = snapshot["call_edges"]
            dirty |= {
                sig
                for sig, edges in new_edges.items()
                if old_edges.get(sig) != edges
            }
            outcome.dirty_methods = set(dirty)
            graphs = [old_graph, build_flowgraph(program, session.callgraph)]

        tainted = _tainted_over(graphs, dirty, config)

    stored = {entry["spec"]: entry for entry in snapshot["regions"]}
    if specs is not None:
        specs = list(specs)
    elif auto_regions:
        catalog = get_session().infer_catalog()
        specs = catalog.selected_specs(top)
    else:
        specs = candidate_loops(program)

    old_digests = snapshot["method_digests"]
    size_counts = None
    stmt_memo = {}

    def statements_of(sig):
        stmts = stmt_memo.get(sig)
        if stmts is None:
            if session is not None:
                stmts = session.method_statements(sig)
            else:
                stmts = tuple(program.method(sig).statements())
            stmt_memo[sig] = stmts
        return stmts

    entries = []
    for spec in specs:
        entry = stored.get(region_text(spec))
        report = None
        if entry is not None and _servable(
            entry, dirty, deleted, tainted, old_digests, new_digests, graphs
        ):
            try:
                report = decode_report(entry["report"], program, statements_of)
            except (KeyError, IndexError, LookupError):
                report = None  # stale reference: re-check instead
        if report is not None:
            if size_counts is None:
                if session is not None:
                    size_counts = session.shared.size_counts()
                else:
                    size_counts = _patched_size_counts(
                        program, snapshot, dirty
                    )
            report.stats["methods"] = size_counts[0]
            report.stats["statements"] = size_counts[1]
            outcome.served.append(region_text(spec))
        else:
            # The deadline scope restores itself, so a pooled session
            # never carries a request's (possibly expired) deadline
            # into later requests.
            with get_session().points_to.deadline_scope(deadline):
                report = session.check(spec)
            outcome.rechecked.append(region_text(spec))
        entries.append((spec, report))

    counters = session.cache_counters() if session is not None else {}
    counters.update(outcome.counters())
    return ScanResult(entries, cache_counters=counters), outcome


def _fallback_reason(snapshot, config):
    """A human-readable reason serving is impossible, or ``None``."""
    from repro.core.cache.digest import CACHE_SCHEMA_VERSION

    if snapshot.get("schema") != CACHE_SCHEMA_VERSION:
        return "snapshot schema %r != %d" % (
            snapshot.get("schema"),
            CACHE_SCHEMA_VERSION,
        )
    if tuple(snapshot.get("substrate_key", ())) != tuple(config.substrate_key()):
        return "substrate key changed"
    if not _config_matches(snapshot, config):
        return "detector configuration changed"
    if config.model_threads:
        return "model_threads is whole-program; incremental serving disabled"
    return None


def _structure_changed(snapshot, program):
    return snapshot["structure_digest"] != structure_digest(program)


def _full(
    outcome, reason, program, session, specs, auto_regions, top,
    deadline=None,
):
    outcome.full_fallback = True
    outcome.fallback_reason = reason
    result = scan_all_loops(
        program,
        session=session,
        specs=specs,
        auto_regions=auto_regions,
        top=top,
        deadline=deadline,
    )
    result.cache_counters.update(outcome.counters())
    return result, outcome


def _build_overlay(program, snapshot, dirty):
    """The fast path's stand-in for the new program's flow graph.

    Contains only the flows an equal-dispatch edit can add: the dirty
    methods' new local edges, their outgoing call bindings (the call
    graph is provably unchanged, so targets come from the snapshot's
    callsite-level edge map) and the rebound edges from their unchanged
    callers (a dirty method may have renamed its parameters or changed
    which variable it returns).  Union with the snapshot's graph covers
    removed flows.
    """
    overlay = FlowGraph()
    old_edges = snapshot["call_edges"]
    old_returns = snapshot["returns"]

    dirty_returns = {}
    for sig in dirty:
        dirty_returns[sig] = sorted(
            add_local_edges(overlay, program.method(sig))
        )

    def returns_of(sig):
        if sig in dirty_returns:
            return dirty_returns[sig]
        return old_returns.get(sig, ())

    def invokes_by_callsite(method):
        return {
            stmt.callsite: stmt
            for stmt in method.statements()
            if isinstance(stmt, InvokeStmt)
        }

    # Outgoing call edges of dirty methods.
    for sig in dirty:
        targets = {}
        for callsite, callee_sig in old_edges.get(sig, ()):
            targets.setdefault(callsite, []).append(callee_sig)
        if not targets:
            continue
        for callsite, stmt in invokes_by_callsite(program.method(sig)).items():
            for callee_sig in targets.get(callsite, ()):
                bind_invoke(
                    overlay, sig, stmt,
                    program.method(callee_sig), returns_of(callee_sig),
                )

    # Unchanged callers of dirty methods: rebind args -> (possibly
    # renamed) params and (possibly different) returns -> targets.
    for caller_sig, caller_edges in old_edges.items():
        if caller_sig in dirty:
            continue
        wanted = [(cs, callee) for cs, callee in caller_edges if callee in dirty]
        if not wanted:
            continue
        by_callsite = invokes_by_callsite(program.method(caller_sig))
        for callsite, callee_sig in wanted:
            stmt = by_callsite.get(callsite)
            if stmt is not None:
                bind_invoke(
                    overlay, caller_sig, stmt,
                    program.method(callee_sig), returns_of(callee_sig),
                )
    return overlay


def _tainted_over(graphs, dirty, config):
    """Union of forward (and, under the library condition, backward)
    closures of the dirty methods' variables over all graphs."""
    seeds = set()
    for graph in graphs:
        seeds |= graph.seeds_for(dirty)
    tainted = closure_union(graphs, seeds, "forward")
    if config.library_condition:
        tainted |= closure_union(graphs, seeds, "backward")
    return tainted


def _servable(entry, dirty, deleted, tainted, old_digests, new_digests, graphs):
    """Can this stored region be served on the new program?

    The footprint must be wholly untouched (no dirty, deleted or
    digest-moved method — on the slow path, methods whose call edges
    moved were already folded into ``dirty``) and its variables must be
    disjoint from the taint closure in both program versions.
    """
    footprint = entry["footprint"]
    for sig in footprint:
        if sig in dirty or sig in deleted:
            return False
        if sig not in new_digests:
            return False  # footprint method deleted
        if old_digests.get(sig) != new_digests[sig]:
            return False
    for graph in graphs:
        if graph.seeds_for(footprint) & tainted:
            return False
    return True


def _patched_size_counts(program, snapshot, dirty):
    """The new program's (reachable methods, reachable simple stmts)
    without a call graph: the reachable set is unchanged on any serving
    path, so only dirty reachable methods' statement counts moved."""
    methods, statements = snapshot["size_counts"]
    reachable = set(snapshot["reachable"])
    stmt_counts = snapshot["stmt_counts"]
    for sig in dirty:
        if sig in reachable:
            statements -= stmt_counts.get(sig, 0)
            statements += sum(
                1 for s in program.method(sig).statements() if s.is_simple
            )
    return methods, statements


def incremental_scan_path(program, snapshot, **kwargs):
    """Convenience: :func:`changed_scan` but dropping the outcome."""
    result, _outcome = changed_scan(program, snapshot, **kwargs)
    return result
