"""The session pool: warm analysis state keyed by program digest.

The daemon's whole value proposition is that the *second* request for a
program is cheap.  :class:`SessionPool` makes that true by keeping, per
distinct program (identified by
:func:`~repro.core.cache.digest.program_digest`), the snapshot a full
scan produces (:mod:`~repro.core.incremental.snapshot`).  A repeat
request with an identical digest goes through
:func:`~repro.core.incremental.engine.changed_scan`, where zero dirty
methods means the **fast path**: every region is decoded from the
snapshot and *no session, call graph or points-to substrate is built at
all*.  The response's profile carries the proof —
``incremental_fast_path: 1``, ``incremental_served: N``,
``incremental_rechecked: 0`` — which the smoke tests assert.

Policy decisions, deliberately boring:

* snapshots are stored only for **full** scans (no explicit region
  list); region-limited requests are *served against* a stored snapshot
  but never overwrite it, so a narrow request cannot degrade a later
  broad one;
* entries evict LRU once ``max_sessions`` distinct programs have been
  seen — a snapshot is all-we-need state, so eviction costs one cold
  scan, nothing more;
* a per-entry lock serializes same-digest requests (two concurrent
  cold scans of the same program would just waste CPU); distinct
  digests proceed in parallel under the admission layer's ``jobs`` cap.

The pool also memoizes the frontend: :meth:`SessionPool.program_for`
maps the sha256 of a request's source text to the parsed, validated
program and its digest, LRU-bounded by the same ``max_sessions``.
Byte-identical source therefore skips lexing, parsing, validation and
printing the program for its digest; source that differs only in
formatting parses once and then meets the warm entry through the
program digest.  Only successful parses are memoized, so malformed
source fails the same way on every request.  Memoized programs are
shared by every request that sends the same bytes; nothing downstream
mutates a program.

An optional :class:`~repro.core.cache.store.ArtifactCache` additionally
persists program-level artifacts across daemon restarts.
"""

import hashlib
import threading
from collections import OrderedDict

from repro.core.cache.digest import program_digest
from repro.core.cache.serialize import snapshot_shared
from repro.core.incremental.engine import changed_scan
from repro.core.incremental.snapshot import snapshot_scan
from repro.core.pipeline.session import AnalysisSession
from repro.core.scan import scan_all_loops
from repro.lang import parse_program


class PoolEntry:
    """One pooled program: its snapshots and the lock that guards them.

    ``snapshot`` is the per-region scan snapshot the incremental engine
    serves from; ``shared_snapshot`` is the program-level substrate
    (call graph + solved points-to in the kernel's flat encoding) that
    a warm request's re-check session hydrates from instead of
    re-solving — the same payload process scan workers attach to.
    """

    __slots__ = (
        "digest", "snapshot", "shared_snapshot", "lock", "hits", "misses",
    )

    def __init__(self, digest):
        self.digest = digest
        self.snapshot = None
        self.shared_snapshot = None
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0


class SessionPool:
    """Digest-keyed warm analysis state; thread-safe; LRU-bounded."""

    def __init__(self, config=None, cache=None, max_sessions=8):
        from repro.core.config import DetectorConfig

        if max_sessions < 1:
            raise ValueError(
                "max_sessions must be >= 1 (got %d)" % max_sessions
            )
        self.config = config or DetectorConfig()
        self.cache = cache
        self.max_sessions = max_sessions
        self._lock = threading.Lock()
        self._entries = OrderedDict()
        #: source sha256 -> (program, program digest), LRU order.
        self._programs = OrderedDict()
        self.evicted = 0
        self.source_hits = 0
        self.source_misses = 0
        #: points-to kernel statistics of the most recent cold solve,
        #: surfaced as ``kernel_*`` gauges by ``/metrics``.
        self.kernel_stats = {}

    def program_for(self, source):
        """``(program, program digest)`` for while-language ``source``.

        ``source`` is the effective text (the ``javalib`` prefix already
        applied).  A repeat of the same bytes returns the memoized
        program without running the frontend; a new text is parsed and
        validated (:func:`~repro.lang.parse_program`, whose
        ``ParseError``/``IRError`` propagate uncached) and memoized.
        """
        key = hashlib.sha256(source.encode("utf-8", "surrogatepass")).digest()
        with self._lock:
            memo = self._programs.get(key)
            if memo is not None:
                self._programs.move_to_end(key)
                self.source_hits += 1
                return memo
            self.source_misses += 1
        program = parse_program(source)
        memo = (program, program_digest(program))
        with self._lock:
            self._programs[key] = memo
            while len(self._programs) > self.max_sessions:
                self._programs.popitem(last=False)
        return memo

    def analyze(self, program, specs=None, deadline=None, program_dig=None):
        """Scan ``program``, warm when its digest has been seen before.

        ``program_dig`` is the program's digest when the caller already
        has it (:meth:`program_for` returns one).

        Returns ``(ScanResult, info)`` where ``info`` is a plain dict:
        ``{"program_digest", "warm", "counters"}`` — ``counters`` being
        the :class:`~repro.core.incremental.engine.IncrementalOutcome`
        counters on the warm path, empty on the cold path.
        """
        digest = program_dig or program_digest(program)
        entry = self._entry_for(digest)
        with entry.lock:
            if entry.snapshot is not None:
                # Identical digest guarantees zero dirty methods: the
                # engine serves everything from the snapshot without
                # building analysis state (its fast path).  A spec not
                # covered by the stored scan is re-checked lazily —
                # against a session hydrated from the stored substrate
                # snapshot (solved points-to included), never a cold
                # rebuild.
                result, outcome = changed_scan(
                    program,
                    entry.snapshot,
                    config=self.config,
                    specs=specs,
                    cache=self.cache,
                    deadline=deadline,
                    shared_snapshot=entry.shared_snapshot,
                    program_dig=digest,
                )
                entry.hits += 1
                return result, {
                    "program_digest": digest,
                    "warm": True,
                    "counters": outcome.counters(),
                }
            session = AnalysisSession(program, self.config, cache=self.cache)
            result = scan_all_loops(
                program, session=session, specs=specs, deadline=deadline
            )
            if specs is None:
                entry.snapshot = snapshot_scan(
                    program, self.config, result, session=session,
                    program_dig=digest,
                )
                entry.shared_snapshot = snapshot_shared(
                    session.shared, program_dig=digest
                )
            stats = session.points_to.kernel_stats()
            if stats:
                self.kernel_stats = stats
            entry.misses += 1
            return result, {
                "program_digest": digest,
                "warm": False,
                "counters": {},
            }

    def snapshot_for(self, digest):
        """The stored snapshot for a digest, or ``None`` (used by
        ``POST /diff`` to compare against the pooled baseline)."""
        with self._lock:
            entry = self._entries.get(digest)
        return entry.snapshot if entry is not None else None

    def shared_snapshot_for(self, digest):
        """The stored substrate snapshot for a digest, or ``None``.

        The fleet coordinator donates this to its workers: a program
        the pool already warmed hands its solved points-to straight to
        the shard fan-out, with no second warm scan anywhere.
        """
        with self._lock:
            entry = self._entries.get(digest)
        return entry.shared_snapshot if entry is not None else None

    def _entry_for(self, digest):
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
                return entry
            entry = self._entries[digest] = PoolEntry(digest)
            while len(self._entries) > self.max_sessions:
                self._entries.popitem(last=False)
                self.evicted += 1
            return entry

    def stats(self):
        """Gauge-ready occupancy numbers for ``/metrics``."""
        with self._lock:
            entries = list(self._entries.values())
            kernel = dict(self.kernel_stats)
        from repro.core.summaries import summaries_enabled

        gauges = {
            "pool_sessions": len(entries),
            "pool_warm": sum(1 for e in entries if e.snapshot is not None),
            "pool_hits": sum(e.hits for e in entries),
            "pool_misses": sum(e.misses for e in entries),
            "pool_evicted": self.evicted,
            "pool_source_hits": self.source_hits,
            "pool_source_misses": self.source_misses,
            # 1 when the summary path (escape pre-filter + scoped
            # solves) serves region checks, 0 when REPRO_PTA_SUMMARIES
            # forces the whole-program path.
            "summaries_enabled": 1 if summaries_enabled() else 0,
        }
        for name, value in sorted(kernel.items()):
            gauges["kernel_%s" % name] = value
        return gauges

    def __repr__(self):
        with self._lock:
            return "SessionPool(%d/%d programs)" % (
                len(self._entries),
                self.max_sessions,
            )
