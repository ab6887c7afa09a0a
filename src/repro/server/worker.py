"""Fleet worker: execute one shard of region checks, warm on any digest.

A worker process is long-lived and *program-agnostic*: every shard
task names a program digest and carries the hand-off material — the
pickled program, the detector config, and the parent's substrate
snapshot as a shared-memory name (zero-copy, preferred) or a plain
dict (fallback).  The worker keeps a small LRU of adopted sessions
keyed by ``(digest, config)``; a repeat digest skips adoption
entirely, a new digest hydrates through
:func:`repro.core.cache.adopt.adopt_session` — the same protocol the
``scan --backend process`` pool uses — so any worker can serve any
pooled program warm, which is what lets the coordinator shard freely
instead of pinning programs to workers.

:func:`run_shard` is the single entry point, deliberately a top-level
function of plain-data arguments so every transport can ship it: the
in-process inline transport calls it directly, the local process pool
submits it to a ``ProcessPoolExecutor``, and a future multi-host
transport can wrap it behind an RPC without touching the analysis
code.  Failures travel as data, per region: one dead region becomes an
``error`` outcome while the rest of the shard still answers — the
batch endpoint's partial-result contract depends on this.

``REPRO_FLEET_FAIL_REGION=<Class.method[:LOOP]>`` is a test-only
failpoint injecting a failure when the named region is checked; the
mid-stream-failure tests and the fleet benchmark's degradation probe
use it.
"""

import os
import pickle
import time
import traceback
from collections import OrderedDict

from repro.core.regions import region_text
from repro.pta.queries import Deadline

#: Test-only failpoint: a region spec text whose check raises.
FAILPOINT_ENV = "REPRO_FLEET_FAIL_REGION"

#: Distinct (digest, config) sessions one worker keeps warm.
MAX_ADOPTED = 4

#: adoption key -> (AnalysisSession, SharedMemory-or-None), LRU order.
_SESSIONS = OrderedDict()

#: Segments of dropped sessions that were still viewed when dropped.
_UNCLOSED = []


def make_task(
    digest,
    program_blob,
    config_kwargs,
    specs,
    indices,
    shm_name=None,
    snapshot=None,
    deadline_ms=None,
):
    """Assemble one plain-data shard task (everything picklable)."""
    return {
        "digest": digest,
        "program_blob": program_blob,
        "config_kwargs": dict(config_kwargs),
        "specs_blob": pickle.dumps(list(specs), protocol=pickle.HIGHEST_PROTOCOL),
        "indices": list(indices),
        "shm_name": shm_name,
        "snapshot": snapshot,
        "deadline_ms": deadline_ms,
    }


def _adoption_key(task):
    return (
        task["digest"],
        tuple(sorted(task["config_kwargs"].items())),
    )


def _session_for(task):
    """This worker's session for the task's program: LRU hit or adopt.

    Returns ``(session, adoption, adoption_failures)`` where
    ``adoption`` names how the state arrived: ``"lru"`` (already warm
    here), ``"shm"`` (attached the packed snapshot), ``"snapshot"``
    (hydrated the dict), or ``"cold"`` (no hand-off, or a hand-off that
    failed to decode; built and warmed from the program alone).
    ``adoption_failures`` is 1 when a hand-off was offered but could
    not be adopted — the sound cold rebuild served instead — so the
    coordinator can count decode failures without losing the shard.
    """
    from repro.core.cache.adopt import adopt_session

    key = _adoption_key(task)
    hit = _SESSIONS.get(key)
    if hit is not None:
        _SESSIONS.move_to_end(key)
        return hit[0], "lru", 0
    failures = 0
    try:
        session, shm = adopt_session(
            task["program_blob"],
            task["config_kwargs"],
            shm_name=task["shm_name"],
            snapshot=task["snapshot"],
            program_digest=task["digest"],
        )
        if task["shm_name"] is not None:
            adoption = "shm"
        elif task["snapshot"] is not None:
            adoption = "snapshot"
        else:
            adoption = "cold"
    except Exception:
        if task["shm_name"] is None and task["snapshot"] is None:
            raise  # the cold path itself failed; nothing to fall back to
        # The hand-off was unusable (corrupt snapshot, vanished shm
        # segment).  adopt_session released the handle; rebuild cold —
        # slower, never wrong — and report the failure as data.
        failures = 1
        session, shm = adopt_session(
            task["program_blob"],
            task["config_kwargs"],
            program_digest=task["digest"],
        )
        adoption = "cold"
    _SESSIONS[key] = (session, shm)
    while len(_SESSIONS) > MAX_ADOPTED:
        _drop_oldest()
    return session, adoption, failures


def _drop_oldest():
    """Drop the least recently used session; close its segment when unviewed.

    The session's mask table holds zero-copy memoryviews into its
    segment, and ``SharedMemory.close`` raises ``BufferError`` while any
    view is alive — so the session reference goes first, and a segment
    something still views (say, a not-yet-collected reference cycle) is
    parked and retried on the next drop instead of failing the shard.
    """
    _, (session, shm) = _SESSIONS.popitem(last=False)
    del session
    if shm is not None:
        _UNCLOSED.append(shm)
    still_viewed = []
    for segment in _UNCLOSED:
        try:
            segment.close()
        except BufferError:
            still_viewed.append(segment)
        except OSError:
            pass
    _UNCLOSED[:] = still_viewed


def run_shard(task, session_resolver=None):
    """Check every region in one shard; return a plain-data result.

    The result dict carries ``outcomes`` — per region, in shard order,
    either ``(index, "ok", LeakReport)`` or ``(index, "error",
    region_text, cause, worker_traceback)`` — plus the bookkeeping the
    coordinator folds into fleet metrics: the worker ``pid``, busy
    wall-clock seconds, how the program state was adopted, whether the
    shard's deadline degraded any demand-driven query, and how many
    hand-offs failed to adopt (served by the cold fallback instead).

    ``session_resolver`` overrides the process-global adoption LRU —
    the remote worker server keeps per-instance session state and
    passes its own resolver; the inline and local-process transports
    use the default.
    """
    started = time.perf_counter()
    resolver = session_resolver or _session_for
    session, adoption, adoption_failures = resolver(task)
    specs = pickle.loads(task["specs_blob"])
    deadline = Deadline.after_ms(task.get("deadline_ms"))
    failpoint = os.environ.get(FAILPOINT_ENV)
    outcomes = []
    with session.points_to.deadline_scope(deadline):
        for index, spec in zip(task["indices"], specs):
            text = region_text(spec)
            try:
                if failpoint and text == failpoint:
                    raise RuntimeError(
                        "injected fleet failpoint at %s" % failpoint
                    )
                outcomes.append((index, "ok", session.check(spec)))
            except Exception as exc:  # noqa: BLE001 - failures travel as data
                outcomes.append(
                    (
                        index,
                        "error",
                        text,
                        "%s: %s" % (type(exc).__name__, exc),
                        traceback.format_exc(),
                    )
                )
    return {
        "pid": os.getpid(),
        "busy_seconds": time.perf_counter() - started,
        "adoption": adoption,
        "adoption_failures": adoption_failures,
        "degraded": bool(deadline is not None and deadline.was_exceeded),
        "outcomes": outcomes,
    }


def reset_worker_state():
    """Drop every adopted session (tests; harmless in production)."""
    while _SESSIONS:
        _drop_oldest()
