"""The pool's source-keyed program memo: byte-identical source skips
the frontend on ``/analyze``, ``/diff`` and ``/analyze-batch``.

Every test counts calls of the parser the pool reaches
(``repro.server.pool.parse_program``) with a monkeypatch.
"""

import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.client import AnalyzeClient, ClientError
from repro.errors import IRError
from repro.ir.printer import program_to_text
from repro.server import create_server
from repro.server import pool as pool_module
from repro.server.pool import SessionPool

LEAK = """
entry Main.main;
class Main {
  static method main() {
    c = new Cache @cache;
    loop L (*) {
      x = new Item @item;
      c.slot = x;
    }
  }
}
class Cache { field slot; }
class Item { }
"""

FIXED = LEAK.replace("c.slot = x;", "")

#: ``LEAK`` with different blanks and line breaks: the same program.
LEAK_REFORMATTED = "\n\n" + LEAK.replace("  ", "\t").replace(";", " ;")

CYCLIC = """
entry Main.main;
class Main { static method main() { a = new A @a; call a.m() @c; } }
class A extends B { method m() { return; } }
class B extends A { }
"""


@pytest.fixture
def parses(monkeypatch):
    """The list of sources the pool's parser was called with."""
    calls = []
    real = pool_module.parse_program

    def counting(source, *args, **kwargs):
        calls.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(pool_module, "parse_program", counting)
    return calls


@contextmanager
def _client(**server_kwargs):
    server = create_server(port=0, **server_kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield AnalyzeClient(server.server_address[1], api_version=1), server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _batch(client, *sources):
    records = list(
        client.analyze_batch(
            [{"id": "p%d" % i, "program": s} for i, s in enumerate(sources)]
        )
    )
    assert records[-1]["record"] == "summary"
    return records


class TestRepeatsSkipTheParser:
    def test_repeated_analyze(self, parses):
        with _client() as (client, server):
            first = client.analyze(LEAK)
            second = client.analyze(LEAK)
            stats = server.pool.stats()
        assert len(parses) == 1
        assert (first["warm"], second["warm"]) == (False, True)
        assert second["program_digest"] == first["program_digest"]
        assert _verdict(second["scan"]) == _verdict(first["scan"])
        assert stats["pool_source_hits"] == 1
        assert stats["pool_source_misses"] == 1

    def test_repeated_diff_pair(self, parses):
        with _client() as (client, _server):
            first = client.diff(LEAK, FIXED)
            second = client.diff(LEAK, FIXED)
        assert len(parses) == 2
        assert second["diff"] == first["diff"]
        assert second["before"]["warm"] and second["after"]["warm"]

    def test_repeated_batch_in_process(self, parses):
        with _client() as (client, _server):
            first = _batch(client, LEAK, FIXED)
            second = _batch(client, LEAK, FIXED)
        assert len(parses) == 2
        assert _regions(second) == _regions(first)

    def test_repeated_batch_through_the_fleet(self, parses):
        with _client(workers=1, transport="inline") as (client, _server):
            first = _batch(client, LEAK)
            second = _batch(client, LEAK)
        assert len(parses) == 1
        assert _regions(second) == _regions(first)
        assert _regions(first)[0]["leaking_sites"] == ["item"]

    def test_endpoints_share_the_memo(self, parses):
        with _client() as (client, _server):
            client.analyze(LEAK)
            client.diff(LEAK, FIXED)
            _batch(client, FIXED, LEAK)
        assert parses == [LEAK, FIXED]

    def test_javalib_prefix_is_part_of_the_key(self, parses):
        with _client() as (client, _server):
            plain = client.analyze(LEAK)
            client.analyze(LEAK, javalib=True)
            client.analyze(LEAK, javalib=True)
        assert len(parses) == 2
        assert parses[0] == LEAK and parses[1].endswith(LEAK)
        assert plain["scan"]["leaking_sites"] == ["item"]


def _verdict(scan):
    """A scan response without its timing profile."""
    return {key: value for key, value in scan.items() if key != "profile"}


def _regions(records):
    return sorted(
        (r for r in records if r["record"] == "region"),
        key=lambda r: (r["program_id"], r["index"]),
    )


class TestFormattingOnlyChange:
    def test_parses_once_then_warm_through_the_digest(self, parses):
        with _client() as (client, _server):
            cold = client.analyze(LEAK)
            reformatted = client.analyze(LEAK_REFORMATTED)
            again = client.analyze(LEAK_REFORMATTED)
        assert parses == [LEAK, LEAK_REFORMATTED]
        assert reformatted["program_digest"] == cold["program_digest"]
        assert reformatted["warm"] is True and again["warm"] is True
        assert _verdict(reformatted["scan"]) == _verdict(cold["scan"])


class TestFailuresAreNotMemoized:
    def test_parse_error_fails_on_every_repeat(self, parses):
        with _client() as (client, server):
            for _ in range(3):
                with pytest.raises(ClientError) as excinfo:
                    client.analyze("class A { method m( }")
                assert excinfo.value.status == 422
                assert excinfo.value.code == "analysis_error"
            assert server.pool.stats()["pool_source_misses"] == 3
        assert len(parses) == 3

    def test_invalid_program_fails_on_every_repeat(self, parses):
        source = "class A { method m() { x = y; } }"
        with _client() as (client, _server):
            for _ in range(2):
                with pytest.raises(ClientError) as excinfo:
                    client.analyze(source)
                assert excinfo.value.status == 422
            records = _batch(client, source)
        assert len(parses) == 3
        assert records[0]["record"] == "error"
        assert records[0]["error"]["code"] == "analysis_error"

    def test_cyclic_inheritance_is_refused_promptly(self):
        started = time.monotonic()
        with _client() as (client, _server):
            with pytest.raises(ClientError) as excinfo:
                client.analyze(CYCLIC)
        assert time.monotonic() - started < 5.0
        assert excinfo.value.status == 422
        assert excinfo.value.code == "analysis_error"
        assert "cyclic inheritance" in str(excinfo.value)

    def test_unknown_region_after_a_memo_hit_is_refused(self, parses):
        with _client() as (client, _server):
            client.analyze(LEAK)
            with pytest.raises(ClientError) as excinfo:
                client.analyze(LEAK, region="Main.main:NOPE")
        assert excinfo.value.status == 422
        assert len(parses) == 1


class TestMemoBound:
    def test_memo_holds_at_most_max_sessions_programs(self, parses):
        pool = SessionPool(max_sessions=2)
        sources = [LEAK.replace("@item", "@item%d" % i) for i in range(4)]
        for source in sources:
            pool.program_for(source)
        assert len(pool._programs) == 2
        pool.program_for(sources[3])  # newest: still memoized
        pool.program_for(sources[0])  # oldest: evicted, parsed again
        assert parses == sources + [sources[0]]
        assert pool.stats()["pool_source_hits"] == 1
        assert pool.stats()["pool_source_misses"] == 5

    def test_recently_used_source_survives(self, parses):
        pool = SessionPool(max_sessions=2)
        pool.program_for(LEAK)
        pool.program_for(FIXED)
        pool.program_for(LEAK)  # refresh LRU position
        pool.program_for(LEAK_REFORMATTED)  # evicts FIXED
        pool.program_for(LEAK)
        assert parses == [LEAK, FIXED, LEAK_REFORMATTED]

    def test_returns_the_digest_analyze_reports(self):
        pool = SessionPool()
        program, digest = pool.program_for(LEAK)
        _, info = pool.analyze(program, program_dig=digest)
        assert info["program_digest"] == digest
        _, info = pool.analyze(program)
        assert info["program_digest"] == digest and info["warm"] is True

    def test_invalid_source_raises_uncached(self, parses):
        pool = SessionPool()
        for _ in range(2):
            with pytest.raises(IRError):
                pool.program_for(CYCLIC)
        assert len(parses) == 2
        assert pool._programs == {}


class TestConcurrentLookups:
    def test_counts_and_bound_hold_under_contention(self):
        """More threads than cores hammer the memo with a short switch
        interval: every lookup is counted once and the bound holds."""
        pool = SessionPool(max_sessions=3)
        sources = [LEAK.replace("@item", "@item%d" % i) for i in range(5)]
        per_thread = 40
        errors = []

        def lookups(offset):
            try:
                for i in range(per_thread):
                    program, digest = pool.program_for(
                        sources[(offset + i) % len(sources)]
                    )
                    assert digest and program.entry == "Main.main"
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lookups, args=(n,)) for n in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = pool.stats()
        assert stats["pool_source_hits"] + stats["pool_source_misses"] == (
            6 * per_thread
        )
        assert len(pool._programs) <= 3


class TestSharedProgramsStayUnchanged:
    def test_memoized_program_text_survives_every_endpoint(self):
        with _client() as (client, server):
            program, _ = server.pool.program_for(LEAK)
            before = program_to_text(program)
            client.analyze(LEAK)
            client.analyze(LEAK, region="Main.main:L")
            client.diff(LEAK, FIXED)
            _batch(client, LEAK, FIXED)
            client.analyze(LEAK)
            assert server.pool.program_for(LEAK)[0] is program
            assert program_to_text(program) == before

    def test_fleet_batch_leaves_the_program_unchanged(self):
        with _client(workers=1, transport="inline") as (client, server):
            program, _ = server.pool.program_for(LEAK)
            before = program_to_text(program)
            _batch(client, LEAK)
            _batch(client, LEAK)
            assert server.pool.program_for(LEAK)[0] is program
            assert program_to_text(program) == before
