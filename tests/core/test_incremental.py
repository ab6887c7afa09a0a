"""Unit tests for incremental analysis: digests, the value-flow graph,
snapshots, the tiered engine, and leak diffing."""

import pytest

from repro.core.cache.digest import CACHE_SCHEMA_VERSION
from repro.core.config import DetectorConfig
from repro.core.incremental import (
    changed_scan,
    diff_analyses,
    digest_dirty,
    dispatch_signature,
    load_snapshot,
    method_digests,
    save_snapshot,
    scan_fingerprints,
    snapshot_scan,
    structure_digest,
)
from repro.core.incremental.flowgraph import FlowGraph, build_flowgraph
from repro.core.pipeline.session import AnalysisSession
from repro.core.scan import scan_all_loops
from repro.errors import CacheError
from repro.lang import parse_program

# Two independent leaky loops in unrelated classes with disjoint field
# names: an edit in one worker must leave the other servable.
TWO_WORKER_SOURCE = """
entry Main.main;

class Main {
  static method main() {
    a = new AWorker @aw;
    call a.runA() @call_a;
    b = new BWorker @bw;
    call b.runB() @call_b;
  }
}

class AWorker {
  field asink;
  method runA() {
    l = new AList @alist;
    this.asink = l;
    loop LA (*) {
      o = new AObj @aobj;
      s = this.asink;
      s.aelem = o;
    }
  }
}

class BWorker {
  field bsink;
  method runB() {
    l = new BList @blist;
    this.bsink = l;
    loop LB (*) {
      o = new BObj @bobj;
      s = this.bsink;
      s.belem = o;
    }
  }
}

class Helper {
  method help() { x = new AObj @hobj; return x; }
}

class AList { field aelem; }
class BList { field belem; }
class AObj { }
class BObj { }
"""

#: Local edit in runA: digest moves, dispatch signature does not.
LOCAL_EDIT = ("      o = new AObj @aobj;", "      o = new AObj @aobj;\n      o2 = o;")
#: Dispatch edit in runA: a new call and a new instantiation.
DISPATCH_EDIT = (
    "      o = new AObj @aobj;",
    "      o = new AObj @aobj;\n      h = new Helper @huse;\n"
    "      hv = call h.help() @chelp;",
)


def _snapshot(source, config=None):
    program = parse_program(source)
    session = AnalysisSession(program, config)
    result = scan_all_loops(program, session=session)
    return program, result, snapshot_scan(
        program, session.config, result, session=session
    )


def _edited(edit):
    old, new = edit
    assert old in TWO_WORKER_SOURCE
    return parse_program(TWO_WORKER_SOURCE.replace(old, new))


class TestDigests:
    def test_method_digest_stable_across_reparse(self):
        d1 = method_digests(parse_program(TWO_WORKER_SOURCE))
        d2 = method_digests(parse_program(TWO_WORKER_SOURCE))
        assert d1 == d2

    def test_local_edit_dirties_exactly_one_method(self):
        before = method_digests(parse_program(TWO_WORKER_SOURCE))
        after = method_digests(_edited(LOCAL_EDIT))
        dirty, deleted = digest_dirty(before, after)
        assert dirty == {"AWorker.runA"}
        assert deleted == set()

    def test_structure_digest_ignores_body_edits(self):
        assert structure_digest(parse_program(TWO_WORKER_SOURCE)) == (
            structure_digest(_edited(LOCAL_EDIT))
        )

    def test_structure_digest_sees_new_class(self):
        grown = TWO_WORKER_SOURCE + "\nclass Extra { field x; }\n"
        assert structure_digest(parse_program(TWO_WORKER_SOURCE)) != (
            structure_digest(parse_program(grown))
        )

    def test_dispatch_signature_ignores_local_edit(self):
        before = parse_program(TWO_WORKER_SOURCE).method("AWorker.runA")
        after = _edited(LOCAL_EDIT).method("AWorker.runA")
        assert dispatch_signature(before) == dispatch_signature(after)

    def test_dispatch_signature_sees_new_call_and_new(self):
        before = parse_program(TWO_WORKER_SOURCE).method("AWorker.runA")
        after = _edited(DISPATCH_EDIT).method("AWorker.runA")
        assert dispatch_signature(before) != dispatch_signature(after)


class TestFlowGraph:
    def test_copy_edge_and_closure(self):
        program = parse_program(TWO_WORKER_SOURCE)
        session = AnalysisSession(program)
        graph = build_flowgraph(program, session.callgraph)
        seeds = graph.seeds_for(["AWorker.runA"])
        forward = graph.closure(seeds, "forward")
        # runA's objects reach its own sink field but never B's.
        assert ("f", "asink") in forward
        assert ("f", "bsink") not in forward
        assert ("v", "BWorker.runB", "o") not in forward

    def test_invoke_binds_args_and_returns(self):
        program = _edited(DISPATCH_EDIT)
        session = AnalysisSession(program)
        graph = build_flowgraph(program, session.callgraph)
        forward = graph.closure(graph.seeds_for(["Helper.help"]), "forward")
        # Helper.help's returned value flows to the caller's target.
        assert ("v", "AWorker.runA", "hv") in forward

    def test_plain_round_trip_preserves_closures(self):
        program = parse_program(TWO_WORKER_SOURCE)
        session = AnalysisSession(program)
        graph = build_flowgraph(program, session.callgraph)
        hydrated = FlowGraph.from_plain(graph.to_plain())
        for sigs in (["AWorker.runA"], ["BWorker.runB"], ["Main.main"]):
            seeds = graph.seeds_for(sigs)
            assert seeds == hydrated.seeds_for(sigs)
            assert graph.closure(seeds, "forward") == hydrated.closure(
                seeds, "forward"
            )
            assert graph.closure(seeds, "backward") == hydrated.closure(
                seeds, "backward"
            )


class TestSnapshotDigest:
    def test_snapshot_takes_a_known_digest(self, monkeypatch):
        from repro.core.cache.digest import program_digest
        from repro.core.incremental import snapshot as snapshot_module

        program = parse_program(TWO_WORKER_SOURCE)
        session = AnalysisSession(program)
        result = scan_all_loops(program, session=session)
        digest = program_digest(program)
        monkeypatch.setattr(
            snapshot_module, "program_digest", pytest.fail
        )
        payload = snapshot_scan(
            program, session.config, result, session=session,
            program_dig=digest,
        )
        assert payload["program_digest"] == digest


class TestSnapshotIO:
    def test_save_load_round_trip(self, tmp_path):
        _program, _result, payload = _snapshot(TWO_WORKER_SOURCE)
        path = str(tmp_path / "scan.snap")
        save_snapshot(path, payload)
        assert load_snapshot(path)["program_digest"] == payload["program_digest"]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CacheError):
            load_snapshot(str(path))

    def test_load_rejects_wrong_schema(self, tmp_path):
        _program, _result, payload = _snapshot(TWO_WORKER_SOURCE)
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path = str(tmp_path / "future.snap")
        save_snapshot(path, payload)
        with pytest.raises(CacheError):
            load_snapshot(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CacheError):
            load_snapshot(str(tmp_path / "absent.snap"))


class TestChangedScan:
    def test_unchanged_program_serves_everything(self):
        program, cold, payload = _snapshot(TWO_WORKER_SOURCE)
        result, outcome = changed_scan(parse_program(TWO_WORKER_SOURCE), payload)
        assert outcome.fast_path
        assert not outcome.rechecked
        assert sorted(outcome.served) == ["AWorker.runA:LA", "BWorker.runB:LB"]
        assert result.to_json(canonical=True) == cold.to_json(canonical=True)

    def test_known_identical_digest_skips_change_detection(self, monkeypatch):
        """A caller-supplied digest equal to the snapshot's proves the
        program unchanged: no method digests, no structure digest, no
        flow-graph decode and no closure."""
        from repro.core.cache.digest import program_digest
        from repro.core.incremental import engine

        program, cold, payload = _snapshot(TWO_WORKER_SOURCE)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("change detection ran on an identical program")

        for name in ("method_digests", "structure_digest", "_tainted_over"):
            monkeypatch.setattr(engine, name, forbidden)
        monkeypatch.setattr(engine.FlowGraph, "from_plain", forbidden)
        result, outcome = changed_scan(
            parse_program(TWO_WORKER_SOURCE),
            payload,
            program_dig=program_digest(program),
        )
        assert outcome.fast_path and not outcome.full_fallback
        assert outcome.dirty_methods == set()
        assert sorted(outcome.served) == ["AWorker.runA:LA", "BWorker.runB:LB"]
        assert result.to_json(canonical=True) == cold.to_json(canonical=True)

    def test_known_different_digest_still_detects_the_edit(self):
        from repro.core.cache.digest import program_digest

        _program, _cold, payload = _snapshot(TWO_WORKER_SOURCE)
        edited = _edited(LOCAL_EDIT)
        result, outcome = changed_scan(
            edited, payload, program_dig=program_digest(edited)
        )
        assert outcome.dirty_methods == {"AWorker.runA"}
        assert outcome.rechecked == ["AWorker.runA:LA"]
        cold = scan_all_loops(edited)
        assert result.to_json(canonical=True) == cold.to_json(canonical=True)

    def test_known_digest_does_not_bypass_a_config_change(self):
        from repro.core.cache.digest import program_digest

        program, _cold, payload = _snapshot(TWO_WORKER_SOURCE)
        _result, outcome = changed_scan(
            program,
            payload,
            config=DetectorConfig(strong_updates=True),
            program_dig=program_digest(program),
        )
        assert outcome.full_fallback

    def test_local_edit_rechecks_only_touched_region(self):
        _program, _cold, payload = _snapshot(TWO_WORKER_SOURCE)
        edited = _edited(LOCAL_EDIT)
        result, outcome = changed_scan(edited, payload)
        assert outcome.fast_path
        assert outcome.dirty_methods == {"AWorker.runA"}
        assert outcome.rechecked == ["AWorker.runA:LA"]
        assert outcome.served == ["BWorker.runB:LB"]
        cold = scan_all_loops(edited)
        assert result.to_json(canonical=True) == cold.to_json(canonical=True)

    def test_dispatch_edit_takes_slow_path_same_answer(self):
        _program, _cold, payload = _snapshot(TWO_WORKER_SOURCE)
        edited = _edited(DISPATCH_EDIT)
        result, outcome = changed_scan(edited, payload)
        assert not outcome.fast_path
        assert not outcome.full_fallback
        assert "AWorker.runA:LA" in outcome.rechecked
        cold = scan_all_loops(edited)
        assert result.to_json(canonical=True) == cold.to_json(canonical=True)

    def test_new_class_forces_full_fallback(self):
        _program, _cold, payload = _snapshot(TWO_WORKER_SOURCE)
        grown = parse_program(
            TWO_WORKER_SOURCE + "\nclass Extra { field x; }\n"
        )
        result, outcome = changed_scan(grown, payload)
        assert outcome.full_fallback
        assert "structure" in outcome.fallback_reason
        cold = scan_all_loops(grown)
        assert result.to_json(canonical=True) == cold.to_json(canonical=True)

    def test_config_change_forces_full_fallback(self):
        _program, _cold, payload = _snapshot(TWO_WORKER_SOURCE)
        program = parse_program(TWO_WORKER_SOURCE)
        _result, outcome = changed_scan(
            program, payload, config=DetectorConfig(strong_updates=True)
        )
        assert outcome.full_fallback
        assert "configuration" in outcome.fallback_reason

    def test_model_threads_forces_full_fallback(self):
        config = DetectorConfig(model_threads=True)
        program, _cold, payload = _snapshot(TWO_WORKER_SOURCE, config)
        _result, outcome = changed_scan(program, payload, config=config)
        assert outcome.full_fallback
        assert "model_threads" in outcome.fallback_reason

    def test_schema_mismatch_forces_full_fallback(self):
        program, _cold, payload = _snapshot(TWO_WORKER_SOURCE)
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        _result, outcome = changed_scan(program, payload)
        assert outcome.full_fallback
        assert "schema" in outcome.fallback_reason

    def test_counters_reported_in_scan_result(self):
        program, _cold, payload = _snapshot(TWO_WORKER_SOURCE)
        result, outcome = changed_scan(program, payload)
        assert result.cache_counters["incremental_served"] == 2
        assert result.cache_counters["incremental_rechecked"] == 0
        assert "(fast path)" in outcome.format()

    def test_explicit_specs_limit_the_scan(self):
        program, _cold, payload = _snapshot(TWO_WORKER_SOURCE)
        from repro.core.regions import RegionSpec

        result, outcome = changed_scan(
            program, payload, specs=[RegionSpec("BWorker.runB", "LB")]
        )
        assert len(result.entries) == 1
        assert outcome.served == ["BWorker.runB:LB"]

    def test_finding_kind_survives_the_served_path(self):
        """The report codec carries ``kind``: a resource-leak finding
        served from a snapshot must not decay into a heap-leak."""
        from repro.core.report import RESOURCE_LEAK
        from repro.javalib import library_source

        source = library_source("filestream") + """
entry Main.main;
class Main {
  static method main() {
    loop L (*) {
      f = new FileStream @stream;
      call f.open() @do_open;
    }
  }
}
"""
        program, cold, payload = _snapshot(source)
        result, outcome = changed_scan(parse_program(source), payload)
        assert outcome.fast_path and not outcome.rechecked
        (spec_report,) = result.entries
        (finding,) = spec_report[1].findings
        assert finding.kind == RESOURCE_LEAK
        assert result.to_json(canonical=True) == cold.to_json(canonical=True)


class TestDiffing:
    def test_identical_analyses_are_clean(self):
        _program, cold, _payload = _snapshot(TWO_WORKER_SOURCE)
        delta = diff_analyses(cold, cold.as_dict())
        assert delta.is_clean
        assert not delta.is_regression
        assert len(delta.unchanged) == cold.total_findings()

    def test_fix_and_regression_detected(self):
        _program, before, _payload = _snapshot(TWO_WORKER_SOURCE)
        # Break the A leak by dropping the store into the sink list.
        fixed_src = TWO_WORKER_SOURCE.replace("      s.aelem = o;\n", "")
        after = scan_all_loops(parse_program(fixed_src))
        delta = diff_analyses(before, after)
        assert delta.fixed and not delta.new
        assert not delta.is_regression
        reverse = diff_analyses(after, before)
        assert reverse.is_regression
        assert reverse.new == delta.fixed

    def test_fingerprints_match_between_result_and_dict(self):
        _program, cold, _payload = _snapshot(TWO_WORKER_SOURCE)
        import json

        round_tripped = json.loads(cold.to_json())
        assert scan_fingerprints(cold) == scan_fingerprints(round_tripped)

    def test_delta_json_counts(self):
        _program, cold, _payload = _snapshot(TWO_WORKER_SOURCE)
        delta = diff_analyses(cold, cold)
        doc = delta.as_dict()
        assert doc["counts"]["unchanged"] == len(delta.unchanged)
        assert doc["counts"]["new"] == 0
        text = delta.format()
        assert "leak diff:" in text
