"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

They run each workload for its minimum number of rounds, so the suite
takes several minutes.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = run.WORKLOADS
COUNT_METRICS = ("callgraph.edges", "pta.var_queries", "pipeline.regions",
                 "fleet.shards")

#: Self-time metrics each workload must report as nonzero: the layers
#: predicted to run there.  A renamed wrap target fails install; a
#: wrapper that stops being called shows up here as a zero.
FRONTEND = ("lang.lex_ms", "lang.parse_ms", "lang.lower_ms", "ir.validate_ms")
ANALYSIS = ("callgraph.rta_ms", "pta.pag_ms", "pta.solve_ms",
            "summaries.build_ms", "summaries.scope_ms", "pipeline.region_ms")
PREDICTED = {
    "corpus-cold": FRONTEND + ANALYSIS + ("infer.catalog_ms",
                                          "canonical.render_ms"),
    "tiled-scale": FRONTEND + ANALYSIS + ("canonical.render_ms",),
    "serve-mix": FRONTEND + ANALYSIS + (
        "server.pool_ms", "cache.digest_ms", "incremental.changed_scan_ms",
        "incremental.snapshot_ms", "cache.shared_snapshot_ms",
        "fleet.shards", "server.pool_hit_ratio"),
}


def _bench(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    assert len(lines) >= 2, proc.stderr
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def outputs():
    cache = {}

    def get(workload, trace, attempt=0):
        key = (workload, trace, attempt)
        if key not in cache:
            cache[key] = _bench(workload, trace)
        return cache[key]

    return get


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests_and_counts(outputs, workload):
    _rc, first_detail, first = outputs(workload, 1, 0)
    _rc, second_detail, second = outputs(workload, 1, 1)
    assert first_detail["sequence"] == second_detail["sequence"]
    for name in COUNT_METRICS:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_with_its_unit(outputs, declared, workload,
                                            trace):
    _rc, detail, result = outputs(workload, trace)
    section = declared["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"] for m in section} == set(result["metrics"])
    for metric in section:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert detail["cpu_count"] >= 1
    assert detail["attempted"] == result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrapped_layers_record_spans(outputs, workload):
    _rc, _detail, result = outputs(workload, 1)
    zero = [name for name in PREDICTED[workload]
            if not result["metrics"][name]["value"]]
    assert not zero


@pytest.mark.parametrize("workload", ("corpus-cold", "tiled-scale"))
def test_spans_cover_request_time(outputs, workload):
    _rc, _detail, result = outputs(workload, 1)
    assert result["metrics"]["bench.span_coverage"]["value"] >= 0.9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_answers_are_correct(outputs, workload):
    returncode, detail, result = outputs(workload, 0)
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and returncode == 0


@pytest.mark.xfail(strict=True, reason="a fleet worker's eviction of an "
                   "adopted program raises BufferError (README, Known defect)")
def test_fleet_adopts_a_fifth_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.bench.scale import build_scaled
    from repro.client import AnalyzeClient
    from repro.server.worker import MAX_ADOPTED
    from workloads import Server, one_method_edit

    scaled = build_scaled("memocache", 4)
    server = Server()
    try:
        client = AnalyzeClient(server.url)
        errors = 0
        for tag in range(MAX_ADOPTED + 1):
            for item in client.analyze_batch(
                    [one_method_edit(scaled.source, tag)]):
                errors += item["record"] == "error"
    finally:
        server.stop()
    assert errors == 0


def test_install_fails_on_a_renamed_target(monkeypatch):
    import spans

    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("repro.lang", "no_such_function", None, "lang.gone", None),))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = Tracer()
    with pytest.raises(LookupError):
        tracer.install(server=False)
    tracer.uninstall()
    import repro.lang

    assert not hasattr(repro.lang.parse, "__wrapped__")


def test_self_time_subtracts_children():
    import spans

    records = [
        ["outer", 0.0, 10.0, -1, 1, None],
        ["inner", 1.0, 4.0, 0, 1, None],
        ["inner", 5.0, 6.0, 0, 1, None],
    ]
    own = spans.self_times(records)
    assert own == {0: 6.0, 1: 3.0, 2: 1.0}


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(1000)))[0] == 99.0
    assert run.tail(list(range(100)))[0] == 90.0
    assert run.tail(list(range(15)))[0] == 50.0


def test_harrell_davis_tracks_the_percentile():
    values = list(range(1, 1002))
    assert abs(run.harrell_davis(values, 50.0) - 501) < 1
    assert abs(run.harrell_davis(values, 90.0) - 901) < 2
    assert run.harrell_davis([7.0], 75.0) == 7.0
