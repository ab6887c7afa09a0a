"""End-to-end and per-layer benchmark of the leak checker.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 30 --trace 0

Workloads: ``corpus-cold`` and ``tiled-scale`` analyze in-process;
``serve-mix`` drives ``repro serve --workers 1`` over loopback.  With
``--trace 0`` the run is untraced and the last line of standard output
holds the end-to-end metrics; with ``--trace 1`` the layer wrappers of
``spans.py`` record spans and the last line holds the per-layer
metrics.  The line before it is a JSON detail record: sample counts,
the percentile each tail names, ``cpu_count``, ``fail_ratio`` and the
first requests of the seeded sequence.  Every answer is checked; any
wrong answer, error record or HTTP error makes the exit code 1.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("corpus-cold", "tiled-scale", "serve-mix")
#: Set-ups measured per run besides the run's own; setup_s is the median.
SETUP_PROBES = 6
#: Reference loops timed after each set-up, with nothing else running;
#: their median over the run scales every set-up to reference speed.
SETUP_REF_LOOPS = 15
#: Tail percentiles tried, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Pipeline stages reported by ``stats.stages`` at default settings.
STAGES = ("contexts", "region_stmts", "summaries", "store_edges", "flows_out",
          "flows_in", "matching", "pivot", "resources")

#: Per-layer self-time metrics: metric -> span name.
SELF_MS = {
    "lang.lex_ms": "lang.lex",
    "lang.parse_ms": "lang.parse",
    "lang.lower_ms": "lang.lower",
    "ir.validate_ms": "ir.validate",
    "callgraph.rta_ms": "callgraph.rta",
    "pta.pag_ms": "pta.pag",
    "pta.solve_ms": "pta.solve",
    "summaries.build_ms": "summaries.build",
    "summaries.scope_ms": "summaries.scope",
    "pipeline.region_ms": "pipeline.region",
    "infer.catalog_ms": "infer.catalog",
    "canonical.render_ms": "canonical.render",
    "incremental.changed_scan_ms": "incremental.changed_scan",
    "incremental.snapshot_ms": "incremental.snapshot",
    "cache.digest_ms": "cache.digest",
    "cache.shared_snapshot_ms": "cache.shared_snapshot",
    "server.pool_ms": "server.pool",
}
#: Per-request counts summed from span counts: metric -> (span, field).
SPAN_COUNTS = {
    "callgraph.edges": ("callgraph.rta", "edges"),
    "pta.scoped_solves": ("summaries.scope", "scoped_solves"),
    "infer.candidates": ("infer.catalog", "candidates"),
    "incremental.served": ("incremental.changed_scan", "served"),
    "incremental.rechecked": ("incremental.changed_scan", "rechecked"),
}
#: Per-request counts from the scan profile: metric -> counter.
PROFILE_COUNTS = {
    "pta.var_queries": "var_queries",
    "pta.cfl_queries": "cfl_queries",
    "pta.andersen_fallbacks": "andersen_fallbacks",
    "summaries.prefilter_hits": "summary_prefilter_hits",
}


# -- statistics ---------------------------------------------------------------


def harrell_davis(values, pct):
    """Harrell-Davis estimate of a percentile of a non-empty list: a
    Beta-weighted mean of all order statistics, steadier on small
    samples than any single one."""
    ordered = sorted(values)
    n = len(ordered)
    a = pct / 100.0 * (n + 1)
    b = (1.0 - pct / 100.0) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(x)
                             + (b - 1) * math.log1p(-x))
        weights.append(mass)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(values):
    """``(pct, value)``: the highest ladder percentile with at least ten
    samples beyond it (the median when there are fewer than 20)."""
    for pct in TAIL_LADDER:
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            return pct, harrell_davis(values, pct)
    return 50.0, harrell_davis(values, 50.0)


def median(values, default=0.0):
    return statistics.median(values) if values else default


# -- end-to-end ---------------------------------------------------------------


def request_classes(workload, records):
    """``(cold, warm, edit, batch)`` record lists.

    In-process there is no pool and no fleet: a repeat read, an edit
    and a whole-program scan all take the cold path, so the service
    classes are the cold requests themselves.  On serve-mix the cold
    requests are the edits, the only pool misses.
    """
    if workload != "serve-mix":
        return records, records, records, records
    by_kind = {kind: [r for r in records if r["kind"] == kind]
               for kind in ("warm", "edit", "batch")}
    return by_kind["edit"], by_kind["warm"], by_kind["edit"], by_kind["batch"]


def per_round_rate(records, field):
    """Median over rounds of ``sum(field) / busy seconds`` of the round."""
    rounds = {}
    for record in records:
        total = rounds.setdefault(record["round"], [0.0, 0.0])
        total[0] += record[field]
        total[1] += record["ms"] / 1000.0
    return median([amount / busy for amount, busy in rounds.values() if busy])


def growth_exponent(records):
    """Slope of log latency over log program size between the smallest
    and the largest program the cold requests analyzed."""
    by_key = {}
    for record in records:
        entry = by_key.setdefault(record["key"], [record["statements"], []])
        entry[1].append(record["ms"])
    small = min(by_key.values(), key=lambda entry: entry[0])
    large = max(by_key.values(), key=lambda entry: entry[0])
    return (math.log(median(large[1]) / median(small[1]))
            / math.log(large[0] / small[0]))


def at_reference_speed(records):
    """Copies of ``records`` with times scaled to reference speed by the
    median reference loop of their round."""
    from workloads import speed_factor

    refs = {}
    for record in records:
        refs.setdefault(record["round"], []).append(record["ref_ms"])
    factor = {key: speed_factor(median(values))
              for key, values in refs.items()}
    scaled = []
    for record in records:
        copy = dict(record)
        copy["ms"] = record["ms"] * factor[record["round"]]
        if "first_ms" in record:
            copy["first_ms"] = record["first_ms"] * factor[record["round"]]
        scaled.append(copy)
    return scaled


def end_to_end(workload, records, setup, rss_mb):
    raw = request_classes(workload, records)
    cold, warm, edit, batch = request_classes(workload,
                                              at_reference_speed(records))
    cold_ms = [r["ms"] for r in cold]
    warm_ms = [r["ms"] for r in warm]
    edit_ms = [r["ms"] for r in edit]
    cold_pct, cold_tail = tail(cold_ms)
    warm_pct, warm_tail = tail(warm_ms)
    first = "first_ms" if workload == "serve-mix" else "ms"
    values = {
        "setup_s": (median(setup), "s"),
        "cold_p50_ms": (median(cold_ms), "ms"),
        "cold_tail_ms": (cold_tail, "ms"),
        "kstmts_per_s": (per_round_rate(cold, "statements") / 1000.0,
                         "kstmt/s"),
        "regions_per_s": (per_round_rate(cold, "regions"), "1/s"),
        "growth_exp": (growth_exponent(cold), "ratio"),
        "warm_p50_ms": (median(warm_ms), "ms"),
        "warm_tail_ms": (warm_tail, "ms"),
        "edit_p50_ms": (median(edit_ms), "ms"),
        "batch_p50_ms": (median([r["ms"] for r in batch]), "ms"),
        "batch_first_ms": (median([r[first] for r in batch]), "ms"),
        "warm_cold_ratio": (median(warm_ms) / median(edit_ms), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {
        "samples": {
            "setup_s": len(setup), "cold": len(cold), "warm": len(warm),
            "edit": len(edit), "batch": len(batch),
        },
        "tail_percentiles": {"cold_tail_ms": "p%g" % cold_pct,
                             "warm_tail_ms": "p%g" % warm_pct},
        "wall_p50_ms": {
            name: median([r["ms"] for r in group])
            for name, group in zip(("cold", "warm", "edit", "batch"), raw)
        },
    }
    return values, detail


# -- per-layer ----------------------------------------------------------------


def attribute(records, spans, served):
    """Per traced request: ``(self ms by span name, counts by
    (span, field), top-level span seconds)``.

    In-process a request's spans sit under its ``bench.request`` root;
    for serve-mix they are the service's root spans that started
    inside the request's client-side interval."""
    from spans import COUNTS, END, NAME, START, children_of, self_times, \
        subtree

    kids = children_of(spans)
    own = self_times(spans)
    roots = sorted(kids.get(-1, ()), key=lambda i: spans[i][START])
    out = []
    cursor = 0
    for record in records:
        if served:
            top = []
            while cursor < len(roots) and spans[roots[cursor]][START] < \
                    record["start"]:
                cursor += 1
            while cursor < len(roots) and spans[roots[cursor]][START] <= \
                    record["end"]:
                top.append(roots[cursor])
                cursor += 1
            members = [i for root in top for i in subtree(kids, root)]
        else:
            top = kids.get(record["root"], [])
            members = [i for i in subtree(kids, record["root"])
                       if i != record["root"]]
        selfs = {}
        counts = {}
        for index in members:
            name = spans[index][NAME]
            selfs[name] = selfs.get(name, 0.0) + own.get(index, 0.0) * 1000.0
            for field, amount in (spans[index][COUNTS] or {}).items():
                counts[(name, field)] = counts.get((name, field), 0) + amount
        covered = sum(spans[i][END] - spans[i][START] for i in top
                      if spans[i][END] is not None)
        out.append((selfs, counts, covered))
    return out


def per_layer(workload, records, spans, extra):
    """Per-layer metrics from the traced requests of the run."""
    served = workload == "serve-mix"
    traced = [r for r in records if r["traced"]]
    attributed = attribute(traced, spans, served)
    first_round = min(r["round"] for r in traced)
    counted = [i for i, r in enumerate(traced) if r["round"] == first_round]

    def self_ms(name):
        return median([selfs[name] for selfs, _c, _v in attributed
                       if name in selfs])

    def count(values_of):
        """Median over the first traced round's requests that ran the
        layer: a fixed, seeded set, so counts repeat exactly."""
        return median([v for v in map(values_of, counted) if v])

    metrics = {}
    for metric, name in SELF_MS.items():
        metrics[metric] = (self_ms(name), "ms")
    rates = [selfs_counts[1].get(("lang.lex", "tokens"), 0)
             / selfs_counts[0]["lang.lex"]
             for selfs_counts in attributed
             if selfs_counts[0].get("lang.lex")]
    metrics["lang.tokens_per_ms"] = (median(rates), "1/ms")
    for metric, key in SPAN_COUNTS.items():
        metrics[metric] = (count(lambda i, k=key: attributed[i][1].get(k, 0)),
                           "count")
    for metric, counter in PROFILE_COUNTS.items():
        metrics[metric] = (count(
            lambda i, c=counter: traced[i]["profile"].get("counters", {})
            .get(c, 0)), "count")
    metrics["callgraph.methods"] = (count(lambda i: traced[i]["methods"]),
                                    "count")
    metrics["pipeline.regions"] = (count(lambda i: traced[i]["regions"]),
                                   "count")
    for stage in STAGES:
        metrics["pipeline.%s_ms" % stage] = (median(
            [r["profile"]["stages"].get(stage, 0.0) * 1000.0 for r in traced
             if r["profile"].get("stages")]), "ms")
    hit_ratios = []
    for record in traced:
        counters = record["profile"].get("counters", {})
        hits = counters.get("store_edge_cache_hits", 0)
        misses = counters.get("store_edge_cache_misses", 0)
        if hits + misses:
            hit_ratios.append(hits / (hits + misses))
    metrics["pipeline.store_edge_hit_ratio"] = (median(hit_ratios), "ratio")
    if served:
        wire = [r["ms"] - covered * 1000.0
                for r, (_s, _c, covered) in zip(traced, attributed)]
    else:
        wire = []
    metrics["server.wire_ms"] = (median(wire), "ms")
    for name, value, unit in extra:
        metrics[name] = (value, unit)
    cold = request_classes(workload, records)[0]
    metrics["bench.ref_loop_ms"] = (median([r["ref_ms"] for r in records]),
                                    "ms")
    metrics["bench.trace_overhead"] = (
        median([r["ms"] for r in cold if r["traced"]])
        / median([r["ms"] for r in cold if not r["traced"]], 1.0), "ratio")
    coverage = [covered * 1000.0 / r["ms"]
                for r, (_s, _c, covered) in zip(traced, attributed)]
    metrics["bench.span_coverage"] = (median(coverage), "ratio")
    return metrics, layer_shares(traced, attributed)


def layer_shares(traced, attributed):
    """Per request class (``kind:key``): the span with the largest median
    self time, and the median share of wall time in lang + ir spans."""
    groups = {}
    for record, (selfs, _counts, _covered) in zip(traced, attributed):
        groups.setdefault("%s:%s" % (record["kind"], record["key"]),
                          []).append((record, selfs))
    out = {}
    for group, members in sorted(groups.items()):
        names = {name for _r, selfs in members for name in selfs}
        largest = max(names, key=lambda n: median(
            [selfs.get(n, 0.0) for _r, selfs in members]), default=None)
        frontend = median([
            sum(ms for name, ms in selfs.items()
                if name.startswith(("lang.", "ir."))) / record["ms"]
            for record, selfs in members])
        out[group] = {"largest_self": largest, "frontend_share": frontend}
    return out


def service_extra(before, after, records, refused):
    """serve-mix counts read from ``/metrics`` around the timed run."""
    def delta(section, key):
        return after[section].get(key, 0) - before[section].get(key, 0)

    hits = delta("counters", "warm_hits")
    misses = delta("counters", "cold_misses")
    fleet_after, fleet_before = after["fleet"], before["fleet"]
    batches = [r for r in records if r["kind"] == "batch"]
    shards = fleet_after["shards_total"] - fleet_before["shards_total"]
    busy = sum(w["busy_seconds"] for w in fleet_after["per_worker"].values()) \
        - sum(w["busy_seconds"] for w in fleet_before["per_worker"].values())
    adopt = {k: fleet_after["adoptions"].get(k, 0)
             - fleet_before["adoptions"].get(k, 0)
             for k in fleet_after["adoptions"]}
    gaps = [gap for r in batches for gap in r["gaps_ms"]]
    return [
        ("server.pool_hit_ratio", hits / max(1, hits + misses), "ratio"),
        ("server.refused", refused, "count"),
        ("fleet.shards", shards / max(1, len(batches)), "count"),
        ("fleet.busy_share",
         busy / max(1e-9, sum(r["ms"] for r in batches) / 1000.0), "ratio"),
        ("fleet.adopt_cold_ratio",
         adopt.get("cold", 0) / max(1, sum(adopt.values())), "ratio"),
        ("fleet.record_gap_ms", median(gaps), "ms"),
    ]


#: The service metrics, all zero on the in-process workloads.
SERVICE_METRICS = (("server.pool_hit_ratio", "ratio"), ("server.refused",
                   "count"), ("fleet.shards", "count"),
                   ("fleet.busy_share", "ratio"),
                   ("fleet.adopt_cold_ratio", "ratio"),
                   ("fleet.record_gap_ms", "ms"))


# -- driving ------------------------------------------------------------------


def setup_probe(workload, seed):
    """One in-process set-up, timed from before ``import repro`` to the
    end of the warm-up pass, minus input generation."""
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import repro  # noqa: F401
    from workloads import InProcess

    bench = InProcess(workload, seed)
    generated = time.perf_counter()
    inputs = bench.make_inputs()
    generation = time.perf_counter() - generated
    warmed = bench.warm_up(inputs)
    setup = time.perf_counter() - started - generation
    return bench, warmed, setup


def settled_refs():
    from workloads import ref_loop_ms

    return [ref_loop_ms() for _ in range(SETUP_REF_LOOPS)]


def at_reference_speed_setups(setups, refs):
    from workloads import speed_factor

    factor = speed_factor(median(refs))
    return [seconds * factor for seconds in setups]


def run_in_process(args):
    bench, warmed, setup = setup_probe(args.workload, args.seed)
    refs = settled_refs()
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    bench.run(bench.inputs, args.seconds, tracer=tracer)
    import resource

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup]
    attempted = len(bench.records) + warmed
    failed = bench.failures.count
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if probe.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % probe.stderr)
        result = json.loads(probe.stdout.splitlines()[-1])
        setups.append(result["setup_s"])
        refs += settled_refs()
        attempted += result["attempted"]
        failed += result["failed"]
    spans = tracer.spans if tracer else []
    setups = at_reference_speed_setups(setups, refs)
    return bench, setups, rss_mb, attempted, failed, spans, []


def run_serve(args, trace_dir):
    sys.path.insert(0, SRC)
    from repro.client import AnalyzeClient
    from workloads import Server, ServeMix

    bench = ServeMix(args.seed)
    inputs = bench.make_inputs()
    trace_path = os.path.join(trace_dir, "serve-spans-%d-%d.json"
                              % (args.seed, os.getpid())) if args.trace \
        else None

    def start(path=None):
        started = time.perf_counter()
        server = Server(trace_path=path)
        try:
            client = AnalyzeClient(server.url)
            bench.prime(client, inputs)
        except BaseException:
            server.stop()
            raise
        return server, client, time.perf_counter() - started

    server, client, setup = start(trace_path)
    try:
        before = client.metrics()
        bench.run(server, client, inputs, args.seconds, traced=args.trace)
        after = client.metrics()
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    spans = []
    if trace_path:
        with open(trace_path) as handle:
            spans = json.load(handle)
        os.remove(trace_path)
    extra = service_extra(before, after, bench.records, bench.refused)
    setups = [setup]
    refs = []
    for _ in range(SETUP_PROBES):
        probe, _client, seconds = start()
        probe.stop()
        setups.append(seconds)
        refs += settled_refs()
    setups = at_reference_speed_setups(setups, refs)
    attempted = len(bench.records) + (SETUP_PROBES + 1) * (len(inputs["order"])
                                                           + 1)
    return (bench, setups, rss_mb, attempted, bench.failures.count, spans,
            extra)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    golden_dir = os.path.join(ROOT, "tests", "golden")
    if not (os.path.isdir(os.path.join(SRC, "repro"))
            and os.path.isdir(golden_dir)):
        print("error: run from a repository checkout (needs src/repro and "
              "tests/golden)", file=sys.stderr)
        return 2
    if args.setup_probe:
        bench, warmed, setup = setup_probe(args.workload, args.seed)
        print(json.dumps({"setup_s": setup, "attempted": warmed,
                          "failed": bench.failures.count}))
        return 0
    trace_dir = os.path.join(HERE, ".out")
    os.makedirs(trace_dir, exist_ok=True)
    if args.workload == "serve-mix":
        outcome = run_serve(args, trace_dir)
    else:
        outcome = run_in_process(args)
    bench, setups, rss_mb, attempted, failed, spans, extra = outcome

    values, detail = end_to_end(args.workload, bench.records, setups, rss_mb)
    if args.trace:
        if not extra:
            extra = [(name, 0.0, unit) for name, unit in SERVICE_METRICS]
        values, detail["layers"] = per_layer(args.workload, bench.records,
                                             spans, extra)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "attempted": attempted,
        "fail_ratio": failed / attempted,
        "failures": bench.failures.messages,
        "sequence": ["%s:%s" % (r["kind"], r["key"])
                     for r in bench.records[:20]],
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
