"""The three workloads: input generation, the timed request loop, and the
correctness check of every answer.

Each workload is a closed loop driven by one caller.  Requests run in
short rounds that interleave every input (and the reference loop), so
every figure of a run sees the same mix of machine speed regimes.  A
workload collects request records; ``run.py`` turns them into metrics.

Request record fields: ``kind`` (``cold``, ``warm``, ``edit`` or
``batch``), ``key`` (the program it analyzed), ``ms`` (wall time),
``start``/``end`` (``perf_counter`` seconds), ``methods``,
``statements`` and ``regions`` (program size and regions checked),
``profile`` (the scan's aggregated stages and counters), ``first_ms``
and ``gaps_ms`` (batch stream timing), ``root`` (the request's span in
a traced round), ``round``, ``traced`` and ``ref_ms`` (the reference
loop timed right after the request).
"""

import gc
import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")

#: The reference loop's time at reference speed.  Every reported time
#: is scaled by (REF_NOMINAL_MS / the loop's median time in the same
#: round) ** SPEED_EXPONENT, which removes most of the machine's speed
#: drift between runs.  The analyzer slows less than the loop when the
#: machine slows: over 30 runs on a 2-vCPU box its latency scaled with
#: the loop's time to the power 1.0 (corpus-cold), 0.8 (tiled-scale)
#: and about 0.5 (serve-mix, measured from the client); 0.75 keeps the
#: worst of them within a few percent.
REF_NOMINAL_MS = 0.9
SPEED_EXPONENT = 0.75
#: Rounds (serve-mix: blocks) every run makes, however slow the machine:
#: enough that each tail the 30-second runs report (p95 corpus-cold, p75
#: tiled-scale, p90 edits and p95 warm reads on serve-mix) keeps ten
#: samples beyond it, so a slow run cannot drop a tail to a lower one.
MIN_ROUNDS = {"corpus-cold": 16, "tiled-scale": 14, "serve-mix": 34}
#: Tiling factors of tiled-scale; the smallest also warms the process up.
TILE_FACTORS = (12, 24, 40)
#: The warm set of serve-mix: three golden-corpus programs of different
#: sizes that each have a labelled-loop ``scan`` section to check against.
WARM_SET = ("mysql-connector-j", "specjbb2000", "log4j")
#: One serve-mix block: 9 warm reads (3 per warm-set program, in
#: rotation), 3 edits (pool misses) and 1 batch, which take seeded gaps
#: between warm reads, at most one per gap.  Between two reads of one
#: warm program there are then at most 2 other warm programs and 3 edits
#: (batches bypass the pool), fewer than the 8 programs the pool keeps
#: (``serve`` default), so edits never evict the warm set.
WARM_PER_BLOCK = 9
NON_WARM = ("edit", "edit", "edit", "batch")
#: Tiling factor of the serve-mix batch program.
BATCH_FACTOR = 12
#: Edit tag of the serve-mix batch program.  Every batch sends this one
#: edited tiling, which set-up primes: a fleet worker fails to evict an
#: adopted program (README, "Known defect"), so a new program per batch
#: would fail every batch after the fourth.
BATCH_EDIT_TAG = 0
_METHOD_WITH_PARAM = re.compile(r"method\s+\w+\s*\(\s*(\w+)[^)]*\)\s*\{")


class Failures:
    """Counts wrong answers; keeps the first few messages."""

    def __init__(self):
        self.count = 0
        self.messages = []

    def add(self, message):
        self.count += 1
        if len(self.messages) < 5:
            self.messages.append(message)


class _RefNode:
    __slots__ = ("key", "label", "kids")

    def __init__(self, key):
        self.key = key
        self.label = str(key)
        self.kids = []


def ref_loop_ms():
    """A fixed pure-Python loop of object, dict, list and set work like
    the analyzer's, timed: the reference every request is paired with.
    The collector is off while it runs, so the heap a request left
    behind does not slow the loop."""
    gc.disable()
    try:
        started = time.perf_counter()
        nodes = [_RefNode(i) for i in range(1500)]
        index = {}
        for node in nodes:
            index.setdefault(node.key % 37, []).append(node)
            if node.key % 3:
                nodes[node.key // 2].kids.append(node)
        frozenset(node.label for node in nodes[::3])
        return (time.perf_counter() - started) * 1000.0
    finally:
        gc.enable()


def speed_factor(ref_ms):
    """Multiplies a time into reference speed, given the reference
    loop's time then."""
    return (REF_NOMINAL_MS / ref_ms) ** SPEED_EXPONENT


def one_method_edit(source, tag):
    """``source`` with an unused copy of a parameter inserted at the top
    of the first method that has one: a new digest, the same findings."""
    match = _METHOD_WITH_PARAM.search(source)
    if match is None:
        raise ValueError("no method with a parameter to edit")
    line = "\n bench_copy%d = %s ;" % (tag, match.group(1))
    return source[: match.end()] + line + source[match.end():]


def golden(name):
    with open(os.path.join(GOLDEN_DIR, name + ".json")) as handle:
        return json.load(handle)


def canonical_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def _scan_sizes(scan_dict):
    """``(reachable methods, reachable statements, regions)`` of a scan."""
    loops = scan_dict.get("loops") or ()
    if not loops:
        return 0, 0, 0
    stats = loops[0]["report"]["stats"]
    return stats["methods"], stats["statements"], len(loops)


# -- in-process workloads ------------------------------------------------------


class InProcess:
    """corpus-cold and tiled-scale: cold in-process analyses."""

    def __init__(self, name, seed):
        self.name = name
        self.rng = random.Random(seed)
        self.failures = Failures()
        self.records = []

    def make_inputs(self):
        """Programs to analyze: ``{key: (source, config, check)}``; also
        kept as ``self.inputs``."""
        self.inputs = self._inputs()
        return self.inputs

    def _inputs(self):
        if self.name == "corpus-cold":
            from repro.bench.apps import build_app, corpus_names

            inputs = {}
            for name in corpus_names():
                app = build_app(name)
                expected = canonical_text(golden(name)["auto"])
                inputs[name] = (app.source, app.config,
                                self._golden_check(name, expected))
            return inputs
        from repro.bench.scale import build_scaled

        inputs = {}
        for factor in TILE_FACTORS:
            scaled = build_scaled("memocache", factor)
            inputs["x%d" % factor] = (scaled.source, scaled.config,
                                      self._truth_check(factor, scaled.truth))
        return inputs

    def _golden_check(self, name, expected):
        def check(text, _result):
            if text != expected:
                self.failures.add("%s: auto scan differs from golden" % name)

        return check

    def _truth_check(self, factor, truth):
        from repro.core.regions import region_text

        def check(_text, result):
            got = {
                region_text(spec): frozenset(report.leaking_site_labels)
                for spec, report in result.entries
            }
            if got != truth:
                self.failures.add("x%d: leak sets differ from truth" % factor)

        return check

    def request(self, key, entry, tracer=None):
        """One cold request: source text in, checked canonical scan out."""
        import repro.core.canonical as canonical
        from repro import Analyzer, parse_program

        source, config, check = entry
        # Each request starts from a collected heap, so the garbage an
        # earlier request left is not charged to this one.
        gc.collect()
        root = tracer.open("bench.request") if tracer else None
        started = time.perf_counter()
        program = parse_program(source)
        if self.name == "corpus-cold":
            result = Analyzer(program, config).analyze(auto_regions=True)
        else:
            result = Analyzer(program, config).analyze()
        raw = result.as_dict()
        canon = canonical.canonical_scan_dict(raw)
        ended = time.perf_counter()
        if tracer:
            tracer.close(root)
        text = canonical_text(canon)
        check(text, result)
        methods, statements, regions = _scan_sizes(raw)
        return {
            "kind": "cold", "key": key, "ms": (ended - started) * 1000.0,
            "start": started, "end": ended, "methods": methods,
            "statements": statements, "regions": regions, "profile": raw.get("profile") or {},
            "canon": hashlib.sha256(text.encode()).hexdigest(), "root": root,
        }

    def warm_up(self, inputs):
        """One untimed pass: every corpus app, or the smallest tiling.
        Returns the number of requests made."""
        keys = list(inputs) if self.name == "corpus-cold" else ["x12"]
        for key in keys:
            self.request(key, inputs[key])
        return len(keys)

    def run(self, inputs, seconds, tracer=None):
        """Timed rounds until ``seconds`` pass (at least ``MIN_ROUNDS``);
        each round visits every input once in a seeded order.  With a tracer, rounds alternate
        traced and untraced so the overhead is measured in-run."""
        deadline = time.perf_counter() + seconds
        keys = sorted(inputs)
        round_no = 0
        while round_no < MIN_ROUNDS[self.name] or \
                time.perf_counter() < deadline:
            order = list(keys)
            self.rng.shuffle(order)
            traced = tracer is not None and round_no % 2 == 0
            if traced:
                tracer.install(server=False)
            try:
                for key in order:
                    record = self.request(key, inputs[key],
                                          tracer if traced else None)
                    record["round"] = round_no
                    record["traced"] = traced
                    record["ref_ms"] = ref_loop_ms()
                    self.records.append(record)
            finally:
                if traced:
                    tracer.uninstall()
            round_no += 1
        self._check_traced_identity()

    def _check_traced_identity(self):
        """The traced canonical output must equal the untraced one."""
        seen = {}
        for record in self.records:
            text = record.pop("canon")
            if seen.setdefault(record["key"], text) != text:
                self.failures.add("%s: traced output differs" % record["key"])


# -- serve-mix ---------------------------------------------------------------


class Server:
    """``repro serve --workers 1`` in its own process, via launcher.py."""

    def __init__(self, trace_path=None):
        command = [sys.executable, os.path.join(HERE, "launcher.py")]
        if trace_path:
            command += ["--trace", trace_path]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"serving on (http://\S+)", line)
        if match is None:
            self.stop()
            raise RuntimeError("server did not start: %r" % line)
        self.url = match.group(1)

    def toggle_trace(self, on):
        self.proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        line = self.proc.stdout.readline().strip()
        if line != ("trace on" if on else "trace off"):
            raise RuntimeError("launcher did not acknowledge: %r" % line)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class ServeMix:
    """serve-mix: warm reads, one-method edits and fleet batches over
    loopback from one ``AnalyzeClient``."""

    name = "serve-mix"

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.failures = Failures()
        self.records = []
        self.refused = 0
        self.edits = 0

    def make_inputs(self):
        from repro.bench.apps import build_app
        from repro.bench.scale import build_scaled

        warm = {}
        for name in WARM_SET:
            doc = golden(name)
            warm[name] = (build_app(name).source, doc["scan"]["leaking_sites"])
        scaled = build_scaled("memocache", BATCH_FACTOR)
        offset = self.rng.randrange(len(WARM_SET))
        return {
            "warm": warm,
            "batch": (one_method_edit(scaled.source, BATCH_EDIT_TAG),
                      scaled.truth),
            "order": WARM_SET[offset:] + WARM_SET[:offset],
        }

    def schedule(self):
        """The next block of the seeded request sequence."""
        kinds = list(NON_WARM)
        self.rng.shuffle(kinds)
        gaps = dict(zip(self.rng.sample(range(WARM_PER_BLOCK + 1),
                                        len(kinds)), kinds))
        out = []
        for gap in range(WARM_PER_BLOCK + 1):
            if gap in gaps:
                out.append(gaps[gap])
            if gap < WARM_PER_BLOCK:
                out.append("warm")
        return out

    # -- requests ------------------------------------------------------------

    def _call(self, thunk):
        from repro.client import ClientError

        started = time.perf_counter()
        try:
            data = thunk()
        except ClientError as exc:
            if exc.status == 429:
                self.refused += 1
            self.failures.add("HTTP %s: %s" % (exc.status, exc))
            data = None
        ended = time.perf_counter()
        return data, started, ended

    def analyze(self, client, kind, key, source, expected):
        data, started, ended = self._call(lambda: client.analyze(source))
        record = {"kind": kind, "key": key, "ms": (ended - started) * 1000.0,
                  "start": started, "end": ended, "methods": 0,
                  "statements": 0, "regions": 0, "profile": {}}
        if data is None:
            return record
        scan = data["scan"]
        (record["methods"], record["statements"],
         record["regions"]) = _scan_sizes(scan)
        record["profile"] = scan.get("profile") or {}
        if sorted(scan["leaking_sites"]) != expected:
            self.failures.add("%s %s: leaking sites differ" % (kind, key))
        if data["warm"] is not (kind == "warm"):
            self.failures.add("%s %s: warm=%s" % (kind, key, data["warm"]))
        return record

    def batch(self, client, source, truth):
        from repro.client import ClientError

        got = {}
        stamps = []
        errors = 0
        started = time.perf_counter()
        try:
            for item in client.analyze_batch([source]):
                if item["record"] == "region":
                    stamps.append(time.perf_counter())
                    got[item["region"]] = frozenset(item["leaking_sites"])
                elif item["record"] == "error":
                    errors += 1
        except ClientError as exc:
            if exc.status == 429:
                self.refused += 1
            errors += 1
        ended = time.perf_counter()
        if errors or got != truth:
            self.failures.add("batch: %d errors, regions match=%s"
                              % (errors, got == truth))
        first = (stamps[0] - started) if stamps else (ended - started)
        return {
            "kind": "batch", "key": "x%d" % BATCH_FACTOR,
            "ms": (ended - started) * 1000.0, "start": started, "end": ended,
            "first_ms": first * 1000.0,
            "gaps_ms": [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])],
            "methods": 0, "statements": 0, "regions": len(got),
            "profile": {},
        }

    def one(self, client, inputs, kind, counters):
        """Issue the next request of ``kind``; returns its record."""
        order = inputs["order"]
        if kind == "batch":
            return self.batch(client, *inputs["batch"])
        key = order[counters[kind] % len(order)]
        counters[kind] += 1
        source, expected = inputs["warm"][key]
        if kind == "edit":
            self.edits += 1
            source = one_method_edit(source, self.edits)
        return self.analyze(client, kind, key, source, expected)

    def prime(self, client, inputs):
        """Set-up: load the warm set into the pool (cold reads) and run
        one batch, so the fleet worker has adopted the batch program."""
        for key in inputs["order"]:
            source, expected = inputs["warm"][key]
            self.analyze(client, "edit", key, source, expected)
        self.one(client, inputs, "batch", None)

    def run(self, server, client, inputs, seconds, traced=False):
        """Timed blocks until ``seconds`` pass (at least ``MIN_ROUNDS``).
        In the traced run, blocks alternate traced and untraced
        server-side."""
        counters = {"warm": 0, "edit": 0}
        deadline = time.perf_counter() + seconds
        block_no = 0
        while block_no < MIN_ROUNDS[self.name] or \
                time.perf_counter() < deadline:
            on = traced and block_no % 2 == 0
            if on:
                server.toggle_trace(True)
            for kind in self.schedule():
                record = self.one(client, inputs, kind, counters)
                record["round"] = block_no
                record["traced"] = on
                record["ref_ms"] = ref_loop_ms()
                self.records.append(record)
            if on:
                server.toggle_trace(False)
            block_no += 1
