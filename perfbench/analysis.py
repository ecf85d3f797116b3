"""Turns a perfbench raw record into the benchmark's metrics and verdict.

The C++ runner (perfbench/runner) only observes: per-episode set-up and timed
times, per-operation latencies and CPU times, operation ledgers, ccdd's own
metric dumps, spans around library calls, and output checks. Everything
computed from those observations lives here, so it can be tested on fixed
inputs (perfbench/tests/test_analysis.py).
"""

import math
import statistics

# End-to-end metrics, printed by every untraced run: (name, unit).
#
# Times are taken on the CPU clocks of the processes doing the program's
# work (the runner, and ccdd when there is one). On a KVM guest with
# steal-time accounting these leave out time the host gave the vCPUs to
# other guests; wall-clock times do not, and on a shared 4-vCPU VM ten runs
# of the same code spread 23-27% (design_full call time) and 10-31%
# (ingest_stream round latency, median and tail) between their quartiles,
# while five ingest_stream runs during up to 7% host steal spread 1.7-2.3%
# on CPU clocks. Slower host phases that are not steal (shared cores and
# caches) still move both. The wall-clock figures (set-up, goodput, median
# and tail latency with their sample counts) are printed among the detail
# lines.
END_TO_END = [
    ("setup_s", "s"),
    ("workers_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]

# Per-layer times: metric name -> (span name, unit). The value is the mean
# self time per span of that name; a layer the workload never enters is 0.
SPAN_METRICS = {
    "data.generate_ms": ("data.generate", "ms"),
    "data.sanitize_ms": ("data.sanitize", "ms"),
    "detect.detect_ms": ("detect.detect", "ms"),
    "detect.cluster_ms": ("detect.cluster", "ms"),
    "effort.fit_ms": ("effort.fit", "ms"),
    "contract.solve_ms": ("contract.solve", "ms"),
    "contract.batch_ms": ("contract.batch", "ms"),
    "core.pipeline_residual_ms": ("core.run_pipeline", "ms"),
    "policy.post_us": ("policy.post", "us"),
    "core.physics_us": ("core.physics", "us"),
    "core.checkpoint.snapshot_us": ("core.checkpoint.snapshot", "us"),
    "core.checkpoint.encode_us": ("core.checkpoint.encode", "us"),
    "util.atomic_file.write_us": ("util.atomic_file.write", "us"),
    "serve.protocol.encode_us": ("serve.protocol.encode", "us"),
    "serve.protocol.decode_us": ("serve.protocol.decode", "us"),
    "serve.session.ingest_us": ("serve.session.ingest", "us"),
    "serve.session.refit_us": ("serve.session.refit", "us"),
    "effort.fit_us": ("effort.fit", "us"),
}

PER_LAYER = [(name, unit) for name, (_, unit) in SPAN_METRICS.items()] + [
    ("trace.residual_pct", "%"),
    ("contract.ksweeps", "count"),
    ("contract.cache_hits", "count"),
    ("contract.cache_lookups", "count"),
    ("contract.cache_hit_ratio", "ratio"),
    ("contract.cache_tables", "count"),
    ("core.checkpoint.bytes_per_round", "count"),
    ("serve.protocol.request_bytes", "B"),
    ("serve.queue_wait_us", "us"),
    ("serve.request_us", "us"),
    ("serve.wire_us", "us"),
] + [("trace.overhead." + name + "_pct", "%") for name, _ in END_TO_END]

UNIT_SCALE_NS = {"ms": 1e6, "us": 1e3}

# Samples a percentile needs beyond it before it is reported.
BEYOND = 10


def tail_percentile(samples, q):
    """Nearest-rank percentile q of `samples`, lowered until at least BEYOND
    samples lie beyond it. Returns (quantile used, value); value is None
    when there are too few samples for any percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= BEYOND:
        return (0.0, None)
    rank = min(math.ceil(q * n), n - BEYOND)
    return (rank / n, ordered[rank - 1])


def span_self_ns(spans):
    """Self time of each span, in ns: its duration minus the part of its
    interval that its children cover. Spans are (name, parent index or -1,
    start ns, end ns)."""
    children = {}
    for index, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    out = []
    for index, (_, _, start, end) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted((max(spans[k][2], start), min(spans[k][3], end))
                             for k in children.get(index, [])):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def self_times(spans):
    """Per span name: (count, total ns, self ns)."""
    out = {}
    for (name, _, start, end), self_ns in zip(spans, span_self_ns(spans)):
        count, total, own = out.get(name, (0, 0, 0))
        out[name] = (count + 1, total + end - start, own + self_ns)
    return out


def residual_share(spans):
    """Share of the time in spans with children that no child covers."""
    parents = {parent for _, parent, _, _ in spans if parent >= 0}
    self_ns = span_self_ns(spans)
    total = sum(spans[i][3] - spans[i][2] for i in parents)
    return sum(self_ns[i] for i in parents) / total if total else 0.0


def slope(points):
    """Least-squares slope of y on x over (x, y) points."""
    n = len(points)
    if n < 2:
        return 0.0
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx if sxx else 0.0


def counter(dump, name):
    entry = (dump or {}).get(name)
    return entry["value"] if entry else 0


def histogram(dump, name):
    """(count, sum) of a histogram in a ccdd metrics dump."""
    entry = (dump or {}).get(name)
    return (entry["count"], entry["sum"]) if entry else (0, 0.0)


def reconcile(ledger, dump):
    """Compare a client ledger with the daemon's own counters, dumped by the
    ledger's last request. Returns a list of mismatch descriptions. The dump
    request is counted as submitted but its response only after the dump,
    and no request carries a deadline, so errors and deadline expiries
    never overlap."""
    expected = [
        ("ccd.serve.submitted", ledger["sent"]),
        ("ccd.serve.responses", ledger["sent"] - 1),
        ("ccd.serve.backpressure", ledger["backpressure"]),
        ("ccd.serve.errors", ledger["errors"]),
        ("ccd.serve.deadline_expired", ledger["deadline"]),
    ]
    problems = ["%s=%d, clients saw %d" % (name, counter(dump, name), want)
                for name, want in expected if counter(dump, name) != want]
    if ledger["received"] != ledger["sent"]:
        problems.append("sent %d requests, received %d responses" %
                        (ledger["sent"], ledger["received"]))
    return problems


def samples(episode, key="latencies_us"):
    """An episode's per-operation times (key: latencies_us or cpu_us); a
    failed operation misses every limit."""
    return episode[key] + [math.inf] * episode["timed_failed"]


def median_time(episodes, key):
    """The median over episodes of each episode's median, so host stalls
    that hit a minority of the run's episodes do not move it. A run too
    short for that falls back to its pooled samples."""
    medians = [v for _, v in (tail_percentile(samples(e, key), 0.50)
                              for e in episodes) if v is not None]
    if medians:
        return statistics.median(medians)
    return statistics.median(x for e in episodes for x in samples(e, key))


def goodput(record, episodes, seconds_key):
    """Workers served per second of the timed phase (seconds_key: timed_s
    or timed_cpu_s), median over episodes; failed operations add nothing."""
    return statistics.median(
        record["workers_per_op"] * (e["timed_attempted"] - e["timed_failed"]) /
        e[seconds_key] for e in episodes)


def end_to_end(record, measurement):
    """The end-to-end metrics of one measurement, plus sample counts and
    the wall-clock figures."""
    episodes = measurement["episodes"]
    pooled = [x for e in episodes for x in samples(e)]
    tail_q, tail = tail_percentile(pooled, 0.99)
    if tail is None:
        tail_q, tail = 1.0, max(pooled)
    metrics = {
        "setup_s": statistics.median(e["setup_cpu_s"] for e in episodes),
        "workers_per_cpu_s": goodput(record, episodes, "timed_cpu_s"),
        "peak_rss_mb": statistics.median(e["peak_rss_kb"]
                                         for e in episodes) / 1024,
    }
    workers_per_s = goodput(record, episodes, "timed_s")
    info = {
        "episodes": len(episodes),
        "samples": len(pooled),
        "failed": sum(e["timed_failed"] for e in episodes),
        "attempted": sum(e["timed_attempted"] for e in episodes),
        "cpu_ms_p50": median_time(episodes, "cpu_us") * 1e-3,
        "wall_setup_s": statistics.median(e["setup_s"] for e in episodes),
        "wall_workers_per_s": workers_per_s,
        "wall_ops_per_s": workers_per_s / record["workers_per_op"],
        "wall_latency_ms_p50": median_time(episodes, "latencies_us") * 1e-3,
        "wall_latency_ms_tail": tail * 1e-3,
        "wall_latency_ms_tail_quantile": tail_q,
    }
    return metrics, info


def per_layer(record):
    """The per-layer metrics of a traced run."""
    spans = record["spans"]
    counts = record["counts"]
    layers = self_times(spans)
    out = {}
    for name, (span, unit) in SPAN_METRICS.items():
        count, _, self_ns = layers.get(span, (0, 0, 0))
        out[name] = self_ns / count / UNIT_SCALE_NS[unit] if count else 0.0

    # ingest_stream: ccdd's own counters over the traced timed phases.
    serve = [e for e in record["traced"]["episodes"] if e["metrics_after"]]

    def mean_us(name):
        n = sum(histogram(e["metrics_after"], name)[0] -
                histogram(e["metrics_before"], name)[0] for e in serve)
        s = sum(histogram(e["metrics_after"], name)[1] -
                histogram(e["metrics_before"], name)[1] for e in serve)
        return s / n if n else 0.0

    # Cache counts per operation: per pipeline call, or per replayed ingest
    # round.
    scale = counts.get("replayed_rounds", 1)
    for key in ("contract.ksweeps", "contract.cache_hits",
                "contract.cache_lookups"):
        out[key] = counts.get(key, 0) / scale

    if serve:
        out["contract.cache_tables"] = statistics.median(
            counter(e["metrics_after"], "ccd.cache.misses") -
            counter(e["metrics_after"], "ccd.cache.evictions")
            for e in serve)
        out["serve.queue_wait_us"] = mean_us("ccd.serve.queue_wait_us")
        out["serve.request_us"] = mean_us("ccd.serve.request_us")
        rtt = statistics.fmean(x for e in serve for x in e["latencies_us"])
        out["serve.wire_us"] = (rtt - out["serve.queue_wait_us"] -
                                out["serve.request_us"])
        # The in-process replica's spans partition each round; what no
        # span covers is the client round trip outside ccdd's own spans.
        out["trace.residual_pct"] = 100 * out["serve.wire_us"] / rtt
    else:
        # Every k-sweep of a pipeline call inserts one table.
        out["contract.cache_tables"] = out["contract.ksweeps"]
        out["trace.residual_pct"] = 100 * residual_share(spans)
        for key in ("serve.queue_wait_us", "serve.request_us",
                    "serve.wire_us"):
            out[key] = 0.0
    lookups = out["contract.cache_lookups"]
    out["contract.cache_hit_ratio"] = (out["contract.cache_hits"] / lookups
                                       if lookups else 0.0)
    out["core.checkpoint.bytes_per_round"] = slope(record["checkpoint_bytes"])
    out["serve.protocol.request_bytes"] = counts.get(
        "serve.protocol.request_bytes", 0)

    untraced, _ = end_to_end(record, record["measure"])
    traced_e2e, _ = end_to_end(record, record["traced"])
    for name, _ in END_TO_END:
        base = untraced[name]
        out["trace.overhead." + name + "_pct"] = (
            100 * (traced_e2e[name] - base) / base if base else 0.0)
    return out, layers


def verdict(record):
    """(correct, problems): every output check passed and every episode's
    ledger reconciles with the daemon's counters."""
    problems = ["check %s failed: %s" % (c["name"], c["detail"])
                for c in record["checks"] if not c["ok"]]
    measurements = [record["measure"]]
    if record["trace"]:
        measurements.append(record["traced"])
    for m in measurements:
        for index, episode in enumerate(m["episodes"]):
            if episode["metrics_final"] is None:
                continue
            problems += ["episode %d: %s" % (index, p) for p in
                         reconcile(episode["ledger"],
                                   episode["metrics_final"])]
    if not record["checks"]:
        problems.append("the run made no output checks")
    return (not problems, problems)


def result(record):
    """The benchmark's result object (the last line run.py prints)."""
    correct, problems = verdict(record)
    attempted = 0
    failed = 0
    for m in [record["measure"]] + ([record["traced"]] if record["trace"]
                                    else []):
        attempted += sum(e["timed_attempted"] for e in m["episodes"])
        failed += sum(e["timed_failed"] for e in m["episodes"])
    if record["trace"]:
        values, _ = per_layer(record)
        units = dict(PER_LAYER)
    else:
        values, _ = end_to_end(record, record["measure"])
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, problems
