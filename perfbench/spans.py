#!/usr/bin/env python3
"""Span-file reader for the repo benchmark's traced runs.

Turns the span file a `--trace 1` run writes into per-layer metrics (self
time, counts, ratios with their base) and, given the untraced run of the
same workload and seed, into the tracing overhead.

  python3 perfbench/spans.py .bench_out/spans-fresh_local-1.txt \
      [--untraced .bench_out/result-fresh_local-1-trace0.json]
  python3 perfbench/spans.py --self-test

Span file, one record per line (perfbench/src/tracer.cc):
  S <id> <parent> <request> <name> <start_ns> <end_ns>
  C <name> <value>
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict

TRACEGEN = ("tracegen.plan_traces", "tracegen.baseline_trace")
WIRE_SPANS = {
    "wire.encode_pct": "wire.encode",
    "wire.decode_pct": "wire.decode",
    "net.dial_pct": "net.dial",
    "net.round_trip_pct": "net.round_trip",
}

# The per-layer metrics the benchmark reports, in BENCHMARK.json order.
# Layer times that are zero on a workload that bypasses the layer are
# reported as a share of session time, not as a time.
PER_LAYER_UNITS = {
    "plan.us_per_config": "us",
    "analysis.us_per_plan": "us",
    "plan_cache.hit_ratio": "ratio",
    "tracegen.pct_of_session": "%",
    "tracegen.actions_per_session": "count",
    "tracegen.bytes_per_session": "B",
    "baseline.pct_of_session": "%",
    "engine.pct_of_session": "%",
    "engine.events_per_session": "count",
    "engine.events_per_us": "1/us",
    "shard.dispatch_pct": "%",
    "shard.merge_pct": "%",
    "shard.replica_pct": "%",
    "session.self_us": "us",
    "session.allocs": "count",
    "wire.request_bytes": "B",
    "wire.reply_bytes": "B",
    "wire.encode_pct": "%",
    "wire.decode_pct": "%",
    "net.dial_pct": "%",
    "net.round_trip_pct": "%",
    "executor.cpu_share": "%",
    "executor.plan_cache_hit_ratio": "ratio",
    "executor.open_fds": "count",
    "executor.vmsize_mb": "MB",
    "executor.rss_mb": "MB",
}


class Trace:
    def __init__(self, lines):
        self.spans = {}  # id -> (parent, request, name, start_ns, end_ns)
        self.counters = {}
        for line in lines:
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if fields[0] == "S":
                sid, parent, request = int(fields[1]), int(fields[2]), int(fields[3])
                self.spans[sid] = (parent, request, fields[4], int(fields[5]), int(fields[6]))
            elif fields[0] == "C":
                self.counters[fields[1]] = float(fields[2])

    def durations_us(self, name, timed_only=True):
        """Durations of every span called `name`; timed-phase spans only
        (request id > 0) unless timed_only is False."""
        return [(end - start) / 1e3 for (_, request, n, start, end) in self.spans.values()
                if n == name and (request > 0 or not timed_only)]

    def total_us(self, *names):
        return sum(sum(self.durations_us(n)) for n in names)

    def by_request(self):
        """request id -> {name: [duration_us, ...]} for timed-phase spans."""
        out = defaultdict(lambda: defaultdict(list))
        for (_, request, name, start, end) in self.spans.values():
            if request > 0:
                out[request][name].append((end - start) / 1e3)
        return out

    def children_us(self, parent_name):
        """Sum of direct-child durations of each span called parent_name."""
        ids = {sid for sid, s in self.spans.items() if s[2] == parent_name and s[1] > 0}
        sums = defaultdict(float)
        for (parent, _, _, start, end) in self.spans.values():
            if parent in ids:
                sums[parent] += (end - start) / 1e3
        return [sums[sid] for sid in ids]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def per_layer(trace):
    """The per-layer metrics, as {name: value}; units in PER_LAYER_UNITS."""
    c = trace.counters
    sessions = max(1.0, c.get("sessions", 0.0))
    session_us = trace.total_us("session.run")
    base = session_us if session_us > 0 else 1.0

    def pct(us):
        return 100.0 * us / base

    # Session self time: how much longer the real session took than the
    # critical path of its composed work. Unsharded, that is the whole
    # composed request; sharded, the session runs its groups in parallel
    # while the composed path runs them one after another, so the critical
    # path is the slowest group plus the merge, and the self time is the
    # shard dispatch.
    self_us = 0.0
    dispatch_us = 0.0
    for spans in trace.by_request().values():
        session = sum(spans.get("session.run", []))
        if spans.get("shard.group"):
            critical = max(spans["shard.group"]) + sum(spans.get("shard.merge", []))
            dispatch_us += session - critical
        else:
            critical = sum(spans.get("request", []))
        self_us += session - critical
    # Replica cost: engine time of all groups minus one engine run of every
    # variant together.
    grouped_engine_us = 0.0
    group_ids = {sid for sid, s in trace.spans.items() if s[2] == "shard.group" and s[1] > 0}
    for (parent, request, name, start, end) in trace.spans.values():
        if name == "engine.run" and parent in group_ids:
            grouped_engine_us += (end - start) / 1e3
    replica_us = grouped_engine_us - trace.total_us("shard.replica_ref") if group_ids else 0.0

    engine_us = trace.total_us("engine.run")
    events = c.get("engine.events", 0.0)
    actions = c.get("tracegen.actions", 0.0)
    hits, misses = c.get("plan_cache.hits", 0.0), c.get("plan_cache.misses", 0.0)
    replies = c.get("executor.replies", 0.0)
    cpu_phase = c.get("cpu.phase_s", 0.0)

    metrics = {
        "plan.us_per_config": _mean(trace.durations_us("setup.plan", timed_only=False)),
        "analysis.us_per_plan": _mean(trace.durations_us("setup.analyze", timed_only=False)),
        "plan_cache.hit_ratio": hits / (hits + misses) if hits + misses > 0 else 0.0,
        "tracegen.pct_of_session": pct(trace.total_us(*TRACEGEN)),
        "tracegen.actions_per_session": actions / sessions,
        "tracegen.bytes_per_session": actions / sessions * c.get("tracegen.action_bytes", 0.0),
        "baseline.pct_of_session": pct(trace.total_us("baseline.run")),
        "engine.pct_of_session": pct(engine_us),
        "engine.events_per_session": events / sessions,
        "engine.events_per_us": events / engine_us if engine_us > 0 else 0.0,
        "shard.dispatch_pct": pct(dispatch_us),
        "shard.merge_pct": pct(trace.total_us("shard.merge")),
        "shard.replica_pct": pct(replica_us),
        "session.self_us": self_us / sessions,
        "session.allocs": c.get("session.allocs", 0.0) / sessions,
        "wire.request_bytes": c.get("wire.request_bytes", 0.0) / sessions,
        "wire.reply_bytes": c.get("wire.reply_bytes", 0.0) / sessions,
        "executor.cpu_share": (100.0 * c.get("cpu.daemons_phase_s", 0.0) / cpu_phase
                               if cpu_phase > 0 else 0.0),
        "executor.plan_cache_hit_ratio": (c.get("executor.plan_cache_hits", 0.0) / replies
                                          if replies > 0 else 0.0),
        "executor.open_fds": c.get("executor.open_fds", 0.0),
        "executor.vmsize_mb": c.get("executor.vmsize_mb", 0.0),
        "executor.rss_mb": c.get("executor.rss_mb", 0.0),
    }
    for metric, span in WIRE_SPANS.items():
        metrics[metric] = pct(trace.total_us(span))
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def layer_times(trace):
    """The same layers in microseconds per session (the form the layer
    tables in perfbench/README.md use), plus the session count and the
    coverage of session.run by the composed child spans."""
    c = trace.counters
    sessions = max(1.0, c.get("sessions", 0.0))
    engine_us = trace.total_us("engine.run")
    events = c.get("engine.events", 0.0)
    session_us = trace.total_us("session.run")
    request_children = sum(trace.children_us("request"))
    out = {
        "sessions": sessions,
        "tracegen.us_per_session": trace.total_us(*TRACEGEN) / sessions,
        "baseline.us_per_session": trace.total_us("baseline.run") / sessions,
        "engine.us_per_session": engine_us / sessions,
        "engine.ns_per_event": engine_us * 1e3 / events if events > 0 else 0.0,
        "shard.merge_us_per_session": trace.total_us("shard.merge") / sessions,
        "executor.cpu_us_per_session": c.get("cpu.daemons_phase_s", 0.0) * 1e6 / sessions,
        # Share of the real session's time that the composed child spans
        # account for (the composed path's own glue is the rest).
        "session.coverage": request_children / session_us if session_us > 0 else 0.0,
    }
    for metric, span in WIRE_SPANS.items():
        out[metric.replace("_pct", "_us")] = trace.total_us(span) / sessions
    return out


def overhead(trace, untraced):
    """Tracing overhead: the traced run's session and composed-path median
    latency against the untraced run's latency_p50_ms diagnostic (same
    workload and seed, as saved by run.py)."""
    base = untraced["diagnostics"]["latency_p50_ms"]
    session = statistics.median(trace.durations_us("session.run") or [0.0]) / 1e3
    composed = statistics.median(trace.durations_us("request") or [0.0]) / 1e3
    return {
        "untraced.latency_p50_ms": base,
        "traced.session_p50_ms": session,
        "traced.composed_p50_ms": composed,
        "overhead.session_pct": 100.0 * (session / base - 1.0) if base > 0 else 0.0,
        "overhead.composed_pct": 100.0 * (composed / base - 1.0) if base > 0 else 0.0,
    }


def load(path):
    with open(path) as f:
        return Trace(f.read().splitlines())


def self_test():
    # Two requests of a sharded run: each has a session span, two groups
    # with engine spans, a merge and a replica reference.
    lines = [
        "# perfbench spans v1",
        "S 1 0 0 setup.plan 0 1000",
        "S 2 0 0 setup.plan 1000 4000",
        "S 3 0 0 setup.analyze 4000 5000",
        "S 4 0 1 request 10000 20000",
        "S 5 4 1 shard.group 10000 14000",
        "S 6 5 1 engine.run 11000 13000",
        "S 7 4 1 shard.group 14000 19000",
        "S 8 7 1 engine.run 15000 18000",
        "S 9 4 1 shard.merge 19000 20000",
        "S 10 0 1 shard.replica_ref 20000 24000",
        "S 11 0 1 session.run 24000 32000",
        "C sessions 1",
        "C engine.events 500",
        "C plan_cache.hits 1",
        "C plan_cache.misses 3",
        "C cpu.phase_s 2",
        "C cpu.daemons_phase_s 0.5",
    ]
    t = Trace(lines)
    m = per_layer(t)
    checks = [
        (m["plan.us_per_config"] == 2.0, "plan: mean of set-up plan spans"),
        (m["analysis.us_per_plan"] == 1.0, "analysis: mean of analyze spans"),
        (m["plan_cache.hit_ratio"] == 0.25, "hit ratio is hits over lookups"),
        (m["engine.pct_of_session"] == 100.0 * 5 / 8, "engine share of session time"),
        (m["engine.events_per_us"] == 100.0, "events per engine microsecond"),
        # session 8 us - (slowest group 5 us + merge 1 us) = 2 us of 8.
        (m["shard.dispatch_pct"] == 25.0, "dispatch beyond the critical path"),
        # groups' engine 5 us - replica reference 4 us = 1 us of 8.
        (m["shard.replica_pct"] == 12.5, "replica engine time"),
        (m["session.self_us"] == 2.0, "session minus the composed critical path"),
        (m["executor.cpu_share"] == 25.0, "daemon share of CPU"),
        (m["tracegen.pct_of_session"] == 0.0, "no trace generation spans"),
        (set(m) == set(PER_LAYER_UNITS), "every per-layer metric present"),
    ]
    times = layer_times(t)
    checks.append((times["engine.ns_per_event"] == 10.0, "ns per event"))
    checks.append((times["session.coverage"] == 1.25, "coverage of the session span"))
    o = overhead(t, {"diagnostics": {"latency_p50_ms": 0.004}})
    checks.append((abs(o["overhead.session_pct"] - 100.0) < 1e-9, "overhead vs untraced"))
    # Unsharded: the session's self time is measured against the whole
    # composed request.
    unsharded = per_layer(Trace([
        "S 1 0 1 request 0 10000",
        "S 2 1 1 engine.run 1000 9000",
        "S 3 0 1 session.run 10000 23000",
        "C sessions 1",
    ]))
    checks.append((unsharded["session.self_us"] == 3.0, "unsharded session minus request"))
    checks.append((unsharded["shard.dispatch_pct"] == 0.0, "no dispatch without groups"))
    failed = [what for ok, what in checks if not ok]
    for what in failed:
        print("spans self-test: FAILED " + what, file=sys.stderr)
    print("spans self-test: %d of %d checks passed" % (len(checks) - len(failed), len(checks)))
    return 0 if not failed else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans", nargs="?")
    parser.add_argument("--untraced", help="run.py's saved result of the untraced run, same seed")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.spans:
        parser.error("a span file is required")
    trace = load(args.spans)
    report = {"per_layer": per_layer(trace), "layer_times": layer_times(trace)}
    if args.untraced:
        with open(args.untraced) as f:
            report["overhead"] = overhead(trace, json.load(f))
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
