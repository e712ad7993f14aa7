#!/usr/bin/env python3
"""Validates the telemetry JSON emitted by the cqcount CLI.

Usage:
  check_telemetry.py stats <stats.json> [other.json]
                                                    `cli stats` schema check;
                                                    with a second dump, a
                                                    determinism comparison
                                                    (nondet-prefixed metrics
                                                    excluded)
  check_telemetry.py trace <trace.json>             Chrome-trace schema check
  check_telemetry.py count-json <result.json>       `cli count --json` check

The three modes validate the observability surface of the obs/
subsystem: the metric registry dump, the Chrome trace_event export, and
the machine-readable count result with its embedded profile. Fixed-seed
estimates are pinned by tests/golden_estimates_test.cc, not here.
"""
import json
import sys

# Metric families every `stats` dump must contain (eagerly registered at
# load, so they appear even on code paths the process never executed).
REQUIRED_METRICS = (
    "engine.counts",
    "plan_cache.hits",
    "plan_cache.misses",
    "plan_cache.evictions",
    "executor.tasks_submitted",
    "executor.queue_depth",
    "dlm.estimates",
    "dlm.oracle_calls",
    "dlm.abandoned_waves",
    "dlm.early_stops",
    "dlm.nondet.speculative_probes",
    "dp.prepared_decides",
    "cc.nondet.hom_queries",
    "acjr.membership_tests",
    "sampler.samples",
    "scheduler.profile_predictions",
    "scheduler.plan_predictions",
    "scheduler.budget_splits",
    "scheduler.early_stops",
    "scheduler.runs_saved",
    "storage.segment_opens",
    "storage.zone_probes",
    "storage.zone_prunes",
)

# Metrics with this name segment are documented scheduling-dependent WORK
# counters (e.g. cc.nondet.hom_queries, dlm.nondet.speculative_probes:
# speculative frontier probes vary with the lane count).
# Determinism-sensitive assertions must skip them.
NONDET_SEGMENT = ".nondet."

# Typed stop reasons an estimator execution may report (util/
# estimate_outcome.h StopReasonName). "none" covers exact strategies with
# no run structure.
STOP_REASONS = (
    "none",
    "full_schedule",
    "confidence",
    "hard_bounds",
    "budget_exhausted",
    "cancelled",
    "deadline_expired",
)

# Span names a traced non-trivial count must produce. dlm.run/dlm.round
# only appear when the instance reaches the sampling phase, so the CI
# smoke database is deliberately dense enough to get there.
REQUIRED_SPANS = (
    "engine.count",
    "engine.parse",
    "engine.compile",
    "compile.normalize",
    "pass.dedup_and_guards",
    "engine.plan",
    "engine.execute",
    "component.execute",
    "fptras.dlm",
    "dlm.run",
    "dlm.round",
)

VALID_KINDS = ("counter", "gauge", "histogram")


def load_stats(path):
    with open(path) as f:
        data = json.load(f)
    metrics = data.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        raise SystemExit(f"{path}: no 'metrics' array")
    return metrics


def check_stats(path, other_path=None):
    metrics = load_stats(path)
    failures = []
    names = []
    for m in metrics:
        name = m.get("name")
        if not name:
            failures.append(f"metric without a name: {m}")
            continue
        names.append(name)
        kind = m.get("kind")
        if kind not in VALID_KINDS:
            failures.append(f"{name}: bad kind {kind!r}")
        if not m.get("description"):
            failures.append(f"{name}: missing description")
        if kind == "histogram":
            if "count" not in m or "sum" not in m:
                failures.append(f"{name}: histogram without count/sum")
            for bucket in m.get("buckets", []):
                if "le" not in bucket or "count" not in bucket:
                    failures.append(f"{name}: malformed bucket {bucket}")
        elif "value" not in m:
            failures.append(f"{name}: {kind} without a value")
    if names != sorted(names):
        failures.append("metrics are not sorted by name")
    for required in REQUIRED_METRICS:
        if required not in names:
            failures.append(f"required metric missing: {required}")
    if other_path is not None:
        # Determinism comparison: two dumps from identically-configured
        # fixed-seed runs must agree on every WORK counter — except the
        # `.nondet.`-marked families, whose totals legitimately vary with
        # thread scheduling (e.g. parallel colour-coding trial loops race
        # to the success threshold). Timing-valued metrics (histograms,
        # gauges) are excluded wholesale: they measure clocks and queue
        # depths, not work.
        other = {m.get("name"): m for m in load_stats(other_path)}
        for m in metrics:
            name = m.get("name")
            if not name or m.get("kind") != "counter":
                continue
            if NONDET_SEGMENT in name:
                continue
            peer = other.get(name)
            if peer is None:
                failures.append(f"{name}: missing from {other_path}")
            elif m.get("value") != peer.get("value"):
                failures.append(
                    f"{name}: counter value {m.get('value')} != "
                    f"{peer.get('value')} across fixed-seed runs (only "
                    f"'{NONDET_SEGMENT}'-marked metrics may differ)")
    if failures:
        print("stats schema check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    suffix = " + determinism vs peer dump" if other_path else ""
    print(f"stats schema check OK ({len(names)} metrics{suffix})")
    return 0


def check_trace(path):
    with open(path) as f:
        data = json.load(f)
    failures = []
    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise SystemExit(f"{path}: no 'traceEvents' array")
    seen = set()
    for e in events:
        name = e.get("name")
        if not name:
            failures.append(f"event without a name: {e}")
            continue
        seen.add(name)
        if e.get("ph") != "X":
            failures.append(f"{name}: phase {e.get('ph')!r} != 'X'")
        for key in ("ts", "dur", "pid", "tid"):
            if not isinstance(e.get(key), (int, float)):
                failures.append(f"{name}: missing/non-numeric {key!r}")
        args = e.get("args", {})
        if "id" not in args or "parent" not in args:
            failures.append(f"{name}: args without span id/parent")
    for required in REQUIRED_SPANS:
        if required not in seen:
            failures.append(
                f"required span missing: {required} (traced count too "
                f"trivial? the smoke DB must be dense enough to reach the "
                f"DLM sampling phase)")
    if data.get("droppedEvents", 0) != 0:
        failures.append(
            f"trace dropped {data['droppedEvents']} events (buffer too "
            f"small for the smoke workload)")
    if failures:
        print("trace schema check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"trace schema check OK ({len(events)} events, "
          f"{len(seen)} distinct spans)")
    return 0


def check_count_json(path):
    with open(path) as f:
        data = json.load(f)
    failures = []
    for key in ("estimate", "exact", "converged", "partial", "lower_bound",
                "upper_bound", "partial_reason", "adaptive", "strategy",
                "kind", "verdict", "oracle_calls", "num_components",
                "components", "profile"):
        if key not in data:
            failures.append(f"missing top-level key {key!r}")
    # The anytime contract: non-partial results have a degenerate interval
    # [estimate, estimate]; partial results need a non-empty reason and an
    # interval actually containing the estimate.
    if data.get("partial"):
        if not data.get("partial_reason"):
            failures.append("partial result without a partial_reason")
        lo, hi = data.get("lower_bound"), data.get("upper_bound")
        est = data.get("estimate")
        if not (isinstance(lo, (int, float)) and isinstance(hi, (int, float))
                and lo <= est <= hi):
            failures.append(
                f"partial bounds [{lo}, {hi}] do not contain the estimate "
                f"{est}")
    components = data.get("components", [])
    if not components:
        failures.append("empty 'components' array")
    for i, c in enumerate(components):
        for key in ("estimate", "exact", "strategy", "shape_key", "verdict",
                    "partial", "lower_bound", "upper_bound", "stop_reason",
                    "rounds_executed", "completed_runs", "total_runs",
                    "plan_cache_hit", "oracle_calls", "nondet_hom_queries",
                    "exec_ms"):
            if key not in c:
                failures.append(f"component {i}: missing {key!r}")
        if "stop_reason" in c and c["stop_reason"] not in STOP_REASONS:
            failures.append(
                f"component {i}: stop_reason {c['stop_reason']!r} not in "
                f"{STOP_REASONS}")
    profile = data.get("profile", {})
    phases = profile.get("phases", {})
    for key in ("parse_ms", "compile_ms", "plan_ms", "execute_ms"):
        if key not in phases:
            failures.append(f"profile.phases: missing {key!r}")
    for key in ("plan_cache_hits", "plan_cache_misses", "oracle_calls",
                "lanes", "components"):
        if key not in profile:
            failures.append(f"profile: missing {key!r}")
    if failures:
        print("count --json schema check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"count --json schema check OK ({len(components)} components)")
    return 0


def main():
    if len(sys.argv) in (3, 4) and sys.argv[1] == "stats":
        return check_stats(sys.argv[2],
                           sys.argv[3] if len(sys.argv) == 4 else None)
    if len(sys.argv) == 3 and sys.argv[1] == "trace":
        return check_trace(sys.argv[2])
    if len(sys.argv) == 3 and sys.argv[1] == "count-json":
        return check_count_json(sys.argv[2])
    raise SystemExit(__doc__)


if __name__ == "__main__":
    sys.exit(main())
