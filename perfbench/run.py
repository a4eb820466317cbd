"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload read-skewed --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(untraced); with ``--trace 1`` the run traces every operation and
reports the per-layer metrics and the tracing overhead instead.  The
lines before it print the workload's search figures, failures by type
and the sample count and percentile behind every tail.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: (name, unit, better) of the metrics every workload reports untraced.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("put_p50_ms", "ms", "lower"),
    ("get_p50_ms", "ms", "lower"),
    ("load_rec_per_s", "1/s", "higher"),
    ("store_bytes_per_byte", "B/B", "lower"),
    ("msgs_per_op", "msgs", "lower"),
    ("kbytes_per_op", "kB", "lower"),
]

#: (name, unit) of the per-layer metrics of a traced run.
PER_LAYER = [
    ("index.build_us_per_rec", "us/rec"),
    ("index.plan_us_per_query", "us/query"),
    ("kernels.plan_hit_ratio", "ratio"),
    ("kernels.automaton_builds", "count"),
    ("crypto.encrypt_us_per_rec", "us/rec"),
    ("crypto.decrypt_us_per_fetch", "us/fetch"),
    ("lh.insert_us", "us/op"),
    ("lh.lookup_us", "us/op"),
    ("lh.delete_us", "us/op"),
    ("lh.run_concurrent_us_per_op", "us/op"),
    ("lh.scan_ms_per_search", "ms/search"),
    ("lh.scan_hits_per_search", "count"),
    ("lh.index_buckets", "count"),
    ("lh.record_buckets", "count"),
    ("lh.index_load_factor", "ratio"),
    ("lh.splits", "count"),
    ("lh.forwards", "count"),
    ("lh.iams", "count"),
    ("lh.haystack_builds", "count"),
    ("lh.haystack_hit_ratio", "ratio"),
    ("lh.haystack_invalidations", "count"),
    ("lh.scan_memo_hits", "count"),
    ("match.ms_per_search", "ms/search"),
    ("agg.ms_per_search", "ms/search"),
    ("search.candidates_per_query", "count"),
    ("search.precision", "ratio"),
    ("verify.ms_per_search", "ms/search"),
    ("verify.fetches_per_search", "count"),
    ("net.dispatch_ms_per_search", "ms/search"),
    ("net.msgs.scan_phase", "msgs"),
    ("net.msgs.verify_phase", "msgs"),
    ("net.run_ms_per_op", "ms/op"),
    ("net.runs_per_put", "count"),
    ("wire.encode_us_per_msg", "us/msg"),
    ("wire.decode_us_per_msg", "us/msg"),
    ("proc.cpu_ms_per_op", "ms/op"),
    ("proc.wall_ms_per_op", "ms/op"),
    ("trace.overhead_pct", "%"),
]

#: Figures printed for the reader but not in the JSON line.  The search
#: figures exist only where searches succeed; the tails of the live
#: tier's latencies move by more than any bound from run to run.
REPORT_ONLY = [
    ("put_tail_ms", "ms"), ("get_tail_ms", "ms"),
    ("search_p50_ms", "ms"), ("search_tail_ms", "ms"),
    ("search_qps", "1/s"), ("batch16_p50_ms", "ms"),
    ("search_sim_ms", "ms"), ("search_msgs", "msgs"),
    ("search_kbytes", "kB"), ("delete_p50_ms", "ms"),
    ("get_absent_p50_ms", "ms"),
    ("rss_growth_mb_per_round", "MB"), ("repeat_share", "ratio"),
    ("fault_wait_s", "s"),
]

WORKLOAD_NAMES = ("read-skewed", "write-churn", "live-keyed")


#: The tail of a timing: the 90th percentile, reported once at least
#: 100 samples put ten or more beyond it.  A higher percentile with
#: only ten samples beyond it reads one stray pause on this shared
#: machine, and moves by more than any bound a gate could use.
TAIL_PERCENTILE = 90
MIN_TAIL_SAMPLES = 100


def tail(samples: list[float]) -> float | None:
    """The :data:`TAIL_PERCENTILE` of ``samples``; None with fewer than
    :data:`MIN_TAIL_SAMPLES`."""
    if len(samples) < MIN_TAIL_SAMPLES:
        return None
    return statistics.quantiles(samples, n=100)[TAIL_PERCENTILE - 1]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def end_to_end(rec: Any) -> tuple[dict[str, float], list[str]]:
    """End-to-end metric values, and a note on each median.

    ``setup_s`` is the mean set-up time: a live cluster start ends on
    a step of the ping backoff in ``LiveCluster.start`` (0.65 s or
    0.99 s), so the median of a run's few set-ups jumps a whole step
    from run to run.

    ``ops_per_s``, ``msgs_per_op`` and ``kbytes_per_op`` are those of a
    client that does one operation of each kind the workload ran, where
    an operation is one keyed call or one name searched (a batch of 16
    names is 16 operations): every kind weighs once, whatever its count
    in a round.  A kind's time and messages are medians, robust to the
    collector pauses that land in a few calls and to the few popular
    names whose searches fetch many candidates; its bytes are a mean,
    since the bytes a search ships spread over a broad band by pattern,
    where a median of a run's few searches jumps.  Calls that failed
    are left out."""
    kinds = sorted(rec.messages)

    def one_of_each(samples: dict[str, list[float]],
                    average: Any = _median) -> float:
        return sum(average(samples[kind]) / rec.sizes[kind]
                   for kind in kinds)

    values = {
        "setup_s": _mean(rec.setup),
        "peak_rss_mb": rec.peak_rss_mb,
        "ops_per_s": len(kinds) / one_of_each(rec.latency),
        "load_rec_per_s": _median(rec.load_rate),
        "store_bytes_per_byte": rec.footprint_ratio,
        "msgs_per_op": one_of_each(rec.messages) / len(kinds),
        "kbytes_per_op": (one_of_each(rec.wire_bytes, _mean) / 1000
                          / len(kinds)),
    }
    notes = [f"ops_per_s, msgs_per_op and kbytes_per_op weigh once each "
             f"of: {', '.join(kinds)}"]
    for kind in ("put", "get"):
        samples = rec.latency[kind]
        values[f"{kind}_p50_ms"] = 1e3 * _median(samples)
        notes.append(f"{kind}_p50_ms is the median of {len(samples)} "
                     "samples")
    return values, notes


def report_only(rec: Any) -> tuple[dict[str, float], list[str]]:
    values: dict[str, float] = {}
    notes = []
    for kind in ("put", "get", "search"):
        found = tail(rec.latency[kind])
        if found is not None:
            values[f"{kind}_tail_ms"] = 1e3 * found
            notes.append(f"{kind}_tail_ms is p{TAIL_PERCENTILE} of "
                         f"{len(rec.latency[kind])} samples")
    searches = rec.latency["search"]
    if searches:
        values["search_p50_ms"] = 1e3 * _median(searches)
        values["search_qps"] = len(searches) / sum(searches)
    singles = [info for info in rec.scan_info if info[0] == "search"]
    if singles:
        values["search_msgs"] = _median([i[1] + i[2] for i in singles])
        values["search_kbytes"] = _median([i[3] / 1e3 for i in singles])
        values["search_sim_ms"] = _median([1e3 * i[4] for i in singles])
    for kind in ("batch16", "delete", "get_absent"):
        if rec.latency[kind]:
            values[f"{kind}_p50_ms"] = 1e3 * _median(rec.latency[kind])
            notes.append(f"{kind}_p50_ms is the median of "
                         f"{len(rec.latency[kind])} samples")
    if rec.fault_seconds:
        values["fault_wait_s"] = rec.fault_seconds
    grown = rec.rss_after_round
    if len(grown) > 1:
        values["rss_growth_mb_per_round"] = (
            (grown[-1] - grown[0]) / (len(grown) - 1))
    if rec.queries:
        values["repeat_share"] = 1 - len(set(rec.queries)) / len(
            rec.queries)
    return values, notes


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _overhead_pct(rec: Any) -> float:
    """What tracing adds to the traced work: every span recorded times
    the cost of one span (``tracing.span_cost_ns``), over the time the
    work would take without them."""
    from tracing import span_cost_ns

    spans = rec.tracer.spans
    added = len(spans) * span_cost_ns()
    traced = sum(span.duration for span in spans if span.parent < 0)
    return 100 * added / (traced - added) if traced > added else 0.0


def per_layer(rec: Any) -> dict[str, float]:
    from tracing import LayerTotals

    t = LayerTotals(rec.tracer.spans)
    counters = {name: entry.get("value", 0)
                for name, entry in rec.registry.to_dict().items()}
    scans = t.calls("lh.scan")
    ops = sum(t.user_ops.values())
    succeeded = sum(len(costs) for costs in rec.messages.values())
    search_ns = sum(t.self_ns("net.run", kind)
                    for kind in ("ess.search", "ess.search_batch"))
    agg_ns = (t.self_ns("ess.search") + t.self_ns("ess.search_batch")
              + t.total_ns("agg.add") + t.total_ns("agg.candidates"))
    plan_hit = counters.get("kernels.plan.hit", 0)
    plan_all = plan_hit + counters.get("kernels.plan.miss", 0)
    hay_hit = counters.get("lh.haystack.hit", 0)
    hay_all = hay_hit + counters.get("lh.haystack.build", 0)
    candidates = sum(c for c, __ in rec.query_info)
    matches = sum(m for __, m in rec.query_info)

    def per_call(name: str, scale: float) -> float:
        return _ratio(t.total_ns(name) / scale, t.count(name))

    values = {
        "index.build_us_per_rec": per_call("index.build", 1e3),
        "index.plan_us_per_query": per_call("index.plan", 1e3),
        "kernels.plan_hit_ratio": _ratio(plan_hit, plan_all),
        "kernels.automaton_builds": counters.get("kernels.automaton.miss",
                                                 0),
        "crypto.encrypt_us_per_rec": per_call("crypto.encrypt", 1e3),
        "crypto.decrypt_us_per_fetch": per_call("crypto.decrypt", 1e3),
        "lh.insert_us": per_call("lh.insert", 1e3),
        "lh.lookup_us": per_call("lh.lookup", 1e3),
        "lh.delete_us": per_call("lh.delete", 1e3),
        "lh.run_concurrent_us_per_op": per_call("lh.run_concurrent", 1e3),
        "lh.scan_ms_per_search": _ratio(t.total_ns("lh.scan") / 1e6,
                                        scans),
        "lh.scan_hits_per_search": _ratio(t.count("lh.scan"), scans),
        "lh.splits": rec.traced_kinds.get("split", 0),
        "lh.forwards": counters.get("lh.forward", 0),
        "lh.iams": rec.traced_kinds.get("iam", 0),
        "lh.haystack_builds": counters.get("lh.haystack.build", 0),
        "lh.haystack_hit_ratio": _ratio(hay_hit, hay_all),
        "lh.haystack_invalidations": counters.get("lh.haystack.invalidate",
                                                  0),
        "lh.scan_memo_hits": counters.get("lh.scan.memo_hit", 0),
        "match.ms_per_search": _ratio(t.total_ns("match.bucket") / 1e6,
                                      scans),
        "agg.ms_per_search": _ratio(agg_ns / 1e6, scans),
        "search.candidates_per_query": _ratio(candidates,
                                              len(rec.query_info)),
        "search.precision": _ratio(matches, candidates),
        "verify.ms_per_search": _ratio(t.total_ns("verify.get") / 1e6,
                                       scans),
        "verify.fetches_per_search": _ratio(t.calls("verify.get"), scans),
        "net.dispatch_ms_per_search": _ratio(search_ns / 1e6, scans),
        "net.msgs.scan_phase": _median([i[1] for i in rec.scan_info]),
        "net.msgs.verify_phase": _median([i[2] for i in rec.scan_info]),
        "net.run_ms_per_op": _ratio(t.total_ns("net.run") / 1e6, ops),
        "net.runs_per_put": _ratio(t.calls("net.run", "ess.put"),
                                   t.user_ops.get("ess.put", 0)),
        "wire.encode_us_per_msg": per_call("wire.encode", 1e3),
        "wire.decode_us_per_msg": per_call("wire.decode", 1e3),
        "proc.cpu_ms_per_op": _ratio(1e3 * rec.cpu_seconds, succeeded),
        "proc.wall_ms_per_op": _ratio(1e3 * rec.wall_seconds, succeeded),
        "trace.overhead_pct": _overhead_pct(rec),
    }
    values.update({name: rec.structure.get(name, 0)
                   for name in ("lh.index_buckets", "lh.record_buckets",
                                "lh.index_load_factor")})
    return values


def _search_split(rec: Any) -> list[str]:
    """Where the traced search time went: the scan round (bucket
    matching and the rest of dispatch), verification, planning, and
    everything else in the search call, which is hit aggregation."""
    from tracing import LayerTotals

    t = LayerTotals(rec.tracer.spans)
    kinds = ("ess.search", "ess.search_batch")

    def total(name: str) -> int:
        return sum(t.total_ns(name, kind) for kind in kinds)

    whole = sum(t.total_ns(kind, kind) for kind in kinds)
    if not whole:
        return []
    scan, match = total("lh.scan"), total("match.bucket")
    verify, plan = total("verify.get"), total("index.plan")
    parts = [("scan round", scan), ("  bucket matching", match),
             ("  dispatch and billing", scan - match),
             ("verification", verify), ("planning", plan),
             ("aggregation", whole - scan - verify - plan)]
    return [f"  {label:<24} {100 * ns / whole:5.1f} %"
            for label, ns in parts]


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import the program from this checkout's ``src`` and nowhere
    else; exit non-zero without a result when it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        sys.exit(f"perfbench: cannot import the program from {SRC}: "
                 f"{error}")
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"perfbench: imported repro from {origin}, not {SRC}")


def main(argv: list[str]) -> int:
    args = _parse(argv)
    _import_program()
    from workloads import WORKLOADS, Recorder

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Live site processes and their temporary files stay inside the
    # checkout.
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    rec = Recorder(trace=bool(args.trace))
    started = time.perf_counter()
    try:
        WORKLOADS[args.workload](args.seed, args.seconds, rec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"ran {time.perf_counter() - started:.1f} s  "
          f"attempted {rec.attempted}  failed {rec.failed}")
    for failure, count in sorted(rec.failures.items()):
        print(f"  failed {count} x {failure}")
    for problem in rec.problems[:20]:
        print(f"  WRONG: {problem}")
    if args.trace:
        metrics = per_layer(rec)
        units = dict(PER_LAYER)
        trace_path = (out_dir /
                      f"trace-{args.workload}-{args.seed}.jsonl")
        rec.tracer.dump(str(trace_path))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        split = _search_split(rec)
        if split:
            print("traced search time by phase:")
            print("\n".join(split))
    else:
        metrics, notes = end_to_end(rec)
        units = {name: unit for name, unit, __ in END_TO_END}
        extra, extra_notes = report_only(rec)
        for name, unit in REPORT_ONLY:
            if name in extra:
                print(f"  {name:<22} {extra[name]:12.4f} {unit}")
        for note in notes + extra_notes:
            print(f"  ({note})")
        print("report " + json.dumps(extra))
    for name in units:
        print(f"{name:<30} {metrics[name]:14.4f} {units[name]}")
    print(json.dumps({
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
