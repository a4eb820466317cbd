"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They check that the oracle catches wrong answers, that the gated
per-operation figures do not depend on how often a round asks each
kind, that a failure through the named fault is counted but kept out
of them, that every metric name is well formed, and that
``BENCHMARK.json`` lists exactly the workloads and metrics the command
prints (a short run of each workload, about half a minute in all).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from repro.core.scheme import SearchResult  # noqa: E402
from repro.net.stats import NetworkStats  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TEXTS = {1: "SMITH JOHN", 2: "SMITHSON ANN", 3: "WONG LI", 4: "JONES AL"}


def _stats(messages: int, size: int, kind: str) -> NetworkStats:
    return NetworkStats(messages=messages, bytes=size,
                        by_kind=Counter({kind: messages}))


def _result(pattern: str, candidates: set[int], matches: set[int],
            verify_messages: int = 2) -> SearchResult:
    scan = _stats(4, 400, "scan")
    verify = _stats(verify_messages, 100, "lookup")
    cost = NetworkStats(
        messages=scan.messages + verify.messages,
        bytes=scan.bytes + verify.bytes,
        by_kind=scan.by_kind + verify.by_kind)
    return SearchResult(
        pattern=pattern, candidates=frozenset(candidates),
        matches=frozenset(matches),
        false_positives=frozenset(candidates - matches), cost=cost,
        scan_cost=scan, verify_cost=verify)


def test_oracle_accepts_a_right_answer():
    assert oracle.check_search("SMITH", _result("SMITH", {1, 2, 3},
                                                {1, 2}), TEXTS) == []


@pytest.mark.parametrize("wrong, why", [
    (_result("SMITH", {1, 2, 3}, {1}), "a match left out"),
    (_result("SMITH", {1, 3}, {1}), "recall below 100 %"),
    (_result("SMITH", {1, 2, 3}, {1, 2, 3}), "a false match"),
    (_result("WONG", {1, 2, 3}, {3}), "an answer to another pattern"),
])
def test_oracle_flags_a_wrong_search(wrong, why):
    assert oracle.check_search("SMITH", wrong, TEXTS), why


def test_oracle_flags_a_false_positive_containing_the_pattern():
    result = _result("SMITH", {1, 2}, {1, 2})
    object.__setattr__(result, "false_positives", frozenset({2}))
    assert oracle.check_search("SMITH", result, TEXTS)


def test_oracle_flags_cost_that_does_not_add_up():
    result = _result("SMITH", {1, 2}, {1, 2})
    object.__setattr__(result, "verify_cost", _stats(9, 100, "lookup"))
    assert oracle.check_search("SMITH", result, TEXTS)


def test_oracle_flags_a_wrong_batch_and_get_and_index_count():
    right = {"SMITH": _result("SMITH", {1, 2}, {1, 2})}
    assert oracle.check_batch(["SMITH"], right, TEXTS) == []
    assert oracle.check_batch(["SMITH", "WONG"], right, TEXTS)
    assert oracle.check_get(3, "WONG LI", TEXTS) == []
    assert oracle.check_get(3, "WONG LEE", TEXTS)
    assert oracle.check_get(99, None, TEXTS) == []
    assert oracle.check_get(99, "SMITH JOHN", TEXTS)  # deleted record
    assert oracle.check_index_records(80, 10, 8) == []
    assert oracle.check_index_records(79, 10, 8)


class _Network:
    stats = NetworkStats()


def _recorder(counts: dict[str, int]) -> "workloads.Recorder":
    """A recorder whose kinds ran ``counts`` times each, every call of
    a kind alike."""
    rec = workloads.Recorder(trace=False)
    rec.network = _Network()
    rec.setup, rec.load_rate = [1.0], [100.0]
    for kind, count in counts.items():
        rec.latency[kind] = [0.001 * len(kind)] * count
        rec.messages[kind] = [len(kind)] * count
        rec.wire_bytes[kind] = [100 * len(kind)] * count
        rec.sizes[kind] = 1
    return rec


def test_one_of_each_figures_do_not_depend_on_counts():
    few, __ = run.end_to_end(_recorder({"get": 16, "search": 1}))
    many, __ = run.end_to_end(_recorder({"get": 160, "search": 8}))
    for name in ("ops_per_s", "msgs_per_op", "kbytes_per_op"):
        assert few[name] == pytest.approx(many[name]), name


def test_a_known_fault_is_counted_but_kept_out_of_the_figures():
    rec = _recorder({"get": 4})

    def wedged():
        raise TimeoutError("cluster did not quiesce")

    rec.op("search", wedged, known_fault=lambda error: "named fault")
    assert (rec.attempted, rec.failed) == (1, 1)
    assert rec.fault_seconds > 0 and not rec.problems
    assert "search" not in rec.latency and "search" not in rec.messages
    rec.op("search", wedged)
    assert rec.problems  # an unnamed failure makes the run not correct


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(run.MIN_TAIL_SAMPLES)]
    value = run.tail(samples)
    assert sum(1 for x in samples if x > value) >= 10
    assert run.tail(samples[1:]) is None


def test_metric_names_are_well_formed():
    names = ([name for name, __, __ in run.END_TO_END]
             + [name for name, __ in run.PER_LAYER]
             + [name for name, __ in run.REPORT_ONLY])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_benchmark_json_matches_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        run.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def _printed(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_command_prints_exactly_the_listed_metrics(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _printed(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(entry["value"] > 0
               for entry in result["metrics"].values())


def test_traced_run_prints_exactly_the_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _printed("read-skewed", trace=1)
    assert result["correct"] is True
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
