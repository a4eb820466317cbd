"""Steadiness check: run one workload over several seeds and print,
per metric, the median, the quartiles and the spread against the
metric's bound from ``BENCHMARK.json``.

    python3 perfbench/steady.py --workload write-churn --seeds 10
    python3 perfbench/steady.py --workload read-skewed --seeds 10 --sets 2

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.
With ``--sets 2`` the same seeds run twice and the second median is
compared with the first, as a later change would be compared with its
parent.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int,
             seconds: float) -> tuple[dict, dict]:
    """One untraced run: its JSON result and report-only figures."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr}")
    report = {}
    for line in lines:
        if line.startswith("report "):
            report = json.loads(line[len("report "):])
    return json.loads(lines[-1]), report


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def run_set(args: argparse.Namespace, label: str) -> dict:
    values: dict[str, list[float]] = {}
    shares = set()
    correct = True
    for seed in range(1, args.seeds + 1):
        result, report = run_once(args.workload, seed, args.seconds)
        correct &= result["correct"]
        shares.add((result["failed"], result["attempted"]))
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        for name, value in report.items():
            values.setdefault("(report) " + name, []).append(value)
        print(f"{label} seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']} correct {result['correct']}",
              flush=True)
    ratios = {failed / attempted for failed, attempted in shares}
    print(f"{label}: correct={correct} failed shares={sorted(ratios)}")
    return values


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    sets = [run_set(args, f"set {n + 1}") for n in range(args.sets)]
    print(f"\n{'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, values in sets[0].items():
        median, q1, q3, share = spread(values)
        metric = bounds.get(name)
        bound = metric["bound"] if metric and "bound" in metric else None
        verdict = ""
        if bound is not None:
            verdict = ("steady" if share < bound / 3 else
                       "within bound" if share <= bound else "TOO WIDE")
        if len(sets) == 2 and metric is not None:
            second = statistics.median(sets[1][name])
            worse = (second - median) / median
            if metric["better"] == "higher":
                worse = -worse
            verdict += (f"  set 2 median {second:.4g} "
                        f"({100 * worse:+.1f} % worse"
                        f"{', OVER BOUND' if worse > bound else ''})")
        print(f"{name:<30} {median:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{share:8.3f} {bound if bound is not None else '-':>6}  "
              f"{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
