"""Answer checks computed apart from the program.

The benchmark keeps its own plaintext copy of every live record and
checks each answer of the store against it: a brute-force substring
scan for searches, the last text put for gets.  Every function
returns a list of problems; an empty list means the answer is right.
"""

from __future__ import annotations

from typing import Any


def expected_matches(pattern: str, texts: dict[int, str]) -> set[int]:
    """Brute force: the RIDs of live records containing ``pattern``."""
    return {rid for rid, text in texts.items() if pattern in text}


def _cost_adds_up(result: Any) -> bool:
    scan, verify, cost = result.scan_cost, result.verify_cost, result.cost
    if scan is None or verify is None:
        return False
    return (cost.messages == scan.messages + verify.messages
            and cost.bytes == scan.bytes + verify.bytes
            and cost.by_kind == scan.by_kind + verify.by_kind)


def check_search(pattern: str, result: Any,
                 texts: dict[int, str]) -> list[str]:
    """Check one verified search result against the live plaintexts."""
    problems = []
    truth = expected_matches(pattern, texts)
    if result.pattern != pattern:
        problems.append(f"answer is for {result.pattern!r}")
    if set(result.matches) != truth:
        problems.append(
            f"{pattern!r}: {len(result.matches)} matches, "
            f"brute force finds {len(truth)}")
    if not truth <= set(result.candidates):
        problems.append(
            f"{pattern!r}: recall below 100 % "
            f"({len(truth - set(result.candidates))} missed)")
    bad = {rid for rid in result.false_positives
           if pattern in texts.get(rid, "")}
    if bad:
        problems.append(
            f"{pattern!r}: {len(bad)} false positives contain it")
    if set(result.false_positives) != (
            set(result.candidates) - set(result.matches)):
        problems.append(f"{pattern!r}: false positives are not "
                        "candidates minus matches")
    if not _cost_adds_up(result):
        problems.append(f"{pattern!r}: cost != scan_cost + verify_cost")
    return problems


def check_batch(patterns: list[str], results: dict[str, Any],
                texts: dict[int, str]) -> list[str]:
    """Check a ``search_batch`` answer: one correct result per
    distinct pattern, nothing else."""
    problems = []
    if set(results) != set(patterns):
        problems.append("batch answers a different set of patterns")
    for pattern in patterns:
        if pattern in results:
            problems += check_search(pattern, results[pattern], texts)
    return problems


def check_get(rid: int, answer: str | None,
              texts: dict[int, str]) -> list[str]:
    """``get`` returns the last text put, or None once deleted (or
    never stored)."""
    expected = texts.get(rid)
    if answer != expected:
        return [f"get({rid}) returned {answer!r}, expected {expected!r}"]
    return []


def check_index_records(index_records: int, records: int,
                        sites_per_record: int) -> list[str]:
    """Every record owns exactly ``index_sites_per_record`` index
    records."""
    want = records * sites_per_record
    if index_records != want:
        return [f"{index_records} index records, expected {want} "
                f"({records} records x {sites_per_record})"]
    return []
