"""``run.py --compare A.json B.json``: did B get worse than A?

For every end-to-end metric on every workload: both medians, the ratio
B/A with its base, the metric's fixed bound, and a verdict —

``regressed``   B is worse than A by more than the bound;
``unresolved``  either side's sample-to-sample spread (per block; per
                set-up for ``setup_s``) is wider than the bound, so the
                two medians cannot be told apart;
``unchanged``   otherwise (an improvement also reads ``unchanged``:
                claiming a gain takes the paired runs of the
                choosing-metrics guide, not one comparison).

Count metrics repeat exactly on one commit, so they are diffed
separately and any difference is listed; so is any increase of
``failed_share`` or ``ref_cycle_error``, which have no bound.  Exit code
1 when anything is regressed, unresolved or differs.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List


#: Counts that depend on which of two racing requests arrives first
#: (``service_mixed``), so they do not repeat exactly.
RACY_COUNTS = frozenset({"store.hits", "scheduler.coalesced", "scheduler.batches"})
#: Per-layer metrics expected to read exactly 0: any increase is listed.
NO_INCREASE = ("failed_share", "ref_cycle_error")


def spread(values: List[float]) -> float:
    """Sample-to-sample spread over the median: the quartile distance
    with four samples or more, the range below that, 0 with one."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(a: Dict, b: Dict, metric: Dict) -> Dict:
    """Compare one end-to-end metric of one workload."""
    name, bound = metric["name"], metric["bound"]
    base, new = a["end_to_end"][name]["value"], b["end_to_end"][name]["value"]
    worse_by = (new - base) / base
    if metric["better"] == "higher":
        worse_by = -worse_by
    widest = max(spread(side["samples"][name]) for side in (a, b))
    if widest > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "regressed"
    else:
        word = "unchanged"
    return {
        "metric": name,
        "a": base,
        "b": new,
        "ratio": new / base,
        "bound": bound,
        "spread": widest,
        "verdict": word,
    }


def count_differences(a: Dict, b: Dict, benchmark: Dict) -> List[str]:
    counts = [
        m["name"]
        for m in benchmark["per_layer"]
        if m["unit"] == "count" and m["name"] not in RACY_COUNTS
    ]
    layers_a, layers_b = a.get("per_layer", {}), b.get("per_layer", {})

    def differs(name: str) -> bool:
        if name not in layers_a or name not in layers_b:
            return False
        before, after = layers_a[name]["value"], layers_b[name]["value"]
        return after > before if name in NO_INCREASE else after != before

    return [
        f"{name}: {layers_a[name]['value']:g} -> {layers_b[name]['value']:g}"
        for name in (*counts, *NO_INCREASE)
        if differs(name)
    ]


def compare(a: Dict, b: Dict, benchmark: Dict) -> Dict[str, Dict]:
    """``{workload: {"metrics": [verdict...], "counts": [diff...]}}`` for
    the workloads both results hold."""
    out = {}
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][name], b["workloads"][name]
        out[name] = {
            "metrics": [
                verdict(side_a, side_b, metric)
                for metric in benchmark["end_to_end"]
            ],
            "counts": count_differences(side_a, side_b, benchmark),
            "failed": (side_a["failed"], side_b["failed"]),
        }
    return out


def main(path_a: str, path_b: str, benchmark: Dict) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    bad = 0
    for name, report in compare(a, b, benchmark).items():
        print(f"\n== {name} (failed ops: A {report['failed'][0]}, B {report['failed'][1]}) ==")
        print(
            f"  {'metric':<14} {'A':>12} {'B':>12} {'B/A':>8} "
            f"{'bound':>6} {'spread':>7}  verdict"
        )
        for row in report["metrics"]:
            bad += row["verdict"] != "unchanged"
            print(
                f"  {row['metric']:<14} {row['a']:>12.5g} {row['b']:>12.5g} "
                f"{row['ratio']:>8.3f} {row['bound']:>6.0%} {row['spread']:>7.1%}  "
                f"{row['verdict']}"
            )
        for line in report["counts"]:
            bad += 1
            print(f"  count differs  {line}")
        bad += report["failed"][1] > report["failed"][0]
    print(f"\n{bad} metric(s) regressed, unresolved or differing")
    return 1 if bad else 0
