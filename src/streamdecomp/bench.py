"""Batch experiment harness: run algorithm/k grids, emit long-form CSV,
summarize with geometric means per (algorithm, k) group."""

from __future__ import annotations

import csv
import math
from typing import Iterable, Sequence, TextIO

CSV_COLUMNS = ["edge_cut", "cut_net", "connectivity", "imbalance",
               "comm_cost", "runtime_ms", "algorithm", "k", "epsilon", "seed"]

SUMMARY_METRICS = ["edge_cut", "cut_net", "connectivity", "imbalance",
                   "comm_cost", "runtime_ms"]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean so every instance weighs the same; arithmetic mean when
    a zero is present (the geometric mean would collapse); the common value
    itself when all are equal, which ``exp(mean(log v))`` may miss by an
    ulp."""
    if not values:
        raise ValueError("empty group")
    if values.count(values[0]) == len(values):
        return values[0]
    if any(v == 0 for v in values):
        return sum(values) / len(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def write_rows(fh: TextIO, rows: Iterable[dict]) -> None:
    """Write the header and ``rows`` to ``fh``, opened with ``newline=""``."""
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: ("" if row.get(c) is None else row.get(c))
                         for c in CSV_COLUMNS})


def summarize(rows: Iterable[dict]) -> list[dict]:
    """Per-(algorithm, k) means of every metric column, geometric by default."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["algorithm"], str(row["k"])), []).append(row)
    out = []
    for (algorithm, k), members in sorted(groups.items()):
        summary: dict = {"algorithm": algorithm, "k": k, "runs": len(members)}
        for metric in SUMMARY_METRICS:
            values = [float(r[metric]) for r in members
                      if r.get(metric) not in (None, "")]
            if values:
                summary[metric] = geometric_mean(values)
        out.append(summary)
    return out
