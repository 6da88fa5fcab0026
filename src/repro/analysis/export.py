"""Export simulation and sweep results for external tools.

The paper's Fig. 12 scatter plots are produced from sweep records; this
module serializes :class:`~repro.analysis.dse.DSEPoint` lists as CSV
(one row per point, stable column order) so any plotting tool can
regenerate the figures from bench output.

JSONL exports go through the repository's **canonical JSON-lines record
format** (:func:`repro.sim.linecodec.record_line`, re-exported here):
one JSON object per line, keys sorted, compact separators, NumPy
scalars/arrays converted to native values.  The service result store
(:mod:`repro.service.store`) writes its blobs through the same writer,
so every machine-readable result in the system shares one stable
serialization.

CSV and JSONL both derive from one :func:`point_record` mapping — the
column list and the per-column CSV text formatting are declared once, so
the two formats cannot drift.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Union

from ..sim.linecodec import record_line  # noqa: F401  (re-exported)
from .dse import DSEPoint

COLUMNS = [
    "dataflow",
    "array_height",
    "array_width",
    "n", "c", "h", "w", "fh", "fw",
    "macs",
    "loop_iterations",
    "cycles",
    "execution_time_s",
    "ofmap_write_bw",
    "simulated",
]

#: CSV text rendering per column; columns not listed emit ``str(value)``.
_CSV_CONVERT: Dict[str, Callable[[object], object]] = {
    "execution_time_s": lambda value: f"{value:.6f}",
    "ofmap_write_bw": lambda value: f"{value:.4f}",
    "simulated": lambda value: int(value),
}


def point_record(point: DSEPoint) -> Dict[str, object]:
    """One sweep point as a plain dict (native types, ``COLUMNS`` keys).

    The single source of truth for both the CSV rows and the JSONL
    records.
    """
    cfg = point.config
    dims = cfg.dims
    return {
        "dataflow": point.dataflow,
        "array_height": cfg.array_height,
        "array_width": cfg.array_width,
        "n": dims.n, "c": dims.c, "h": dims.h, "w": dims.w,
        "fh": dims.fh, "fw": dims.fw,
        "macs": dims.macs,
        "loop_iterations": point.loop_iterations,
        "cycles": point.cycles,
        "execution_time_s": point.execution_time_s,
        "ofmap_write_bw": point.peak_write_bw_x_portion,
        "simulated": point.simulated,
    }


def point_row(point: DSEPoint) -> List[object]:
    """The CSV rendering of :func:`point_record`, in ``COLUMNS`` order."""
    record = point_record(point)
    return [
        _CSV_CONVERT.get(column, str)(record[column]) for column in COLUMNS
    ]


def to_csv(
    points: Iterable[DSEPoint],
    path: Optional[Union[str, Path]] = None,
) -> str:
    """Serialize sweep points to CSV; optionally write to ``path``."""
    output = io.StringIO()
    writer = csv.writer(output)
    writer.writerow(COLUMNS)
    for point in points:
        writer.writerow(point_row(point))
    text = output.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def from_csv(path: Union[str, Path]) -> List[dict]:
    """Read an exported sweep back as a list of typed dicts."""
    rows: List[dict] = []
    with open(path, newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            rows.append(
                {
                    **record,
                    "cycles": int(record["cycles"]),
                    "loop_iterations": int(record["loop_iterations"]),
                    "macs": int(record["macs"]),
                    "execution_time_s": float(record["execution_time_s"]),
                    "ofmap_write_bw": float(record["ofmap_write_bw"]),
                    "simulated": bool(int(record["simulated"])),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Canonical JSON-lines records
# ---------------------------------------------------------------------------


def to_jsonl(
    records: Iterable[Mapping],
    path: Optional[Union[str, Path]] = None,
) -> str:
    """Serialize records as JSON lines; optionally write to ``path``."""
    text = "".join(record_line(record) + "\n" for record in records)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def from_jsonl(source: Union[str, Path]) -> List[dict]:
    """Read JSON-lines records from a path (blank lines ignored)."""
    text = Path(source).read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def points_to_jsonl(
    points: Iterable[DSEPoint],
    path: Optional[Union[str, Path]] = None,
) -> str:
    """Sweep points as JSON lines (same records as the CSV columns)."""
    return to_jsonl((point_record(point) for point in points), path)
