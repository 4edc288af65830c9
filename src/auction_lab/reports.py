"""Experiment reports and their emission formats.

A report is a flat list of rows sharing one scenario id.  Estimate rows
carry a revenue estimate; ratio rows carry a ratio with its propagated
uncertainty; any row may additionally carry the bound it was tested
against and a pass/fail verdict.  The columns are fixed: `scenario_id`,
then the `ReportRow` fields in order.  csv and text-table lay out the same
cells; json-lines uses the same keys, one object per row, and round-trips
through its own parser byte-for-byte.  No wall-clock runtime is recorded, so
emission is reproducible.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields

from .errors import IOFailure

__all__ = [
    "ReportRow",
    "ExperimentReport",
    "emit_report",
    "parse_report_jsonl",
    "CSV_COLUMNS",
]


@dataclass(frozen=True)
class ReportRow:
    mechanism: str
    mean: float | None
    std_err: float | None
    n_samples: int
    method: str  # "mc" | "exact" | "quadrature" | "ratio"
    bound_tested: str = ""
    verdict: str = ""  # "pass" | "fail" | ""


CSV_COLUMNS = ("scenario_id",) + tuple(f.name for f in fields(ReportRow))


def estimate_row(name, est, bound="", verdict="") -> ReportRow:
    """The row of a RevenueEstimate, optionally with its tested bound and verdict."""
    return ReportRow(name, est.mean, est.std_err, est.n_samples, est.method, bound, verdict)


def ratio_row(name, ratio, bound="", verdict="") -> ReportRow:
    """The row of a RatioEstimate, optionally with its tested bound and verdict."""
    return ReportRow(name, ratio.ratio, ratio.std_err, 0, "ratio", bound, verdict)


@dataclass(frozen=True)
class ExperimentReport:
    scenario_id: str
    rows: tuple
    seed: int

    @property
    def passed(self) -> bool:
        return all(r.verdict != "fail" for r in self.rows)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row_dict(report: ExperimentReport, row: ReportRow) -> dict:
    return {"scenario_id": report.scenario_id, **asdict(row)}


def _cells(report: ExperimentReport) -> list:
    """The header and one list of cells per row, as csv and text-table lay them out."""
    return [list(CSV_COLUMNS)] + [
        [_cell(v) for v in _row_dict(report, row).values()] for row in report.rows
    ]


def emit_report(report: ExperimentReport, format: str = "csv") -> bytes:
    """Serialize a report; stable row ordering, fixed columns."""
    if format == "csv":
        lines = [",".join(cells) for cells in _cells(report)]
        return ("\n".join(lines) + "\n").encode()
    if format == "json-lines":
        lines = [
            json.dumps(_row_dict(report, row), sort_keys=False) for row in report.rows
        ]
        return ("\n".join(lines) + ("\n" if lines else "")).encode()
    if format == "text-table":
        table = _cells(report)
        widths = [max(len(r[j]) for r in table) for j in range(len(CSV_COLUMNS))]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
            for r in table
        ]
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {format!r}")


def parse_report_jsonl(data: bytes) -> ExperimentReport:
    """Rebuild a report from its json-lines emission."""
    rows = []
    scenario_id = ""
    for line in data.decode().splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        scenario_id = d["scenario_id"]
        rows.append(ReportRow(**{c: d[c] for c in CSV_COLUMNS[1:]}))
    return ExperimentReport(scenario_id=scenario_id, rows=tuple(rows), seed=0)


def write_output(data: bytes, path: str | None) -> None:
    """Write emitted bytes to the file at `path`, or to stdout when it is None."""
    if path is None:
        sys.stdout.write(data.decode())
        return
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from exc
