"""Telemetry exporters: JSONL, CSV, and human-readable summaries.

All exporters consume *flat records* — plain dictionaries with a ``"t"``
discriminator (``meta`` / ``sample`` / ``counter`` / ``gauge`` /
``histogram`` / ``phase``) — the same shape
:class:`~repro.analysis.tracing.TraceCollector` uses for traces, so one
downstream loader handles both.  :class:`JsonSink` backs the CLI's
global ``--json`` flag: commands append records as they compute, and
``main`` writes the sink once at exit.
"""

from __future__ import annotations

import csv
import json
import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Union

Record = Dict[str, object]
PathLike = Union[str, pathlib.Path]


def write_jsonl(records: Iterable[Record], path: PathLike) -> int:
    """Write *records* as JSON lines; returns the line count."""
    path = pathlib.Path(path)
    lines = 0
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
            lines += 1
    return lines


def read_jsonl(path: PathLike) -> List[Record]:
    """Read records previously written by :func:`write_jsonl`."""
    path = pathlib.Path(path)
    records: List[Record] = []
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def write_csv(
    records: Sequence[Record],
    path: PathLike,
    columns: Optional[Sequence[str]] = None,
) -> int:
    """Write homogeneous *records* as CSV; returns the row count.

    Nested values (the sample records' ``delta``/``total`` dicts and
    per-CPU lists) are flattened into ``parent.child`` columns so the
    file loads directly into spreadsheet tools.
    """
    path = pathlib.Path(path)
    flat = [flatten_record(record) for record in records]
    if columns is None:
        seen: Dict[str, None] = {}
        for record in flat:
            for key in record:
                seen.setdefault(key, None)
        columns = list(seen)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=list(columns), extrasaction="ignore"
        )
        writer.writeheader()
        for record in flat:
            writer.writerow(record)
    return len(flat)


def flatten_record(record: Record, prefix: str = "") -> Record:
    """Flatten nested dicts/lists into ``parent.child`` columns.

    This is the one flattening rule shared by the CSV exporter and the
    analysis layer's :meth:`~repro.analysis.frames.DataTable.
    from_records`, so a record exported to CSV and one loaded back into
    a DataTable always agree on column names.
    """
    out: Record = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten_record(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                out[f"{name}.{index}"] = item
        else:
            out[name] = value
    return out


def human_summary(records: Sequence[Record]) -> str:
    """Render mixed telemetry records as a compact plain-text report."""
    samples = [r for r in records if r.get("t") == "sample"]
    counters = [r for r in records if r.get("t") == "counter"]
    gauges = [r for r in records if r.get("t") == "gauge"]
    histograms = [r for r in records if r.get("t") == "histogram"]
    phases = [r for r in records if r.get("t") == "phase"]
    lines: List[str] = []
    meta = next((r for r in records if r.get("t") == "meta"), None)
    if meta is not None:
        detail = " ".join(
            f"{key}={value}"
            for key, value in meta.items()
            if key != "t"
        )
        lines.append(f"run: {detail}")
    if samples:
        last = samples[-1]
        lines.append(
            f"time series: {len(samples)} samples over "
            f"{last['round']} rounds "
            f"(user {float(last['user_us']) / 1e6:.3f}s, "
            f"system {float(last['system_us']) / 1e6:.3f}s)"
        )
        moves = [r["delta"]["moves"] for r in samples]
        if any(moves):
            busiest = max(range(len(moves)), key=moves.__getitem__)
            lines.append(
                f"  busiest window: {moves[busiest]} moves ending at "
                f"round {samples[busiest]['round']}"
            )
    if counters:
        lines.append("counters:")
        for record in counters:
            lines.append(f"  {record['name']:<28s} {record['value']}")
    if gauges:
        lines.append("gauges:")
        for record in gauges:
            value = record["value"]
            shown = "na" if value is None else f"{float(value):.3f}"
            lines.append(f"  {record['name']:<28s} {shown}")
    for record in histograms:
        lines.append(_format_histogram_record(record))
    if phases:
        lines.append("phase profile (wall-clock):")
        lines.append(
            f"  {'phase':<18s} {'calls':>9s} {'total':>10s} {'mean':>10s}"
        )
        for record in phases:
            total_s = float(record["total_s"])
            mean_s = float(record["mean_s"])
            lines.append(
                f"  {record['name']:<18s} {record['calls']:>9d} "
                f"{total_s * 1e3:>8.2f}ms {mean_s * 1e6:>8.2f}µs"
            )
    return "\n".join(lines)


def _format_histogram_record(record: Record) -> str:
    bounds = list(record["bounds"])
    counts = list(record["counts"])
    lines = [f"histogram {record['name']}: n={record['total']}"]
    if record["total"]:
        lines[0] += (
            f" min={record['min']:g} mean={record['mean']:g}"
            f" max={record['max']:g}"
        )
    labels = [f"<= {bound:g}" for bound in bounds] + [f" > {bounds[-1]:g}"]
    peak = max(counts) or 1
    for label, count in zip(labels, counts):
        bar = "#" * round(20 * count / peak) if count else ""
        lines.append(f"  {label:>12s}  {count:>8d}  {bar}")
    return "\n".join(lines)


class JsonSink:
    """Accumulates records across one CLI invocation for ``--json``.

    Commands call :meth:`add` / :meth:`extend` as they produce data;
    :func:`repro.cli.main` writes everything once, after the command
    returns, so a crash mid-command leaves no partial file behind.
    """

    def __init__(self) -> None:
        self._records: List[Record] = []

    def add(self, record: Record) -> None:
        """Append one record."""
        self._records.append(record)

    def extend(self, records: Iterable[Record]) -> None:
        """Append many records."""
        self._records.extend(records)

    @property
    def records(self) -> List[Record]:
        """Everything collected so far."""
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def write(self, path: PathLike) -> int:
        """Write all records as JSONL; returns the line count."""
        return write_jsonl(self._records, path)
