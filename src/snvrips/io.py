"""File parsing and report serialization.

Input formats
-------------
Sequences: FASTA-like text (``>id`` header lines, sequence lines below, all
sequences equal length) plus a delimited metadata table (tab or comma, header
row required, columns ``id`` and ``time`` with non-negative integer times).

Matrix: the strict lower triangle of a symmetric integer matrix, one row per
line (line k holds k entries), plus a newline-separated time vector with one
entry per point; points are named p0, p1, ... in file order.  A file of ASCII
digits, spaces, tabs and newlines is read from its bytes in numpy; any other
goes through ``int`` cell by cell, which names the first bad cell.

Zero off-diagonal distances (identical sequences) are merged by
``dedupe_zero_distance``, which keeps each group's lexicographically least id;
one helper then gives the kept point the smallest time label of its group,
for both formats, and records every merge in the bundle.

Output: JSON with a stable key order, or a ``step<TAB>count`` summary.  A
report's JSON keys are "mode" and then its dataclass fields, except for SNV
reports, whose derived keys need a builder.  Representatives are serialized
as (vertex-id, vertex-id, coefficient) triples.  The JSON layout is that of
``json.dumps(doc, indent=2)``, ASCII-escaped; one writer, ``to_json``,
produces those bytes without the pure-Python encoder that ``indent`` selects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as quote

import numpy as np

from .distance import (
    INT64_MAX,
    DistanceSpace,
    TimeLabels,
    build_space_from_sequences,
    dedupe_zero_distance,
    group_zero_distance,
    merge_distances,
)
from .errors import InputError
from .oracle import OracleReport
from .pipeline import (
    BenchmarkResult,
    CorrespondenceReport,
    SnvReport,
    StabilityReport,
)


BOM = "\ufeff"  # written first by some editors (Excel, Notepad)


@dataclass
class InputBundle:
    space: DistanceSpace
    labels: TimeLabels
    merges: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _merged_bundle(
    space: DistanceSpace,
    merges: dict[str, str],
    times: dict[str, int],
    reason: str,
) -> InputBundle:
    """Label each kept point with the smallest time of its merged group; the
    horizon is the largest time before merging."""
    labels = {pid: times[pid] for pid in space.point_ids}
    for dropped, kept in merges.items():
        labels[kept] = min(labels[kept], times[dropped])
    notes = [
        f"merged {dropped} into {kept} ({reason})"
        for dropped, kept in sorted(merges.items())
    ]
    return InputBundle(space, TimeLabels(max(times.values()), labels), merges, notes)


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    """The lines of ``text`` that are not blank, each with its line number."""
    return [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]


def _parse_fasta(text: str) -> list[tuple[str, str]]:
    records: list[tuple[str, list[str]]] = []
    for lineno, raw in _numbered_lines(text):
        line = raw.strip()
        if line.startswith(">"):
            rid = line[1:].split()[0] if line[1:].split() else ""
            if not rid:
                raise InputError(f"line {lineno}: header without an id")
            records.append((rid, []))
        else:
            if not records:
                raise InputError(f"line {lineno}: sequence data before any '>' header")
            records[-1][1].append(line)
    if not records:
        raise InputError("no sequence records found")
    out = []
    for rid, chunks in records:
        seq = "".join(chunks)
        if not seq:
            raise InputError(f"record {rid!r} has an empty sequence")
        out.append((rid, seq))
    return out


def _parse_metadata(text: str) -> dict[str, int]:
    lines = _numbered_lines(text)
    if not lines:
        raise InputError("metadata table is empty")
    delim = "\t" if "\t" in lines[0][1] else ","
    header = [h.strip() for h in lines[0][1].split(delim)]
    try:
        id_col, time_col = header.index("id"), header.index("time")
    except ValueError:
        raise InputError(
            f"metadata header must contain 'id' and 'time' columns, got {header}"
        ) from None
    times: dict[str, int] = {}
    for lineno, line in lines[1:]:
        cells = [c.strip() for c in line.split(delim)]
        if len(cells) != len(header):
            raise InputError(
                f"metadata line {lineno}: expected {len(header)} columns, got {len(cells)}"
            )
        rid, raw_time = cells[id_col], cells[time_col]
        if rid in times:
            raise InputError(f"duplicate metadata row for id {rid!r}")
        try:
            t = int(raw_time)
        except ValueError:
            raise InputError(
                f"metadata line {lineno}: time {raw_time!r} for id {rid!r} "
                "is not an integer"
            ) from None
        if t < 0:
            raise InputError(f"negative time {t} for id {rid!r}")
        times[rid] = t
    return times


def parse_sequences(fasta_text: str, metadata_text: str) -> InputBundle:
    """Resolve sequence records plus time metadata into a labelled space over
    the largest time; ``bundle.labels.extended(h)`` extends it.  A leading
    byte-order mark in either text is dropped."""
    records = _parse_fasta(fasta_text.removeprefix(BOM))
    times = _parse_metadata(metadata_text.removeprefix(BOM))
    for rid, _ in records:
        if rid not in times:
            raise InputError(f"no metadata row for sequence id {rid!r}")
    known = {rid for rid, _ in records}
    for rid in times:
        if rid not in known:
            raise InputError(f"metadata row for unknown sequence id {rid!r}")

    space, merges = build_space_from_sequences(records)
    return _merged_bundle(space, merges, times, "identical sequences")


# 10^18 - 1 < 2^63: a cell of at most 18 digits cannot wrap int64
_CELL_DIGITS = 18
# characters of matrix text the byte reader takes at once, cut after a newline
_BLOCK_CHARS = 1 << 20


def _read_digit_matrix(text: str, n: int) -> np.ndarray | None:
    """The symmetric n x n matrix whose strict lower triangle ``text`` lists,
    read in numpy from the text's bytes, one block of lines at a time.

    None unless the text holds only ASCII digits, spaces, tabs and newlines,
    its k-th non-blank line holds k cells of at most 18 digits, and it has
    n - 1 such lines: ``_read_cells`` reads any other text and names its
    first error."""
    # each cell takes a digit and then a space or newline, bar the last one's
    # newline: a shorter text cannot fill n rows, and allocates no n x n matrix
    if not text.isascii() or len(text) < n * (n - 1) - 1:
        return None
    dist = np.zeros((n, n), dtype=np.int64)
    row = 1  # the matrix row of the next non-blank line
    start = 0
    while start < len(text):
        end = (
            text.rfind("\n", start, start + _BLOCK_CHARS) + 1
            or text.find("\n", start + _BLOCK_CHARS) + 1  # a line longer than a block
            or len(text)
        )
        block = text[start:end].encode("ascii")
        start = end
        if not block.endswith(b"\n"):
            block += b"\n"
        if block.translate(None, b"0123456789 \t\n"):
            return None
        data = np.frombuffer(block, dtype=np.uint8)
        digit = data - np.uint8(48)  # a space, tab or newline wraps to 200 or more
        # a cell is a run of digits; the block ends in a newline, so each run stops
        bounds = np.flatnonzero(np.diff(digit < 10, prepend=False)).astype(np.int32)
        first, stop = bounds[::2], bounds[1::2]
        width = stop - first
        widest = int(width.max(initial=0))
        per_line = np.diff(np.searchsorted(first, np.flatnonzero(data == 10)), prepend=0)
        per_line = per_line[per_line > 0]
        last = row + per_line.size
        if widest > _CELL_DIGITS or last > n or not np.array_equal(
            per_line, np.arange(row, last)
        ):
            return None
        # each cell's value, one decimal place at a time from the right
        values = np.zeros(first.size, dtype=np.int64)
        place = np.int64(1)
        for k in range(widest):
            at = np.maximum(stop - (k + 1), 0)
            values += np.where(width > k, digit[at], 0) * place
            place *= 10
        cell = 0
        for i in range(row, last):
            dist[i, :i] = dist[:i, i] = values[cell : cell + i]
            cell += i
        row = last
    return dist if row == n else None


def _read_cells(text: str, n: int) -> np.ndarray:
    """The symmetric n x n matrix whose strict lower triangle ``text`` lists,
    one Python ``int`` per cell; raises InputError naming the first wrong row
    count, and else the first wrong line, in line order: its cell count, then
    the first cell that is not an integer, is negative or exceeds int64."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    if len(rows) != n - 1:
        raise InputError(
            f"matrix has {len(rows)} rows but {n} time entries need {n - 1}"
        )
    dist = np.zeros((n, n), dtype=np.int64)
    for k, cells in enumerate(rows, start=1):
        if len(cells) != k:
            raise InputError(f"matrix line {k}: expected {k} entries, got {len(cells)}")
        values = []
        for cell in cells:
            try:
                value = int(cell)
            except ValueError:
                raise InputError(f"matrix line {k}: {cell!r} is not an integer") from None
            if value < 0:
                raise InputError(f"matrix line {k}: negative distance {value}")
            if value > INT64_MAX:
                raise InputError(f"matrix line {k}: distance {value} exceeds int64")
            values.append(value)
        dist[k, :k] = dist[:k, k] = values
    return dist


def parse_matrix(matrix_text: str, times_text: str) -> InputBundle:
    """Resolve a lower-triangular distance file plus a time vector into a
    labelled space over the largest time; ``bundle.labels.extended(h)``
    extends it.  A leading byte-order mark in either text is dropped."""
    matrix_text, times_text = matrix_text.removeprefix(BOM), times_text.removeprefix(BOM)
    time_lines = _numbered_lines(times_text)
    if not time_lines:
        raise InputError("time vector is empty")
    times_list = []
    for lineno, line in time_lines:
        cell = line.strip()
        try:
            t = int(cell)
        except ValueError:
            raise InputError(f"times line {lineno}: {cell!r} is not an integer") from None
        if t < 0:
            raise InputError(f"times line {lineno}: negative time {t}")
        times_list.append(t)
    n = len(times_list)

    dist = _read_digit_matrix(matrix_text, n)
    if dist is None:
        dist = _read_cells(matrix_text, n)
    ids = tuple(f"p{i}" for i in range(n))
    times = dict(zip(ids, times_list))
    ids2, slot, merges = dedupe_zero_distance(ids, group_zero_distance(dist))
    space = DistanceSpace(ids2, merge_distances(dist, slot))
    return _merged_bundle(space, merges, times, "distance 0")


def _bar_dict(bar) -> dict:
    return {
        "birth_step": bar.birth_step,
        "death_step": bar.death_step,
        "alive_through_horizon": bar.death_step is None,
        "birth_value": bar.birth_value,
        "death_value": bar.death_value,
        "representative": bar.representative,
    }


def _snv_dict(report: SnvReport) -> dict:
    return {
        "mode": report.mode,
        "m": report.m,
        "p": report.p,
        "n_points": len(report.point_ids),
        "point_ids": report.point_ids,
        "cap": report.cap,
        "caps_by_step": report.caps_by_step,
        "per_step_counts": report.per_step_counts,
        "bars": [_bar_dict(b) for b in report.bars],
        "dedup_merges": dict(sorted(report.merges.items())),
        "notes": report.notes,
    }


def _fields_dict(mode: str):
    """JSON builder for a report whose keys are "mode", then its dataclass
    fields in order.  ``vars`` shares the field values; ``dataclasses.asdict``
    would copy every list element in Python."""
    return lambda report: {"mode": mode, **vars(report)}


def _stability_dict(report: StabilityReport) -> dict:
    return {
        "mode": "stability",
        "m": report.m,
        "ok": report.ok,
        "rows": [vars(row) for row in report.rows],
        "violations": report.violations,
    }


_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# JSON text of a scalar, by its exact type
_SCALARS = {
    str: quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    float: _float,
}
# list items per join: a long list holds one string per slice, not per item
_SLICE = 4096


def _json(obj, indent: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` writes it, at the depth whose
    line break and indent is ``indent``."""
    write = _SCALARS.get(type(obj))
    if write is not None:
        return write(obj)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sep.join([f"{quote(k)}: {_json(v, inner)}" for k, v in obj.items()])
        return f"{{{inner}{items}{indent}}}"
    if not isinstance(obj, (list, tuple)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return "[]"
    slices = (obj[k : k + _SLICE] for k in range(0, len(obj), _SLICE))
    items = sep.join(
        sep.join([w(x) if (w := _SCALARS.get(type(x))) else _item(x, inner) for x in part])
        for part in slices
    )
    return f"[{inner}{items}{indent}]"


def _item(x, indent: str) -> str:
    """A list item that is not a plain scalar; a representative edge
    (id, id, coefficient) is one f-string."""
    if (
        type(x) is tuple
        and len(x) == 3
        and type(x[0]) is str
        and type(x[1]) is str
        and type(x[2]) is int
    ):
        inner = indent + "  "
        return f"[{inner}{quote(x[0])},{inner}{quote(x[1])},{inner}{x[2]!r}{indent}]"
    return _json(x, indent)


def to_json(doc) -> str:
    """``json.dumps(doc, indent=2)`` without its pure-Python encoder, for a
    document of dicts with str keys, lists, tuples, and str, int, float, bool
    or None values: one f-string per representative edge and one ``join``
    per slice of a list.  Any other value or key is a TypeError, as are all
    those ``json.dumps`` rejects, such as numpy scalars."""
    return _json(doc, "\n")


def _snv_lines(report: SnvReport | OracleReport) -> list[str]:
    return [f"{i}\t{c}" for i, c in enumerate(report.per_step_counts)]


def _correspondence_lines(report: CorrespondenceReport) -> list[str]:
    lines = [f"{i}\t{int(ok)}" for i, ok in enumerate(report.per_step_counts_match)]
    return lines + [f"discrepancies\t{len(report.discrepancies)}"]


def _stability_lines(report: StabilityReport) -> list[str]:
    lines = [f"{k}\t{r.birth_step}\t{r.last_alive_step}" for k, r in enumerate(report.rows)]
    return lines + [f"violations\t{len(report.violations)}"]


def _benchmark_lines(result: BenchmarkResult) -> list[str]:
    return [
        f"classical_median_seconds\t{result.classical_median_seconds:.6f}",
        f"deformed_median_seconds\t{result.deformed_median_seconds:.6f}",
        f"ratio\t{result.ratio_classical_over_deformed:.6f}",
    ]


# report type -> (JSON document builder, TSV summary lines builder)
_FORMATS = {
    SnvReport: (_snv_dict, _snv_lines),
    CorrespondenceReport: (_fields_dict("correspondence"), _correspondence_lines),
    StabilityReport: (_stability_dict, _stability_lines),
    BenchmarkResult: (_fields_dict("benchmark"), _benchmark_lines),
    OracleReport: (_fields_dict("oracle"), _snv_lines),
}


def emit_report(report, format: str = "json", stability: StabilityReport | None = None) -> str:
    """Serialize a report; JSON key order is fixed so output is byte-stable.

    Wall-clock timings are included only for benchmark results, keeping the
    other reports deterministic for identical inputs.  A stability table is
    nested in an SNV report's JSON and appended to any TSV summary.
    """
    if format not in ("json", "tsv"):
        raise InputError(f"unknown output format {format!r}; use 'json' or 'tsv'")
    builders = _FORMATS.get(type(report))
    if builders is None:
        verb = "serialize" if format == "json" else "summarize"
        raise InputError(f"cannot {verb} report of type {type(report).__name__}")
    if format == "json":
        doc = builders[0](report)
        if stability is not None and isinstance(report, SnvReport):
            doc["stability"] = _stability_dict(stability)
        return to_json(doc) + "\n"
    lines = builders[1](report)
    if stability is not None:
        lines += _stability_lines(stability)
    return "\n".join(lines) + "\n"
