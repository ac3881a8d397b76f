"""Report document, file formats and plot emission.

Formats (all UTF-8, millimetres, radians in machine fields with degree
twins for reading; the CSV readers skip a leading byte-order mark):

* cloud CSV: header ``x,y,z`` or ``x,y,z,section``; ``#`` starts a comment;
* ground-truth sidecar CSV: ``section,phi,theta_x_true,theta_y_true,cx,cy,cz``;
* evaluation report: one JSON document, schema versioned, stable key order
  so identical evaluations are byte-identical and serialize/parse/serialize
  round-trips exactly;
* plots: standalone SVG scatter files, with the plotted numbers always
  emitted to CSV as well.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import operator
import os
import re
import shutil
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import InputFormatError
from .parallel import run_shares, share_out, usable_workers
from .pipeline import EvaluationResult

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# cloud + ground truth CSV
# ---------------------------------------------------------------------------

_BLOCK_ROWS = 4096  # rows per %-format in _write_rows


def _write_rows(path, header: str, row: str, columns, workers: int = 1) -> None:
    """Write ``header``, then ``row`` %-formatted with each row of the 2-D arrays
    ``columns`` side by side: one ``%`` per block of _BLOCK_ROWS rows, whose values
    become Python floats and ints, so ``%r`` writes ``repr(float)``.

    The blocks are cut into parallel.share_out runs of about equal row count,
    one per usable worker, with the same bytes for every ``workers``. The
    caller formats the first run straight into the file; each other run is
    formatted by a child forked for it (see parallel.run_shares) into an
    anonymous temporary file in the output's directory, which the caller then
    appends in order."""
    rows = len(columns[0])
    starts = range(0, rows, _BLOCK_ROWS)
    runs = [[starts[k] for k in run] for run in
            share_out([min(_BLOCK_ROWS, rows - start) for start in starts], workers)]
    with open(path, "wb") as fh, contextlib.ExitStack() as stack:
        fh.write(header.encode())
        spills = [stack.enter_context(tempfile.TemporaryFile(dir=Path(path).parent))
                  for _ in runs[1:]]

        def write(share) -> None:
            out, run = share
            if out is not fh:  # the caller may write a failed child's share again
                out.seek(0)
                out.truncate()
            for start in run:
                block = np.concatenate([c[start:start + _BLOCK_ROWS] for c in columns],
                                       axis=1, dtype=object)
                out.write(((row * len(block)) % tuple(block.ravel().tolist())).encode())
            out.flush()  # a child leaves by os._exit, which flushes nothing

        run_shares(write, list(zip([fh, *spills], runs)))
        for spill in spills:
            spill.seek(0)
            shutil.copyfileobj(spill, fh)


def write_cloud_csv(path, points, labels=None, workers: int = 1) -> None:
    """Write an (n, 3) cloud, with one section label per point if given. Raises
    ValueError, before the file is opened, on points of another shape, on a
    non-finite coordinate, on labels of another length or on a label that is
    not an integer in the int64 range (which read_cloud_csv would refuse).
    The rows are formatted by up to parallel.usable_workers(workers) processes
    (see _write_rows), with the same bytes for every ``workers``."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points have shape {points.shape}; expected (n, 3)")
    if points.size and not np.isfinite([points.min(), points.max()]).all():  # no (n, 3) copy
        bad = np.flatnonzero(~np.isfinite(points).all(axis=1))[0]
        raise ValueError(f"point {bad} has a non-finite coordinate: {points[bad].tolist()}")
    if labels is None:
        return _write_rows(path, "x,y,z\n", "%r,%r,%r\n", [points], workers)
    labels = np.asarray(labels)
    if labels.shape != (len(points),):
        raise ValueError(f"labels have shape {labels.shape}; expected ({len(points)},)")
    if not np.can_cast(labels.dtype, np.int64):  # floats, uint64 or objects: each is checked
        for k, value in enumerate(labels.tolist()):
            try:  # "%d" writes int(value)
                exact = value == int(value) and -(2**63) <= value < 2**63
            except (TypeError, ValueError, OverflowError):  # not a number, NaN or infinite
                exact = False
            if not exact:
                raise ValueError(f"label {k} is not an integer in the int64 range: {value!r}")
    _write_rows(path, "x,y,z,section\n", "%r,%r,%r,%d\n", [points, labels[:, None]], workers)


_CLOUD_HEADERS = {("x", "y", "z"): False, ("x", "y", "z", "section"): True}
_LABELED_ROW = np.dtype([("p", "f8", 3), ("s", "i8")])


def read_cloud_csv(path, workers: int = 1):
    """Parse a cloud CSV into (points, labels or None).

    Raises InputFormatError naming the offending line on any malformed row
    or byte that is not UTF-8. A leading UTF-8 byte-order mark is skipped.
    A well-formed file is read in bulk by numpy's C reader; anything that
    reader does not accept is re-read by the line parser, which is the
    reference and the only one that reports errors. The bulk read ends the
    header where a text read does, at the first ``\\r``, ``\\r\\n`` or
    ``\\n``. It cuts the data into parallel.usable_workers(workers) byte
    ranges at line starts, with the same result for every ``workers``. The
    range that ends the file is streamed here; each other range is read
    whole into the memory of a child forked for it (see
    parallel.run_shares; a range whose child cannot be forked is read here).
    """
    parsed = _read_cloud_bulk(path, workers)
    if parsed is None:
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
            parsed = _read_cloud_lines(fh)
    return parsed


def _read_cloud_bulk(path, workers: int):
    """Bulk read of a file whose first line is the header; None when any row
    would need the line parser's judgement.

    Every token ``loadtxt`` accepts is accepted by ``float``/``int`` with the
    same value, and it rejects a row whose width differs from the others, so
    an accepted file of the header's width parses exactly as the line parser
    would. A ``#`` is never a number, so comments fail the parse too.
    """
    with open(path, "rb") as raw:
        line = raw.readline(io.DEFAULT_BUFFER_SIZE)
        header = (line.splitlines(keepends=True) or [b""])[0]
        # A byte that is not UTF-8 decodes to U+FFFD, which no header holds.
        fields = header.decode("utf-8-sig", errors="replace").strip().split(",")
        has_labels = _CLOUD_HEADERS.get(tuple(f.strip() for f in fields))
        if has_labels is None or (len(header) == io.DEFAULT_BUFFER_SIZE
                                  and not header.endswith(b"\n")):
            return None  # not a header, or one that may go on past this read
        count = usable_workers(workers)
        bounds = [len(header)]
        size = os.fstat(raw.fileno()).st_size
        for k in range(1, count):
            raw.seek(max(bounds[-1], bounds[0] + (size - bounds[0]) * k // count))
            raw.readline()  # to the end of the line the cut falls in
            if raw.tell() >= size:
                break
            bounds.append(raw.tell())
    # run_shares runs its first share here: the range that ends the file.
    ranges = list(itertools.pairwise([*bounds, None]))[::-1]
    parts = run_shares(lambda span: _range_rows(path, span, has_labels), ranges)[::-1]
    if any(rows is None for rows in parts):
        return None
    if len(parts) == 1 and not has_labels:
        return parts[0], None  # loadtxt's own (n, 3) array, not a copy
    points = np.empty((sum(len(rows) for rows in parts), 3))
    labels = np.empty(len(points), dtype=np.int64) if has_labels else None
    start = 0
    while parts:
        rows = parts.pop(0)  # each range's rows are freed once copied
        stop = start + len(rows)
        points[start:stop] = rows["p"] if has_labels else rows
        if has_labels:
            labels[start:stop] = rows["s"]
        start = stop
    return points, labels


def _range_rows(path, span: tuple[int, int | None], has_labels: bool):
    """The ``loadtxt`` rows of the bytes [start, stop) of a cloud CSV, to its
    end when stop is None, decoded as UTF-8: a structured array of points and
    labels, or an (n, 3) array; None when it rejects a row or a byte, when a
    row is not of the header's width or when a point is not finite."""
    start, stop = span
    with open(path, "rb") as raw:
        raw.seek(start)
        data = raw if stop is None else io.BytesIO(raw.read(stop - start))
        try:
            with io.TextIOWrapper(data, encoding="utf-8") as lines, warnings.catch_warnings():
                # "input contained no data", or an older numpy's deprecated
                # float-to-int parse of a label, sends the file to the line
                # parser; so does a byte that is not UTF-8 (a ValueError).
                warnings.simplefilter("error")
                rows = np.loadtxt(lines, delimiter=",", comments=None,
                                  dtype=_LABELED_ROW if has_labels else float,
                                  ndmin=1 if has_labels else 2)
        except (ValueError, Warning):
            return None
    points = rows["p"] if has_labels else rows
    return rows if points.shape[1] == 3 and np.isfinite(points).all() else None


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # bytes 0x80-0xff as surrogateescape reads them


def _stripped(raw: str, lineno: int) -> str:
    """Line ``lineno`` of a file read with errors="surrogateescape", stripped;
    InputFormatError when it holds a byte that is not UTF-8."""
    bad = None if raw.isascii() else _ESCAPED_BYTE.search(raw)
    if bad:
        raise InputFormatError(f"byte {ord(bad[0]) - 0xDC00:#04x} is not UTF-8", lineno)
    return raw.strip()


def _read_cloud_lines(fh):
    points: list[list[float]] = []
    labels: list[int] = []
    has_labels = None
    for lineno, raw in enumerate(fh, start=1):
        line = _stripped(raw, lineno)
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if has_labels is None:
            has_labels = _CLOUD_HEADERS.get(tuple(fields))
            if has_labels is None:
                raise InputFormatError(f"expected header 'x,y,z[,section]', got {line!r}", lineno)
            continue
        expected = 4 if has_labels else 3
        if len(fields) != expected:
            raise InputFormatError(f"expected {expected} fields, got {len(fields)}", lineno)
        try:
            xyz = [float(fields[0]), float(fields[1]), float(fields[2])]
            if has_labels:
                labels.append(int(fields[3]))
        except ValueError as exc:
            raise InputFormatError(str(exc), lineno) from exc
        if has_labels and not -(2**63) <= labels[-1] < 2**63:
            raise InputFormatError(
                f"section label {labels[-1]} is outside the int64 range", lineno)
        if not all(math.isfinite(v) for v in xyz):
            raise InputFormatError("non-finite coordinate", lineno)
        points.append(xyz)
    if has_labels is None:
        raise InputFormatError("no header line found (empty input?)", line_number=None)
    pts = np.array(points, dtype=float).reshape(-1, 3)
    return pts, (np.array(labels, dtype=np.int64) if has_labels else None)


_TRUTH_HEADER = "section,phi,theta_x_true,theta_y_true,cx,cy,cz"


def write_truth_csv(path, truth) -> None:
    """Write a ground-truth sidecar; ValueError, before the file is opened, on a NaN or inf."""
    values = np.column_stack([truth.phi, truth.theta_x, truth.theta_y, truth.centroids])
    if not np.isfinite(values).all():
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))[0]
        raise ValueError(f"section {bad} has a non-finite truth value: {values[bad].tolist()}")
    _write_rows(path, _TRUTH_HEADER + "\n", "%d" + ",%r" * 6 + "\n",
                [np.arange(len(values))[:, None], values])


def read_truth_csv(path):
    """Parse a ground-truth sidecar into arrays (phi, theta_x, theta_y, centroids).

    The first line that is neither blank nor a ``#`` comment must be the
    header, and data row i must be section i. Raises InputFormatError naming
    the line otherwise.
    """
    rows = []
    seen_header = False
    lineno = 0
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _stripped(raw, lineno)
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(",")]
            if not seen_header:
                if ",".join(fields) != _TRUTH_HEADER:
                    raise InputFormatError(
                        f"expected header {_TRUTH_HEADER!r}, got {line!r}", lineno)
                seen_header = True
                continue
            if len(fields) != 7:
                raise InputFormatError("expected 7 fields", lineno)
            try:
                section = int(fields[0])
                row = [float(f) for f in fields[1:]]
            except ValueError as exc:
                raise InputFormatError(str(exc), lineno) from exc
            if section != len(rows):
                raise InputFormatError(f"expected section {len(rows)}, got {section}", lineno)
            if not all(math.isfinite(v) for v in row):
                raise InputFormatError("non-finite value", lineno)
            rows.append(row)
    if not rows:
        wanted = "a data row" if seen_header else "the header"
        raise InputFormatError(f"expected {wanted}, got end of file", lineno + 1)
    data = np.array(rows, dtype=float)
    return data[:, 0], data[:, 1], data[:, 2], data[:, 3:6]


# ---------------------------------------------------------------------------
# evaluation report document
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationReport:
    """Machine-readable evaluation outcome.

    Kept as a plain dict tree in document order; building it from an
    EvaluationResult and re-parsing it from text both produce documents that
    serialize byte-identically.
    """

    document: dict
    # Each table column's cells as last written, keyed by (table, column):
    # report.json and the CSV tables share them (see _cached_cells).
    _cell_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_result(
        cls, result: EvaluationResult, fitter: str, input_digest: str
    ) -> "EvaluationReport":
        geo = result.arc
        arc = {
            "radius_mm": geo.radius,
            "central_angle_rad": geo.central_angle,
            "central_angle_deg": math.degrees(geo.central_angle),
            "arc_length_mm": geo.arc_length,
            "helical_arc_length_mm": geo.helical_arc_length,
            "pitch_mm_per_rad": geo.pitch_per_radian,
            "sections": len(result.fits),
        }
        phi, theta_x, theta_y = (
            result.azimuth_phi.tolist(), result.theta_x.tolist(), result.theta_y_rectified.tolist())
        params = [fit.params for fit in result.fits]
        raw = [p.orientation for p in params]
        # One list per column, in document order; tolist() keeps numpy
        # scalars out of the document.
        columns = {
            "index": range(len(params)),
            "azimuth_rad": phi,
            "azimuth_deg": map(math.degrees, phi),
            "centroid_radius_mm": result.centroid_radius.tolist(),
            "theta_x_rad": theta_x,
            "theta_x_deg": map(math.degrees, theta_x),
            "theta_y_raw_rad": raw,
            "theta_y_raw_deg": map(math.degrees, raw),
            "theta_y_rect_rad": theta_y,
            "theta_y_rect_deg": map(math.degrees, theta_y),
            "circle_degenerate": [not p.orientation_defined for p in params],
            "line_rms_mm": result.line_rms.tolist(),
            "algebraic_rms": [fit.rms_algebraic_residual for fit in result.fits],
            "geometric_rms_mm": [fit.rms_geometric_residual for fit in result.fits],
            "fit_iterations": [fit.iterations for fit in result.fits],
            "fit_converged": [fit.converged for fit in result.fits],
        }
        sections = [dict(zip(columns, row)) for row in zip(*columns.values())]
        document = {
            "schema_version": SCHEMA_VERSION,
            "tool": "helibend",
            "tool_version": __version__,
            "fitter": fitter,
            "input_digest": input_digest,
            "arcs": [arc],
            "sections": sections,
        }
        return cls(document)

    def to_text(self) -> str:
        """``json.dumps(document, indent=2, allow_nan=False)`` and a newline.

        A top-level list of flat records that share their keys, each column
        all bool, all int or all finite float (the ``sections`` and ``arcs``
        tables of an evaluated part), is written column by column (see
        _json_table); anything else goes through json, which raises
        ValueError on a NaN or an infinity as allow_nan=False does.
        """
        doc = self.document
        if not (isinstance(doc, dict) and doc and all(isinstance(k, str) for k in doc)):
            return json.dumps(doc, indent=2, allow_nan=False) + "\n"
        items = []
        for key, value in doc.items():
            text = _json_table(value, self._cell_cache, key)
            if text is None:
                text = json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")
            items.append(f"  {json.dumps(key)}: {text}")
        return "{\n" + ",\n".join(items) + "\n}\n"

    @classmethod
    def from_text(cls, text: str) -> "EvaluationReport":
        return cls(json.loads(text))

    def write(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8", newline="\n")


def _column_cells(values) -> tuple[list[str], bool] | None:
    """The text of each cell of a column whose cells are all bool, all int or
    all float ("true"/"false", the int, the float's repr), as JSON and CSV
    both write them, and whether every value is finite; None for any other
    column."""
    kinds = set(map(type, values))
    if kinds == {bool}:
        return ["true" if v else "false" for v in values], True
    if kinds == {int}:
        return list(map(int.__repr__, values)), True
    if all(issubclass(kind, float) for kind in kinds):
        return list(map(float.__repr__, values)), all(map(math.isfinite, values))
    return None


def _cached_cells(values: tuple, cache: dict | None, key) -> tuple[list[str], bool] | None:
    """_column_cells of ``values``, kept in ``cache`` under ``key``. A column
    whose cells are the very objects it was kept with is not written again:
    the objects are immutable, so their text is unchanged."""
    if cache is None:
        return _column_cells(values)
    kept = cache.get(key)
    if kept is not None and len(kept[0]) == len(values) and all(
            map(operator.is_, kept[0], values)):
        return kept[1]
    encoded = _column_cells(values)
    cache[key] = (values, encoded)
    return encoded


def _json_table(rows, cache: dict, name) -> str | None:
    """``json.dumps(rows, indent=2)`` as the value of a top-level key, for a
    non-empty list of flat records that share their keys in order and whose
    columns are each all bool, all int or all finite float, written column by
    column (the columns kept in ``cache`` under (``name``, key)); None for
    any other value."""
    if not (isinstance(rows, list) and rows and all(type(row) is dict for row in rows)):
        return None
    keys = tuple(rows[0])
    if not keys or not all(isinstance(k, str) for k in keys) or any(
            tuple(row) != keys for row in rows):
        return None
    columns = []
    for key, values in zip(keys, zip(*(row.values() for row in rows))):
        encoded = _cached_cells(values, cache, (name, key))
        if encoded is None or not encoded[1]:
            return None
        columns.append(encoded[0])
    # One %-format per record; a % in a key is doubled to stay literal.
    record = "    {\n" + ",\n".join(
        "      " + json.dumps(k).replace("%", "%%") + ": %s" for k in keys) + "\n    }"
    return "[\n" + ",\n".join([record % cells for cells in zip(*columns)]) + "\n  ]"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _csv_text(rows, cache: dict | None = None, name=None) -> str:
    """One CSV row per record, written column by column (the columns kept in
    ``cache`` under (``name``, key)); the header and cell order are the keys
    that the records share."""
    columns = []
    for key, values in zip(rows[0], zip(*(row.values() for row in rows), strict=True)):
        encoded = _cached_cells(values, cache, (name, key))
        columns.append(encoded[0] if encoded else [_csv_cell(v) for v in values])
    return "\n".join([",".join(rows[0]), *map(",".join, zip(*columns))]) + "\n"


def sections_csv_text(report: EvaluationReport) -> str:
    return _csv_text(report.document["sections"], report._cell_cache, "sections")


def arc_csv_text(report: EvaluationReport) -> str:
    return _csv_text(report.document["arcs"], report._cell_cache, "arcs")


# ---------------------------------------------------------------------------
# SVG scatter plots
# ---------------------------------------------------------------------------

def svg_scatter(
    x,
    y,
    title: str,
    xlabel: str,
    ylabel: str,
    lim: tuple[float, float],
) -> str:
    """Minimal standalone scatter plot with a dashed y = x diagonal.

    Both axes span ``lim``. Deterministic byte-for-byte.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    size = 640
    margin = 70.0
    span = size - 2 * margin

    def sx(v):
        return margin + (v - lim[0]) / (lim[1] - lim[0]) * span

    def sy(v):
        return size - margin - (v - lim[0]) / (lim[1] - lim[0]) * span

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
    )
    out.write(f'<rect width="{size}" height="{size}" fill="white"/>\n')
    out.write(
        f'<text x="{size / 2:.1f}" y="30" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>\n'
    )
    out.write(
        f'<rect x="{margin:.1f}" y="{margin:.1f}" width="{span:.1f}" height="{span:.1f}" '
        'fill="none" stroke="black" stroke-width="1"/>\n'
    )
    n_ticks = 5
    for k in range(n_ticks):
        v = lim[0] + (lim[1] - lim[0]) * k / (n_ticks - 1)
        out.write(
            f'<line x1="{sx(v):.2f}" y1="{size - margin:.1f}" x2="{sx(v):.2f}" '
            f'y2="{size - margin + 6:.1f}" stroke="black"/>\n'
        )
        out.write(
            f'<text x="{sx(v):.2f}" y="{size - margin + 22:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{v:g}</text>\n'
        )
        out.write(
            f'<line x1="{margin - 6:.1f}" y1="{sy(v):.2f}" x2="{margin:.1f}" '
            f'y2="{sy(v):.2f}" stroke="black"/>\n'
        )
        out.write(
            f'<text x="{margin - 10:.1f}" y="{sy(v) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{v:g}</text>\n'
        )
    out.write(
        f'<text x="{size / 2:.1f}" y="{size - 15:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{xlabel}</text>\n'
    )
    out.write(
        f'<text x="20" y="{size / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14" transform="rotate(-90 20 {size / 2:.1f})">{ylabel}</text>\n'
    )
    lo, hi = lim
    out.write(
        f'<line x1="{sx(lo):.2f}" y1="{sy(lo):.2f}" x2="{sx(hi):.2f}" y2="{sy(hi):.2f}" '
        'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>\n'
    )
    for xi, yi in zip(x, y):
        if lo <= xi <= hi and lo <= yi <= hi:
            out.write(f'<circle cx="{sx(xi):.2f}" cy="{sy(yi):.2f}" r="2" fill="#1f4e8c"/>\n')
    out.write("</svg>\n")
    return out.getvalue()
