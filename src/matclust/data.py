"""CSV ingestion, synthetic materials-style dataset generation, persistence.

Input CSV: UTF-8, comma-separated, one header row, numeric attribute columns,
optional trailing ``class`` label column (the header that save_dataset_csv
writes for a labelled dataset). Any cell may be quoted with ``"``
(``""`` inside quotes is one quote). An attribute cell is an ASCII decimal
number, optionally signed, in plain or scientific notation (``-1.5``,
``2e-3``), with surrounding whitespace allowed. Digit-group separators
(``1,000``, ``1_000``), non-ASCII digits and non-finite cells (``nan``,
``inf``, or a value that overflows) are rejected, naming the file row.
Blank lines are skipped but count toward that row number.

Outputs: every CSV float is rendered by ``fmt_float`` (17 significant
digits, so every save/load round-trip is exact) and every table by
``csv_text``; every JSON document by ``json_text`` (compact, one trailing
newline, ``NaN``/``Infinity`` rejected, a numpy integer written as an int).
``save_report`` is the one function that writes an output file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


# 17 significant digits: every float64 reads back bitwise
_FLOAT_FORMAT = "%.17g"

# header of the optional trailing label column, read and written
_LABEL_COLUMN = "class"


def fmt_float(x: float) -> str:
    """Round-trip-exact decimal rendering (17 significant digits)."""
    return _FLOAT_FORMAT % float(x)


@dataclass(frozen=True)
class Dataset:
    points: np.ndarray
    labels: tuple[str, ...] | None = None
    attribute_names: tuple[str, ...] = ()

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def load_csv(path) -> Dataset:
    """Parse a headered CSV into a Dataset; any bad cell aborts the load.

    The body is parsed by one np.loadtxt call. Only when that fails, or a
    value is not finite, does a second, cell-by-cell pass over the file find
    the first bad row to name in the error.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such file: {p}")
    with p.open(newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ValueError(f"{p}: file is empty") from None
        has_labels = bool(header) and header[-1] == _LABEL_COLUMN
        attr_names = tuple(header[:-1] if has_labels else header)
        if not attr_names:
            raise ValueError(f"{p}: no attribute columns in header")
        if has_labels:
            dtype = np.dtype([("points", np.float64, (len(attr_names),)), ("label", object)])
        else:
            dtype = np.float64
        try:
            with warnings.catch_warnings():
                # a body of blank lines is reported below as "no data rows"
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    fh, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                    ndmin=1 if has_labels else 2,
                )
        except ValueError as exc:
            raise ValueError(f"{p}: {_first_bad_row(p, len(header), has_labels)}") from exc

    points = table["points"] if has_labels else table
    if points.shape[0] == 0:
        raise ValueError(f"{p}: no data rows")
    # A plain float table takes its width from the first row, not the header.
    if points.shape[1] != len(attr_names) or not np.isfinite(points).all():
        raise ValueError(f"{p}: {_first_bad_row(p, len(header), has_labels)}")
    return Dataset(
        points=np.ascontiguousarray(points),
        labels=tuple(table["label"].tolist()) if has_labels else None,
        attribute_names=attr_names,
    )


def _parse_cell(cell: str) -> float:
    """float(cell) within the grammar np.loadtxt accepts: ASCII, no underscores."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {cell!r}")
    return float(text)


def _first_bad_row(p: Path, width: int, has_labels: bool) -> str:
    """Describe the first bad data row of a CSV, parsing it cell by cell.

    Rows are numbered as file rows (the header is row 1, blank lines count).
    A row with the wrong cell count or a non-numeric cell is reported before
    any row with a non-finite value, wherever that row is.
    """
    non_finite = None
    with p.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != width:
                return f"row {lineno} has {len(cells)} cells, expected {width}"
            try:
                values = [_parse_cell(c) for c in (cells[:-1] if has_labels else cells)]
            except ValueError:
                return f"row {lineno} has a non-numeric attribute cell"
            if non_finite is None and not all(map(math.isfinite, values)):
                non_finite = lineno
    if non_finite is not None:
        return f"row {non_finite} has a non-finite attribute cell (nan or inf)"
    # Reached only if this pass and np.loadtxt disagree on the grammar; the
    # file is still rejected.
    return "the body does not parse, but no single row was found at fault"


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write a Dataset as CSV (attributes + optional trailing class column)."""
    header = list(dataset.attribute_names) or [
        f"attr{i + 1}" for i in range(dataset.dimension)
    ]
    if dataset.labels is not None:
        header.append(_LABEL_COLUMN)
    distinct = list(dict.fromkeys(dataset.labels or ()))
    head, *tails = _csv_lines([header, *(("", label) for label in distinct)])
    # one % per row renders exactly fmt_float of each cell, which csv.writer
    # would not quote; a label's cell, with its comma and line end, is
    # rendered once as the second cell of a row whose empty first cell
    # csv.writer writes as nothing
    row_format = ",".join([_FLOAT_FORMAT] * dataset.dimension)
    if dataset.labels is None:
        ends = ["\n"] * dataset.n_points
    else:
        cell = dict(zip(distinct, tails))
        ends = [cell[label] for label in dataset.labels]
    lines = [row_format % tuple(row) + end for row, end in zip(dataset.points.tolist(), ends)]
    save_report(head + "".join(lines), path)


def _csv_lines(rows) -> list[str]:
    """Each row as one csv.writer line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    lines = []
    for row in rows:
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        lines.append(buf.getvalue())
    return lines


def check_seed(seed) -> None:
    """Reject a seed that is not an integer >= 0 (a bool is not one)."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def check_count(name: str, value) -> None:
    """Reject a value that is not an integer >= 1; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


_CLASS_NAMES = ("polymer", "ceramic", "metal")


def generate_synthetic(classes: int, dims: int, count: int, seed: int) -> Dataset:
    """Well-separated normal classes over attributes spanning many magnitudes.

    Attribute a has scale 10**(-3 + a % 12), so the scales cycle through
    1e-3 .. 1e8, and sigma 0.03 * scale. Class c has mean
    (0.2 + 0.3 c) * scale: class means sit 10 sigma apart, comfortably past
    the 5 sigma separation needed for near-perfect recovery by K-means. The
    first count % classes classes get one point more than the rest. The
    classes are polymer, ceramic and metal, or class-1 .. class-N when there
    are more than three. Each class is sampled as one block, then the rows
    are shuffled once, so the same arguments always give an identical
    dataset.
    """
    for name, value in (("classes", classes), ("dims", dims), ("count", count)):
        check_count(name, value)
    check_seed(seed)
    scale = np.array([10.0 ** (-3 + a % 12) for a in range(dims)])
    sigma = 0.03 * scale
    rng = np.random.default_rng(seed)
    blocks = []
    labels: list[str] = []
    for c in range(classes):
        size = count // classes + (c < count % classes)
        name = _CLASS_NAMES[c] if classes <= len(_CLASS_NAMES) else f"class-{c + 1}"
        blocks.append(rng.normal(scale * (0.2 + 0.3 * c), sigma, size=(size, dims)))
        labels += [name] * size

    order = rng.permutation(count)
    return Dataset(
        points=np.concatenate(blocks)[order],
        labels=tuple(labels[i] for i in order),
        attribute_names=tuple(f"attr{a + 1}" for a in range(dims)),
    )


def csv_text(header, rows) -> str:
    """Render a CSV table: floats by fmt_float, None as an empty cell,
    anything else by str. Cells are not quoted; callers pass plain tokens."""

    def cell(x) -> str:
        if x is None:
            return ""
        return fmt_float(x) if isinstance(x, float) else str(x)

    lines = [",".join(header)]
    lines += [",".join(map(cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(doc) -> str:
    """The one JSON rendering: compact, newline-terminated, no NaN/Infinity;
    a numpy integer is written as the int it equals."""
    return json.dumps(doc, allow_nan=False, default=operator.index) + "\n"


def save_report(text: str, path) -> None:
    """Write one rendered output file, naming the path in any OSError."""
    p = Path(path)
    try:
        p.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write {p}: {exc}") from exc


def write_json(doc, path) -> None:
    """Write a JSON document in the json_text format."""
    save_report(json_text(doc), path)
