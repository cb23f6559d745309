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
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class ClassSpec:
    """Sampling recipe for one material class.

    sampling is "uniform" (params are per-attribute (low, high)) or "normal"
    (params are per-attribute (mean, sigma)). Checked when built.
    """

    name: str
    count: int
    sampling: str
    params: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"class {self.name!r}: count must be >= 0")
        if self.sampling not in ("uniform", "normal"):
            raise ValueError(f"class {self.name!r}: unknown sampling {self.sampling!r}")
        for i, (a, b) in enumerate(self.params):
            if self.sampling == "uniform" and a > b:
                raise ValueError(
                    f"class {self.name!r}, attribute {i}: low {a} > high {b}"
                )
            if self.sampling == "normal" and not b > 0:
                raise ValueError(
                    f"class {self.name!r}, attribute {i}: sigma must be > 0, got {b}"
                )


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


def generate_synthetic(specs, seed: int) -> Dataset:
    """Sample each class independently, label the rows, shuffle them once.

    A pure function of (specs, seed): the same inputs always produce an
    identical dataset.
    """
    check_seed(seed)
    specs = list(specs)
    if not specs:
        raise ValueError("at least one class spec is required")
    dims = {len(s.params) for s in specs}
    if len(dims) != 1:
        raise ValueError(f"class specs disagree on attribute count: {sorted(dims)}")
    dim = dims.pop()
    if dim == 0:
        raise ValueError("class specs must define at least one attribute")
    total = sum(s.count for s in specs)
    if total < 1:
        raise ValueError("total point count must be >= 1")

    rng = np.random.default_rng(seed)
    blocks = []
    labels: list[str] = []
    for s in specs:
        params = np.asarray(s.params, dtype=np.float64)
        if s.sampling == "uniform":
            block = rng.uniform(params[:, 0], params[:, 1], size=(s.count, dim))
        else:
            block = rng.normal(params[:, 0], params[:, 1], size=(s.count, dim))
        blocks.append(block)
        labels.extend([s.name] * s.count)

    points = np.concatenate(blocks, axis=0)
    order = rng.permutation(total)
    return Dataset(
        points=points[order],
        labels=tuple(labels[i] for i in order),
        attribute_names=tuple(f"attr{i + 1}" for i in range(dim)),
    )


_DEFAULT_CLASS_NAMES = ("polymer", "ceramic", "metal")


def default_material_specs(
    classes: int = 3, dims: int = 25, count: int = 5097
) -> list[ClassSpec]:
    """Well-separated normal classes over attributes spanning many magnitudes.

    Per attribute a the scale cycles through 1e-3 .. 1e8; class means sit
    10 sigma apart, comfortably past the 5 sigma separation needed for
    near-perfect recovery by K-means.
    """
    if classes < 1 or dims < 1 or count < 1:
        raise ValueError("classes, dims and count must all be >= 1")
    base = count // classes
    counts = [base + (1 if i < count % classes else 0) for i in range(classes)]
    specs = []
    for c in range(classes):
        if classes <= len(_DEFAULT_CLASS_NAMES):
            name = _DEFAULT_CLASS_NAMES[c]
        else:
            name = f"class-{c + 1}"
        params = []
        for a in range(dims):
            scale = 10.0 ** (-3 + (a % 12))
            sigma = 0.03 * scale
            mean = scale * (0.2 + 0.3 * c)
            params.append((mean, sigma))
        specs.append(
            ClassSpec(name=name, count=counts[c], sampling="normal", params=tuple(params))
        )
    return specs


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
