"""CSV ingestion, synthetic materials-style dataset generation, persistence.

Input CSV: UTF-8, comma-separated, one header row, numeric attribute columns,
optional trailing ``class`` label column. Scientific notation is accepted;
thousands separators and non-finite cells (``nan``, ``inf``) are not.

Floats are serialized with 17 significant digits so every save/load
round-trip is exact.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def fmt_float(x: float) -> str:
    """Round-trip-exact decimal rendering (17 significant digits)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Dataset:
    points: np.ndarray
    labels: tuple[str, ...] | None = None
    attribute_names: tuple[str, ...] = ()
    provenance: str = ""

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
    (params are per-attribute (mean, sigma)).
    """

    name: str
    count: int
    sampling: str
    params: tuple[tuple[float, float], ...] = field(default=())

    def validate(self) -> "ClassSpec":
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
        return self


def load_csv(path, label_column: str = "class") -> Dataset:
    """Parse a headered CSV into a Dataset; any bad cell aborts the load."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such file: {p}")
    with p.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{p}: file is empty") from None
        has_labels = bool(header) and header[-1] == label_column
        attr_names = tuple(header[:-1] if has_labels else header)
        if not attr_names:
            raise ValueError(f"{p}: no attribute columns in header")

        rows: list[list[float]] = []
        linenos: list[int] = []
        labels: list[str] = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValueError(
                    f"{p}: row {lineno} has {len(cells)} cells, expected {len(header)}"
                )
            numeric = cells[:-1] if has_labels else cells
            try:
                rows.append([float(c) for c in numeric])
            except ValueError:
                raise ValueError(
                    f"{p}: row {lineno} has a non-numeric attribute cell"
                ) from None
            linenos.append(lineno)
            if has_labels:
                labels.append(cells[-1])

    if not rows:
        raise ValueError(f"{p}: no data rows")
    points = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        bad = linenos[int(np.argmin(finite))]
        raise ValueError(f"{p}: row {bad} has a non-finite attribute cell (nan or inf)")
    return Dataset(
        points=points,
        labels=tuple(labels) if has_labels else None,
        attribute_names=attr_names,
        provenance=str(p),
    )


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write a Dataset as CSV (attributes + optional trailing class column)."""
    p = Path(path)
    with p.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(dataset.attribute_names) or [
            f"attr{i + 1}" for i in range(dataset.dimension)
        ]
        if dataset.labels is not None:
            header.append("class")
        writer.writerow(header)
        for i in range(dataset.n_points):
            row = [fmt_float(v) for v in dataset.points[i]]
            if dataset.labels is not None:
                row.append(dataset.labels[i])
            writer.writerow(row)


def generate_synthetic(specs, seed: int) -> Dataset:
    """Sample each class independently, label the rows, shuffle them once.

    A pure function of (specs, seed): the same inputs always produce an
    identical dataset.
    """
    specs = [s.validate() for s in specs]
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
        provenance=f"synthetic(classes={len(specs)}, dims={dim}, count={total}, seed={seed})",
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


def save_report(obj, path, fmt: str) -> None:
    """Persist a report-like object as csv or json.

    The object must expose to_csv() / to_json(); floats inside those
    renderings are produced deterministically by the owning type.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; expected csv or json")
    p = Path(path)
    text = obj.to_csv() if fmt == "csv" else obj.to_json()
    try:
        p.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {p}: {exc}") from exc


def write_json(doc, path) -> None:
    """Write a JSON document with deterministic float rendering."""
    p = Path(path)

    def _clean(x):
        if isinstance(x, dict):
            return {k: _clean(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [_clean(v) for v in x]
        if isinstance(x, float):
            return float(fmt_float(x))
        if isinstance(x, (np.floating,)):
            return float(fmt_float(float(x)))
        if isinstance(x, (np.integer,)):
            return int(x)
        return x

    try:
        p.write_text(json.dumps(_clean(doc), indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {p}: {exc}") from exc
