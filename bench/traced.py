"""Run one matclust CLI command in process with spans around each layer.

Usage: python3 bench/traced.py SPANS_JSON -- <matclust cli arguments>

The program is not edited. Spans wrap the public functions under the names
each module binds them, because a module calls what it imported, not what
the defining module exports. Spans stay in memory and are written to
SPANS_JSON when the command returns. ``layer_metrics`` turns the spans of
one or more commands into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "parent": parent, "t0": time.perf_counter(), **attrs})
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx]["t1"] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, before=None, after=None, **attrs) -> None:
        """Replace owner.attr with a spanned call. before(args, kwargs) and
        after(result) return extra attributes for the span."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def spanned(*args, **kwargs):
            idx = self.open(name, **attrs, **(before(args, kwargs) if before else {}))
            try:
                result = inner(*args, **kwargs)
            finally:
                self.close(idx)
            if after:
                self.spans[idx].update(after(result))
            return result

        setattr(owner, attr, spanned)


def _pairwise_shape(args, kwargs) -> dict:
    points = args[1] if len(args) > 1 else kwargs["points"]
    centres = args[2] if len(args) > 2 else kwargs["centers"]
    rows = len(points)
    k = len(centres)
    d = len(centres[0]) if k else 0
    return {"evals": rows * k, "temp_bytes": rows * k * d * 8}


def instrument(tracer: Tracer) -> object:
    """Import matclust, wrap its layers and return the cli module."""
    idx = tracer.open("cli.import")
    mods = {
        name: importlib.import_module(f"matclust.{name}")
        for name in ("metrics", "normalize", "kmeans", "evaluate", "data", "sweep", "cli")
    }
    tracer.close(idx)
    cli, kmeans, evaluate, sweep = mods["cli"], mods["kmeans"], mods["evaluate"], mods["sweep"]

    def rows(result) -> dict:
        return {"rows": int(result.n_points)}

    def iterations(model) -> dict:
        return {"iterations": int(model.iterations_run)}

    tracer.wrap(cli, "load_csv", "data.load_csv", after=rows)
    tracer.wrap(cli, "fit_transform", "normalize.fit_transform")
    tracer.wrap(cli, "fit", "kmeans.fit", after=iterations, via="cli")
    tracer.wrap(sweep, "fit", "kmeans.fit", after=iterations, via="sweep")
    tracer.wrap(cli, "evaluate", "evaluate.evaluate")
    tracer.wrap(sweep, "evaluate", "evaluate.evaluate")
    for writer in ("save_dataset_csv", "save_report", "write_json", "emit_figure_data"):
        tracer.wrap(cli, writer, "cli.write")
    tracer.wrap(kmeans.ClusterModel, "to_json", "cli.write")
    tracer.wrap(mods["normalize"].FeatureStats, "to_json", "cli.write")
    for step in ("init_centroids", "assign", "update_centroids", "sse"):
        tracer.wrap(kmeans, step, f"kmeans.{step}")
    for owner in (kmeans, evaluate):
        tracer.wrap(owner, "pairwise_distances", "metrics.pairwise_distances", before=_pairwise_shape)
    return cli


def layer_metrics(spans: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer totals over a list of spans from one or more commands.

    Times are inclusive span durations except where named self time: a
    span's duration minus the part its direct children cover. Returns the
    metrics and the problems found: a rate whose layer never ran is one,
    and reads 0.
    """
    dur = [s["t1"] - s["t0"] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child_time[s["parent"]] += dur[i]

    def ancestors(i):
        while spans[i]["parent"] >= 0:
            i = spans[i]["parent"]
            yield spans[i]["name"]

    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    m: dict[str, float] = dict.fromkeys(
        ("metrics.distance_evals", "metrics.temp_bytes_computed", "kmeans.init_distance_evals",
         "evaluate.distance_evals", "data.rows_loaded", "kmeans.iterations", "sweep.cells"),
        0,
    )
    for i, s in enumerate(spans):
        name = s["name"]
        total[name] += dur[i]
        self_time[name] += dur[i] - child_time[i]
        calls[name] += 1
        if name == "metrics.pairwise_distances":
            m["metrics.distance_evals"] += s["evals"]
            m["metrics.temp_bytes_computed"] = max(m["metrics.temp_bytes_computed"], s["temp_bytes"])
            up = set(ancestors(i))
            if "kmeans.init_centroids" in up:
                m["kmeans.init_distance_evals"] += s["evals"]
            if "evaluate.evaluate" in up:
                m["evaluate.distance_evals"] += s["evals"]
        elif name == "data.load_csv":
            m["data.rows_loaded"] += s["rows"]
        elif name == "kmeans.fit":
            m["kmeans.iterations"] += s["iterations"]
            m["sweep.cells"] += s["via"] == "sweep"

    for name in ("cli.import", "cli.write", "data.load_csv", "normalize.fit_transform",
                 "kmeans.fit", "kmeans.init_centroids", "kmeans.assign",
                 "kmeans.update_centroids", "kmeans.sse", "evaluate.evaluate"):
        m[f"{name}_s"] = total[name]
    m["cli.self_s"] = self_time["cli.main"]
    m["metrics.pairwise_distances_s"] = self_time["metrics.pairwise_distances"]
    m["metrics.pairwise_distances_calls"] = calls["metrics.pairwise_distances"]
    m["kmeans.sse_calls"] = calls["kmeans.sse"]
    problems = []

    def rate(metric: str, count: float, layer: str, seconds: float) -> None:
        if seconds > 0:
            m[metric] = count / seconds
        else:
            m[metric] = 0.0
            problems.append(f"{metric}: no time recorded in {layer}")

    rate("data.load_csv_rows_per_s", m.pop("data.rows_loaded"), "data.load_csv", total["data.load_csv"])
    rate("metrics.distance_evals_per_s", m["metrics.distance_evals"], "metrics.pairwise_distances",
         self_time["metrics.pairwise_distances"])
    return m, problems


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON -- <matclust cli arguments>")
    tracer = Tracer()
    cli = instrument(tracer)
    idx = tracer.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(idx)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
