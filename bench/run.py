"""matclust benchmark: the paper's CLI pipeline and a 1e5-point scaling point.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one ``matclust`` CLI command started as its own process
from ``src/``. Commands run one at a time from this process in a closed
loop; a round is one pass over the workload's commands, and a run repeats
whole rounds until ``--seconds`` have passed. After each round the outputs
are checked against plain-numpy references (``reference.py``) and against
properties the method must have; nothing is compared with stored output.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates untraced rounds with traced rounds, in which
each command runs under ``traced.py``, and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
from traced import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"

DIMS = 25
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 120
# The sigma outlier rule at its default c, passed explicitly so the checks
# below stay valid if the CLI's defaults change.
SIGMA_C = 3.0
POLICY_ARGS = ["--outlier-policy", "sigma", "--outlier-c", str(SIGMA_C)]
DSD_P = 1.523
# The paper's p grid and instance sizes (10 x 5 sweep cells, 6 x 5 comparison cells).
P_GRID = ["1.0", "1.2", "1.34", "1.42", "1.45", "1.5", "1.523", "1.55", "1.56", "3.0"]
SIZES = ["1000", "2000", "3000", "4000", "5097"]
COMPARE_KINDS = ["minkowski", "cityblock", "euclidean", "sqeuclidean", "chebyshev", "dsd"]
GEN_CLASSES = {"polymer": 1699, "ceramic": 1699, "metal": 1699}
# One worker: every traced span then nests on one thread, so self times are
# exact, and two busy threads on a small shared machine add noise.
JOBS = "1"


@dataclass(frozen=True)
class Workload:
    """One input and the commands run on it in each round."""

    name: str
    n: int
    classes: int
    # Per-attribute noise sigma as a share of the attribute's scale; class
    # means are drawn from [0.1, 0.9] of that scale.
    spread: float
    k: int
    metric: str
    p: float | None
    # None: run to convergence. Otherwise a cap below convergence, so every
    # seed does the same number of Lloyd iterations.
    max_iter: int | None
    paper: bool


WORKLOADS = {
    # Three tight, far-apart classes. k-means++ then puts one seed in each
    # class with near certainty, even under the flattest weighting in the
    # sweep (dsd at p = 1 weights by squared distance to the power 2/3). So
    # every fit converges in 2 iterations, the counts repeat across seeds and
    # class purity can be checked. With a spread of 0.002, one seed in three
    # had a fit that needed more iterations.
    "paper-cli": Workload("paper-cli", 5097, 3, 2e-5, 3, "dsd", DSD_P, None, True),
    # Sixteen overlapping classes: Lloyd's method needs well over 6
    # iterations here, so the cap always binds.
    "scale-dsd": Workload("scale-dsd", 100_000, 16, 0.2, 16, "dsd", DSD_P, 6, False),
    "scale-cityblock": Workload("scale-cityblock", 100_000, 16, 0.2, 16, "cityblock", None, 6, False),
}


class SetupError(RuntimeError):
    pass


def write_input(path: Path, wl: Workload, seed: int) -> None:
    """Seeded class mixture whose attributes span 1e-3 .. 1e8 in scale."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** (-3 + np.arange(DIMS) % 12)
    means = rng.uniform(0.1, 0.9, size=(wl.classes, DIMS))
    labels = np.arange(wl.n) % wl.classes
    rng.shuffle(labels)
    points = (means[labels] + wl.spread * rng.standard_normal((wl.n, DIMS))) * scale
    row = ",".join(["%.9e"] * DIMS) + ",class-%d\n"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(f"attr{a + 1}" for a in range(DIMS)) + ",class\n")
        fh.writelines(row % (*values, label + 1) for values, label in zip(points.tolist(), labels))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run one process to its exit: (exit code, wall s, peak RSS MB)."""
    with log.open("wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(COMMAND_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def commands(wl: Workload, work: Path, seed: int) -> list[tuple[str, list[str]]]:
    """(name, matclust arguments) of one round, in order."""
    inp = str(work / "input.csv")
    s = str(seed)
    fit = ["fit", "-i", inp, "-o", str(work / "fit"), "--k", str(wl.k), "--metric", wl.metric]
    fit += ["--p", str(wl.p)] if wl.p is not None else []
    fit += ["--max-iter", str(wl.max_iter)] if wl.max_iter else []
    fit += ["--seed", s, *POLICY_ARGS]
    if not wl.paper:
        return [("fit", fit)]
    grid = ["--k", str(wl.k), "--seed", s, "--jobs", JOBS, *POLICY_ARGS]
    return [
        ("gen", ["gen", "--classes", "3", "--dims", str(DIMS), "--count", str(wl.n),
                 "--seed", s, "-o", str(work / "gen.csv")]),
        ("fit", fit),
        ("sweep", ["sweep", "-i", inp, "-o", str(work / "sweep"), "--p-values", *P_GRID,
                   "--instances", *SIZES, *grid]),
        ("compare", ["compare", "-i", inp, "-o", str(work / "compare"), "--instances", *SIZES, *grid]),
    ]


def run_round(wl: Workload, work: Path, seed: int, traced: bool) -> dict:
    """Run every command of one round; return per-command results."""
    for stale in ("gen.csv", "fit", "sweep", "compare", "spans"):
        path = work / stale
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)
    (work / "spans").mkdir()
    results = {}
    t0 = time.perf_counter()
    for name, args in commands(wl, work, seed):
        if traced:
            argv = [sys.executable, str(BENCH / "traced.py"), str(work / "spans" / f"{name}.json"), "--", *args]
        else:
            argv = [sys.executable, "-m", "matclust.cli", *args]
        code, wall, rss = spawn(argv, work / f"{name}.log")
        results[name] = {"code": code, "wall": wall, "rss": rss}
    results["_wall"] = time.perf_counter() - t0
    return results


class Checker:
    """Checks one round's outputs; remembers bytes that must repeat."""

    def __init__(self, wl: Workload, work: Path) -> None:
        self.wl = wl
        self.work = work
        raw, self.classes = ref.read_csv(work / "input.csv")
        self.points = ref.minmax_normalize(raw)
        self.digests: dict[str, str] = {}

    def check(self, results: dict) -> list[str]:
        """Every command must exit 0; check the outputs of those that did."""
        codes = {name: r["code"] for name, r in results.items() if name != "_wall"}
        ok = {name for name, code in codes.items() if code == 0}
        checks = {
            "gen": self._gen,
            "fit": self._fit,
            "sweep": lambda: self._table("sweep"),
            "compare": lambda: self._table("compare"),
        }
        errors = [f"{name}: exit code {code}" for name, code in codes.items() if code != 0]
        for name, check in checks.items():
            if name in ok:
                try:
                    errors += check()
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    errors.append(f"{name}: unreadable output: {exc!r}")
        if {"sweep", "compare"} <= ok:
            errors += self._cross()
        return errors

    def _repeat(self, path: Path) -> list[str]:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self.digests.setdefault(str(path.relative_to(self.work)), digest)
        return [] if digest == first else [f"{path} differs from the first round"]

    def _gen(self) -> list[str]:
        path = self.work / "gen.csv"
        points, labels = ref.read_csv(path)
        errors = self._repeat(path)
        if points.shape != (self.wl.n, DIMS) or not np.all(np.isfinite(points)):
            errors.append(f"gen: shape {points.shape} or non-finite cells")
        counts = {name: labels.count(name) for name in set(labels or [])}
        if counts != GEN_CLASSES:
            errors.append(f"gen: class counts {counts}")
        manifest = json.loads(Path(f"{path}.manifest.json").read_text())
        if manifest.get("rows_written") != self.wl.n:
            errors.append("gen: manifest rows_written")
        return errors

    def _fit(self) -> list[str]:
        wl, x, out = self.wl, self.points, self.work / "fit"
        model = json.loads((out / "model.json").read_text())
        report = json.loads((out / "report.json").read_text())
        centroids = np.asarray(model["centroids"], dtype=np.float64)
        labels = np.asarray(model["assignments"], dtype=np.intp)
        n = x.shape[0]
        if centroids.shape != (wl.k, DIMS) or labels.shape != (n,):
            return [f"fit: model shapes {centroids.shape} / {labels.shape}"]
        errors = []
        for j, mean in ref.member_means(x, labels, wl.k).items():
            if not np.allclose(centroids[j], mean, rtol=1e-9, atol=1e-12):
                errors.append(f"fit: centroid {j} is not the mean of its members")
        want = ref.sse(x, centroids, labels)
        if not math.isclose(model["sse"], want, rel_tol=1e-9):
            errors.append(f"fit: sse {model['sse']!r}, reference {want!r}")
        dist = ref.distances(wl.metric, wl.p, x, centroids)
        own = dist[np.arange(n), labels]
        if model["converged"]:
            far = int(np.count_nonzero(own > dist.min(axis=1) * (1 + 1e-12)))
            if far:
                errors.append(f"fit: {far} points are not at a nearest centroid")
        elif wl.max_iter is None or model["iterations"] != wl.max_iter:
            errors.append(f"fit: stopped unconverged after {model['iterations']} iterations")
        kept, borderline = ref.sigma_clustered(own, labels, wl.k, SIGMA_C)
        clustered, total = report["clustered"], report["total"]
        if total != n or abs(clustered - kept) > borderline:
            errors.append(f"fit: clustered {clustered} of {total}, reference {kept} of {n}")
        if sum(report["per_cluster_counts"]) != clustered:
            errors.append("fit: per_cluster_counts do not sum to clustered")
        errors += _percentages("fit", report["accuracy_pct"], report["outlier_pct"], clustered, total)
        if wl.paper:
            purity = ref.purity(labels, self.classes)
            if purity < 0.99:
                errors.append(f"fit: class purity {purity:.4f} < 0.99")
        return errors

    def _table(self, mode: str) -> list[str]:
        out = self.work / mode
        header, rows = _read_table(out / "sweep.csv")
        errors = self._repeat(out / "sweep.csv")
        k = self.wl.k
        if header != ["metric", "p", "instance_size", *[f"c{j + 1}" for j in range(k)],
                      "accuracy_pct", "outlier_pct", "seed"]:
            return errors + [f"{mode}: header {header}"]
        if mode == "sweep":
            plan = [("dsd", float(p), int(s)) for p in P_GRID for s in SIZES]
            got = [(r[0], float(r[1]), int(r[2])) for r in rows]
        else:
            plan = [(m, int(s)) for m in COMPARE_KINDS for s in SIZES]
            got = [(r[0], int(r[2])) for r in rows]
        if got != plan:
            return errors + [f"{mode}: {len(rows)} rows, not the planned {len(plan)} cells"]
        for r in rows:
            size, counts = int(r[2]), [int(c) for c in r[3 : 3 + k]]
            errors += _percentages(f"{mode} {r[0]} {r[1]} {size}", float(r[3 + k]), float(r[4 + k]),
                                   sum(counts), size)
        largest = [r for r in rows if r[2] == SIZES[-1]]
        figures = (
            {"fig3.csv": (["p", "accuracy_pct", "outlier_pct"], [[r[1], r[3 + k], r[4 + k]] for r in largest])}
            if mode == "sweep"
            else {
                "fig4.csv": (["metric", "outlier_pct"], [[r[0], r[4 + k]] for r in largest]),
                "fig5.csv": (["metric", "accuracy_pct"], [[r[0], r[3 + k]] for r in largest]),
            }
        )
        for name, (fig_header, fig_rows) in figures.items():
            errors += self._repeat(out / name)
            if _read_table(out / name) != (fig_header, fig_rows):
                errors.append(f"{mode}: {name} is not the largest-size rows")
        return errors

    def _cross(self) -> list[str]:
        """dsd at p = 1.5 and p = 3 must match euclidean and sqeuclidean."""
        _, sweep_rows = _read_table(self.work / "sweep" / "sweep.csv")
        _, cmp_rows = _read_table(self.work / "compare" / "sweep.csv")
        errors = []
        for p, kind in ((1.5, "euclidean"), (3.0, "sqeuclidean")):
            dsd = [r[2:] for r in sweep_rows if float(r[1]) == p]
            other = [r[2:] for r in cmp_rows if r[0] == kind]
            if dsd != other:
                errors.append(f"dsd p={p} rows differ from {kind} rows")
        return errors


def _number(value: float, unit: str) -> float | int:
    return int(value) if unit in ("count", "B") else value


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def _percentages(where: str, accuracy: float, outliers: float, clustered: int, total: int) -> list[str]:
    if not 0 <= clustered <= total:
        return [f"{where}: clustered {clustered} outside [0, {total}]"]
    if not math.isclose(accuracy, 100.0 * clustered / total, rel_tol=1e-12):
        return [f"{where}: accuracy {accuracy} != 100 * {clustered} / {total}"]
    if not math.isclose(accuracy + outliers, 100.0, rel_tol=1e-12):
        return [f"{where}: accuracy {accuracy} + outliers {outliers} != 100"]
    return []


def read_spans(folder: Path) -> list[dict]:
    """Spans of every command in a folder, parents re-indexed into one list."""
    spans: list[dict] = []
    for path in sorted(folder.glob("*.json")):
        offset = len(spans)
        for span in json.loads(path.read_text()):
            if span["parent"] >= 0:
                span["parent"] += offset
            spans.append(span)
    return spans


def setup(wl: Workload, seed: int, work: Path) -> float:
    """Write the input and warm the interpreter and file caches."""
    t0 = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    write_input(work / "input.csv", wl, seed)
    code, _, _ = spawn([sys.executable, "-m", "matclust.cli", "--version"], work / "warmup.log")
    if code != 0:
        raise SetupError(f"matclust does not start (exit {code}): {(work / 'warmup.log').read_text()}")
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    work = WORK / wl.name

    try:
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        setups = [setup(wl, args.seed, work) for _ in range(SETUP_REPEATS)]
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    checker = Checker(wl, work)

    plain: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []
    errors: list[str] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        # A traced run takes its rounds in pairs and alternates which round
        # of a pair comes first, so drift over the run does not favour one.
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for is_traced in order if args.trace else (False,):
            result = run_round(wl, work, args.seed, is_traced)
            errors += checker.check(result)
            if is_traced:
                values, problems = layer_metrics(read_spans(work / "spans"))
                layers.append(values)
                errors += problems
            (traced if is_traced else plain).append(result)
            print(f"round {len(plain) + len(traced)}{' traced' if is_traced else ''}: "
                  + " ".join(f"{name} {r['wall']:.4f} s" for name, r in result.items() if name != "_wall"))

    med = statistics.median
    names = [name for name in plain[0] if name != "_wall"]
    rounds = plain + traced
    attempted = len(rounds) * len(names)
    failed = sum(1 for r in rounds for name in names if r[name]["code"] != 0)
    for error in dict.fromkeys(errors):
        print(f"CHECK FAILED: {error}")
    for name in names:
        print(f"{wl.name} {name}_s: median {med(r[name]['wall'] for r in plain):.4f} s over {len(plain)} rounds")

    if args.trace:
        metrics = {name: {"value": _number(med(m[name] for m in layers), unit), "unit": unit}
                   for name, unit in units.items() if name != "trace.overhead_s"}
        overhead = med(r["_wall"] for r in traced) - med(r["_wall"] for r in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": med(setups), "unit": "s"},
            "wall_s": {"value": med(r["_wall"] for r in plain), "unit": "s"},
            "fit_s": {"value": med(r["fit"]["wall"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": med(max(r[n]["rss"] for n in names) for r in plain), "unit": "MB"},
        }
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
