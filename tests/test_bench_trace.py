"""The benchmark's traced runs (bench/traced.py) wrap matclust functions by
the names each module binds them under; a traced command that records no
pairwise_distances time fails. These bindings must keep resolving."""

import importlib.util
import threading
from pathlib import Path

from matclust import metrics

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_traced", BENCH / "traced.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def instrumented(monkeypatch):
    """bench/traced.py's module, a tracer, the wrapped cli module and the
    (module, name) bindings wrapped; the bindings come back when the test
    ends."""
    traced = load_traced()
    wrapped = []
    wrap = traced.Tracer.wrap

    def checked_wrap(self, owner, attr, name, **kwargs):
        target = getattr(owner, attr)  # raises if the binding is gone
        assert callable(target), (owner, attr)
        monkeypatch.setattr(owner, attr, target)
        wrapped.append((owner.__name__, attr))
        wrap(self, owner, attr, name, **kwargs)

    monkeypatch.setattr(traced.Tracer, "wrap", checked_wrap)
    tracer = traced.Tracer()
    return traced, tracer, traced.instrument(tracer), wrapped


def gen(cli, path, count):
    argv = ["gen", "--classes", "3", "--dims", "4", "--count", str(count), "-o", str(path)]
    assert cli.main(argv) == 0


def test_traced_fit_records_pairwise_distances(tmp_path, monkeypatch):
    traced, tracer, cli, wrapped = instrumented(monkeypatch)
    assert ("matclust.kmeans", "pairwise_distances") in wrapped
    assert ("matclust.evaluate", "pairwise_distances") in wrapped

    data = tmp_path / "mat.csv"
    gen(cli, data, 200)
    for metric in ("cityblock", "dsd"):
        out = tmp_path / metric
        argv = ["fit", "-i", str(data), "-o", str(out), "--k", "3", "--metric", metric]
        assert cli.main(argv + (["--p", "1.523"] if metric == "dsd" else [])) == 0

    names = [span["name"] for span in tracer.spans]
    assert names.count("kmeans.fit") == 2
    assert "metrics.pairwise_distances" in names
    layers, problems = traced.layer_metrics(tracer.spans)
    assert layers["metrics.pairwise_distances_calls"] >= 2
    assert layers["metrics.pairwise_distances_s"] > 0
    # k-means++ computes n distances per step after the first, through the
    # binding the trace wraps: (k - 1) * n per fit
    assert layers["kmeans.init_distance_evals"] == 2 * (3 - 1) * 200
    assert [p for p in problems if "pairwise_distances" in p] == []


def test_traced_sweep_and_compare_count_every_cell(tmp_path, monkeypatch):
    # the benchmark's grid commands, at one worker as bench/run.py runs them
    traced, tracer, cli, _ = instrumented(monkeypatch)
    data = tmp_path / "mat.csv"
    gen(cli, data, 200)
    grid = ["--k", "3", "--jobs", "1", "--outlier-policy", "sigma", "--outlier-c", "3.0",
            "--instances", "100", "200"]
    for argv in (["sweep", "--p-values", "1.0", "1.523"], ["compare"]):
        idx = tracer.open("cli.main")
        code = cli.main([*argv, "-i", str(data), "-o", str(tmp_path / argv[0]), *grid])
        tracer.close(idx)
        assert code == 0

    layers, problems = traced.layer_metrics(tracer.spans)
    assert layers["sweep.cells"] == (2 + 6) * 2
    assert layers["kmeans.iterations"] > 0
    assert layers["evaluate.evaluate_s"] > 0
    assert layers["evaluate.distance_evals"] > 0
    assert problems == []


def test_split_passes_open_every_span_on_the_main_thread(tmp_path, monkeypatch):
    # bench/traced.py keeps one span stack, so a wrapped function entered
    # from a range's pool thread would corrupt it. 12000 x 25 is three row
    # blocks, so at 2 CPUs every pass of this fit and its evaluation splits.
    traced, tracer, cli, _ = instrumented(monkeypatch)
    monkeypatch.setattr(metrics, "usable_cpus", lambda: 2)
    ranges = []
    pool = metrics._RANGE_POOL

    class Spy:
        def submit(self, task, start, stop):
            ranges.append(stop - start)
            return pool.submit(task, start, stop)

    monkeypatch.setattr(metrics, "_RANGE_POOL", Spy())
    opened = []
    open_span = traced.Tracer.open

    def spied_open(self, name, **attrs):
        opened.append((name, threading.current_thread() is threading.main_thread()))
        return open_span(self, name, **attrs)

    monkeypatch.setattr(traced.Tracer, "open", spied_open)
    data = tmp_path / "mat.csv"
    argv = ["gen", "--classes", "3", "--dims", "25", "--count", "12000", "-o", str(data)]
    assert cli.main(argv) == 0
    for metric in ("cityblock", "dsd"):
        argv = ["fit", "-i", str(data), "-o", str(tmp_path / metric), "--k", "4",
                "--metric", metric, "--max-iter", "3"]
        assert cli.main(argv + (["--p", "1.523"] if metric == "dsd" else [])) == 0

    assert ranges
    assert [name for name, main in opened if not main] == []
    names = {name for name, _ in opened}
    assert {"normalize.fit_transform", "kmeans.update_centroids", "kmeans.sse",
            "evaluate.evaluate", "metrics.pairwise_distances"} <= names
    layers, problems = traced.layer_metrics(tracer.spans)
    assert problems == []
    assert layers["evaluate.distance_evals"] == 2 * 12000
