"""The benchmark's traced runs (bench/traced.py) wrap matclust functions by
the names each module binds them under; a traced command that records no
pairwise_distances time fails. These bindings must keep resolving."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_traced", BENCH / "traced.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_fit_records_pairwise_distances(tmp_path, monkeypatch):
    traced = load_traced()
    wrapped = []
    wrap = traced.Tracer.wrap

    def checked_wrap(self, owner, attr, name, **kwargs):
        target = getattr(owner, attr)  # raises if the binding is gone
        assert callable(target), (owner, attr)
        # the unwrapped binding comes back when the test ends
        monkeypatch.setattr(owner, attr, target)
        wrapped.append((owner.__name__, attr))
        wrap(self, owner, attr, name, **kwargs)

    monkeypatch.setattr(traced.Tracer, "wrap", checked_wrap)
    tracer = traced.Tracer()
    cli = traced.instrument(tracer)
    assert ("matclust.kmeans", "pairwise_distances") in wrapped
    assert ("matclust.evaluate", "pairwise_distances") in wrapped

    data = tmp_path / "mat.csv"
    assert cli.main(["gen", "--classes", "3", "--dims", "4", "--count", "200", "-o", str(data)]) == 0
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
