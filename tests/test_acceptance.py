"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from matclust.cli import main
from matclust.data import generate_synthetic
from matclust.evaluate import OutlierPolicy, cluster_accuracy_pct
from matclust.kmeans import ClusteringConfig, assign, fit
from matclust.metrics import DistanceSpec, distance, pairwise_distances
from matclust.normalize import fit_transform
from matclust.sweep import DEFAULT_P_GRID, SweepPlan, run_sweep


def _report(num: int, title: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {title}")
    assert ok, f"criterion {num}: {title}"


def _rel_close(a: np.ndarray, b: np.ndarray, rel: float) -> bool:
    scale = np.maximum(np.abs(a), np.abs(b))
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(scale, 1e-300)))


def _bulk_distance(spec: DistanceSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Library distance on matched pairs, vectorized.

    Every kind here is a function of x - y alone, so d(x_i, y_i) equals the
    distance from x_i - y_i to the origin; this routes 1e5 pairs through the
    real pairwise kernel instead of 1e5 Python-level scalar calls.
    """
    return pairwise_distances(spec, x - y, np.zeros((1, x.shape[1])))[:, 0]


def test_criterion_1_metric_coincidences():
    """dsd(3) == sqeuclidean and dsd(1.5) == euclidean on 1e5 random pairs."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    pairs_per_dim = 4000  # 25 dims x 4000 = 100_000 pairs
    ok = True
    for n in range(1, 26):
        x = rng.random((pairs_per_dim, n))
        y = rng.random((pairs_per_dim, n))
        ok &= _rel_close(
            _bulk_distance(DistanceSpec("dsd", 3.0), x, y),
            _bulk_distance(DistanceSpec("sqeuclidean"), x, y),
            1e-12,
        )
        ok &= _rel_close(
            _bulk_distance(DistanceSpec("dsd", 1.5), x, y),
            _bulk_distance(DistanceSpec("euclidean"), x, y),
            1e-12,
        )
    # scalar spot checks through the public single-pair function
    for _ in range(200):
        n = int(rng.integers(1, 26))
        x, y = rng.random(n), rng.random(n)
        ref = distance(DistanceSpec("sqeuclidean"), x, y)
        ok &= abs(distance(DistanceSpec("dsd", 3.0), x, y) - ref) <= 1e-12 * max(ref, 1e-300)
        ref = distance(DistanceSpec("euclidean"), x, y)
        ok &= abs(distance(DistanceSpec("dsd", 1.5), x, y) - ref) <= 1e-12 * max(ref, 1e-300)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report(1, f"dsd(3)=sqeuclidean, dsd(1.5)=euclidean on 1e5 pairs in {elapsed:.2f}s", ok)


def test_criterion_2_metric_axioms_and_witnesses():
    rng = np.random.default_rng(211)
    all_specs = [
        DistanceSpec("euclidean"),
        DistanceSpec("sqeuclidean"),
        DistanceSpec("cityblock"),
        DistanceSpec("chebyshev"),
        DistanceSpec("minkowski", 2.5),
        DistanceSpec("dsd", 1.523),
    ]
    triangle_specs = [
        DistanceSpec("euclidean"),
        DistanceSpec("cityblock"),
        DistanceSpec("chebyshev"),
        DistanceSpec("minkowski", 1.0),
        DistanceSpec("minkowski", 4.0),
        DistanceSpec("dsd", 1.5),
        DistanceSpec("dsd", 1.2),
    ]
    ok = True

    # symmetry / identity / non-negativity on 1e4 pairs per kind
    for spec in all_specs:
        for n in (1, 5, 25):
            x = rng.random((3334, n))
            y = rng.random((3334, n))
            fwd = _bulk_distance(spec, x, y)
            rev = _bulk_distance(spec, y, x)
            ok &= bool(np.all(fwd == rev))
            ok &= bool(np.all(fwd >= 0.0))
            ok &= bool(np.all(_bulk_distance(spec, x, x) == 0.0))
        v = rng.random(10)
        ok &= distance(spec, v, v) == 0.0
        ok &= distance(spec, v, v + 0.25) == distance(spec, v + 0.25, v)

    # triangle inequality on 1e4 random triples, dims 1..25
    for spec in triangle_specs:
        violations = 0
        for _ in range(10_000 // 25):
            n = int(rng.integers(1, 26))
            x, y, z = rng.random((3, n))
            dxz = distance(spec, x, z)
            dxy = distance(spec, x, y)
            dyz = distance(spec, y, z)
            if dxz > dxy + dyz + 1e-12 * (dxy + dyz + 1.0):
                violations += 1
        ok &= violations == 0

    # explicit counterexample triples on collinear 1-D points 0, 1, 2
    a, b, c = (0.0,), (1.0,), (2.0,)
    sq = DistanceSpec("sqeuclidean")
    ok &= distance(sq, a, c) > distance(sq, a, b) + distance(sq, b, c)
    for p in (1.523, 3.0):
        spec = DistanceSpec("dsd", p)
        ok &= distance(spec, a, c) > distance(spec, a, b) + distance(spec, b, c)

    _report(2, "axioms hold; triangle fails for sqeuclidean and dsd(p>1.5)", ok)


def test_criterion_3_percentage_arithmetic():
    # the outlier share as the report computes it: 100 - accuracy
    ok = True
    ok &= round(cluster_accuracy_pct(314 + 329 + 281, 1000), 1) == 92.4
    ok &= round(100.0 - cluster_accuracy_pct(314 + 329 + 281, 1000), 1) == 7.6
    ok &= round(cluster_accuracy_pct(320 + 311 + 287, 1000), 1) == 91.8
    ok &= round(100.0 - cluster_accuracy_pct(320 + 311 + 287, 1000), 1) == 8.2
    _report(3, "accuracy/outlier arithmetic reproduces the reported percentages", ok)


def brute_force_sse(data: np.ndarray, k: int) -> float:
    best = np.inf
    n = data.shape[0]
    for labels in itertools.product(range(k), repeat=n):
        labels = np.asarray(labels)
        total = 0.0
        for j in range(k):
            members = data[labels == j]
            if members.shape[0]:
                mu = members.mean(axis=0)
                total += float(np.sum((members - mu) ** 2))
        best = min(best, total)
    return best


def test_criterion_4_brute_force_oracle():
    rng = np.random.default_rng(401)
    ok = True
    # exhaustive-partition lower bound on small 1-D datasets
    for _ in range(40):
        n = int(rng.integers(2, 9))
        data = np.round(rng.random((n, 1)) * 10.0, 3)
        model = fit(data, ClusteringConfig(k=2, metric=DistanceSpec("euclidean"), seed=1))
        ok &= model.final_sse >= brute_force_sse(data, 2) - 1e-12

    # kmeans++ restarts reach the global optimum on the two-blob instance
    blobs = np.array([[0.0], [1.0], [9.0], [10.0]])
    best = min(
        fit(
            blobs,
            ClusteringConfig(k=2, metric=DistanceSpec("euclidean"), seed=s),
        ).final_sse
        for s in range(20)
    )
    ok &= best == 1.0
    ok &= brute_force_sse(blobs, 2) == 1.0
    _report(4, "SSE >= exhaustive optimum; kmeans++ restarts attain SSE=1.0", ok)


def test_criterion_5_lloyd_monotonicity():
    rng = np.random.default_rng(501)
    ok = True
    for i in range(100):
        data = rng.random((500, 10))
        kind = "euclidean" if i % 2 == 0 else "sqeuclidean"
        model = fit(data, ClusteringConfig(k=5, metric=DistanceSpec(kind), seed=i))
        ok &= bool(np.all(np.diff(model.sse_per_iter) <= 1e-9))
    _report(5, "SSE non-increasing across iterations on 100 random datasets", ok)


def test_criterion_6_desk_scale_reproduction(tmp_path):
    start = time.perf_counter()
    ds = generate_synthetic(3, 25, 5097, seed=42)
    _, normalized = fit_transform(ds.points)

    plan = SweepPlan(seed=42, policy=OutlierPolicy(kind="sigma", c=3.0))
    cmp_result = run_sweep(plan, normalized)
    ok = len(cmp_result.rows) == 30

    p_grid = tuple(DistanceSpec("dsd", p) for p in DEFAULT_P_GRID)
    sweep_result = run_sweep(dataclasses.replace(plan, metrics=p_grid), normalized)
    ok &= len(sweep_result.rows) == 50

    # purity against generator labels at the full instance, per metric;
    # labels follow the same seeded shuffle the harness applies
    order = np.random.default_rng(42).permutation(ds.n_points)
    shuffled_points = normalized[order]
    label_index = {name: i for i, name in enumerate(sorted(set(ds.labels)))}
    truth = np.array([label_index[ds.labels[i]] for i in order])
    for spec in plan.metrics:
        model = fit(shuffled_points, ClusteringConfig(k=3, metric=spec, seed=42))
        pure = sum(
            np.bincount(truth[model.assignments == j]).max()
            for j in range(3)
            if (model.assignments == j).any()
        )
        purity = pure / ds.n_points
        ok &= purity >= 0.99

    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(6, f"50-row sweep + 6-metric comparison, >=99% purity, {elapsed:.2f}s", ok)


def test_criterion_7_sweep_determinism(tmp_path):
    src = tmp_path / "mat.csv"
    assert main(["gen", "--classes", "3", "--dims", "8", "--count", "400",
                 "--seed", "42", "-o", str(src)]) == 0
    outputs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        rc = main(
            ["sweep", "-i", str(src), "-o", str(out),
             "--p-values", "1.0", "1.5", "1.523",
             "--instances", "100", "200", "400", "--jobs", jobs]
        )
        assert rc == 0
        outputs.append(out)
    a, b, c = outputs
    ok = (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    ok &= (a / "sweep.csv").read_bytes() == (c / "sweep.csv").read_bytes()
    ok &= (a / "fig3.csv").read_bytes() == (b / "fig3.csv").read_bytes()
    ok &= (a / "fig3.csv").read_bytes() == (c / "fig3.csv").read_bytes()
    _report(7, "byte-identical sweep.csv and fig3.csv across runs and --jobs", ok)


def test_criterion_8_normalization():
    rng = np.random.default_rng(801)
    ok = True
    for _ in range(1000):
        n_pts = int(rng.integers(2, 40))
        dim = int(rng.integers(1, 8))
        scales = 10.0 ** rng.uniform(-3, 8, size=dim)
        data = rng.random((n_pts, dim)) * scales
        stats, out = fit_transform(data)
        ok &= bool(np.all(out >= 0.0) and np.all(out <= 1.0))
        span = stats.max - stats.min
        mask = span > 0
        recovered = out * span + stats.min
        scale = np.maximum(np.abs(data), span[None, :])
        ok &= bool(
            np.all(np.abs(recovered[:, mask] - data[:, mask]) <= 1e-12 * scale[:, mask])
        )
    _report(8, "range [0,1] and 1e-12 inverse recovery on 1e3 raw datasets", ok)


def test_criterion_9_argmin_invariance():
    rng = np.random.default_rng(901)
    specs = [
        DistanceSpec("euclidean"),
        DistanceSpec("sqeuclidean"),
        DistanceSpec("dsd", 1.2),
        DistanceSpec("dsd", 1.523),
        DistanceSpec("dsd", 3.0),
    ]
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        dim = int(rng.integers(1, 10))
        k = int(rng.integers(1, 6))
        pts = rng.random((n, dim))
        ctr = rng.random((k, dim))
        reference = assign(pts, ctr, specs[0])
        for spec in specs[1:]:
            ok &= bool(np.array_equal(assign(pts, ctr, spec), reference))
    _report(9, "identical assignments under euclidean/sqeuclidean/dsd", ok)
