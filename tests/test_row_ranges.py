"""pairwise_distances and nearest_centers split inputs of two or more row
blocks over the usable CPUs, on the main thread only. Every result must be
bitwise the same for any number of ranges, and a sweep that runs its cells
in parallel must not split them again."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from matclust import cli, metrics
from matclust.evaluate import OutlierPolicy
from matclust.kmeans import ClusteringConfig, fit
from matclust.metrics import DistanceSpec, block_rows, nearest_centers, pairwise_distances
from matclust.sweep import SweepPlan, run_sweep

SPECS = [
    DistanceSpec("euclidean"),
    DistanceSpec("sqeuclidean"),
    DistanceSpec("cityblock"),
    DistanceSpec("chebyshev"),
    DistanceSpec("minkowski", 1.5),
    DistanceSpec("dsd", 1.523),
]

D = 25
K = 16
# 3 blocks of the float32 screen and of pairwise_distances (5242 rows at
# d = 25), 2 of the GEMM ranking (8192 rows at k = 16)
N = 12_000
# the host's count as well as more ranges than a 2-CPU host has
CPU_COUNTS = sorted({2, 3, metrics.usable_cpus()} - {1})


def blocks(n, step):
    return -(-n // step)


@pytest.fixture()
def pool_spy(monkeypatch):
    """The sizes of the ranges handed to the module's pool, one per submission."""
    submitted = []
    pool = metrics._RANGE_POOL

    class Spy:
        def submit(self, task, start, stop):
            submitted.append(stop - start)
            return pool.submit(task, start, stop)

    monkeypatch.setattr(metrics, "_RANGE_POOL", Spy())
    return submitted


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(metrics, "usable_cpus", lambda: count)


@pytest.fixture(scope="module")
def problem():
    """Random points with integer-grid rows, whose distances tie exactly,
    among them; grid centers, the last a duplicate of the first."""
    rng = np.random.default_rng(22)
    pts = rng.random((N, D)) * 2.0
    pts[::5] = rng.integers(0, 3, (N // 5, D))
    ctr = rng.integers(0, 3, (K, D)).astype(float)
    ctr[-1] = ctr[0]
    pts[-3:] = ctr[:3]  # points on a center, in the last block
    return pts, ctr


class TestDistancePasses:
    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_same_bits_for_any_number_of_ranges(self, spec, cpus, problem, monkeypatch, pool_spy):
        pts, ctr = problem
        set_cpus(monkeypatch, 1)
        expected = pairwise_distances(spec, pts, ctr)
        labels = nearest_centers(spec, pts, ctr)
        assert pool_spy == []
        assert labels.tobytes() == np.argmin(expected, axis=1).tobytes()
        # exact ties past the first range of every split: the certificate
        # leaves those rows open for the float64 core
        tied = np.flatnonzero(np.sum(expected == expected.min(axis=1, keepdims=True), axis=1) > 1)
        assert tied.max() > block_rows(D) * 2 and tied.size > 100

        set_cpus(monkeypatch, cpus)
        assert pairwise_distances(spec, pts, ctr).tobytes() == expected.tobytes()
        assert nearest_centers(spec, pts, ctr).tobytes() == labels.tobytes()
        ranked = blocks(N, block_rows(K if spec.kind in metrics._SQUARED_FAMILY else D))
        assert len(pool_spy) == min(blocks(N, block_rows(D)), cpus) - 1 + min(ranked, cpus) - 1

    def test_one_block_never_splits(self, monkeypatch, pool_spy):
        set_cpus(monkeypatch, 4)
        rng = np.random.default_rng(3)
        pts = rng.random((block_rows(D), D))
        for spec in SPECS:
            pairwise_distances(spec, pts, pts[:K])
            nearest_centers(spec, pts, pts[:K])
        assert pool_spy == []

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    @pytest.mark.parametrize("spec", [s for s in SPECS if s.kind not in metrics._SQUARED_FAMILY], ids=str)
    def test_workers_run_under_the_callers_error_state(self, spec, cpus, monkeypatch, pool_spy):
        # The float32 cast of 1e200 overflows, which nearest_centers ignores:
        # such rows go to the float64 core. The suite turns every warning into
        # an error, so a worker that ran under numpy's default error state
        # would fail here.
        rng = np.random.default_rng(4)
        pts = rng.random((100_000, 3)) * 1e200
        ctr = pts[:4]
        expected = np.argmin(pairwise_distances(spec, pts, ctr), axis=1)
        set_cpus(monkeypatch, cpus)
        assert nearest_centers(spec, pts, ctr).tobytes() == expected.tobytes()
        assert pool_spy

    @pytest.mark.parametrize("spec", [SPECS[2], SPECS[5]], ids=str)
    def test_open_rows_are_settled_in_their_range(self, spec, problem, monkeypatch):
        # far from the origin the rounding bounds leave every row open, so
        # the float64 core computes every label, in the range that ranked it
        pts, ctr = problem
        pts, ctr = pts + 1e8, ctr + 1e8
        threads = []
        exact = metrics._exact

        def spied(spec, columns, centers):
            if columns.dtype == np.float64:
                threads.append(threading.current_thread().name)
            return exact(spec, columns, centers)

        monkeypatch.setattr(metrics, "_exact", spied)
        set_cpus(monkeypatch, 1)
        expected = np.argmin(pairwise_distances(spec, pts, ctr), axis=1)
        threads.clear()
        labels = nearest_centers(spec, pts, ctr)
        assert labels.tobytes() == expected.tobytes()
        assert sum(1 for name in threads if name == "MainThread") == blocks(N, block_rows(D))
        for cpus in (2, 3):
            set_cpus(monkeypatch, cpus)
            threads.clear()
            assert nearest_centers(spec, pts, ctr).tobytes() == labels.tobytes()
            assert any(name.startswith("matclust-rows") for name in threads)

    @pytest.mark.parametrize(
        "cpus, bad", [(1, (4000, 6000, 11000)), (2, (100, 4000, 6000)), (3, (6000, 11000, 11500))]
    )
    def test_the_first_bad_row_is_named(self, cpus, bad, monkeypatch):
        # Two equal centers leave every row open. The screen's three blocks
        # form one range on 1 CPU, ranges [0, 5242) and [5242, 12000) on 2
        # and one range per block on 3: bad rows in different blocks of a
        # range, in different ranges, and two in one block.
        set_cpus(monkeypatch, cpus)
        pts = np.zeros((N, D))
        pts[list(bad), 3] = np.nan
        with pytest.raises(ValueError, match=f"point {bad[0]} has no finite distance"):
            nearest_centers(DistanceSpec("cityblock"), pts, np.ones((2, D)))

    def test_only_the_main_thread_splits(self, problem, monkeypatch, pool_spy):
        pts, ctr = problem
        set_cpus(monkeypatch, 2)
        spec = DistanceSpec("cityblock")
        results = {}

        def passes():
            results["labels"] = nearest_centers(spec, pts, ctr)
            results["distances"] = pairwise_distances(spec, pts, ctr)

        worker = threading.Thread(target=passes)
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        assert pool_spy == []
        assert nearest_centers(spec, pts, ctr).tobytes() == results["labels"].tobytes()
        assert pairwise_distances(spec, pts, ctr).tobytes() == results["distances"].tobytes()
        assert pool_spy

    def test_importing_starts_no_thread(self):
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        code = "import threading, matclust.cli; print(threading.active_count())"
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"

    def test_an_error_in_a_worker_is_raised(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        pts = np.zeros((N, D))
        pts[-1, 0] = np.nan
        with pytest.raises(ValueError, match=f"point {N - 1} has no finite distance"):
            nearest_centers(DistanceSpec("cityblock"), pts, np.ones((2, D)))
        # inf - inf only in the last row, which a worker computes
        pts[-1] = np.inf
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError, match="invalid"):
            pairwise_distances(DistanceSpec("euclidean"), pts, np.full((1, D), np.inf))


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_fit_is_the_same_for_any_number_of_ranges(spec, problem, monkeypatch, pool_spy):
    pts, _ = problem
    config = ClusteringConfig(k=K, metric=spec, seed=5, max_iter=4)
    set_cpus(monkeypatch, 1)
    one = fit(pts, config)
    set_cpus(monkeypatch, CPU_COUNTS[-1])
    many = fit(pts, config)
    assert pool_spy
    assert many.centroids.tobytes() == one.centroids.tobytes()
    assert many.assignments.tobytes() == one.assignments.tobytes()
    assert many.sse_per_iter == one.sse_per_iter and many.converged == one.converged


def outputs(folder):
    """Every output file's bytes but the manifest's, which names the folder;
    sweep.json without its wall times."""
    files = {}
    for path in sorted(folder.iterdir()):
        if path.name == "manifest.json":
            continue
        files[path.name] = path.read_bytes()
        if path.name == "sweep.json":
            doc = json.loads(files[path.name])
            for row in doc["rows"]:
                del row["wall_ms"]
            files[path.name] = json.dumps(doc).encode()
    return files


def test_cli_outputs_byte_identical(tmp_path, monkeypatch, pool_spy):
    data = tmp_path / "mat.csv"
    assert cli.main(["gen", "--classes", "4", "--dims", str(D), "--count", str(N), "-o", str(data)]) == 0
    runs = {}
    for cpus, jobs in ((1, "1"), (2, "1"), (2, "2")):
        set_cpus(monkeypatch, cpus)
        base = tmp_path / f"cpus{cpus}-jobs{jobs}"
        fit_args = ["fit", "-i", str(data), "-o", str(base / "fit"), "--metric", "cityblock"]
        assert cli.main([*fit_args, "--k", str(K), "--max-iter", "4"]) == 0
        assert cli.main(["compare", "-i", str(data), "-o", str(base / "compare"), "--k", str(K),
                         "--max-iter", "3", "--instances", "6000", str(N), "--jobs", jobs]) == 0
        runs[cpus, jobs] = (outputs(base / "fit"), outputs(base / "compare"))
    assert pool_spy
    assert runs[1, "1"] == runs[2, "1"] == runs[2, "2"]
    assert sorted(runs[1, "1"][1]) == ["fig4.csv", "fig5.csv", "stats.json", "sweep.csv", "sweep.json"]


class TestSweepWorkers:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parallel_cells_do_not_split_again(self, jobs, problem, monkeypatch, pool_spy):
        pts, _ = problem
        set_cpus(monkeypatch, 2)
        plan = SweepPlan(
            metrics=(DistanceSpec("cityblock"), DistanceSpec("dsd", 1.523)),
            instance_sizes=(6000, N),
            k=K,
            seed=3,
            policy=OutlierPolicy(kind="sigma", c=3.0),
            max_iter=2,
            jobs=jobs,
        )
        run_sweep(plan, pts)
        # a serial sweep splits each cell's passes; a parallel one none
        assert (len(pool_spy) > 0) == (jobs == 1)


class TestUsableCpus:
    def test_affinity_mask_counts(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert metrics.usable_cpus() == 1
        args = cli._build_parser().parse_args(["compare", "-i", "x.csv"])
        assert args.jobs == 1
        args = cli._build_parser().parse_args(["sweep", "-i", "x.csv"])
        assert args.jobs == 1

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert metrics.usable_cpus() == 5
        assert cli._build_parser().parse_args(["compare", "-i", "x.csv"]).jobs == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert metrics.usable_cpus() == 1
