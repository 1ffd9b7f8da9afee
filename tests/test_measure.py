import dataclasses
import itertools
import json
import os
import time
import tracemalloc

import numpy as np
import pytest

import isoclust.measure
from isoclust import (
    ClusterAssignment,
    DataError,
    MetricReport,
    PointCloud,
    isotropy_given_b,
    isotropy_vec,
    random_unit_vectors,
    run_measure,
    run_sweep,
    split_clusters,
)
from isoclust.cli import main
from isoclust.measure import METRICS

CROSS = [[1, 0], [-1, 0], [0, 1], [0, -1]]
COLLINEAR = [[1, 0], [-1, 0]]


def cross_and_pair(offset):
    # a 4-point cross (cluster 0) and a collinear pair (cluster 1) moved by offset
    cloud = PointCloud(np.array(CROSS + [[x + offset, y + offset] for x, y in COLLINEAR], dtype=float))
    return cloud, ClusterAssignment([0, 0, 0, 0, 1, 1])


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(isoclust.measure, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(isoclust.measure, name, counted)
    return calls


def test_fa_g_size_weighted():
    cloud, assignment = cross_and_pair(5)
    report = run_measure(cloud, assignment, metrics=["fa"])
    assert isinstance(report, MetricReport)
    # cross: FA 0; collinear pair: FA sqrt(0.5); sizes 4 and 2
    expect = (4 * 0.0 + 2 * np.sqrt(0.5)) / 6
    assert report.overall["fa_g"] == pytest.approx(expect, abs=1e-12)
    with pytest.raises(DataError, match="unknown metrics"):
        run_measure(cloud, assignment, metrics=["fa_nope"])


def test_isotropy_globals_weighted_and_one_shared_direction_set(monkeypatch):
    cloud, assignment = cross_and_pair(10)
    views = split_clusters(cloud, assignment)
    draws = count_calls(monkeypatch, "random_unit_vectors")
    report = run_measure(cloud, assignment, metrics=["i_vec", "i_rnd"], vectors=100, seed=5)

    expect = (4 * isotropy_vec(views[0]) + 2 * isotropy_vec(views[1])) / 6
    assert report.overall["i_g_vec"] == pytest.approx(expect, abs=1e-12)

    assert len(draws) == 1
    shared = random_unit_vectors(2, 100, seed=5)
    per_view = [isotropy_given_b(v, shared) for v in views]
    assert report.per_cluster["i_rnd"] == per_view
    expect_rnd = (4 * per_view[0] + 2 * per_view[1]) / 6
    assert report.overall["i_g_rnd"] == pytest.approx(expect_rnd, abs=1e-12)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("points, dims", [(30, 3), (6, 20)])
def test_one_spectral_summary_per_cluster(monkeypatch, threads, points, dims):
    # (6, 20) takes the Gram-side summary, whose eigenbasis is computed lazily for i_vec
    rng = np.random.default_rng(2)
    k = 3
    cloud = PointCloud(np.vstack([rng.normal(size=(points, dims)) + 10 * c for c in range(k)]))
    assignment = ClusterAssignment(np.repeat(np.arange(k), points))
    calls = count_calls(monkeypatch, "spectral_summary")
    report = run_measure(cloud, assignment, threads=threads)
    assert len(calls) == k
    assert {"var_lambda", "fa", "i_vec"} <= report.per_cluster.keys()
    assert report.metadata["timings_s"]["spectral_summary"] >= 0.0


def peak_traced_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_degenerate_cluster_builds_no_eigenbasis():
    # a singleton in 3,000 dims: its 3000 x 3000 identity eigenbasis alone
    # would be 72 MB, and var_lambda and fa read no eigenvectors
    p, q, r = np.random.default_rng(4).normal(size=(3, 3000))
    assignment = ClusterAssignment([0, 0, 1])
    report, peak = peak_traced_bytes(run_measure, PointCloud([p, q, r]), assignment, metrics=["var_lambda", "fa"])
    assert peak < 8e6
    assert report.degenerate == [1]
    assert report.per_cluster["var_lambda"][1] == 0.0 and report.per_cluster["fa"][1] == 0.0
    # points p, p, q make both clusters degenerate: i_vec reports the
    # sentinel for each before any eigenbasis exists
    report, peak = peak_traced_bytes(run_measure, PointCloud([p, p, q]), assignment, metrics=["i_vec"])
    assert peak < 8e6
    assert report.degenerate == [0, 1]
    assert report.per_cluster["i_vec"] == [1.0, 1.0]


def test_timings_with_a_fake_clock(monkeypatch):
    # each clock reading is one second after the last, so every timed call reads 1.0
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    cloud, assignment = cross_and_pair(5)
    report = run_measure(cloud, assignment, metrics=["fa", "i_vec", "silhouette"])
    # per-cluster entries are summed over the two clusters
    assert report.metadata["timings_s"] == {"spectral_summary": 2.0, "fa": 2.0, "i_vec": 2.0, "silhouette": 1.0}

    rows = run_sweep([3], points=5, repeats=2, counts=[4], seed=0)
    assert [(row["mean_seconds"], row["median_seconds"]) for row in rows] == [(1.0, 1.0), (1.0, 1.0)]


def test_timing_keys_do_not_depend_on_threads():
    # at 3 threads silhouette's tiles run on the pool and their seconds are summed
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.normal(size=(300, 4)))
    assignment = ClusterAssignment(rng.integers(0, 5, size=300))
    keys = [list(run_measure(cloud, assignment, vectors=50, threads=t).metadata["timings_s"]) for t in (1, 3)]
    assert sorted(keys[0]) == sorted(keys[1])
    assert {"silhouette", "mean_pairwise_dist"} <= set(keys[0])


def test_threads_are_capped_at_the_cpu_count(tmp_path, monkeypatch):
    # the pool gets at most one worker per CPU whatever --threads asks;
    # the stand-in pool runs its tasks in order and starts no thread
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(isoclust.measure, "ThreadPoolExecutor", SerialPool)
    csv_path = tmp_path / "cross.csv"
    csv_path.write_text("x,y,label\n1.0,0.0,a\n-1.0,0.0,a\n0.0,1.0,b\n0.0,-1.0,b\n3.0,1.0,b\n", encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["measure", "--input", str(csv_path), "--label-column", "label", "--threads", "100000"]
    assert main([*argv, "--output", str(out)]) == 0
    assert workers == [os.cpu_count() or 1]
    assert json.loads(out.read_text(encoding="utf-8"))["params"]["threads"] == 100000


def test_clipped_eigenvalues_in_metadata():
    # cluster 1 lies on a line in 3-D, so its scatter has round-off negatives;
    # the cross's spectrum is exact
    rng = np.random.default_rng(0)
    line = rng.normal(size=(10, 1)) * rng.normal(size=(1, 3))
    cross = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
    cloud = PointCloud(np.vstack([cross, line]))
    assignment = ClusterAssignment([0] * 6 + [1] * 10)
    clipped = run_measure(cloud, assignment, metrics=["fa"]).metadata["clipped_eigenvalues"]
    assert clipped["count"] > 0 and 0.0 < clipped["largest"] < 1e-12
    none = {"count": 0, "largest": 0.0}
    exact = run_measure(PointCloud(cross), ClusterAssignment([0] * 6), metrics=["fa", "i_vec"])
    assert exact.metadata["clipped_eigenvalues"] == none
    # a report without spectral metrics clips nothing
    assert run_measure(cloud, assignment, metrics=["silhouette"]).metadata["clipped_eigenvalues"] == none


def test_skipped_index_has_no_timing():
    cloud = PointCloud(np.array(CROSS, dtype=float))
    report = run_measure(cloud, ClusterAssignment([0, 0, 0, 0]))
    assert "silhouette" in report.skipped
    assert "silhouette" not in report.metadata["timings_s"]
    assert "cluster_size_variance" in report.metadata["timings_s"]


def test_out_of_bound_value_exits_4_and_writes_nothing(tmp_path, monkeypatch, capsys):
    csv_path = tmp_path / "cross.csv"
    csv_path.write_text("x,y,label\n1.0,0.0,a\n-1.0,0.0,a\n0.0,1.0,b\n0.0,-1.0,b\n", encoding="utf-8")
    monkeypatch.setitem(METRICS, "fa", dataclasses.replace(METRICS["fa"], per_cluster=lambda c: 1.5))
    out = tmp_path / "report.json"
    code = main(["measure", "--input", str(csv_path), "--label-column", "label", "--output", str(out)])
    assert code == 4
    assert "outside documented bound" in capsys.readouterr().err
    assert not out.exists()
