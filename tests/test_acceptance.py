"""Acceptance checks, one per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; each
check also enforces its own wall-clock budget.
"""

import time

import numpy as np

from isoclust import (
    ClusterView,
    DirectionSet,
    MpParams,
    PointCloud,
    anisotropic_gaussian,
    expected_fa,
    expected_var_lambda,
    fractional_anisotropy,
    gaussian_cluster,
    isotropy_given_b,
    isotropy_rnd,
    isotropy_vec,
    random_unit_vectors,
    rbf_fit,
    rbf_transform,
    run_sweep,
    spectral_summary,
    var_lambda,
    z_raw,
)
from isoclust.validation import calinski_harabasz, davies_bouldin, silhouette
from isoclust.core import ClusterAssignment, split_clusters


def _report(cid: str, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"ACCEPTANCE {cid} {status} ({elapsed:.2f}s, budget {budget:.0f}s): {detail}")
    assert ok, f"{cid}: {detail}"
    assert in_budget, f"{cid}: took {elapsed:.2f}s, budget {budget}s"


def as_view(cloud: PointCloud) -> ClusterView:
    return ClusterView(cloud)


def view_of(points) -> ClusterView:
    return as_view(PointCloud(np.asarray(points, dtype=float)))


def test_c01_var_lambda_bounds_and_extremes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    total = 0
    lowest, highest = np.inf, -np.inf
    for n in range(2, 51):
        sets = rng.dirichlet(np.full(n, rng.choice([0.2, 1.0, 5.0])), size=2100)
        values = var_lambda(sets)
        total += len(values)
        lowest = min(lowest, float(values.min()))
        highest = max(highest, float(values.max()))
    in_range = lowest >= 0.0 and highest <= 0.25 + 1e-15
    uniform_ok = all(abs(var_lambda(np.full(n, 1.0 / n))) <= 1e-12 for n in (2, 10, 50))
    onehot_ok = abs(var_lambda(np.array([1.0, 0.0])) - 0.25) <= 1e-12
    _report(
        "C1",
        total >= 10**5 and in_range and uniform_ok and onehot_ok,
        time.perf_counter() - t0,
        10.0,
        f"{total} spectra in [{lowest:.2e}, {highest:.6f}], uniform->0, one-hot(2)->0.25",
    )


def test_c02_centered_functional_is_translation_invariant():
    t0 = time.perf_counter()
    pts = np.array([[0.0, 0.0], [2.0, 0.3], [-1.0, 1.7], [0.6, -2.2], [3.0, 1.0]])
    directions = DirectionSet(
        np.array([[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
    )
    both = np.vstack([directions.vectors, -directions.vectors])

    def raw_ratio(view) -> float:
        values = np.array([z_raw(view, a) for a in both])
        return float(values.min() / values.max())

    base, moved = view_of(pts), view_of(pts + np.array([5.0, 0.0]))
    raw_change = abs(raw_ratio(moved) - raw_ratio(base))
    prime_change = abs(isotropy_given_b(moved, directions) - isotropy_given_b(base, directions))
    _report(
        "C2",
        raw_change > 1e-3 and prime_change < 1e-10,
        time.perf_counter() - t0,
        1.0,
        f"raw ratio moved by {raw_change:.3e} (> 1e-3), centered by {prime_change:.1e} (< 1e-10)",
    )


def test_c03_direction_union_refines():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = -np.inf
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        pts = rng.normal(size=(int(rng.integers(5, 31)), n)) * rng.uniform(0.2, 3.0)
        view = view_of(pts)
        b1 = random_unit_vectors(n, int(rng.integers(2, 13)), seed=int(rng.integers(2**32)))
        b2 = random_unit_vectors(n, int(rng.integers(2, 13)), seed=int(rng.integers(2**32)))
        gap = isotropy_given_b(view, b1.union(b2)) - min(
            isotropy_given_b(view, b1), isotropy_given_b(view, b2)
        )
        worst = max(worst, gap)
    _report(
        "C3",
        worst <= 1e-12,
        time.perf_counter() - t0,
        30.0,
        f"I(B u B') - min(I(B), I(B')) <= {worst:.2e} over {trials} instances",
    )


def test_c04_random_probe_medians_tighten_with_count():
    t0 = time.perf_counter()
    cloud = anisotropic_gaussian(10, 300, np.linspace(1.0, 0.1, 10), seed=7)
    view = as_view(cloud)
    counts = (10, 100, 1000, 10000)
    medians = []
    for count in counts:
        values = [isotropy_rnd(view, count=count, seed=s) for s in range(20)]
        medians.append(float(np.median(values)))
    nonincreasing = all(a >= b for a, b in zip(medians, medians[1:]))
    _report(
        "C4",
        nonincreasing and medians[-1] <= medians[0],
        time.perf_counter() - t0,
        60.0,
        "medians over counts "
        + ", ".join(f"{c}: {m:.4f}" for c, m in zip(counts, medians)),
    )


def test_c05_random_probes_track_eigenvector_probes_across_dims():
    t0 = time.perf_counter()
    rows = run_sweep([10, 100, 1000], points=100, repeats=10, counts=[10, 100, 1000, 10000], seed=5)
    vec_mean = {r["dim"]: r["mean_isotropy"] for r in rows if r["method"] == "vec"}
    worst = 0.0
    for r in rows:
        if r["method"] == "rnd" and r["vectors"] >= 100:
            gap = abs(r["mean_isotropy"] - vec_mean[r["dim"]]) / vec_mean[r["dim"]]
            worst = max(worst, gap)
    _report(
        "C5",
        worst <= 0.10,
        time.perf_counter() - t0,
        300.0,
        f"max relative gap to eigenvector probing {worst:.3f} (<= 0.10) for counts >= 100",
    )


def test_c06_eigenvector_probing_costs_more_in_high_dim():
    t0 = time.perf_counter()
    view = as_view(gaussian_cluster(2000, 100, seed=6))

    def median_time(fn) -> float:
        times = []
        for _ in range(3):
            s = time.perf_counter()
            fn()
            times.append(time.perf_counter() - s)
        return float(np.median(times))

    vec_t = median_time(lambda: isotropy_vec(view))
    rnd_t = median_time(lambda: isotropy_rnd(view, count=1000, seed=0))
    _report(
        "C6",
        vec_t > rnd_t,
        time.perf_counter() - t0,
        300.0,
        f"median isotropy_vec {vec_t:.3f}s > isotropy_rnd(1000) {rnd_t:.3f}s at dim 2000",
    )


def _sample_summaries(dims: int, points: int, clusters: int):
    out = []
    for i in range(clusters):
        cloud = gaussian_cluster(dims, points, seed=dims * 1000 + i)
        out.append(spectral_summary(as_view(cloud)))
    return out


def test_c07_predicted_fa_matches_sampled_clusters():
    t0 = time.perf_counter()
    points, grid = 100, (100, 400, 1600, 10000)
    means, preds, gaps = [], [], []
    for dims in grid:
        predicted = expected_fa(MpParams(points=points, dims=dims))
        measured = [fractional_anisotropy(s) for s in _sample_summaries(dims, points, 10)]
        mean = float(np.mean(measured))
        means.append(mean)
        preds.append(predicted)
        gaps.append(abs(mean - predicted) / predicted)
    increasing = all(a < b for a, b in zip(means, means[1:]))
    _report(
        "C7",
        max(gaps) <= 0.05 and increasing,
        time.perf_counter() - t0,
        300.0,
        "FA measured vs predicted "
        + ", ".join(f"n={n}: {m:.4f}/{p:.4f}" for n, m, p in zip(grid, means, preds))
        + f"; max gap {max(gaps):.3f} (<= 0.05), increasing in n",
    )


def test_c08_predicted_var_lambda_matches_and_decreases():
    t0 = time.perf_counter()
    points, grid = 100, (100, 400, 1600)
    means, preds, gaps = [], [], []
    for dims in grid:
        predicted = expected_var_lambda(MpParams(points=points, dims=dims))
        measured = [float(var_lambda(s)) for s in _sample_summaries(dims, points, 10)]
        mean = float(np.mean(measured))
        means.append(mean)
        preds.append(predicted)
        gaps.append(abs(mean - predicted) / predicted)
    decreasing = means[0] > means[1] > means[2] and preds[0] > preds[1] > preds[2]
    _report(
        "C8",
        max(gaps) <= 0.10 and decreasing,
        time.perf_counter() - t0,
        300.0,
        "Var(lambda) measured vs predicted "
        + ", ".join(f"n={n}: {m:.2e}/{p:.2e}" for n, m, p in zip(grid, means, preds))
        + f"; max gap {max(gaps):.3f} (<= 0.10), both decreasing",
    )


def test_c09_kernel_error_shrinks_with_feature_count():
    t0 = time.perf_counter()
    gamma, pairs, dims = 0.5, 200, 10
    rng = np.random.default_rng(109)
    x = PointCloud(rng.normal(size=(pairs, dims)))
    y = PointCloud(rng.normal(size=(pairs, dims)))
    exact = np.exp(-gamma * ((x.data - y.data) ** 2).sum(axis=1))

    def median_error(n_out: int) -> float:
        fmap = rbf_fit(dims, n_out, gamma=gamma, seed=9)
        fx = rbf_transform(fmap, x).data
        fy = rbf_transform(fmap, y).data
        return float(np.median(np.abs((fx * fy).sum(axis=1) - exact)))

    coarse, fine = median_error(64), median_error(4096)
    _report(
        "C9",
        fine < coarse,
        time.perf_counter() - t0,
        60.0,
        f"median kernel error {fine:.4f} at 4096 features < {coarse:.4f} at 64",
    )


def test_c10_feature_norms_concentrate_at_one():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    cloud = PointCloud(rng.normal(size=(500, 10)) * 2.0)
    feats = rbf_transform(rbf_fit(10, 1024, gamma=0.3, seed=2), cloud).data
    mean_norm = float(np.mean((feats**2).sum(axis=1)))
    _report(
        "C10",
        abs(mean_norm - 1.0) <= 0.05,
        time.perf_counter() - t0,
        10.0,
        f"mean squared feature norm {mean_norm:.4f} within 5% of 1",
    )


def test_c11_measures_invariant_under_rigid_motion_and_scale():
    t0 = time.perf_counter()
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        pts = rng.normal(size=(int(rng.integers(12, 40)), n)) * rng.uniform(0.3, 2.0, size=n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        alpha = rng.uniform(0.1, 10.0)
        shift = rng.normal(size=n) * 5.0
        moved = alpha * (pts @ q.T) + shift

        a, b = view_of(pts), view_of(moved)
        sa, sb = spectral_summary(a), spectral_summary(b)
        directions = random_unit_vectors(n, 8, seed=int(rng.integers(2**32)))
        co_moved = DirectionSet(directions.vectors @ q.T)
        diffs = (
            abs(fractional_anisotropy(sa) - fractional_anisotropy(sb)),
            abs(float(var_lambda(sa)) - float(var_lambda(sb))),
            abs(isotropy_vec(a) - isotropy_vec(b)),
            abs(isotropy_given_b(a, directions) - isotropy_given_b(b, co_moved)),
        )
        worst = max(worst, *diffs)
    _report(
        "C11",
        worst <= 1e-8,
        time.perf_counter() - t0,
        120.0,
        f"max measure drift {worst:.2e} (<= 1e-8) over 100 transformed clusters",
    )


def test_c12_hand_worked_oracles():
    t0 = time.perf_counter()
    def views_for(points, labels):
        return split_clusters(PointCloud(np.asarray(points, dtype=float)), ClusterAssignment(labels))

    sil = silhouette(views_for([[0, 0], [0, 1], [10, 0], [10, 1]], [0, 0, 1, 1]))
    b = (10 + np.sqrt(101)) / 2
    sil_ok = abs(sil - (b - 1) / b) <= 1e-4 and abs(sil - 0.90025) <= 1e-4

    tall = views_for([[0, 0], [0, 2], [10, 0], [10, 2]], [0, 0, 1, 1])
    db_ok = abs(davies_bouldin(tall) - 0.2) <= 1e-10
    ch_ok = abs(calinski_harabasz(tall) - 50.0) <= 1e-8

    collinear = view_of([[1, 0], [-1, 0]])
    iso = isotropy_given_b(collinear, DirectionSet(np.eye(2)))
    iso_ok = abs(iso - 2.0 / (np.e + 1.0 / np.e)) <= 1e-10
    _report(
        "C12",
        sil_ok and db_ok and ch_ok and iso_ok,
        time.perf_counter() - t0,
        1.0,
        f"silhouette {sil:.5f}, Davies-Bouldin 0.2, Calinski-Harabasz 50, "
        f"collinear axis isotropy {iso:.10f}",
    )
