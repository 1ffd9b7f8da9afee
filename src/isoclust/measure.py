"""The measurement path: every metric of one clustering.

``run_measure`` splits a cloud into clusters, computes the selected
whole-clustering indices, then the per-cluster metrics, averages the
ones that have a global form weighted by cluster size, and returns a
:class:`MetricReport`, which checks every documented bound.

Each cluster's spectral summary is computed once and shared by
``var_lambda``, ``fa`` and ``i_vec``; the random direction set for
``i_rnd`` is drawn once and shared by every cluster; and each cluster's
own pairwise distances are computed once: silhouette, which runs first,
leaves their mean in the view's ``pdist_mean`` for ``mean_pairwise_dist``.
With ``threads > 1`` one thread pool, the only one in the package, runs
silhouette's tiles and then the clusters; the indices get it as the
clustering's ``run``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from .core import (
    ClusterAssignment,
    Clustering,
    ClusterView,
    DataError,
    MetricReport,
    PointCloud,
    size_weighted_mean,
    split_clusters,
    timed,
)
from .spectral import SpectralSummary, fractional_anisotropy, spectral_summary, var_lambda
from .validation import (
    calinski_harabasz,
    cluster_size_variance,
    davies_bouldin,
    mean_dist_to_centroid,
    mean_pairwise_dist,
    silhouette,
)
from .zmeasure import (
    DEFAULT_RND_COUNT,
    DirectionSet,
    check_direction_count,
    isotropy_given_b,
    isotropy_vec,
    random_unit_vectors,
)


class Cluster(NamedTuple):
    """What a per-cluster metric function sees of one cluster."""

    view: ClusterView
    summary: SpectralSummary | None  # set when a spectral metric is selected
    rnd_set: DirectionSet | None  # set when i_rnd is selected
    fa_normalized: bool


@dataclass(frozen=True)
class Metric:
    """One metric: either a per-cluster function, whose size-weighted
    mean is reported as ``global_name`` when that is set, or a function
    of the whole clustering, reported under the metric's own name."""

    per_cluster: Callable[[Cluster], float] | None = None
    global_name: str | None = None
    of_clustering: Callable[[Clustering], float] | None = None
    spectral: bool = False  # reads the cluster's spectral summary


# Each entry looks its function up when called, so a module attribute
# replaced at run time (by a tracer or a test) takes effect.
METRICS = {
    "var_lambda": Metric(lambda c: float(var_lambda(c.summary)), "var_lambda_g", spectral=True),
    "fa": Metric(
        lambda c: fractional_anisotropy(c.summary, normalized=c.fa_normalized), "fa_g", spectral=True
    ),
    "i_vec": Metric(lambda c: isotropy_vec(c.view, c.summary), "i_g_vec", spectral=True),
    "i_rnd": Metric(lambda c: isotropy_given_b(c.view, c.rnd_set), "i_g_rnd"),
    "mean_dist_to_centroid": Metric(lambda c: mean_dist_to_centroid(c.view)),
    "mean_pairwise_dist": Metric(lambda c: mean_pairwise_dist(c.view)),
    "silhouette": Metric(of_clustering=lambda views: silhouette(views)),
    "davies_bouldin": Metric(of_clustering=lambda views: davies_bouldin(views)),
    "calinski_harabasz": Metric(of_clustering=lambda views: calinski_harabasz(views)),
    "cluster_size_variance": Metric(of_clustering=lambda views: cluster_size_variance(views)),
}


def _measure_cluster(view, names, rnd_set, fa_normalized):
    times: dict[str, float] = {}
    summary = None
    if any(METRICS[name].spectral for name in names):
        summary, times["spectral_summary"] = timed(spectral_summary, view)
    cluster = Cluster(view, summary, rnd_set, fa_normalized)
    values: dict[str, float] = {}
    for name in names:
        values[name], times[name] = timed(METRICS[name].per_cluster, cluster)
    # only the clipping counts outlive the call: a summary can hold an n x n eigenbasis
    clipped = (0, 0.0) if summary is None else (summary.clipped, summary.clipped_largest)
    return values, times, clipped


def check_options(metrics=None, vectors: int = DEFAULT_RND_COUNT, threads: int = 1) -> list[str]:
    """The metric names ``run_measure`` computes: ``metrics`` as a list,
    or every name in ``METRICS`` when it is None.

    ``threads < 1``, a name not in ``METRICS``, a name listed twice and,
    when ``i_rnd`` is selected, fewer than 2 ``vectors`` are each a
    ``DataError``, raised before any work is done.
    """
    if threads < 1:
        raise DataError(f"threads must be >= 1, got {threads}")
    selected = list(METRICS if metrics is None else metrics)
    unknown = [m for m in selected if m not in METRICS]
    if unknown:
        raise DataError(f"unknown metrics: {', '.join(unknown)} (known: {', '.join(METRICS)})")
    if len(set(selected)) != len(selected):
        raise DataError(f"a metric is listed twice: {', '.join(selected)}")
    if "i_rnd" in selected:
        check_direction_count(vectors)
    return selected


def run_measure(
    cloud: PointCloud,
    assignment: ClusterAssignment,
    metrics=None,
    vectors: int = DEFAULT_RND_COUNT,
    seed: int = 0,
    fa_normalized: bool = False,
    threads: int = 1,
) -> MetricReport:
    """Compute the selected metrics (default: all of ``METRICS``) for one clustering.

    Per-cluster values come with a ``size`` list; whole-clustering
    indices that do not apply (e.g. silhouette for one cluster) are
    listed in ``skipped`` when the metrics are defaulted and raise a
    ``DataError`` when requested explicitly; a metric listed twice is a
    ``DataError``.  ``metadata["timings_s"]`` holds the wall-clock seconds
    of each computed metric, plus ``spectral_summary``: a per-cluster
    metric's summed over the clusters (so with several threads they sum
    task seconds, not elapsed time), a whole-clustering index's elapsed.
    The one pass over a cluster's own pairs that feeds both silhouette and
    ``mean_pairwise_dist`` is counted under silhouette when it is
    selected.  The key set does not depend on ``threads``.  With
    ``threads > 1`` and at least 2 clusters, silhouette's tiles and then
    the clusters run on a pool of ``min(threads, os.cpu_count())``
    workers.  ``metadata["clipped_eigenvalues"]`` holds the
    ``count`` of negative round-off eigenvalues clamped to 0, summed over
    the clusters' spectral summaries, and the ``largest`` magnitude among
    them (0 and 0.0 when no spectral metric is selected).
    Values are independent of the thread count.  A value outside its
    documented bound raises ``NumericError``.
    """
    explicit = metrics is not None
    selected = check_options(metrics, vectors, threads)
    views = split_clusters(cloud, assignment)
    sizes = [v.size for v in views]
    rnd_set = random_unit_vectors(cloud.n_dims, vectors, seed) if "i_rnd" in selected else None

    names = [m for m in selected if METRICS[m].per_cluster]
    whole: dict[str, float] = {}
    timings: dict[str, float] = {}
    skipped: dict[str, str] = {}
    parallel = threads > 1 and len(views) > 1
    with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) if parallel else nullcontext() as pool:
        if pool:
            views.run = pool.map
        for name in (m for m in selected if METRICS[m].of_clustering):
            try:
                whole[name], timings[name] = timed(METRICS[name].of_clustering, views)
            except DataError as exc:
                if explicit:
                    raise
                skipped[name] = str(exc)
        measure_one = partial(_measure_cluster, names=names, rnd_set=rnd_set, fa_normalized=fa_normalized)
        results = list(views.run(measure_one, views))

    per_cluster: dict[str, list[float]] = {"size": [float(s) for s in sizes]}
    overall: dict[str, float] = {}
    for _, times, _ in results:
        for key, seconds in times.items():
            timings[key] = timings.get(key, 0.0) + seconds
    for name in names:
        per_cluster[name] = [values[name] for values, _, _ in results]
        if METRICS[name].global_name:
            overall[METRICS[name].global_name] = size_weighted_mean(per_cluster[name], sizes)
    overall.update(whole)  # the indices ran first but follow the globals in ``overall``
    clipped = [c for _, _, c in results]

    return MetricReport(
        per_cluster=per_cluster,
        overall=overall,
        degenerate=[v.cluster_id for v in views if v.degenerate],
        skipped=skipped,
        metadata={
            "timings_s": timings,
            "clipped_eigenvalues": {
                "count": sum(count for count, _ in clipped),
                "largest": max(largest for _, largest in clipped),
            },
        },
    )
