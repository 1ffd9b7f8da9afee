"""
From raw points to a full metric report
=======================================

The end-to-end path: synthesize three Gaussian blobs, cluster them
with k-means, split the cloud into cluster views, and compute every
per-cluster and global measure the package offers.
"""

import numpy as np

from isoclust import PointCloud, kmeans, run_measure, split_clusters

# Three blobs of different sizes and spreads, stacked into one cloud.
rng = np.random.default_rng(42)
blobs = [
    rng.normal(size=(80, 4)) * 0.8,
    rng.normal(size=(50, 4)) * np.array([2.0, 0.5, 0.5, 0.5]) + 10,
    rng.normal(size=(30, 4)) * 1.5 + [-8, 8, 0, 0],
]
cloud = PointCloud(np.vstack(blobs))

# Cluster and report the fit.
result = kmeans(cloud, 3, seed=0)
print(f"k-means: k=3, inertia {result.inertia:.1f}, {result.n_iter} iterations")
sizes = split_clusters(cloud, result.assignment)
print(f"cluster sizes: {[v.size for v in sizes]}")
print()

# run_measure is the one measurement path, shared with the CLI; it
# returns a MetricReport whose values are checked against their bounds.
report = run_measure(cloud, result.assignment, vectors=1000, seed=0)

print(f"{'metric':<24}" + "".join(f" {f'cluster {i}':>11}" for i in range(3)))
for name, values in report.per_cluster.items():
    print(f"{name:<24}" + "".join(f" {v:>11.4f}" for v in values))

print()
print("global (size-weighted means and whole-clustering indices):")
for name, value in sorted(report.overall.items()):
    print(f"  {name:<24} {value:>10.4f}")

if report.skipped:
    print(f"skipped: {report.skipped}")
if report.degenerate:
    print(f"degenerate clusters: {report.degenerate}")
