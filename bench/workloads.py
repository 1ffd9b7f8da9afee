"""Benchmark workloads: input generation and the CLI invocation of each.

Inputs are generated here with numpy, not with ``isoclust generate``, so
a change to the package's generators cannot change the load.  Each
workload has ``VARIANTS`` recorded inputs (``reference.json`` holds the
expected output of each); a run draws ``PER_RUN`` of them from its seed
and cycles through them, one CLI invocation per op.  Cycling through
several inputs keeps a run's median steady although the k-means
iteration count, and with it the cost of an op, differs from input to
input (38 to 89 iterations over the recorded inputs).  A traced run
cycles through the first ``TRACED`` of them only, in whole cycles, so
that its computed counts repeat exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VARIANTS = 12
PER_RUN = 8
TRACED = 2

# "full" is the benchmark; "smoke" is a tiny input of the same shape for tests.
SIZES = {
    "full": {
        "lowdim": {"points": 8000, "dims": 50, "components": 8},
        "highdim": {"clusters": 8, "points": 100, "dims": 1000},
    },
    "smoke": {
        "lowdim": {"points": 240, "dims": 5, "components": 8},
        "highdim": {"clusters": 3, "points": 12, "dims": 40},
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # input generator: "lowdim" or "highdim"
    subcommand: str
    args: tuple[str, ...]  # CLI arguments besides --input and --output
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "measure-lowdim",
            "lowdim",
            "measure",
            ("--kmeans", "8", "--threads", "1", "--vectors", "1000"),
            "many points in few dims: silhouette's N x N matrix, random probing, "
            "k-means and pairwise distances dominate; peak RSS is silhouette's",
        ),
        Workload(
            "measure-highdim",
            "highdim",
            "measure",
            ("--label-column", "label", "--threads", "2"),
            "n >> T: per-cluster eigenbasis, Gram-side spectral summaries and wide "
            "CSV rows dominate; no k-means; per-cluster threads = nproc",
        ),
        Workload(
            "cluster-write",
            "lowdim",
            "cluster",
            ("--kmeans", "8"),
            "same input as measure-lowdim: CSV read and k-means, then an 8000 x 51 "
            "CSV write instead of the metric layers",
        ),
    )
}


def pick_variants(seed: int, count: int = PER_RUN) -> list[int]:
    """The recorded inputs a run with this seed cycles through, in order."""
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.choice(VARIANTS, size=count, replace=False)]


def lowdim_input(variant: int, points: int, dims: int, components: int):
    """Heavily overlapping Gaussian components: the centre spread is 0.25
    of the within-component deviation, so Lloyd's iterations run long."""
    rng = np.random.default_rng([1, variant])
    centres = rng.normal(scale=0.25, size=(components, dims))
    which = rng.integers(components, size=points)
    data = centres[which] + rng.normal(size=(points, dims))
    return data, None


def highdim_input(variant: int, clusters: int, points: int, dims: int):
    """Labelled anisotropic Gaussian clusters of T = ``points`` in n = ``dims``
    dimensions, rows shuffled so the labels interleave."""
    rng = np.random.default_rng([2, variant])
    blocks, labels = [], []
    for c in range(clusters):
        centre = rng.normal(scale=3.0, size=dims)
        stds = rng.uniform(0.2, 2.0, size=dims)
        blocks.append(centre + rng.normal(size=(points, dims)) * stds)
        labels += [f"c{c}"] * points
    order = rng.permutation(clusters * points)
    return np.vstack(blocks)[order], [labels[i] for i in order]


def make_input(workload: Workload, size: str, variant: int):
    params = SIZES[size][workload.data]
    gen = lowdim_input if workload.data == "lowdim" else highdim_input
    return gen(variant, **params)


def write_csv(path: Path, data: np.ndarray, labels) -> None:
    """Header row, then one row per point; repr gives exact float round trips.

    The file is synced to disk before returning: its writeback would
    otherwise compete with the timed ops that follow.
    """
    header = [f"x{i}" for i in range(data.shape[1])] + (["label"] if labels else [])
    lines = [",".join(header)]
    for i, row in enumerate(data.tolist()):
        line = ",".join(map(repr, row))
        lines.append(line + "," + labels[i] if labels else line)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
