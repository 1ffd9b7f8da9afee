"""Feature transforms: per-column min-max scaling, a random Fourier
feature map approximating the RBF kernel, and a PCA projection for
plot export.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import DataError, PointCloud


@dataclass
class MinMaxRecord:
    """Fitted column bounds of a min-max scaling, for exact re-application.

    ``constant`` flags columns whose observed min equals the max; those
    map to the midpoint of the target range.
    """

    col_min: np.ndarray
    col_max: np.ndarray
    lo: float
    hi: float
    constant: np.ndarray

    def to_dict(self) -> dict:
        return {
            "col_min": [float(x) for x in self.col_min],
            "col_max": [float(x) for x in self.col_max],
            "lo": self.lo,
            "hi": self.hi,
            "constant": [bool(x) for x in self.constant],
        }


def minmax_scale(cloud: PointCloud, lo: float = -1.0, hi: float = 1.0):
    """Affinely map every column onto [lo, hi].

    Returns ``(scaled_cloud, record)``.  Constant columns are sent to
    the midpoint (lo + hi) / 2 and flagged on the record.  Re-fitting
    on the scaled output is the identity map, since each non-constant
    column spans exactly [lo, hi].
    """
    if not lo < hi:
        raise DataError(f"need lo < hi, got ({lo}, {hi})")
    cmin = cloud.data.min(axis=0)
    cmax = cloud.data.max(axis=0)
    record = MinMaxRecord(cmin, cmax, float(lo), float(hi), cmax == cmin)
    return minmax_apply(record, cloud), record


def minmax_apply(record: MinMaxRecord, cloud: PointCloud) -> PointCloud:
    """Apply previously fitted column bounds to a cloud."""
    if cloud.n_dims != record.col_min.size:
        raise DataError(
            f"cloud has {cloud.n_dims} dims, record was fitted on {record.col_min.size}"
        )
    span = np.where(record.constant, 1.0, record.col_max - record.col_min)
    unit = (cloud.data - record.col_min) / span
    scaled = record.lo + unit * (record.hi - record.lo)
    mid = 0.5 * (record.lo + record.hi)
    scaled[:, record.constant] = mid
    return PointCloud(scaled, columns=cloud.columns)


@dataclass
class RbfMap:
    """A fitted random Fourier feature map approximating the RBF kernel.

    weights : (n_in, n_out) Gaussian draws with standard deviation
        sqrt(2 * gamma)
    offsets : (n_out,) uniform phase draws in [0, 2*pi)

    The transform of a point x is sqrt(2) * cos(x @ weights + offsets)
    / sqrt(n_out), so inner products of transformed points approximate
    exp(-gamma * ||x - y||^2).
    """

    weights: np.ndarray
    offsets: np.ndarray
    gamma: float
    seed: int

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.offsets = np.asarray(self.offsets, dtype=np.float64)
        if self.weights.ndim != 2 or self.offsets.shape != (self.weights.shape[1],):
            raise DataError("weights must be (n_in, n_out) with one offset per output")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.offsets).all()):
            raise DataError("weights and offsets must be finite")

    @property
    def n_in(self) -> int:
        return self.weights.shape[0]

    @property
    def n_out(self) -> int:
        return self.weights.shape[1]

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "rbf_map",
                "gamma": self.gamma,
                "seed": self.seed,
                "weights": [[float(x) for x in row] for row in self.weights],
                "offsets": [float(x) for x in self.offsets],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RbfMap":
        """Parse ``to_json`` output.  Text that is not JSON, a missing
        key and a field that is not numeric are each a ``DataError``."""
        try:
            doc = json.loads(text)
            if doc["kind"] != "rbf_map":
                raise ValueError(f"kind is {doc['kind']!r}")
            fields = dict(
                weights=np.asarray(doc["weights"], dtype=np.float64),
                offsets=np.asarray(doc["offsets"], dtype=np.float64),
                gamma=float(doc["gamma"]),
                seed=int(doc["seed"]),
            )
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise DataError(f"not a serialized RBF map ({type(exc).__name__}: {exc})") from None
        return cls(**fields)


def rbf_fit(n_in: int, n_out: int, gamma: float, seed: int) -> RbfMap:
    """Draw a random Fourier feature map, deterministic for a seed."""
    if n_in < 1 or n_out < 1:
        raise DataError(f"need n_in >= 1 and n_out >= 1, got ({n_in}, {n_out})")
    if gamma <= 0:
        raise DataError(f"gamma must be positive, got {gamma}")
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, np.sqrt(2.0 * gamma), size=(n_in, n_out))
    offsets = rng.uniform(0.0, 2.0 * np.pi, size=n_out)
    return RbfMap(weights=weights, offsets=offsets, gamma=float(gamma), seed=int(seed))


def rbf_transform(rbf_map: RbfMap, cloud: PointCloud) -> PointCloud:
    """Apply a fitted feature map; output has n_out columns."""
    if cloud.n_dims != rbf_map.n_in:
        raise DataError(f"cloud has {cloud.n_dims} dims, map expects {rbf_map.n_in}")
    feats = np.sqrt(2.0) * np.cos(cloud.data @ rbf_map.weights + rbf_map.offsets)
    feats /= np.sqrt(rbf_map.n_out)
    return PointCloud(feats, columns=[f"rbf_{j}" for j in range(rbf_map.n_out)])


def pca_project(cloud: PointCloud, dims: int) -> PointCloud:
    """Project onto the top principal axes of the centered cloud.

    Intended for 2-D/3-D plot export.  Component signs are fixed by
    making the largest-magnitude loading of each axis positive, so the
    projection is deterministic.
    """
    if dims < 1 or dims > cloud.n_dims:
        raise DataError(f"cannot project {cloud.n_dims}-D data to {dims} dims")
    centered = cloud.data - cloud.data.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axes = vt[:dims]
    flip = np.sign(axes[np.arange(dims), np.abs(axes).argmax(axis=1)])
    flip[flip == 0] = 1.0
    axes = axes * flip[:, None]
    return PointCloud(centered @ axes.T, columns=[f"pc{j + 1}" for j in range(dims)])
