"""Isotropy and anisotropy measures for high-dimensional point clusters.

isoclust quantifies how evenly the points of a cluster spread around
their centroid.  It provides spectral measures built on the normalized
eigenvalues of the cluster scatter matrix (Var(lambda), fractional
anisotropy), directional measures built on a centered exponential
functional evaluated over sets of unit vectors, random-matrix
predictions of both for Gaussian clusters, the supporting
transforms (min-max scaling, random Fourier features, PCA projection),
a deterministic k-means, synthetic cluster generators, and a CLI.
"""

from .core import (
    ClusterAssignment,
    ClusterView,
    DataError,
    MetricReport,
    NumericError,
    PointCloud,
    center_and_scale,
    size_weighted_mean,
    split_clusters,
)
from .kmeans import KMeansResult, kmeans
from .randmat import MpMoments, MpParams, expected_fa, expected_var_lambda, mp_moments, mp_pdf, mp_support, run_mp_rows
from .measure import run_measure
from .spectral import SpectralSummary, fractional_anisotropy, spectral_summary, var_lambda
from .synth import L_ARM_WIDTH, SHAPE_KINDS, anisotropic_gaussian, gaussian_cluster, shape_cluster
from .transforms import MinMaxRecord, RbfMap, minmax_apply, minmax_scale, pca_project, rbf_fit, rbf_transform
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
    isotropy_given_b,
    isotropy_rnd,
    isotropy_vec,
    random_unit_vectors,
    run_sweep,
    z_prime,
    z_raw,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterAssignment",
    "ClusterView",
    "DEFAULT_RND_COUNT",
    "DataError",
    "DirectionSet",
    "L_ARM_WIDTH",
    "KMeansResult",
    "MetricReport",
    "MinMaxRecord",
    "MpMoments",
    "MpParams",
    "NumericError",
    "PointCloud",
    "RbfMap",
    "SHAPE_KINDS",
    "SpectralSummary",
    "anisotropic_gaussian",
    "calinski_harabasz",
    "center_and_scale",
    "cluster_size_variance",
    "davies_bouldin",
    "expected_fa",
    "expected_var_lambda",
    "fractional_anisotropy",
    "gaussian_cluster",
    "isotropy_given_b",
    "isotropy_rnd",
    "isotropy_vec",
    "kmeans",
    "mean_dist_to_centroid",
    "mean_pairwise_dist",
    "minmax_apply",
    "minmax_scale",
    "mp_moments",
    "mp_pdf",
    "mp_support",
    "pca_project",
    "random_unit_vectors",
    "rbf_fit",
    "rbf_transform",
    "run_measure",
    "run_mp_rows",
    "run_sweep",
    "shape_cluster",
    "silhouette",
    "size_weighted_mean",
    "spectral_summary",
    "split_clusters",
    "var_lambda",
    "z_prime",
    "z_raw",
]
