"""Expected anisotropy of Gaussian clusters from random-matrix theory.

For a cluster of T independent Gaussian points in n dimensions the
scatter-spectrum histogram follows a Marchenko-Pastur law whose
density, in the convention used throughout this package, is

    pdf(L) = sqrt((L_max - L) (L - L_min)) / (2 pi sigma^2 L)

on the support L in [L_min, L_max] = sigma^2 (1 -+ sqrt(T/n))^2 + mu.

Taken verbatim the density does not integrate to 1: its raw mass is
min(T, n) / n, and the missing mass is exactly the fraction of zero
eigenvalues a rank-deficient scatter matrix has when n > T.  The raw
integrals of L * pdf and L^2 * pdf are therefore the moments of the
full n-eigenvalue spectrum, zeros included, and plugging them into the
fractional-anisotropy and Var(lambda) formulas predicts the measured
values directly.  ``mp_moments`` reports the raw mass so the deficit
is visible; normalized per-mass moments are exposed alongside.

With a = L_min and b = L_max the three integrals have exact closed
forms, shift and clamped lower edge included:

    mass   = (b - a)^2 / (4 sigma^2 (sqrt(a) + sqrt(b))^2)
    E(L)   = (b - a)^2 / (16 sigma^2)
    E(L^2) = (b - a)^2 (a + b) / (32 sigma^2)

``run_mp_rows`` tabulates the predictions per dimensionality next to
the values measured on sampled Gaussian clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ClusterView, DataError, NumericError, check_bounds
from .spectral import fractional_anisotropy, spectral_summary, var_lambda
from .synth import gaussian_cluster


@dataclass(frozen=True)
class MpParams:
    """Cluster shape parameters: T points in n dimensions, per-axis
    variance sigma2, and an additive spectrum shift mu."""

    points: int
    dims: int
    sigma2: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        if self.points < 1:
            raise DataError(f"points must be >= 1, got {self.points}")
        if self.dims < 1:
            raise DataError(f"dims must be >= 1, got {self.dims}")
        if not 0 < self.sigma2 < np.inf:
            raise DataError(f"sigma2 must be positive and finite, got {self.sigma2}")


@dataclass(frozen=True)
class MpMoments:
    """Raw integrals of the spectral density and its first two moments.

    e_lambda and e_lambda2 are the unnormalized integrals of L*pdf and
    L^2*pdf; mass is the integral of the pdf itself (min(T, n)/n when
    mu = 0).  The *_normalized properties divide by mass.
    """

    e_lambda: float
    e_lambda2: float
    mass: float

    @property
    def e_lambda_normalized(self) -> float:
        return self.e_lambda / self.mass

    @property
    def e_lambda2_normalized(self) -> float:
        return self.e_lambda2 / self.mass


def mp_support(params: MpParams) -> tuple[float, float]:
    """Support endpoints (L_min, L_max); L_min is clamped at 0."""
    c = params.points / params.dims
    root = math.sqrt(c)  # Python floats: an overflow gives inf, not a warning
    lo = params.sigma2 * (1.0 - root) ** 2 + params.mu
    hi = params.sigma2 * (1.0 + root) ** 2 + params.mu
    lo = max(0.0, lo)
    if not hi > lo:
        raise DataError(f"empty spectral support: ({lo}, {hi})")
    return float(lo), float(hi)


def mp_pdf(params: MpParams, lam) -> np.ndarray | float:
    """Spectral density evaluated at lam (scalar or array).

    Zero outside the support and at the endpoints; the lam = 0
    endpoint of the square case is returned as 0 as well.
    """
    lo, hi = mp_support(params)
    lam_arr = np.asarray(lam, dtype=np.float64)
    scalar = lam_arr.ndim == 0
    lam_arr = np.atleast_1d(lam_arr)
    out = np.zeros_like(lam_arr)
    inside = (lam_arr > lo) & (lam_arr < hi)
    lv = lam_arr[inside]
    out[inside] = np.sqrt((hi - lv) * (lv - lo)) / (2.0 * np.pi * params.sigma2 * lv)
    return float(out[0]) if scalar else out


def mp_moments(params: MpParams) -> MpMoments:
    """Closed-form integrals of pdf, L*pdf and L^2*pdf over the support.

    The mass is written with (sqrt(a) + sqrt(b))^2 in the denominator;
    the equal (sqrt(b) - sqrt(a))^2 / (4 sigma^2) loses digits to
    cancellation when the support is narrow.  Dividing by sigma^2 first,
    only an E(L^2) past float64 (sigma^2 ~ 1e154) raises NumericError.
    """
    lo, hi = mp_support(params)
    width = hi - lo
    q = width / (math.sqrt(lo) + math.sqrt(hi))
    mass = q * (q / params.sigma2) / 4.0
    e1 = width * (width / params.sigma2) / 16.0
    e2 = e1 * (lo / 2.0 + hi / 2.0)
    if mass <= 0 or e1 <= 0:
        raise NumericError(f"non-positive spectral mass/mean: mass={mass}, E={e1}")
    if not e2 < math.inf:
        raise NumericError(f"spectral moment E(L^2) overflows float64 (sigma2={params.sigma2})")
    return MpMoments(e_lambda=e1, e_lambda2=e2, mass=mass)


def expected_fa(params: MpParams) -> float:
    """Predicted raw fractional anisotropy of a Gaussian cluster.

    sqrt(1 - E(L)^2 / E(L^2)) over the full n-eigenvalue spectrum,
    zeros included, so the raw integrals are used directly; E(L) is not squared.
    """
    m = mp_moments(params)
    return float(np.sqrt(max(0.0, 1.0 - m.e_lambda * (m.e_lambda / m.e_lambda2))))


def expected_var_lambda(params: MpParams) -> float:
    """Predicted Var(lambda) of a Gaussian cluster.

    Spectrum variance over the squared spectrum total:
    (E(L^2) - E(L)^2) / (n E(L))^2, with full-spectrum raw moments,
    evaluated as (E(L^2)/E(L) - E(L)) / (n^2 E(L)) so no square overflows.
    """
    m = mp_moments(params)
    spread = m.e_lambda2 / m.e_lambda - m.e_lambda
    return float(max(0.0, spread) / (params.dims**2 * m.e_lambda))


def run_mp_rows(points: int, dims, sigma2: float, mu: float, empirical: int, seed: int) -> list[dict]:
    """Spectral-law predictions per dimensionality, with optional
    empirical columns from ``empirical`` sampled Gaussian clusters
    (mu = 0 only; otherwise, and with 0 clusters, they are None).
    Every row's prediction, and so every check of the grid, comes before
    the first cluster is sampled.  A predicted or measured FA or
    Var(lambda) outside its documented bound raises ``NumericError``."""
    if empirical < 0:
        raise DataError(f"empirical must be >= 0, got {empirical}")
    rows = []
    for n in dims:
        params = MpParams(points=points, dims=n, sigma2=sigma2, mu=mu)
        lo, hi = mp_support(params)
        moments = mp_moments(params)
        rows.append({
            "dims": n,
            "points": points,
            "sigma2": sigma2,
            "mu": mu,
            "lambda_min": lo,
            "lambda_max": hi,
            "mass": moments.mass,
            "e_lambda": moments.e_lambda,
            "e_lambda2": moments.e_lambda2,
            "expected_fa": expected_fa(params),
            "expected_var_lambda": expected_var_lambda(params),
            "measured_fa_mean": None,
            "measured_var_lambda_mean": None,
        })
    master = np.random.default_rng(seed)
    for row in rows:
        n = row["dims"]
        if empirical > 0 and mu == 0.0:
            fas, variances = [], []
            for _ in range(empirical):
                cloud = gaussian_cluster(n, points, std=float(np.sqrt(sigma2)), seed=int(master.integers(2**63)))
                summary = spectral_summary(ClusterView(cloud))
                fas.append(fractional_anisotropy(summary))
                variances.append(float(var_lambda(summary)))
            row["measured_fa_mean"] = sum(fas) / empirical
            row["measured_var_lambda_mean"] = sum(variances) / empirical
        for column, metric in (
            ("expected_fa", "fa"),
            ("expected_var_lambda", "var_lambda"),
            ("measured_fa_mean", "fa"),
            ("measured_var_lambda_mean", "var_lambda"),
        ):
            if row[column] is not None:
                try:
                    check_bounds(metric, row[column])
                except NumericError as exc:
                    raise NumericError(f"dims={n}, {column}: {exc}") from None
    return rows
