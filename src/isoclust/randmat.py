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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DataError, NumericError


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
