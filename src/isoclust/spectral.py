"""Spectral anisotropy measures.

The shape of a cluster C is summarized by the eigenvalues of its
centered scatter matrix C'C (C centered at the cluster centroid).
Normalizing the eigenvalues to sum to one gives lambda_i, and two
scalar measures follow:

* ``var_lambda``: the population variance of the normalized
  eigenvalues, in [0, 1/4].  0 for a perfectly isotropic spectrum,
  1/4 for a 2-D one-hot spectrum.
* ``fractional_anisotropy``: sqrt(1 - E(lambda)^2 / E(lambda^2)), in
  [0, 1).  The normalized variant multiplies by sqrt(n / (n - 1)) so a
  one-hot spectrum maps to exactly 1.

Eigenvalues are found on the cheaper side of the problem: the n x n
scatter matrix when n <= |C|, otherwise the |C| x |C| Gram matrix,
which shares the nonzero spectrum.  Eigenvectors, read only by the
directional measures, come from one scatter decomposition: with the
eigenvalues on the scatter side, on first access on the Gram side.

Both decompositions are :func:`core.eigh`, bitwise ``np.linalg.eigh``
and ``eigvalsh``: numpy's own LAPACK ``dsyevd`` call, made on the fresh
product matrix itself.  An eigenbasis holds 3 n^2 float64 in flight,
the scatter and LAPACK's 2 n^2 workspace, and a decomposition that
does not converge raises ``NumericError``.
"""

from __future__ import annotations

import numpy as np

from .core import ClusterView, DataError, eigh


class SpectralSummary:
    """Eigenvalues (descending, zero-padded to n) of a cluster scatter matrix.

    Attributes
    ----------
    eigenvalues : ndarray, shape (n,)
        Scatter matrix eigenvalues, nonincreasing, negatives clamped to 0.
    clipped : int
        How many eigenvalues were negative (round-off) and clamped to 0.
    clipped_largest : float
        The largest magnitude among them; 0.0 when none was clamped.
    lambdas : ndarray, shape (n,)
        Eigenvalues normalized to sum to 1.  Uniform (1/n) for a
        degenerate cluster.
    degenerate : bool
        True when the cluster has zero dispersion (single point or
        coincident points).
    vectors : ndarray, shape (n, n)
        One unit eigenvector per eigenvalue, as rows, matching the
        eigenvalue order; the identity for a degenerate cluster.
        Computed on first access when the Gram side found the eigenvalues.
    """

    def __init__(self, eigenvalues, degenerate, _centered=None, _vectors=None):
        raw = np.asarray(eigenvalues, dtype=np.float64)
        negative = raw[raw < 0.0]
        self.clipped = int(negative.size)
        self.clipped_largest = float(-negative.min()) if negative.size else 0.0
        self.eigenvalues = np.clip(raw, 0.0, None)
        self.degenerate = bool(degenerate)
        n = self.eigenvalues.size
        total = self.eigenvalues.sum()
        if total > 0.0:
            self.lambdas = self.eigenvalues / total
        else:
            self.lambdas = np.full(n, 1.0 / n)
        self._centered = _centered
        self._vectors = _vectors

    @property
    def n_dims(self) -> int:
        return self.eigenvalues.size

    @property
    def vectors(self) -> np.ndarray:
        if self._vectors is None and self.degenerate:
            self._vectors = np.eye(self.n_dims)
        elif self._vectors is None:
            _, self._vectors = _scatter_eigh(self._centered)
        return self._vectors


def _scatter_eigh(centered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues of ``centered.T @ centered``, one eigenvector per row.

    The rows are the transpose of a C-contiguous array whose columns are
    the eigenvectors, the layout in which the probe product reads
    ``np.linalg.eigh``'s eigenvectors: a BLAS product rounds by the layout
    of its operand, and ``i_vec`` keeps its bits.  The copy is made after
    LAPACK's workspace is freed, so the peak stays :func:`core.eigh`'s.
    """
    vals, rows = eigh(centered.T @ centered)
    return vals[::-1], np.ascontiguousarray(rows[::-1].T).T


def spectral_summary(view: ClusterView) -> SpectralSummary:
    """Eigen-summary of a cluster's centered scatter matrix."""
    n = view.n_dims
    if view.degenerate:
        return SpectralSummary(np.zeros(n), True)
    centered = view.points - view.centroid
    if n <= view.size:
        vals, vecs = _scatter_eigh(centered)
        return SpectralSummary(vals, False, _vectors=vecs)
    # High-dimensional case: the Gram matrix carries the nonzero spectrum.
    vals, _ = eigh(centered @ centered.T, vectors=False)
    eig = np.zeros(n)
    eig[: view.size] = vals[::-1]
    return SpectralSummary(eig, False, _centered=centered)


def _as_lambdas(s) -> np.ndarray:
    if isinstance(s, SpectralSummary):
        return s.lambdas
    lam = np.asarray(s, dtype=np.float64)
    if lam.shape[-1] < 1:
        raise DataError("empty eigenvalue set")
    if np.any(lam < -1e-12):
        raise DataError("normalized eigenvalues must be nonnegative")
    sums = lam.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=1e-8):
        raise DataError("normalized eigenvalues must sum to 1")
    return lam


def var_lambda(s) -> float | np.ndarray:
    """Population variance of the normalized eigenvalues, in [0, 1/4].

    Accepts a :class:`SpectralSummary` or a normalized eigenvalue
    array; a 2-D array is treated as a batch (one set per row) and
    returns one variance per row.  A degenerate cluster reports 0.
    """
    if isinstance(s, SpectralSummary) and s.degenerate:
        return 0.0
    lam = _as_lambdas(s)
    out = lam.var(axis=-1)
    return out if out.ndim else float(out)


def fractional_anisotropy(s, normalized: bool = False) -> float:
    """Fractional anisotropy of the normalized eigenvalue spectrum.

    The raw form is sqrt(1 - E(lambda)^2 / E(lambda^2)); it tops out at
    sqrt(1 - 1/n) for a one-hot spectrum.  With ``normalized=True`` the
    value is scaled by sqrt(n / (n - 1)) so the one-hot spectrum
    reaches exactly 1.  A degenerate cluster reports 0.
    """
    if isinstance(s, SpectralSummary) and s.degenerate:
        return 0.0
    lam = _as_lambdas(s)
    if lam.ndim != 1:
        raise DataError("fractional_anisotropy expects a single eigenvalue set")
    n = lam.size
    e2 = float((lam**2).mean())
    # Var / E2 rather than 1 - E^2 / E2: same value, but near-isotropic
    # spectra would otherwise lose ~8 digits to cancellation
    raw = float(np.sqrt(min(1.0, lam.var() / e2)))
    if not normalized:
        return raw
    if n < 2:
        return 0.0
    return min(1.0, float(np.sqrt(n / (n - 1.0)) * raw))

