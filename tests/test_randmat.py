import numpy as np
import pytest
from scipy.integrate import quad

from isoclust import (
    ClusterView,
    DataError,
    MpParams,
    NumericError,
    PointCloud,
    expected_fa,
    expected_var_lambda,
    fractional_anisotropy,
    mp_moments,
    mp_pdf,
    mp_support,
    spectral_summary,
)

QUARTER = MpParams(points=100, dims=400)  # ratio T/n = 0.25


# --- support ------------------------------------------------------------------


def test_support_hand_values():
    assert mp_support(MpParams(points=100, dims=10000)) == pytest.approx((0.81, 1.21), abs=1e-12)
    assert mp_support(MpParams(points=100, dims=100)) == pytest.approx((0.0, 4.0), abs=1e-12)
    assert mp_support(QUARTER) == pytest.approx((0.25, 2.25), abs=1e-12)


def test_support_shifts_with_mu():
    lo, hi = mp_support(MpParams(points=100, dims=10000, mu=2.0))
    assert (lo, hi) == pytest.approx((2.81, 3.21), abs=1e-12)


def test_support_empty_after_negative_shift():
    with pytest.raises(DataError, match="empty spectral support"):
        mp_support(MpParams(points=100, dims=400, mu=-10.0))


def test_param_validation():
    with pytest.raises(DataError):
        MpParams(points=0, dims=10)
    with pytest.raises(DataError):
        MpParams(points=10, dims=0)
    with pytest.raises(DataError):
        MpParams(points=10, dims=10, sigma2=0.0)
    with pytest.raises(DataError):
        MpParams(points=10, dims=10, sigma2=-1.0)
    with pytest.raises(DataError):
        MpParams(points=10, dims=10, sigma2=float("inf"))


# --- density ------------------------------------------------------------------


def test_pdf_frozen_value():
    assert mp_pdf(QUARTER, 1.0) == pytest.approx(0.15410111101537496, abs=1e-12)


def test_pdf_zero_outside_support():
    assert mp_pdf(QUARTER, 0.25) == 0.0
    assert mp_pdf(QUARTER, 2.25) == 0.0
    assert mp_pdf(QUARTER, 0.1) == 0.0
    assert mp_pdf(QUARTER, 3.0) == 0.0
    assert mp_pdf(QUARTER, -1.0) == 0.0
    assert mp_pdf(MpParams(points=100, dims=100), 0.0) == 0.0


def test_pdf_vectorized():
    lams = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
    out = mp_pdf(QUARTER, lams)
    assert out.shape == lams.shape
    assert out[0] == 0.0 and out[-1] == 0.0
    assert np.all(out >= 0.0)
    assert out[2] == pytest.approx(mp_pdf(QUARTER, 1.0), abs=1e-15)


def test_pdf_integrates_to_mass():
    lo, hi = mp_support(QUARTER)
    direct, _ = quad(lambda lam: mp_pdf(QUARTER, lam), lo, hi, limit=200)
    moments = mp_moments(QUARTER)
    assert direct == pytest.approx(moments.mass, rel=1e-6)


# --- moments ------------------------------------------------------------------


def closed_forms(points, dims, sigma2):
    c = points / dims
    return min(c, 1.0), c * sigma2, c * sigma2**2 * (1 + c)


def quadrature_moments(params):
    """Reference (mass, E(L), E(L^2)) by adaptive quadrature of the density.

    The substitution L = lo + (hi - lo) sin^2(theta) absorbs the inverse
    square-root endpoint singularities, leaving a smooth integrand.
    """
    lo, hi = mp_support(params)
    width = hi - lo
    norm = width * width / (np.pi * params.sigma2)

    def integrand(theta, power):
        s2 = np.sin(theta) ** 2
        lam = lo + width * s2
        base = norm * s2 * (1.0 - s2)  # sin^2 cos^2 from density and Jacobian
        if lam <= 0.0:
            # only reachable at theta = 0 when lo == 0; the limit is finite
            return base if power == 1 else 0.0
        return base * lam ** (power - 1)

    values = []
    for power in (0, 1, 2):
        val, _, _, *tail = quad(
            integrand, 0.0, np.pi / 2, args=(power,),
            epsabs=0.0, epsrel=1e-13, limit=200, full_output=True,
        )
        assert not tail, tail[0]
        values.append(val)
    return tuple(values)


GRID_RATIOS = [(1, 10**6), (1, 10**4), (1, 100), (7, 100), (1, 4), (9, 10), (1, 1),
               (11, 10), (4, 1), (33, 1), (100, 1), (10**5, 1)]
GRID = [
    MpParams(points=t, dims=n, sigma2=sigma2, mu=mu)
    for t, n in GRID_RATIOS
    for sigma2 in (0.3, 1.0, 2.5)
    for mu in (-0.5, -0.2, 0.0, 0.5, 3.0)
    if sigma2 * (1 + np.sqrt(t / n)) ** 2 + mu > max(0.0, sigma2 * (1 - np.sqrt(t / n)) ** 2 + mu)
]


def test_moments_match_quadrature_over_grid():
    clamped = 0
    for params in GRID:
        clamped += mp_support(params)[0] == 0.0
        m = mp_moments(params)
        got = (m.mass, m.e_lambda, m.e_lambda2)
        for value, ref in zip(got, quadrature_moments(params)):
            assert value == pytest.approx(ref, rel=1e-12, abs=0.0), params
    assert clamped >= 10  # the grid reaches the clamped lower edge


@pytest.mark.parametrize(
    "points,dims",
    [(5, 100), (100, 400), (100, 100), (300, 100), (1000, 100)],
)
@pytest.mark.parametrize("sigma2", [1.0, 2.5])
def test_moments_match_closed_forms(points, dims, sigma2):
    mass, e1, e2 = closed_forms(points, dims, sigma2)
    m = mp_moments(MpParams(points=points, dims=dims, sigma2=sigma2))
    assert m.mass == pytest.approx(mass, rel=1e-12)
    assert m.e_lambda == pytest.approx(e1, rel=1e-12)
    assert m.e_lambda2 == pytest.approx(e2, rel=1e-12)


def test_moments_with_shifted_support():
    # with the support shifted by mu the density keeps the absolute
    # lambda in its denominator, so the closed forms become (with
    # center m = mu + sigma2 (1 + c) and radius r = 2 sigma2 sqrt(c)):
    # mass = (m - sqrt(m^2 - r^2)) / (2 sigma2), E(L) = c sigma2,
    # E(L^2) = m c sigma2
    mu, sigma2, c = 2.0, 1.0, 0.25
    m_center = mu + sigma2 * (1 + c)
    r = 2 * sigma2 * np.sqrt(c)
    shifted = mp_moments(MpParams(points=100, dims=400, mu=mu))
    assert shifted.mass == pytest.approx(
        (m_center - np.sqrt(m_center**2 - r**2)) / (2 * sigma2), rel=1e-7
    )
    assert shifted.e_lambda == pytest.approx(c * sigma2, rel=1e-7)
    assert shifted.e_lambda2 == pytest.approx(m_center * c * sigma2, rel=1e-7)


def test_moments_overflow_raises():
    with pytest.raises(NumericError, match=r"E\(L\^2\) overflows"):
        mp_moments(MpParams(points=100, dims=100, sigma2=1e160))
    with pytest.raises(NumericError, match=r"E\(L\^2\) overflows"):
        mp_moments(MpParams(points=100, dims=400, sigma2=1.7e308))  # L_max overflows too


def test_moments_normalized_properties():
    m = mp_moments(QUARTER)
    assert m.e_lambda_normalized == pytest.approx(1.0, rel=1e-7)
    assert m.e_lambda2_normalized == pytest.approx(1.25, rel=1e-7)


# --- spectral predictions -----------------------------------------------------


def test_expected_fa_frozen_values():
    t = 100
    for dims, value in [(100, np.sqrt(0.5)), (400, np.sqrt(0.8)), (1600, np.sqrt(1600 / 1700))]:
        assert expected_fa(MpParams(points=t, dims=dims)) == pytest.approx(value, rel=1e-7)


@pytest.mark.parametrize("points,dims,mu", [(100, 100, 0.0), (100, 400, 0.0), (300, 100, 0.0), (100, 400, 0.5)])
def test_predictions_scale_invariant_at_large_sigma2(points, dims, mu):
    # FA and Var(lambda) depend on sigma2 only through mu / sigma2
    small = MpParams(points=points, dims=dims, sigma2=1.0, mu=mu)
    large = MpParams(points=points, dims=dims, sigma2=1e120, mu=mu * 1e120)
    assert expected_fa(large) == pytest.approx(expected_fa(small), rel=1e-14)
    assert expected_var_lambda(large) == pytest.approx(expected_var_lambda(small), rel=1e-14)


def test_expected_fa_increases_with_dims():
    t = 100
    values = [expected_fa(MpParams(points=t, dims=n)) for n in (100, 400, 1600)]
    assert values[0] < values[1] < values[2]


def test_expected_fa_near_zero_when_points_dominate():
    assert expected_fa(MpParams(points=10**6, dims=10)) < 0.01


def test_expected_var_lambda_frozen_values():
    t = 100
    for dims, value in [(100, 1e-4), (400, 2.5e-5), (1600, 6.25e-6)]:
        assert expected_var_lambda(MpParams(points=t, dims=dims)) == pytest.approx(value, rel=1e-6)
    values = [expected_var_lambda(MpParams(points=t, dims=n)) for n in (100, 400, 1600)]
    assert values[0] > values[1] > values[2]


def test_prediction_matches_sampled_clusters():
    dims, points = 50, 200
    predicted = expected_fa(MpParams(points=points, dims=dims))
    assert predicted == pytest.approx(np.sqrt(dims / (dims + points)), rel=1e-6)
    measured = []
    for seed in range(5):
        data = np.random.default_rng(seed).normal(size=(points, dims))
        view = ClusterView(PointCloud(data), np.arange(points))
        measured.append(fractional_anisotropy(spectral_summary(view)))
    assert np.mean(measured) == pytest.approx(predicted, rel=0.1)
