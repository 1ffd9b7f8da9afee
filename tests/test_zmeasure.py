import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from isoclust import (
    ClusterView,
    DataError,
    DirectionSet,
    PointCloud,
    center_and_scale,
    isotropy_given_b,
    isotropy_rnd,
    isotropy_vec,
    random_unit_vectors,
    spectral_summary,
    z_prime,
    z_raw,
)
from isoclust import zmeasure

E = np.e


def view_of(points) -> ClusterView:
    pts = np.asarray(points, dtype=float)
    return ClusterView(PointCloud(pts))


CROSS = view_of([[1, 0], [-1, 0], [0, 1], [0, -1]])
COLLINEAR = view_of([[1, 0], [-1, 0]])
AXES = DirectionSet(np.eye(2))


def random_view(rng, n_points=None, n_dims=None):
    n_points = n_points or rng.integers(3, 40)
    n_dims = n_dims or rng.integers(2, 7)
    return view_of(rng.normal(size=(n_points, n_dims)) * rng.uniform(0.2, 3))


# --- direction sets ---------------------------------------------------------


def test_direction_set_validation():
    with pytest.raises(DataError):
        DirectionSet(np.array([[1.0, 1.0]]))  # not unit
    with pytest.raises(DataError):
        DirectionSet(np.empty((0, 2)))
    with pytest.raises(DataError):
        DirectionSet(np.array([[np.nan, 0.0], [1.0, 0.0]]))  # a NaN norm is not unit
    ds = DirectionSet(np.array([1.0, 0.0]))  # 1-D input is promoted
    assert ds.vectors.shape == (1, 2)
    assert ds.count == 1


def test_direction_set_union():
    u = AXES.union(DirectionSet(np.array([[1.0, 0.0]])))
    assert u.count == 3
    with pytest.raises(DataError):
        AXES.union(DirectionSet(np.eye(3)))


def test_random_unit_vectors_basic():
    ds = random_unit_vectors(5, 64, seed=9)
    assert ds.vectors.shape == (64, 5)
    np.testing.assert_allclose(np.linalg.norm(ds.vectors, axis=1), 1.0, atol=1e-12)
    with pytest.raises(DataError):
        random_unit_vectors(5, 1, seed=0)
    with pytest.raises(DataError):
        random_unit_vectors(0, 4, seed=0)


def test_random_unit_vectors_deterministic_and_nested():
    a = random_unit_vectors(4, 100, seed=42).vectors
    b = random_unit_vectors(4, 100, seed=42).vectors
    np.testing.assert_array_equal(a, b)
    c = random_unit_vectors(4, 100, seed=43).vectors
    assert not np.array_equal(a, c)
    # same seed with a larger count extends the smaller set row by row
    big = random_unit_vectors(4, 500, seed=42).vectors
    np.testing.assert_array_equal(big[:100], a)


def test_random_unit_vectors_normalise_the_draw_in_place():
    # the same division as raw / norms[:, None], done on the draw itself in
    # blocks of rows: one block, several (1 dim: 131,072 rows a block) and
    # a last partial one
    for n, count, seed in ((1, 2, 0), (3, 50, 7), (17, 200, 2**40), (1000, 20, 5), (1, 300_000, 3), (1000, 300, 9)):
        raw = np.random.default_rng(seed).standard_normal((count, n))
        expected = raw / np.linalg.norm(raw, axis=1)[:, None]
        assert np.array_equal(random_unit_vectors(n, count, seed).vectors, expected)


def test_random_unit_vectors_hold_the_draw_and_one_block():
    # 4,000 x 1,000: the draw is 30.5 MiB; norms over the whole draw would
    # add a second array of squares that size
    tracemalloc.start()
    try:
        vectors = random_unit_vectors(1000, 4000, seed=4).vectors
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < vectors.nbytes + 4 * 2**20


def test_random_unit_vectors_one_dim():
    ds = random_unit_vectors(1, 50, seed=2)
    assert set(np.unique(ds.vectors)) <= {-1.0, 1.0}


# --- Z functionals ----------------------------------------------------------


def test_z_raw_hand_value_and_translation():
    assert z_raw(COLLINEAR, [1, 0]) == pytest.approx(E + 1 / E, abs=1e-12)
    moved = view_of([[6, 0], [4, 0]])
    assert z_raw(moved, [1, 0]) == pytest.approx(E**6 + E**4, rel=1e-12)
    # raw functional is not translation invariant
    assert abs(z_raw(moved, [1, 0]) - z_raw(COLLINEAR, [1, 0])) > 1.0


def test_z_prime_hand_values():
    assert z_prime(CROSS, [1, 0]) == pytest.approx(E + 1 / E + 2, abs=1e-12)
    assert z_prime(COLLINEAR, [0, 1]) == pytest.approx(2.0, abs=1e-12)


def test_z_prime_translation_and_scale_invariant():
    rng = np.random.default_rng(8)
    for _ in range(20):
        view = random_view(rng)
        n = view.n_dims
        a = rng.normal(size=n)
        a /= np.linalg.norm(a)
        base = z_prime(view, a)
        shifted = view_of(view.points + rng.normal(size=n) * 10)
        scaled = view_of(view.points * rng.uniform(0.1, 10))
        assert z_prime(shifted, a) == pytest.approx(base, rel=1e-10)
        assert z_prime(scaled, a) == pytest.approx(base, rel=1e-10)


def test_z_prime_heavy_tail_no_overflow():
    # one point far out: plain exp would overflow, log-sum-exp must not
    pts = np.zeros((1001, 2))
    pts[0] = [5000.0, 0.0]
    view = view_of(pts)
    value = isotropy_given_b(view, AXES)
    assert 0.0 < value <= 1.0


def test_z_dimension_mismatch():
    with pytest.raises(DataError):
        z_raw(CROSS, [1, 0, 0])
    with pytest.raises(DataError):
        z_prime(CROSS, [1, 0, 0])
    with pytest.raises(DataError):
        isotropy_given_b(CROSS, DirectionSet(np.eye(3)))


def test_z_prime_degenerate_cluster_errors():
    degenerate = view_of([[1, 1], [1, 1]])
    with pytest.raises(DataError, match="degenerate"):
        z_prime(degenerate, [1, 0])


# --- isotropy over direction sets -------------------------------------------


def test_isotropy_hand_values():
    assert isotropy_given_b(COLLINEAR, AXES) == pytest.approx(2 / (E + 1 / E), abs=1e-10)
    assert isotropy_given_b(CROSS, AXES) == pytest.approx(1.0, abs=1e-12)


def test_isotropy_duplicates_are_inert():
    rng = np.random.default_rng(31)
    for _ in range(10):
        view = random_view(rng)
        a = rng.normal(size=view.n_dims)
        a /= np.linalg.norm(a)
        single = isotropy_given_b(view, DirectionSet(a))
        doubled = isotropy_given_b(view, DirectionSet(np.vstack([a, a])))
        assert doubled == pytest.approx(single, rel=1e-12)
    # for a symmetric cluster a duplicated direction set scores exactly 1
    a = np.array([[0.6, 0.8], [0.6, 0.8]])
    assert isotropy_given_b(CROSS, DirectionSet(a)) == pytest.approx(1.0, abs=1e-12)


def test_isotropy_order_invariant():
    rng = np.random.default_rng(17)
    view = random_view(rng)
    b = random_unit_vectors(view.n_dims, 20, seed=5)
    shuffled = DirectionSet(b.vectors[::-1].copy())
    assert isotropy_given_b(view, b) == isotropy_given_b(view, shuffled)


def test_isotropy_refinement_tightens():
    # adding directions can only lower the bound
    rng = np.random.default_rng(23)
    for _ in range(50):
        view = random_view(rng)
        b1 = random_unit_vectors(view.n_dims, int(rng.integers(2, 12)), seed=int(rng.integers(2**32)))
        b2 = random_unit_vectors(view.n_dims, int(rng.integers(2, 12)), seed=int(rng.integers(2**32)))
        joint = isotropy_given_b(view, b1.union(b2))
        assert joint <= min(isotropy_given_b(view, b1), isotropy_given_b(view, b2)) + 1e-12


def test_isotropy_bounds():
    rng = np.random.default_rng(29)
    for _ in range(30):
        view = random_view(rng)
        value = isotropy_rnd(view, count=50, seed=1)
        assert 0.0 < value <= 1.0


def test_isotropy_vec_cross_and_collinear():
    assert isotropy_vec(CROSS) == pytest.approx(1.0, abs=1e-10)
    assert isotropy_vec(COLLINEAR) == pytest.approx(2 / (E + 1 / E), abs=1e-10)


def test_isotropy_vec_rotation_invariant():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        pts = rng.normal(size=(60, n))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        base = isotropy_vec(view_of(pts))
        rotated = isotropy_vec(view_of(pts @ q.T))
        assert rotated == pytest.approx(base, abs=1e-8)


def test_isotropy_vec_uses_null_directions():
    # 3 points spanning a plane inside R^3: the zero-eigenvalue
    # eigenvector participates, so the full set can only tighten the
    # bound given by the two in-plane eigenvectors
    pts = np.array([[1.0, 0, 0], [-1.0, 0.2, 0], [0.1, -0.9, 0]])
    view = view_of(pts)
    vectors = spectral_summary(view).vectors
    assert vectors.shape == (3, 3)
    leading = isotropy_given_b(view, DirectionSet(vectors[:2]))
    full = isotropy_given_b(view, DirectionSet(vectors))
    assert full <= leading + 1e-12
    assert isotropy_vec(view) == pytest.approx(full, abs=1e-12)


def test_isotropy_rnd_seeded_and_sandwiched():
    rng = np.random.default_rng(41)
    view = random_view(rng, n_points=30, n_dims=4)
    a = isotropy_rnd(view, count=200, seed=7)
    assert a == isotropy_rnd(view, count=200, seed=7)
    # nested counts with one seed can only tighten
    b = isotropy_rnd(view, count=2000, seed=7)
    assert b <= a + 1e-15


def test_isotropy_rnd_converges_toward_vec_neighborhood():
    # medians over seeds are nonincreasing in the direction count
    view = view_of(np.random.default_rng(3).normal(size=(100, 5)) * np.array([2, 1, 1, 1, 0.5]))
    medians = []
    for count in (10, 100, 1000):
        medians.append(np.median([isotropy_rnd(view, count=count, seed=s) for s in range(9)]))
    assert medians[0] >= medians[1] >= medians[2]


def test_degenerate_sentinels():
    degenerate = view_of([[2.0, 2.0], [2.0, 2.0]])
    assert isotropy_vec(degenerate) == 1.0
    assert isotropy_rnd(degenerate, count=10, seed=0) == 1.0
    assert isotropy_given_b(degenerate, AXES) == 1.0
    # the sentinel does not skip the check every other cluster gets
    with pytest.raises(DataError, match="count must be >= 2"):
        isotropy_rnd(degenerate, count=1)


# --- the in-house log-sum-exp against scipy's --------------------------------


@st.composite
def exponent_arrays(draw):
    """Finite 1-D or 2-D arrays at scales 1e-5 to 1e5, optionally rounded
    to few distinct values (ties) and with several rows set to their
    column maxima, down to a single row or column.  Past 128 rows numpy
    sums a single column pairwise, in a tree that blocks of rows would
    not repeat."""
    rows = draw(st.integers(1, 40) | st.integers(41, 600))
    shape = (rows,) if draw(st.booleans()) else (rows, draw(st.integers(1, 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = rng.standard_t(3, size=shape) * 10.0 ** draw(st.integers(-5, 5))
    if draw(st.booleans()):
        e = np.round(e / np.abs(e).max() * draw(st.integers(1, 4)))
    maxima = draw(st.integers(0, rows - 1))
    e[rng.choice(rows, maxima, replace=False)] = e.max(0)
    return e


@given(exponent_arrays())
def test_log_sum_exp_is_scipys_bitwise(e):
    kept = e.copy()
    assert np.array_equal(zmeasure._log_sum_exp(e), logsumexp(e, axis=0))
    assert np.array_equal(e, kept)


def work_bytes_for(e, rows):
    """A ``_WORK_BYTES`` whose blocks of ``e`` are ``rows`` rows long."""
    return 8 * (e.shape[1] if e.ndim == 2 else 1) * rows


@given(exponent_arrays(), st.data())
def test_streamed_log_sum_exp_is_scipys_bitwise(e, data):
    # blocks of a few rows, at least three of them where e has 3 rows: the
    # carried column sums add the rows in the order of one sum over e
    rows = data.draw(st.integers(1, max(1, len(e) // 3)))
    kept = e.copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zmeasure, "_WORK_BYTES", work_bytes_for(e, rows))
        assert np.array_equal(zmeasure._log_sum_exp(e), logsumexp(e, axis=0))
    assert np.array_equal(e, kept)


@st.composite
def probed_clusters(draw):
    """t3 clusters, some with half their points coincident or rounded to
    ties, with random or scatter-eigenvector probes, from one direction up."""
    size = draw(st.integers(2, 60))
    dims = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.standard_t(3, size=(size, dims)) * 10.0 ** draw(st.integers(-5, 5))
    shape = draw(st.sampled_from(["t3", "half coincident", "rounded"]))
    if shape == "half coincident":
        pts[: size // 2] = pts[0]
    elif shape == "rounded":
        pts = np.round(pts / np.abs(pts).max() * 3)
    view = view_of(pts)
    if view.degenerate:
        pts[0, 0] += 1.0
        view = view_of(pts)
    if draw(st.booleans()):
        vectors = spectral_summary(view).vectors
    else:
        vectors = random_unit_vectors(dims, draw(st.integers(2, 50)), int(rng.integers(2**32))).vectors
        vectors = vectors[: draw(st.integers(1, len(vectors)))]
    return view, vectors


@given(probed_clusters(), st.sampled_from([None, 1, 2, 5]))
def test_log_z_both_is_scipys_bitwise(probe, rows):
    # rows: the default 1 MiB block, or blocks of a few rows, so that a
    # cluster spans several of them
    view, vectors = probe
    scaled = center_and_scale(view, view.points)
    exponents = scaled @ vectors.T
    expected = np.concatenate([logsumexp(exponents, axis=0), logsumexp(-exponents, axis=0)])
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(zmeasure, "_WORK_BYTES", work_bytes_for(exponents, rows))
        assert np.array_equal(zmeasure._log_z_both(scaled, vectors), expected)


def test_probe_holds_one_product_and_one_work_block():
    # 20,000 x 1,000 exponents: the product is 153 MiB, and with the scaled
    # points and the 1 MiB work block the peak is 162 MiB; a work array and
    # a bool mask the size of the product took it to 332 MiB, and scipy's
    # logsumexp on the product and its negation to 1,095 MiB
    view = view_of(np.random.default_rng(5).standard_t(3, size=(20_000, 50)))
    b = random_unit_vectors(50, 1000, seed=1)
    tracemalloc.start()
    try:
        value = isotropy_given_b(view, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < value <= 1.0
    assert peak < 200 * 2**20


# --- the Jensen oracle ----------------------------------------------------------


@st.composite
def wide_heavy_tailed_clusters(draw):
    """Student-t (3 degrees of freedom) clusters with at least as many
    dimensions as points, at scales from 1e-3 to 1e3."""
    size = draw(st.integers(2, 10))
    dims = draw(st.integers(size, 30))
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return view_of(rng.standard_t(3, size=(size, dims)) * scale)


@settings(max_examples=40)
@given(wide_heavy_tailed_clusters(), st.integers(0, 2**32 - 1))
def test_isotropy_vec_matches_the_jensen_oracle(view, seed):
    # centred points sum to zero, so by Jensen Z'(a) >= |C| for every a,
    # with equality on the scatter null space, which n >= |C| guarantees;
    # isotropy_vec is then |C| over the largest Z' of the row-space
    # eigenvectors, which the |C| x |C| Gram matrix gives without the
    # n x n eigenbasis
    def log_z_both(directions):
        return [np.log(z_prime(view, sign * a)) for a in directions for sign in (1.0, -1.0)]

    probes = random_unit_vectors(view.n_dims, 50, seed).vectors
    assert min(log_z_both(probes)) >= np.log(view.size) - 1e-12

    centered = view.points - view.centroid
    _, u = np.linalg.eigh(centered @ centered.T)
    rows = (centered.T @ u[:, 1:]).T  # rank |C| - 1: drop the Gram null vector
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    oracle = view.size / np.exp(max(log_z_both(rows)))

    value = isotropy_vec(view)
    assert value == pytest.approx(oracle, rel=1e-10, abs=0)
    assert isotropy_vec(view, spectral_summary(view)) == value
