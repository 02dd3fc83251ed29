"""Constellations, channel models, sampling and distance primitives."""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

import fadecap as fc
from fadecap import model
from fadecap.model import hermitian_sqrt, is_hermitian


def test_bpsk_points_and_min_distance():
    c = fc.make_constellation("bpsk", 1)
    assert sorted(c.points.ravel().real.tolist()) == [-1.0, 1.0]
    d2 = fc.pairwise_sq_distances(c)
    assert d2[0, 1] == pytest.approx(4.0, abs=1e-12)


def test_qpsk_product_covariance():
    c = fc.make_constellation("qpsk", 2)
    assert c.m == 16
    assert np.allclose(c.input_covariance(), np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("family,n_t", [("bpsk", 1), ("qpsk", 2), ("qam16", 1),
                                        ("qam64", 1), ("qam256", 1), ("qam16", 2)])
def test_builtin_covariance_and_symmetry(family, n_t):
    c = fc.make_constellation(family, n_t)
    assert np.allclose(c.input_covariance(), np.eye(n_t) / n_t, atol=1e-9)
    assert c.has_negation_symmetry()
    assert c.has_coordinate_sign_symmetry()


def test_oversized_constellations_rejected_before_building(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the size check must come before the point tables")

    # qam16 over two antennas (M = 256) is the largest size in use and builds
    assert fc.make_constellation("qam16", 2).m == 256
    monkeypatch.setattr(model.itertools, "product", must_not_run)
    monkeypatch.setattr(model, "_check_distinct", must_not_run)
    for n_t, m in [(2, 256 ** 2), (4, 256 ** 4)]:
        with pytest.raises(ValueError, match=f"n_t={n_t} has M={m} points"):
            fc.make_constellation("qam256", n_t)
    custom = np.arange(model.MAX_POINTS + 1, dtype=complex)
    with pytest.raises(ValueError, match=f"n_t=1 has M={model.MAX_POINTS + 1} points"):
        fc.make_constellation("custom", 1, points=custom)


def test_qam16_mean_pair_distance_zero_mean_identity():
    # ordered-pair mean distance for a zero-mean unit-energy set is 2M/(M-1)
    c = fc.make_constellation("qam16", 1)
    d2 = fc.pairwise_sq_distances(c)
    mean_pair = d2.sum() / (c.m * (c.m - 1))
    assert mean_pair == pytest.approx(2 * 16 / 15, rel=1e-12)


def test_qpsk_scalar_distances():
    c = fc.make_constellation("qpsk", 1)
    d2 = fc.pairwise_sq_distances(c)
    off = np.unique(np.round(d2[~np.eye(4, dtype=bool)], 12))
    assert np.allclose(off, [2.0, 4.0])


def test_distinctness_check_memory_is_bounded():
    """The check compares row blocks, so M = 1024 stays far below the
    ~128 MB of the full (M, M, n_t) difference table."""
    tracemalloc.start()
    try:
        assert fc.make_constellation("qpsk", 5).m == 1024
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("gap2,distinct", [(0.0, False), (0.5 * model.DISTINCT_TOL, False),
                                           (100.0 * model.DISTINCT_TOL, True)])
def test_distinctness_check_spans_row_blocks(gap2, distinct):
    """Points 0 and 1000 of M = 1024 lie in different row blocks."""
    points = np.exp(2j * np.pi * np.arange(1024) / 1024)
    points[1000] = points[0] + np.sqrt(gap2)
    if distinct:
        assert fc.make_constellation("custom", 1, points=points).m == 1024
    else:
        with pytest.raises(ValueError, match="duplicate"):
            fc.make_constellation("custom", 1, points=points)


def test_custom_constellation_and_errors():
    c = fc.make_constellation("custom", 2, points=[[0, 0], [1, 0]])
    assert fc.pairwise_sq_distances(c)[0, 1] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="duplicate"):
        fc.make_constellation("custom", 1, points=[[1.0], [1.0]])
    for points in ([[0.0]], [[1.0]], np.ones((1, 3))):
        with pytest.raises(ValueError, match="M=1 points, fewer than the 2"):
            fc.make_constellation("custom", np.shape(points)[1], points=points)
    with pytest.raises(ValueError, match="unknown"):
        fc.make_constellation("qam32", 1)


def test_pairwise_table_shape_properties():
    c = fc.make_constellation("qam16", 1)
    d2 = fc.pairwise_sq_distances(c)
    assert np.allclose(d2, d2.T)
    assert np.all(np.diag(d2) == 0)
    assert np.all(d2[~np.eye(16, dtype=bool)] > 0)


def test_canonical_rayleigh_unit_variance():
    model = fc.CanonicalRayleigh(1, 1)
    rng = np.random.default_rng(0)
    h = fc.sample_channels(model, 100_000, rng)
    power = np.abs(h.ravel()) ** 2
    se = power.std(ddof=1) / np.sqrt(power.size)
    assert abs(power.mean() - 1.0) < 3 * se


@pytest.mark.parametrize("model", [
    fc.CanonicalRayleigh(2, 2),
    fc.CorrelatedRayleigh(theta_t=[[1, 0.5], [0.5, 1]], theta_r=[[1, 0.8], [0.8, 1]]),
    fc.Ricean(k_factor=2.0, a_t=[1, 1], a_r=[1, 1]),
])
def test_channel_energy_normalization(model):
    rng = np.random.default_rng(1)
    h = fc.sample_channels(model, 20_000, rng)
    energies = np.sum(np.abs(h) ** 2, axis=(1, 2))
    se = energies.std(ddof=1) / np.sqrt(energies.size)
    assert abs(energies.mean() - model.n_t * model.n_r) < 3 * se


def test_ricean_large_k_is_deterministic():
    model = fc.Ricean(k_factor=1e6, a_t=[1, 1], a_r=[1, 1])
    rng = np.random.default_rng(2)
    h = fc.sample_channels(model, 100, rng)
    dev = np.sqrt(np.mean(np.sum(np.abs(h - model.los_matrix) ** 2, axis=(1, 2))))
    assert dev < 1e-2


def test_identity_correlation_matches_canonical():
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(4)
    corr = fc.CorrelatedRayleigh(theta_t=np.eye(2), theta_r=np.eye(2))
    canon = fc.CanonicalRayleigh(2, 2)
    ta = np.sum(np.abs(fc.sample_channels(corr, 4000, rng_a)) ** 2, axis=(1, 2))
    tb = np.sum(np.abs(fc.sample_channels(canon, 4000, rng_b)) ** 2, axis=(1, 2))
    assert ks_2samp(ta, tb).pvalue > 0.01


def test_channel_model_validation():
    with pytest.raises(ValueError, match="unit diagonal"):
        fc.CorrelatedRayleigh(theta_t=[[2, 0], [0, 1]], theta_r=np.eye(2))
    with pytest.raises(ValueError, match="not PSD"):
        fc.CorrelatedRayleigh(theta_t=[[1, 2], [2, 1]], theta_r=np.eye(2))
    with pytest.raises(ValueError, match="a_t"):
        fc.Ricean(k_factor=1.0, a_t=[1, 0], a_r=[1, 1])
    with pytest.raises(ValueError, match="K factor"):
        fc.Ricean(k_factor=-0.5, a_t=[1, 1], a_r=[1, 1])


def test_received_distance_identities():
    assert fc.received_sq_distance(np.eye(2), [1, 0], [0, 1]) == pytest.approx(2.0)
    # line-of-sight matrix kills differences orthogonal to the transmit response
    model = fc.Ricean(k_factor=2.0, a_t=[1, 1], a_r=[1, 1])
    assert fc.received_sq_distance(model.los_matrix, [1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    xj = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    delta = np.outer(xi - xj, (xi - xj).conj())
    assert fc.received_sq_distance(h, xi, xj) == pytest.approx(
        np.trace(h @ delta @ h.conj().T).real, rel=1e-12)


def test_received_distance_unitary_invariance():
    rng = np.random.default_rng(6)
    h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    w, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    xj = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = fc.received_sq_distance(h @ w, w.conj().T @ xi, w.conj().T @ xj)
    b = fc.received_sq_distance(h, xi, xj)
    assert a == pytest.approx(b, rel=1e-12)


def test_hermitian_sqrt_roundtrip():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = g @ g.conj().T
    r = hermitian_sqrt(a)
    assert is_hermitian(r)
    assert np.allclose(r @ r, a, atol=1e-10)
    with pytest.raises(ValueError):
        hermitian_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]) * -1)


def test_spacetime_code_validation():
    cw = np.zeros((2, 2, 2), dtype=complex)
    cw[1] = np.eye(2)
    code = fc.SpaceTimeCode(codewords=cw)
    assert code.m == 2 and code.n_t == 2 and code.t == 2
    gram = code.difference_gram(0, 1)
    assert np.allclose(gram, np.eye(2))
    with pytest.raises(ValueError, match="coincide"):
        fc.SpaceTimeCode(codewords=np.zeros((2, 2, 2), dtype=complex))


def test_snr_grid():
    grid = fc.SnrGrid.from_db(0, 30, 5)
    assert len(grid) == 7
    assert grid.points[0] == pytest.approx(1.0)
    assert grid.points[-1] == pytest.approx(1000.0)
    assert np.allclose(grid.db, np.arange(0, 31, 5))
    with pytest.raises(ValueError):
        fc.SnrGrid(points=[1.0, 1.0])
    with pytest.raises(ValueError):
        fc.SnrGrid(points=[-1.0, 2.0])
    with pytest.raises(ValueError):
        fc.SnrGrid.from_db(0, 10, -1)
