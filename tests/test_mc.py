"""Monte Carlo oracle: limits, closed-form checks, determinism."""

import ast
import contextlib
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc

import fadecap as fc
from fadecap import bounds, designs, mc
from fadecap.bounds import _bound_sums
from fadecap.mc import (EXP_FLOOR, Estimate, McConfig, _estimates, chunk_rngs,
                        chunk_sizes, distance_squared_samples, kernel_stats)
from fadecap.model import _complex_normal, pair_differences, sample_channels

H1 = np.array([[1.0 + 0j]])
BPSK = fc.make_constellation("bpsk", 1)


def cfg(total, chunks=8, noise=None):
    if noise is None:
        noise = max(1, min(total, 100))
    return McConfig(channel_draws=max(1, total // noise),
                    noise_draws_per_channel=noise, seed=123, parallel_chunks=chunks)


def test_mmse_fixed_h_high_snr_vanishes():
    est = fc.fixed_h_all(1e6, H1, BPSK, cfg(200_000))["mmse"]
    assert est.mean < 1e-6


def test_mmse_fixed_h_low_snr_prior_variance():
    est = fc.fixed_h_all(1e-6, H1, BPSK, cfg(100_000))["mmse"]
    assert abs(est.mean - 1.0) < 3 * est.std_error + 1e-3


def test_mmse_fixed_h_within_bounds():
    est = fc.fixed_h_all(1.0, H1, BPSK, cfg(200_000))["mmse"]
    pair = fc.fixed_h_bounds("mmse", 1.0, H1, BPSK)
    assert pair.lower - 3 * est.std_error <= est.mean <= pair.upper + 3 * est.std_error


def test_mi_fixed_h_limits():
    lo = fc.fixed_h_all(1e-6, H1, BPSK, cfg(50_000))["mi"]
    assert abs(lo.mean) < 1e-3
    hi = fc.fixed_h_all(1e6, H1, BPSK, cfg(50_000))["mi"]
    assert abs(hi.mean - np.log(2)) < 1e-3


def test_mi_fixed_h_within_bounds():
    est = fc.fixed_h_all(1.0, H1, BPSK, cfg(200_000))["mi"]
    pair = fc.fixed_h_bounds("mi", 1.0, H1, BPSK)
    assert pair.lower - 3 * est.std_error <= est.mean <= pair.upper + 3 * est.std_error


def test_pe_fixed_h_binary_closed_form():
    for snr in (0.25, 1.0, 4.0):
        est = fc.fixed_h_all(snr, H1, BPSK, cfg(400_000))["pe"]
        exact = 0.5 * erfc(np.sqrt(snr))
        assert abs(est.mean - exact) < 3 * est.std_error


def test_pe_fixed_h_low_snr_guessing():
    snr = 1e-6
    est = fc.fixed_h_all(snr, H1, BPSK, cfg(200_000))["pe"]
    # approaches the guessing floor (M-1)/M from below as erfc(sqrt(snr))/2
    assert abs(est.mean - 0.5 * erfc(np.sqrt(snr))) < 3 * est.std_error
    assert abs(est.mean - 0.5) < 3 * est.std_error + 1e-3


def test_pe_fixed_h_binary_bounds_coincide():
    est = fc.fixed_h_all(2.0, H1, BPSK, cfg(400_000))["pe"]
    pair = fc.fixed_h_bounds("pe", 2.0, H1, BPSK)
    assert pair.lower == pair.upper
    assert abs(est.mean - pair.lower) < 3 * est.std_error


def test_pe_within_bounds_quaternary():
    c = fc.make_constellation("qpsk", 1)
    est = fc.fixed_h_all(2.0, H1, c, cfg(400_000))["pe"]
    pair = fc.fixed_h_bounds("pe", 2.0, H1, c)
    assert pair.lower - 3 * est.std_error <= est.mean <= pair.upper + 3 * est.std_error


def test_global_sanity_ceilings():
    c = fc.make_constellation("qpsk", 1)
    model = fc.CanonicalRayleigh(1, 2)
    for snr in (0.1, 1.0, 30.0):
        est = fc.avg_all(snr, model, c, McConfig(channel_draws=2000,
                                                 noise_draws_per_channel=20, seed=5))
        assert est["pe"].mean <= (c.m - 1) / c.m + 1e-12
        assert est["mi"].mean <= c.log_m + 1e-12


def test_avg_pe_rayleigh_binary_closed_form():
    # averaged binary error under unit-variance scalar Rayleigh fading
    model = fc.CanonicalRayleigh(1, 1)
    snr = 1000.0
    exact = 0.5 * (1.0 - np.sqrt(snr / (1.0 + snr)))
    est = fc.avg_all(snr, model, BPSK,
                     McConfig(channel_draws=150_000, noise_draws_per_channel=100,
                              seed=21))["pe"]
    assert abs(est.mean - exact) < 3 * est.std_error


def test_avg_identity_correlation_matches_canonical():
    c = fc.make_constellation("qpsk", 1)
    canon = fc.CanonicalRayleigh(1, 2)
    corr = fc.CorrelatedRayleigh(theta_t=np.eye(1), theta_r=np.eye(2))
    mc_cfg = McConfig(channel_draws=20_000, noise_draws_per_channel=50, seed=31)
    a = fc.avg_all(5.0, canon, c, mc_cfg)["mi"]
    b = fc.avg_all(5.0, corr, c,
                   McConfig(channel_draws=20_000, noise_draws_per_channel=50, seed=32))["mi"]
    assert abs(a.mean - b.mean) < 3 * np.hypot(a.std_error, b.std_error)


def test_avg_mi_nondecreasing_in_snr():
    c = fc.make_constellation("qpsk", 1)
    model = fc.CanonicalRayleigh(1, 1)
    mc_cfg = McConfig(channel_draws=20_000, noise_draws_per_channel=40, seed=41)
    grid = fc.SnrGrid.from_db(-5, 25, 5)
    ests = [fc.avg_all(s, model, c, mc_cfg)["mi"] for s in grid]
    for a, b in zip(ests, ests[1:]):
        assert b.mean >= a.mean - 3 * np.hypot(a.std_error, b.std_error)


def test_i_mmse_integral_consistency():
    """log M - I(snr) matches the tail integral of the fixed-H estimation
    error over SNR (trapezoid on a dense log grid), within 2% + 3 s.e."""
    snr0 = 1.0
    mc_cfg = McConfig(channel_draws=400, noise_draws_per_channel=100, seed=51)
    mi = fc.fixed_h_all(snr0, H1, BPSK, mc_cfg)["mi"]
    gap = np.log(2) - mi.mean
    grid = np.logspace(np.log10(snr0), np.log10(25.0), 60)
    vals, errs = [], []
    for s in grid:
        est = fc.fixed_h_all(s, H1, BPSK, mc_cfg)["mmse"]
        vals.append(est.mean)
        errs.append(est.std_error)
    integral = np.trapezoid(vals, grid)
    err = np.trapezoid(errs, grid) + 3 * mi.std_error
    assert integral == pytest.approx(gap, abs=0.02 * gap + 3 * err)


def test_avg_mi_matches_gauss_quadrature_oracle():
    """Deterministic oracle: for binary scalar inputs the averaged mutual
    information is a 1-D noise integral (Gauss-Hermite) averaged over the
    combiner gain ||h||^2 ~ Gamma(n_r, 1) (Gauss-Laguerre)."""
    from scipy.special import roots_laguerre

    zh, wh = np.polynomial.hermite_e.hermegauss(201)
    wh = wh / wh.sum()

    def i_binary(rho):
        return np.log(2) - np.sum(wh * np.logaddexp(0.0, -4.0 * rho
                                                    - 2.0 * np.sqrt(2.0 * rho) * zh))

    xl, wl = roots_laguerre(120)
    for n_r, weight in ((1, wl), (2, wl * xl)):
        snr = 10.0
        oracle = np.sum(weight * np.array([i_binary(snr * t) for t in xl]))
        est = fc.avg_all(snr, fc.CanonicalRayleigh(1, n_r), BPSK,
                         McConfig(channel_draws=60_000,
                                  noise_draws_per_channel=50, seed=101 + n_r))["mi"]
        assert abs(est.mean - oracle) < 3 * est.std_error


def test_determinism_bit_for_bit():
    c = fc.make_constellation("qpsk", 2)
    model = fc.CanonicalRayleigh(2, 2)
    mc_cfg = McConfig(channel_draws=500, noise_draws_per_channel=20, seed=7,
                      parallel_chunks=4)
    a = fc.avg_all(2.0, model, c, mc_cfg)
    b = fc.avg_all(2.0, model, c, mc_cfg)
    for k in a:
        assert a[k].mean == b[k].mean
        assert a[k].std_error == b[k].std_error
    # threads must not change the reduction
    c_threads = fc.avg_all(2.0, model, c, mc_cfg, threads=4)
    for k in a:
        assert a[k].mean == c_threads[k].mean


def test_fixed_h_determinism():
    mc_cfg = McConfig(channel_draws=100, noise_draws_per_channel=50, seed=13)
    a = fc.fixed_h_all(1.0, H1, BPSK, mc_cfg)
    b = fc.fixed_h_all(1.0, H1, BPSK, mc_cfg)
    for k in a:
        assert a[k].mean == b[k].mean


def test_empirical_epsilon_scaled_sequence():
    model = fc.CanonicalRayleigh(1, 1)
    grid = fc.SnrGrid.from_db(20, 30, 5)
    mc_cfg = McConfig(channel_draws=60_000, noise_draws_per_channel=50, seed=61)
    pts = fc.empirical_epsilon(grid, model, BPSK, mc_cfg, d=1, limit=BPSK.log_m)
    for p in pts["mi"]:
        assert 0.1875 - 3 * p.std_error <= p.value <= 0.75 + 3 * p.std_error
        assert not p.flagged
    last = pts["pe"][-1]
    snr = last.snr
    exact = snr * 0.5 * (1.0 - np.sqrt(snr / (1.0 + snr)))
    assert abs(last.value - exact) <= 3 * last.std_error


def test_empirical_epsilon_flags_underresolved():
    model = fc.CanonicalRayleigh(1, 1)
    grid = fc.SnrGrid(points=np.array([1e4]))
    tiny = McConfig(channel_draws=50, noise_draws_per_channel=2, seed=71)
    pts = fc.empirical_epsilon(grid, model, BPSK, tiny, d=1, limit=BPSK.log_m)
    assert pts["mi"][0].flagged


def test_empirical_epsilon_reads_one_avg_all_call():
    """Each kind's point is `_epsilon_point` on the one `avg_all` call at
    that grid point, bit for bit; an n_t = 2 code takes the same path."""
    mc_cfg = McConfig(channel_draws=40, noise_draws_per_channel=4, seed=17, parallel_chunks=2)
    grid = fc.SnrGrid(points=np.array([10.0, 100.0]))
    cases = [(fc.CanonicalRayleigh(1, 2), BPSK, 1, BPSK.log_m),
             (fc.CanonicalRayleigh(2, 1), ST16, 2, 0.9 * ST16.log_m)]
    for channel, inputs, d, limit in cases:
        pts = fc.empirical_epsilon(grid, channel, inputs, mc_cfg, d, limit)
        assert sorted(pts) == sorted(mc.KINDS)
        for k, snr in enumerate(grid):
            est = fc.avg_all(snr, channel, inputs, mc_cfg)
            for kind in mc.KINDS:
                assert pts[kind][k] == mc._epsilon_point(kind, est[kind], snr, d, limit)


def test_avg_all_rejects_code_of_other_transmit_size():
    """A code passes its channel in, so the two transmit sizes can differ."""
    with pytest.raises(ValueError, match="transmit sizes differ"):
        fc.avg_all(4.0, fc.CanonicalRayleigh(1, 2), ST16, McConfig(channel_draws=4))


def test_spacetime_pe_reduces_to_vector_channel():
    # one-interval codewords are just constellation vectors
    c = fc.make_constellation("qpsk", 2)
    code = fc.SpaceTimeCode(codewords=c.points[:, :, None])
    mc_cfg = McConfig(channel_draws=4000, noise_draws_per_channel=30, seed=91)
    a = fc.avg_all(5.0, fc.CanonicalRayleigh(2, 2), code, mc_cfg)["pe"]
    b = fc.avg_all(5.0, fc.CanonicalRayleigh(2, 2), c,
                   McConfig(channel_draws=4000, noise_draws_per_channel=30, seed=92))["pe"]
    assert abs(a.mean - b.mean) < 3 * np.hypot(a.std_error, b.std_error)


@pytest.mark.parametrize("family", ["bpsk", "qpsk"])
def test_one_interval_code_matches_constellation_bit_for_bit(family):
    """A code of one-interval codewords and its constellation take the same
    averaged path: the same estimates bit for bit, from the full sum over
    M = 4 (bpsk) and from one sampled true symbol over M = 16 (qpsk)."""
    c = fc.make_constellation(family, 2)
    code = fc.SpaceTimeCode(codewords=c.points[:, :, None])
    assert mc.sampled_true_symbol(code) == mc.sampled_true_symbol(c) == (family == "qpsk")
    mc_cfg = McConfig(channel_draws=60, noise_draws_per_channel=6, seed=19, parallel_chunks=3)
    a = fc.avg_all(5.0, fc.CanonicalRayleigh(2, 2), code, mc_cfg)
    b = fc.avg_all(5.0, fc.CanonicalRayleigh(2, 2), c, mc_cfg)
    assert a == b


def test_degenerate_transmit_correlation_limits_mi():
    """When a pair difference falls in the null space of the transmit
    correlation, the receiver cannot separate those points and the
    high-SNR mutual information saturates at the class entropy predicted
    by the distance distribution, not at log M."""
    pts = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]) / np.sqrt(2)
    c = fc.make_constellation("custom", 2, points=pts)
    theta_t = np.array([[1.0, -1.0], [-1.0, 1.0]])
    model = fc.CorrelatedRayleigh(theta_t=theta_t, theta_r=np.eye(2))
    dd = fc.distance_dist(model, c)
    est = fc.avg_all(1000.0, model, c,
                     McConfig(channel_draws=4000, noise_draws_per_channel=50,
                              seed=97))["mi"]
    assert abs(est.mean - dd.effective_log_m) < 3 * est.std_error + 1e-3
    assert est.mean < np.log(3) - 0.4


def test_distance_squared_samples_moments():
    model = fc.CanonicalRayleigh(2, 2)
    diff = np.array([1.0, 1.0])
    d2 = distance_squared_samples(model, diff, 50_000, seed=3)
    # E||H diff||^2 = n_r ||diff||^2 for i.i.d. unit-variance entries
    se = d2.std(ddof=1) / np.sqrt(d2.size)
    assert abs(d2.mean() - 4.0) < 3 * se


@pytest.mark.parametrize("n,chunks,name", [(0, 8, "n"), (-3, 8, "n"), (10, 0, "chunks")])
def test_distance_squared_samples_rejects_bad_sizes(n, chunks, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        distance_squared_samples(fc.CanonicalRayleigh(1, 1), [1.0], n, seed=3, chunks=chunks)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(channel_draws=0)
    with pytest.raises(ValueError):
        McConfig(parallel_chunks=0)
    with pytest.raises(ValueError):
        Estimate(mean=np.nan, std_error=0.0)


# ---------------------------------------------------------------------------
# kernel against a brute-force evaluation of the module-docstring identities
# ---------------------------------------------------------------------------

def _reference_stats(received, noise, snr):
    """Loop over (channel, noise draw, true input i): A_j = -||r_i - r_j||^2
    - 2 Re<r_i - r_j, n>, lse = logsumexp_j A_j, E{Hx|y} = softmax(A) @ r,
    error iff max_{j != i} A_j > 0."""
    c_sz, m, _ = received.shape
    n_sz = noise.shape[1]
    mmse = np.zeros((c_sz, n_sz))
    lse = np.zeros((c_sz, n_sz))
    pe = np.zeros((c_sz, n_sz))
    for c in range(c_sz):
        r = received[c]
        for n in range(n_sz):
            z = noise[c, n]
            for i in range(m):
                d = r[i] - r
                a = -np.sum(np.abs(d) ** 2, axis=1) - 2.0 * np.real(d @ z.conj())
                top = a.max()
                w = np.exp(a - top)
                lse[c, n] += top + np.log(w.sum())
                cond_mean = w @ r / w.sum()
                mmse[c, n] += np.sum(np.abs(cond_mean - r[i]) ** 2)
                pe[c, n] += np.delete(a, i).max() > 0.0
    return mmse / (m * snr), lse / m, pe / m


def _kernel_case(name):
    rng = np.random.default_rng(2024)
    if name == "fixed_h_binary":           # C = 1, M = 2, dim = 1
        snr = 2.0
        received = np.sqrt(snr) * (BPSK.points @ H1.T)[None]
        return received, _complex_normal(rng, (1, 300, 1)), snr
    if name == "qam16_two_rx":             # M = 16, dim = 2
        snr = 10.0
        c = fc.make_constellation("qam16", 1)
        h = _complex_normal(rng, (3, 2, 1))
        received = np.sqrt(snr) * np.einsum("mt,crt->cmr", c.points, h)
        return received, _complex_normal(rng, (3, 20, 2)), snr
    if name == "spacetime_dim4":           # 2 x 2 codewords, n_r = 2: dim = 4
        snr = 5.0
        c = fc.make_constellation("qpsk", 2)
        code = fc.SpaceTimeCode(codewords=np.stack([c.points, c.points[:, ::-1]], axis=2))
        h = _complex_normal(rng, (3, 2, 2))
        received = np.sqrt(snr) * np.einsum("crt,mts->cmrs", h, code.codewords)
        return received.reshape(3, code.m, 4), _complex_normal(rng, (3, 15, 4)), snr
    if name == "common_offset":            # M = 4, dim = 2, points of size 1e4
        # the points lie ~1 apart around 1e4 (0.6 + 0.8j): distances formed
        # as |r_i|^2 + |r_k|^2 - 2 Re<r_i, r_k> lose ~1e-8 to cancellation
        received = _complex_normal(rng, (3, 4, 2)) + 1e4 * (0.6 + 0.8j)
        return received, _complex_normal(rng, (3, 30, 2)), 1.0
    # snr = 1e8: the log-likelihoods are of order 1e8, so only exponentials
    # shifted to a reference hypothesis stay finite; deep fades on the later
    # channels keep some logits of order one
    snr = 1e8
    c = fc.make_constellation("qpsk", 1)
    h = _complex_normal(rng, (3, 2, 1)) * np.array([1.0, 1e-4, 3e-4])[:, None, None]
    received = np.sqrt(snr) * np.einsum("mt,crt->cmr", c.points, h)
    return received, _complex_normal(rng, (3, 40, 2)), snr


# Relative tolerance against the brute-force reference.  With points of size
# 1e4 the noise terms 2 Re<r_k, n> carry rounding of ~1e4 |n| eps ~ 1e-11,
# and their differences keep it.  Distances formed from the differences
# round at ~1e-16, so 1e-10 still fails a kernel that loses 1e-8 to
# cancellation in the distances.
KERNEL_REL_TOL = {"common_offset": 1e-10}


@pytest.mark.parametrize("name", ["fixed_h_binary", "qam16_two_rx", "spacetime_dim4",
                                  "high_snr", "common_offset"])
def test_kernel_stats_matches_brute_force(name):
    received, noise, snr = _kernel_case(name)
    mmse, lse, pe = kernel_stats(received, noise, snr)
    ref_mmse, ref_lse, ref_pe = _reference_stats(received, noise, snr)
    rel_tol = KERNEL_REL_TOL.get(name, 1e-12)
    for got, ref in ((mmse, ref_mmse), (lse, ref_lse)):
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref)) <= rel_tol * np.max(np.abs(ref))
    assert np.array_equal(pe, ref_pe)
    if name == "high_snr":
        assert np.max(lse) > 1e-3 and np.max(pe) > 0.0   # the fades are resolved


@pytest.mark.parametrize("name", ["fixed_h_binary", "qam16_two_rx", "spacetime_dim4",
                                  "high_snr", "common_offset"])
def test_sampled_stats_over_every_true_symbol_match_brute_force(name):
    """With every sample's true symbol forced to each i in turn, the mean
    over i of `sampled_stats` is the brute-force average over i: rel 1e-12
    on every input, pe exactly.  On common_offset that is 100x tighter than
    `kernel_stats` holds, since the noise term 2 Re<d_k, n> is formed from
    the differences too.  A mixed index array picks each sample's forced
    result bit for bit."""
    received, noise, snr = _kernel_case(name)
    m = received.shape[1]
    forced = [mc.sampled_stats(received, noise, np.full(noise.shape[:2], i), snr)
              for i in range(m)]
    got = [np.sum(s, axis=0) / m for s in zip(*forced)]
    ref_mmse, ref_lse, ref_pe = _reference_stats(received, noise, snr)
    for g, ref in ((got[0], ref_mmse), (got[1], ref_lse)):
        assert np.all(np.isfinite(g))
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(got[2], ref_pe)
    true = np.random.default_rng(3).integers(m, size=noise.shape[:2])
    rows, cols = np.indices(true.shape)
    for mixed, per_i in zip(mc.sampled_stats(received, noise, true, snr), zip(*forced)):
        assert np.array_equal(mixed, np.array(per_i)[true, rows, cols])


@pytest.mark.parametrize("kernel", ["kernel_stats", "sampled_stats"])
def test_kernels_read_float64_as_real_coordinates(kernel):
    """Float64 coordinates X (C, M, D) and Z (C, N, D) give the statistics
    of the complex points and noise whose float views they are: lse and pe
    exactly, mmse within 1e-14 relative.  An odd D, which no complex input
    has, matches the brute-force reference on the real coordinates."""
    rng = np.random.default_rng(53)
    snr = 3.0
    true = rng.integers(4, size=(3, 11))

    def run(received, noise):
        if kernel == "kernel_stats":
            return kernel_stats(received, noise, snr)
        return mc.sampled_stats(received, noise, true, snr)

    x, z = rng.standard_normal((3, 4, 4)), np.sqrt(0.5) * rng.standard_normal((3, 11, 4))
    (mmse, lse, pe), (ref_mmse, ref_lse, ref_pe) = (
        run(x, z), run(x.view(complex), z.view(complex)))
    assert np.array_equal(lse, ref_lse) and np.array_equal(pe, ref_pe)
    assert np.max(np.abs(mmse - ref_mmse)) <= 1e-14 * np.max(ref_mmse)
    if kernel == "kernel_stats":
        x, z = x[..., :3], z[..., :3]
        mmse, lse, pe = kernel_stats(x, z, snr)
        ref_mmse, ref_lse, ref_pe = _reference_stats(x, z, snr)
        assert np.max(np.abs(lse - ref_lse)) <= 1e-12 * np.max(np.abs(ref_lse))
        assert np.max(np.abs(mmse - ref_mmse)) <= 1e-12 * np.max(ref_mmse)
        assert np.array_equal(pe, ref_pe)


def _bank_draws(subs, mc_cfg):
    """The banks' unit fading (C, K) and noise (C, N, K), chunk k drawn whole:
    the fading from spawn key (k, 0), the noise from (k, 1).  Subchannel k's
    fading is column k scaled by its standard deviation, plus its mean."""
    fading, noise = [], []
    for k, size in enumerate(chunk_sizes(mc_cfg.channel_draws, mc_cfg.parallel_chunks)):
        channel_rng, noise_rng = (
            np.random.default_rng(np.random.SeedSequence(mc_cfg.seed, spawn_key=(k, s)))
            for s in range(2))
        fading.append(_complex_normal(channel_rng, (size, len(subs))))
        noise.append(_complex_normal(noise_rng, (size, mc_cfg.noise_draws_per_channel,
                                                 len(subs))))
    fading, noise = np.concatenate(fading), np.concatenate(noise)
    for k, sub in enumerate(subs):
        fading[:, k] *= np.sqrt(sub.fading.variance)
        if sub.fading.mean:
            fading[:, k] += complex(sub.fading.mean)
    return fading, noise


# (constellation, fading, factors in its bank): a grid splits into its real
# and imaginary levels, bpsk keeps only its real one, 8-PSK is one factor
BANK_CASES = [
    (fc.make_constellation("bpsk", 1), designs.Fading(variance=2.0), 1),
    (fc.make_constellation("qpsk", 1), designs.Fading(variance=2.0), 2),
    (fc.make_constellation("qam16", 1), designs.Fading(variance=2.0), 2),
    (fc.make_constellation("qam64", 1), designs.Fading(variance=2.0), 2),
    (fc.make_constellation("qam16", 1), designs.Fading(variance=0.5, mean=1.0 - 0.5j), 2),
    (fc.make_constellation("custom", 1, points=np.exp(0.25j * np.pi * np.arange(8))),
     designs.Fading(variance=2.0), 1),
]


def test_bank_mi_matches_kernel_stats():
    """The power-allocation banks and the joint MC kernel agree: on the
    banks' own draws, _bank_mi on each channel equals log M minus that
    channel's mean lse over its noise draws from kernel_stats on all M
    points."""
    mc_cfg = McConfig(channel_draws=64, noise_draws_per_channel=12, seed=17, parallel_chunks=3)
    snr, power = 30.0, 0.7
    subs = [designs.SubchannelSpec(c, fading) for c, fading, _ in BANK_CASES]
    banks = designs._subchannel_banks(subs, mc_cfg)
    h, noise = _bank_draws(subs, mc_cfg)
    for k, (c, _, n_factors) in enumerate(BANK_CASES):
        assert len(banks[k][0]) == n_factors
        received = np.sqrt(snr * power) * h[:, k, None, None] * c.points[None]
        _, lse, _ = kernel_stats(received, noise[:, :, k, None], snr * power)
        got = designs._bank_mi(snr, banks[k], power)
        assert got.shape == (mc_cfg.channel_draws,)
        assert got == pytest.approx(c.log_m - np.mean(lse, axis=1), rel=1e-12)


def _traced_peak(fn):
    """Peak traced allocation, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_stats_holds_no_pair_table():
    """At M = 256 one (M, M, C) float table is 15.7 MB; the kernel forms
    each hypothesis's distances from differences and stays below half that."""
    c = fc.make_constellation("qam16", 2)
    rng = np.random.default_rng(5)
    c_sz, n_sz, snr = 30, 8, 10.0
    received = np.sqrt(snr) * np.einsum("mt,crt->cmr", c.points,
                                        _complex_normal(rng, (c_sz, 2, 2)))
    noise = _complex_normal(rng, (c_sz, n_sz, 2))
    peak = _traced_peak(lambda: kernel_stats(received, noise, snr))
    assert peak < 0.5 * c.m * c.m * c_sz * 8


def test_sampled_avg_all_holds_about_the_counted_block(monkeypatch):
    """The sampled path's batch rule counts its (C, N, M) logits and one
    coordinate slab of the differences, and one sampled avg_all call
    (qam16, n_t = 2, C = 30, N = 8) stays below three such counts (1 MB
    each) at peak, not the (C, N, M, 2 dim) difference block (2 MB)."""
    c_sz, n_sz = 30, 8
    block = 2 * n_sz * QAM16_2.m
    counted = []
    run_chunks = mc._run_chunks

    def spy(mc_cfg, per_draw, *args):
        counted.append(per_draw)
        return run_chunks(mc_cfg, per_draw, *args)

    monkeypatch.setattr(mc, "_run_chunks", spy)
    mc_cfg = McConfig(channel_draws=c_sz, noise_draws_per_channel=n_sz, parallel_chunks=1)
    peak = _traced_peak(lambda: fc.avg_all(10.0, CORRELATED_2X2, QAM16_2, mc_cfg))
    assert counted == [block]
    assert peak < 3 * c_sz * block * 8


PSK64 = fc.make_constellation("custom", 1, points=np.exp(2j * np.pi * np.arange(64) / 64))


def test_bank_holds_no_pair_table():
    """A non-grid 64-point set is one factor of 64 points; its bank keeps
    |h|^2 once and stays below half of one (Q, Q, C) float table (42 MB)."""
    assert PSK64.grid_levels is None
    subs = [designs.SubchannelSpec(PSK64, designs.Fading(variance=1.0))]
    mc_cfg = McConfig(channel_draws=1280, noise_draws_per_channel=4)
    peak = _traced_peak(lambda: designs._subchannel_banks(subs, mc_cfg))
    assert peak < 0.5 * PSK64.m * PSK64.m * mc_cfg.channel_draws * 8


def test_bank_mi_holds_two_tables():
    """One bank evaluation holds its (Q, C, N) weight buffer and the noise
    table scaled to the candidate power (64 points, 2 MB each), and less
    than half of a third such block at peak."""
    subs = [designs.SubchannelSpec(PSK64, designs.Fading(variance=1.0))]
    mc_cfg = McConfig(channel_draws=64, noise_draws_per_channel=64)
    bank = designs._subchannel_banks(subs, mc_cfg)[0]
    block = PSK64.m * mc_cfg.channel_draws * mc_cfg.noise_draws_per_channel * 8
    peak = _traced_peak(lambda: designs._bank_mi(100.0, bank, 1.0))
    assert 2 * block <= peak < 2.5 * block


def test_grid_bank_holds_one_table_per_factor():
    """A qam256 bank keeps, for each of its two level factors, the 16 sorted
    levels and one (C, N) noise coordinate, not a (16, C, N) noise table and
    a (16, 16) distance matrix; building it peaks below a third of the two
    (16, C, N) tables (32 of C N entries) it would otherwise hold."""
    qam256 = fc.make_constellation("qam256", 1)
    subs = [designs.SubchannelSpec(qam256, designs.Fading(variance=1.0))]
    mc_cfg = McConfig(channel_draws=1024, noise_draws_per_channel=64)
    table = mc_cfg.channel_draws * mc_cfg.noise_draws_per_channel * 8
    peak = _traced_peak(lambda: designs._subchannel_banks(subs, mc_cfg))
    factors, gain = designs._subchannel_banks(subs, mc_cfg)[0]
    assert gain.shape == (mc_cfg.channel_draws,)
    for (levels, z), want in zip(factors, qam256.grid_levels):
        assert np.array_equal(levels, want)
        assert z.dtype == np.float64 and z.shape == (1024, 64)
    assert peak < 10 * table


# ---------------------------------------------------------------------------
# the exp floor: flooring the shifted logits leaves every result bit for bit
# ---------------------------------------------------------------------------

def _unfloored_weights(lowest):
    """The weight step without the floor; appends each call's lowest shifted
    logit to `lowest`."""
    def weights(a):
        a_max = a.max(axis=0)
        a -= a_max
        lowest.append(a.min())
        np.exp(a, out=a)
        return a_max
    return weights


def _floor_case(name, snr_db):
    rng = np.random.default_rng(606)
    snr = 10.0 ** (snr_db / 10.0)
    if name == "qam16_1x2":
        c, model, c_sz, n_sz = (fc.make_constellation("qam16", 1),
                                fc.CanonicalRayleigh(n_t=1, n_r=2), 100, 100)
    else:
        c = fc.make_constellation("qam16", 2)
        model = fc.CorrelatedRayleigh(theta_t=[[1, 0.5], [0.5, 1]],
                                      theta_r=[[1, 0.8], [0.8, 1]])
        c_sz, n_sz = 13, 8
    h = sample_channels(model, c_sz, rng)
    received = np.sqrt(snr) * np.einsum("mt,crt->cmr", c.points, h)
    return received, _complex_normal(rng, (c_sz, n_sz, model.n_r)), snr


@pytest.mark.parametrize("name,snr_db", [("qam16_1x2", 0), ("qam16_1x2", 20),
                                         ("qam16_1x2", 30), ("qam16_1x2", 40),
                                         ("qam16_2x2_correlated", 20)])
def test_exp_floor_leaves_kernel_stats_unchanged(monkeypatch, name, snr_db):
    received, noise, snr = _floor_case(name, snr_db)
    floored = kernel_stats(received, noise, snr)
    lowest = []
    monkeypatch.setattr(mc, "_weights", _unfloored_weights(lowest))
    reference = kernel_stats(received, noise, snr)
    for got, ref in zip(floored, reference):
        assert np.array_equal(got, ref)
    if snr_db >= 20:
        assert min(lowest) < EXP_FLOOR       # the floor is reached on these inputs


@pytest.mark.parametrize("snr_db", [20, 30])
def test_exp_floor_leaves_sampled_stats_unchanged(monkeypatch, snr_db):
    received, noise, snr = _floor_case("qam16_2x2_correlated", snr_db)
    true = np.random.default_rng(607).integers(received.shape[1], size=noise.shape[:2])
    floored = mc.sampled_stats(received, noise, true, snr)
    lowest = []
    monkeypatch.setattr(mc, "_weights", _unfloored_weights(lowest))
    reference = mc.sampled_stats(received, noise, true, snr)
    for got, ref in zip(floored, reference):
        assert np.array_equal(got, ref)
    assert min(lowest) < EXP_FLOOR


def test_exp_floor_leaves_bank_mi_unchanged(monkeypatch):
    sub = designs.SubchannelSpec(fc.make_constellation("qpsk", 1),
                                 designs.Fading(variance=4.0))
    bank = designs._subchannel_banks([sub], McConfig(channel_draws=160,
                                                     noise_draws_per_channel=16))[0]
    snr, powers = 100.0, (0.5, 1.0, 1.5)
    floored = [designs._bank_mi(snr, bank, p) for p in powers]
    lowest = []
    monkeypatch.setattr(mc, "_weights", _unfloored_weights(lowest))
    for p, ref in zip(powers, floored):
        assert np.array_equal(designs._bank_mi(snr, bank, p), ref)
    assert min(lowest) < EXP_FLOOR


@pytest.mark.parametrize("family", ["qam16", "qam256"])
@pytest.mark.parametrize("snr_db", [30, 40])
def test_exp_floor_leaves_level_stats_unchanged(monkeypatch, family, snr_db):
    """The level kernel's window sums hold the d = 0 weight e^-max, not 1,
    and a floored weight is absorbed in it because max <= z^2 stays far below
    700: `_grid_stats` (1x2 Rayleigh, C = N = 100) equals its unfloored form
    bit for bit where the floor is reached."""
    rng = np.random.default_rng(606)
    h = sample_channels(fc.CanonicalRayleigh(n_t=1, n_r=2), 100, rng)[:, :, 0]
    noise = _complex_normal(rng, (100, 100, 2))
    snr = 10.0 ** (snr_db / 10.0)
    levels = mc._grid_factors(fc.make_constellation(family, 1))
    floored = mc._grid_stats(h, noise, levels, snr)
    lowest = []
    monkeypatch.setattr(mc, "_weights", _unfloored_weights(lowest))
    reference = mc._grid_stats(h, noise, levels, snr)
    for got, ref in zip(floored, reference):
        assert np.array_equal(got, ref)
    assert min(lowest) < EXP_FLOOR


def test_exp_floor_is_read_in_one_function():
    """One weight step floors every Monte Carlo logit table: EXP_FLOOR is
    read inside exactly one function of the package."""
    readers = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, f"{where}.{getattr(child, 'name', '<lambda>')}")
                continue
            if (isinstance(child, ast.Name) and child.id == "EXP_FLOOR"
                    and isinstance(child.ctx, ast.Load)
                    or isinstance(child, ast.Attribute) and child.attr == "EXP_FLOOR"):
                readers.add(where)
            visit(child, where)

    for path in Path(fc.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    assert len(readers) == 1, sorted(readers)


# ---------------------------------------------------------------------------
# single-antenna grid constellations: the factorised kernel is exact
# ---------------------------------------------------------------------------

SINGLE_ANTENNA_MODELS = {
    "rayleigh": fc.CanonicalRayleigh(n_t=1, n_r=2),
    "correlated": fc.CorrelatedRayleigh(theta_t=[[1.0]], theta_r=[[1, 0.8], [0.8, 1]]),
    "ricean": fc.Ricean(k_factor=2.0, a_t=[1.0], a_r=[1.0, np.exp(0.3j)]),
}


def _kernel_samples(estimator, joint):
    """The per-sample (mmse, lse, pe) behind one ``estimator()`` call, which
    runs the joint kernel over all M true symbols if `joint` and may take
    the factorised one if not."""
    captured = []

    def capture(samples, log_m):
        captured.append(samples)
        return _estimates(samples, log_m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "_estimates", capture)
        if joint:
            patch.setattr(mc, "_grid_factors", lambda c: None)
            patch.setattr(mc, "sampled_true_symbol", lambda inputs: False)
        estimator()
    return captured[0]


def _faded(batch_h):
    """Channels scaled from 1 down to 1e-3 across the batch, the first one
    zero, so that every SNR point has channels in every regime."""
    scale = np.logspace(0.0, -3.0, batch_h.shape[0])
    scale[0] = 0.0
    return batch_h * scale[:, None, None]


@pytest.mark.parametrize("family", ["qam16", "qam64"])
@pytest.mark.parametrize("channel", sorted(SINGLE_ANTENNA_MODELS))
@pytest.mark.parametrize("fades", [False, True])
def test_grid_factorisation_matches_joint_kernel(monkeypatch, family, channel, fades):
    """avg_all with the factorised kernel and with the joint kernel, on the
    same draws at 0-45 dB: per-channel lse within 1e-14 nats, mmse within
    1e-11 of the largest per-channel value of the case, pe equal.  (At 30
    dB and above the plain draws' per-channel mmse may be ~1e-29, where both
    kernels carry only rounding, so the mmse scale is taken over the SNR
    points.)  With `fades`, each batch holds a zero channel and deep fades."""
    c = fc.make_constellation(family, 1)
    model = SINGLE_ANTENNA_MODELS[channel]
    mc_cfg = McConfig(channel_draws=96, noise_draws_per_channel=12, seed=61,
                      parallel_chunks=2)
    assert mc._grid_factors(c) is not None
    if fades:
        monkeypatch.setattr(mc, "sample_channels", lambda *args: _faded(sample_channels(*args)))
    mmse_gap, mmse_scale = 0.0, 0.0
    for snr_db in (0, 15, 30, 45):
        snr = 10.0 ** (snr_db / 10.0)

        def estimator():
            fc.avg_all(snr, model, c, mc_cfg)

        mmse_f, lse_f, pe_f = _kernel_samples(estimator, joint=False)
        mmse_j, lse_j, pe_j = _kernel_samples(estimator, joint=True)
        assert np.all(np.isfinite(lse_f)), snr_db
        assert np.max(np.abs(lse_f - lse_j)) <= 1e-14, snr_db
        assert np.array_equal(pe_f, pe_j), snr_db
        if fades:
            assert lse_f[0] == pytest.approx(c.log_m, abs=1e-15)   # the zero channel
        mmse_gap = max(mmse_gap, np.max(np.abs(mmse_f - mmse_j)))
        mmse_scale = max(mmse_scale, np.max(mmse_j))
    assert mmse_gap <= 1e-11 * mmse_scale


@pytest.mark.parametrize("family", ["qam16", "qam64", "qam256"])
def test_grid_factorisation_matches_joint_kernel_fixed_h(family):
    """fixed_h_all takes the same dispatch as avg_all: with the factorised
    and the joint kernel, on the same draws at 0-45 dB, the lse means of
    each block of noise_draws_per_channel samples (the per-channel means of
    avg_all) within 1e-14 nats, per-sample mmse within 1e-11 of its largest
    value over the SNR points, pe equal."""
    c = fc.make_constellation(family, 1)
    h = np.array([[0.9 - 0.4j], [0.3 + 0.2j]])
    mc_cfg = McConfig(channel_draws=24, noise_draws_per_channel=10, seed=29,
                      parallel_chunks=2)
    mmse_gap, mmse_scale = 0.0, 0.0
    for snr_db in (0, 15, 30, 45):
        snr = 10.0 ** (snr_db / 10.0)

        def estimator():
            fc.fixed_h_all(snr, h, c, mc_cfg)

        mmse_f, lse_f, pe_f = _kernel_samples(estimator, joint=False)
        mmse_j, lse_j, pe_j = _kernel_samples(estimator, joint=True)
        lse_gap = (lse_f - lse_j).reshape(24, 10).mean(axis=1)
        assert np.max(np.abs(lse_gap)) <= 1e-14, snr_db
        assert np.array_equal(pe_f, pe_j), snr_db
        mmse_gap = max(mmse_gap, np.max(np.abs(mmse_f - mmse_j)))
        mmse_scale = max(mmse_scale, np.max(mmse_j))
    assert mmse_gap <= 1e-11 * mmse_scale


def test_grid_factorisation_guards_zero_channel():
    """A zero channel row gives lse = log M, mmse = pe = 0, as the joint
    kernel does, not NaN."""
    c = fc.make_constellation("qam16", 1)
    rng = np.random.default_rng(67)
    h = _complex_normal(rng, (3, 2))
    h[1] = 0.0
    noise = _complex_normal(rng, (3, 7, 2))
    snr = 100.0
    mmse, lse, pe = mc._grid_stats(h, noise, mc._grid_factors(c), snr)
    received = np.sqrt(snr) * np.einsum("mt,cr->cmr", c.points, h)
    ref = kernel_stats(received, noise, snr)
    assert np.allclose(lse[1], c.log_m, rtol=0.0, atol=1e-15)
    assert np.array_equal(mmse[1], np.zeros(7)) and np.array_equal(pe[1], np.zeros(7))
    assert np.max(np.abs(lse - ref[1])) <= 1e-14
    assert np.max(np.abs(mmse - ref[0])) <= 1e-11 * np.max(ref[0])
    assert np.array_equal(pe, ref[2])


def _weighted_shapes(monkeypatch):
    """Record the shape of every table `mc._weights` gets."""
    shapes = []
    weights = mc._weights

    def spy(a):
        shapes.append(a.shape)
        return weights(a)

    monkeypatch.setattr(mc, "_weights", spy)
    return shapes


@pytest.mark.parametrize("family", ["qam16", "qam64", "qam256"])
def test_grid_stats_weight_distinct_level_differences(monkeypatch, family):
    """A built-in grid weighs 2Q - 1 logits a sample per level set (Q = 4, 8,
    16), one (2Q - 1, C, N) table each, not Q^2."""
    c = fc.make_constellation(family, 1)
    q = c.grid_levels[0].size
    rng = np.random.default_rng(73)
    h = _complex_normal(rng, (5, 2))
    noise = _complex_normal(rng, (5, 11, 2))
    shapes = _weighted_shapes(monkeypatch)
    mc._grid_stats(h, noise, mc._grid_factors(c), 100.0)
    assert shapes == [(2 * q - 1, 5, 11)] * 2


def test_bank_weighs_distinct_level_differences(monkeypatch):
    """A grid bank evaluation weighs 2Q - 1 logits a sample per level
    factor: 3 for qpsk, 7 for qam16, 15 for qam64."""
    subs = [designs.SubchannelSpec(fc.make_constellation(family, 1),
                                   designs.Fading(variance=2.0))
            for family in ("qpsk", "qam16", "qam64")]
    mc_cfg = McConfig(channel_draws=16, noise_draws_per_channel=4, parallel_chunks=2)
    banks = designs._subchannel_banks(subs, mc_cfg)
    shapes = _weighted_shapes(monkeypatch)
    for bank in banks:
        designs._bank_mi(100.0, bank, 1.0)
    assert shapes == [(d, 16, 4) for d in (3, 3, 7, 7, 15, 15)]


def test_zero_channel_gives_log_q_on_level_kernel_and_bank(monkeypatch):
    """A zero channel (amp = 0, z = 0) gives lse = log Q and mmse = pe = 0
    from `_level_stats`, and mutual information 0 from a grid bank."""
    for family in ("qam16", "qam64"):
        levels = fc.make_constellation(family, 1).grid_levels[0]
        mmse, lse, pe = mc._level_stats(levels, np.zeros(2), np.zeros((2, 5)), 100.0)
        assert np.allclose(lse, np.log(levels.size), rtol=0.0, atol=1e-15)
        assert np.array_equal(mmse, np.zeros((2, 5))) and np.array_equal(pe, np.zeros((2, 5)))

    def first_channel_zero(rng, shape):
        draws = _complex_normal(rng, shape)
        if len(shape) == 2:         # the fading (C, K)
            draws[0] = 0.0
        return draws

    monkeypatch.setattr(designs, "_complex_normal", first_channel_zero)
    subs = [designs.SubchannelSpec(fc.make_constellation(family, 1),
                                   designs.Fading(variance=2.0))
            for family in ("qpsk", "qam16")]
    mc_cfg = McConfig(channel_draws=8, noise_draws_per_channel=6, parallel_chunks=1)
    for bank in designs._subchannel_banks(subs, mc_cfg):
        mi = designs._bank_mi(100.0, bank, 1.0)
        assert bank[1][0] == 0.0 and np.all(np.isfinite(mi))
        assert abs(mi[0]) <= 1e-15


def test_kernel_stats_reads_level_points_as_complex_form():
    """`kernel_stats` on float64 level points amp l and one real noise
    coordinate (Re u for the real levels, Im u for the imaginary ones)
    equals its complex form, the real levels with noise u and -j u: lse and
    pe bit for bit, mmse within 1e-14 relative; a zero channel included."""
    c = fc.make_constellation("qam16", 1)
    rng = np.random.default_rng(71)
    amp = np.abs(_complex_normal(rng, (4,)))
    amp[2] = 0.0
    u = _complex_normal(rng, (4, 9))
    for snr in 10.0 ** (np.array([0.0, 20.0, 45.0]) / 10.0):
        for lev, z, noise in ((c.grid_levels[0], u.real, u), (c.grid_levels[1], u.imag, -1j * u)):
            pts = np.sqrt(snr) * amp[:, None, None] * lev[None, :, None]
            mmse, lse, pe = kernel_stats(pts, np.ascontiguousarray(z)[:, :, None], snr)
            ref_mmse, ref_lse, ref_pe = kernel_stats(pts.astype(complex), noise[:, :, None], snr)
            assert np.array_equal(lse, ref_lse) and np.array_equal(pe, ref_pe)
            assert np.max(np.abs(mmse - ref_mmse)) <= 1e-14 * np.max(ref_mmse)


def test_grid_factors_get_one_real_coordinate(monkeypatch):
    """Each level set's `_level_stats` call gets its sorted levels and, as
    its one noise coordinate, float64 Re u (R) or Im u (I), with u = h^H n
    / ||h|| (0 on a zero channel) and amp = sqrt(snr) ||h||."""
    c = fc.make_constellation("qam16", 1)
    rng = np.random.default_rng(71)
    h = _complex_normal(rng, (4, 2))
    h[2] = 0.0
    noise = _complex_normal(rng, (4, 9, 2))
    gain = np.linalg.norm(h, axis=1)
    u = np.einsum("cnr,cr->cn", noise, h.conj()) / np.where(gain > 0.0, gain, 1.0)[:, None]
    calls = []
    level_stats = mc._level_stats

    def spy(levels, amp, z, snr):
        calls.append((levels, amp, z))
        return level_stats(levels, amp, z, snr)

    monkeypatch.setattr(mc, "_level_stats", spy)
    snr = 100.0
    mc._grid_stats(h, noise, mc._grid_factors(c), snr)
    assert len(calls) == 2
    for (levels, amp, z), want_levels, want_z in zip(calls, c.grid_levels, (u.real, u.imag)):
        assert levels is want_levels
        assert z.dtype == np.float64 and z.shape == (4, 9)
        assert np.allclose(z, want_z, rtol=0.0, atol=1e-15)
        assert np.allclose(amp, np.sqrt(snr) * gain, rtol=1e-15, atol=0.0)
    assert np.array_equal(calls[0][2][2], np.zeros(9)) and calls[0][1][2] == 0.0


@pytest.mark.parametrize("family,takes_grid", [("bpsk", False), ("qpsk", False),
                                               ("qam16", True), ("qam64", True),
                                               ("qam256", True)])
def test_grid_factorisation_inputs(family, takes_grid):
    """Only grids cut at least fourfold take the factorised kernel; qam16
    over two antennas has no grid levels."""
    assert (mc._grid_factors(fc.make_constellation(family, 1)) is not None) == takes_grid
    assert fc.make_constellation("qam16", 2).grid_levels is None


# ---------------------------------------------------------------------------
# draw layout: each chunk draws its channels from its channel stream and its
# noise from its noise stream, in draw order
# ---------------------------------------------------------------------------

def _per_chunk(total, seed, chunks, draw):
    """Reference draw order: each chunk drawn whole, by
    ``draw(channel_rng, noise_rng, size)`` on that chunk's two streams."""
    return [draw(channel_rng, noise_rng, size) for size, (channel_rng, noise_rng)
            in zip(chunk_sizes(total, chunks), chunk_rngs(seed, chunks))]


def _mean_and_se(samples):
    return float(np.mean(samples)), float(np.std(samples, ddof=1) / np.sqrt(samples.size))


def _assert_estimates_equal(est, per_sample, log_m):
    """`est` is exactly the {mmse, mi, pe} reduction of per-sample (mmse, lse, pe)."""
    mmse, lse, pe = (np.concatenate(s) for s in zip(*per_sample))
    lse_mean, lse_se = _mean_and_se(lse)
    assert (est["mmse"].mean, est["mmse"].std_error) == _mean_and_se(mmse)
    assert (est["mi"].mean, est["mi"].std_error) == (log_m - lse_mean, lse_se)
    assert (est["pe"].mean, est["pe"].std_error) == _mean_and_se(pe)


# The consumers split each chunk below into several batches (sizes in the
# comments), while the references draw it whole.

def test_avg_all_draws_chunks_in_batches():
    model = fc.CanonicalRayleigh(1, 2)
    n_noise, snr = 20_000, 3.0
    mc_cfg = McConfig(channel_draws=120, noise_draws_per_channel=n_noise, seed=41,
                      parallel_chunks=2)

    def draw(channel_rng, noise_rng, size):     # 60 channels a chunk, batches of 50
        h = sample_channels(model, size, channel_rng)
        received = np.sqrt(snr) * np.einsum("mt,crt->cmr", BPSK.points, h)
        noise = _complex_normal(noise_rng, (size, n_noise, 2))
        return tuple(s.mean(axis=1) for s in kernel_stats(received, noise, snr))

    expected = _per_chunk(120, 41, 2, draw)
    for threads in (1, 2):
        est = fc.avg_all(snr, model, BPSK, mc_cfg, threads=threads)
        _assert_estimates_equal(est, expected, BPSK.log_m)


def test_avg_all_grid_draws_chunks_in_batches():
    """The factorised kernel evaluates the joint path's draws: H from the
    channel stream, the n_r-dimensional noise from the noise stream."""
    c = fc.make_constellation("qam16", 1)
    model = fc.CanonicalRayleigh(1, 2)
    n_noise, snr = 2500, 30.0
    mc_cfg = McConfig(channel_draws=120, noise_draws_per_channel=n_noise, seed=71,
                      parallel_chunks=2)
    levels = mc._grid_factors(c)

    def draw(channel_rng, noise_rng, size):     # 60 channels a chunk, batches of 7
        h = sample_channels(model, size, channel_rng)
        noise = _complex_normal(noise_rng, (size, n_noise, 2))
        return tuple(s.mean(axis=1) for s in mc._grid_stats(h[:, :, 0], noise, levels, snr))

    expected = _per_chunk(120, 71, 2, draw)
    for threads in (1, 2):
        est = fc.avg_all(snr, model, c, mc_cfg, threads=threads)
        _assert_estimates_equal(est, expected, c.log_m)


def test_fixed_h_all_draws_chunks_in_batches():
    c = fc.make_constellation("qpsk", 1)
    h = np.array([[0.8 - 0.3j]])
    snr = 2.0
    mc_cfg = McConfig(channel_draws=12_000, noise_draws_per_channel=100, seed=43,
                      parallel_chunks=2)

    def draw(channel_rng, noise_rng, size):     # 6000 blocks a chunk, batches of 5000
        noise = _complex_normal(noise_rng, (size, 100, 1))
        received = np.broadcast_to(np.sqrt(snr) * (c.points @ h.T), (size, c.m, 1))
        return tuple(s.ravel() for s in kernel_stats(received, noise, snr))

    expected = _per_chunk(12_000, 43, 2, draw)
    _assert_estimates_equal(fc.fixed_h_all(snr, h, c, mc_cfg), expected, c.log_m)


def test_avg_bounds_draws_chunks_in_batches():
    c = fc.make_constellation("qam16", 2)
    model = fc.CorrelatedRayleigh(theta_t=[[1, 0.5], [0.5, 1]], theta_r=[[1, 0.8], [0.8, 1]])
    mc_cfg = McConfig(channel_draws=1000, noise_draws_per_channel=1, seed=47,
                      parallel_chunks=2)
    diffs, counts = pair_differences(c)
    for kind in ("mmse", "mi"):                   # pe draws no channel
        def draw(channel_rng, noise_rng, size):   # 500 channels a chunk, batches of 416
            rec = sample_channels(model, size, channel_rng) @ diffs.T
            d2 = np.sum(rec.real ** 2 + rec.imag ** 2, axis=1)
            return _bound_sums(d2, counts.astype(float), 10.0, c.m, kind)

        lower, upper = (np.concatenate(s) for s in zip(*_per_chunk(1000, 47, 2, draw)))
        pair = fc.avg_bounds(kind, 10.0, model, c, mc_cfg)
        assert (pair.lower.mean, pair.lower.std_error) == _mean_and_se(lower), kind
        assert (pair.upper.mean, pair.upper.std_error) == _mean_and_se(upper), kind


def test_distance_squared_samples_draws_chunks_in_batches(monkeypatch):
    model = fc.CorrelatedRayleigh(theta_t=[[1, 0.5], [0.5, 1]], theta_r=np.eye(3))
    diff = np.array([1.0, 0.5j])
    n = 250_001
    monkeypatch.setattr(mc, "BATCH_ELEMENTS", 600_000)   # 6 entries a draw

    def draw(channel_rng, noise_rng, size):     # 125 001 draws a chunk, batches of 100 000
        return np.sum(np.abs(sample_channels(model, size, channel_rng) @ diff) ** 2, axis=1)

    expected = np.concatenate(_per_chunk(n, 53, 2, draw))
    got = distance_squared_samples(model, diff, n, seed=53, chunks=2)
    assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# batch invariance: the batch size never changes a draw
# ---------------------------------------------------------------------------

CORRELATED_2X2 = fc.CorrelatedRayleigh(theta_t=[[1, 0.5], [0.5, 1]],
                                       theta_r=[[1, 0.8], [0.8, 1]])
QPSK_2 = fc.make_constellation("qpsk", 2)
QAM16 = fc.make_constellation("qam16", 1)
QAM16_2 = fc.make_constellation("qam16", 2)
PALLOC_SUBS = [designs.SubchannelSpec(fc.make_constellation("qpsk", 1),
                                      designs.Fading(variance=4.0)),
               designs.SubchannelSpec(QAM16, designs.Fading(variance=0.5, mean=1.0))]
BATCH_CFG = McConfig(channel_draws=30, noise_draws_per_channel=6, seed=5, parallel_chunks=3)

BATCHED_ESTIMATORS = {
    "avg_all_joint": lambda: fc.avg_all(10.0, CORRELATED_2X2, QPSK_2, BATCH_CFG),
    "avg_all_m256": lambda: fc.avg_all(10.0, CORRELATED_2X2, QAM16_2, BATCH_CFG),
    "avg_all_grid": lambda: fc.avg_all(30.0, fc.CanonicalRayleigh(1, 2), QAM16, BATCH_CFG),
    "avg_all_code": lambda: fc.avg_all(
        4.0, fc.CanonicalRayleigh(2, 2),
        fc.SpaceTimeCode(codewords=np.stack([QPSK_2.points, QPSK_2.points[:, ::-1]], axis=2)),
        BATCH_CFG),
    "fixed_h_all_joint": lambda: fc.fixed_h_all(
        10.0, np.array([[0.8 - 0.3j, 0.1], [0.2j, 0.5]]), QPSK_2, BATCH_CFG),
    "fixed_h_all_grid": lambda: fc.fixed_h_all(
        30.0, np.array([[0.8 - 0.3j], [0.2j]]), QAM16, BATCH_CFG),
    "avg_bounds": lambda: [fc.avg_bounds(kind, 10.0, CORRELATED_2X2, QPSK_2, BATCH_CFG)
                           for kind in ("mmse", "mi", "pe")],
    "distance_squared_samples": lambda: distance_squared_samples(
        CORRELATED_2X2, [1.0, 0.5j], 31, seed=2, chunks=3).tolist(),
    "palloc": lambda: [designs.palloc_numeric(PALLOC_SUBS, 2.0, 100.0, BATCH_CFG).p.tolist(),
                       designs.subchannel_capacities(PALLOC_SUBS, [[0.5, 1.5]], 100.0, BATCH_CFG)],
}


def _batches_of(k, patch):
    """Make every `_run_chunks` call draw its chunks in batches of `k` draws
    by setting the batch target to k per-draw blocks; returns the list the
    batch sizes are appended to."""
    run_chunks = mc._run_chunks
    sizes = []

    def run_in_batches(mc_cfg, per_draw, step, *args):
        def counted(channel_rng, noise_rng, batch, *more_rngs):
            sizes.append(batch)
            return step(channel_rng, noise_rng, batch, *more_rngs)

        patch.setattr(mc, "BATCH_ELEMENTS", k * per_draw)
        return run_chunks(mc_cfg, per_draw, counted, *args)

    patch.setattr(mc, "_run_chunks", run_in_batches)
    patch.setattr(bounds, "_run_chunks", run_in_batches)
    return sizes


@pytest.mark.parametrize("name", sorted(BATCHED_ESTIMATORS))
def test_batch_size_leaves_results_bit_identical(name):
    """Chunks of 10 or 11 draws spanning batches of 1, 2 and 7 draws give
    the results of the default batching (one batch a chunk) bit for bit."""
    estimator = BATCHED_ESTIMATORS[name]
    reference = estimator()
    for k in (1, 2, 7):
        with pytest.MonkeyPatch.context() as patch:
            sizes = _batches_of(k, patch)
            got = estimator()
        assert max(sizes) == k
        assert got == reference, k


def test_avg_all_and_avg_bounds_draw_the_same_channels(monkeypatch):
    """For one (seed, parallel_chunks) avg_bounds sees the channels avg_all
    averages over, although the two batch them differently: `_run_chunks`
    cuts each chunk of 120 channels into batches of BATCH_ELEMENTS //
    per_draw, with the (2Q - 1, N) level-difference logits of the largest
    level set a channel for avg_all (Q = 4 on qam16) and (D, n_r)
    distances for avg_bounds."""
    model = fc.CanonicalRayleigh(1, 2)
    mc_cfg = McConfig(channel_draws=240, noise_draws_per_channel=2500, seed=83,
                      parallel_chunks=2)

    def batches(per_draw):
        return 2 * -(-120 // max(1, mc.BATCH_ELEMENTS // per_draw))

    drawn = {mc: [], bounds: []}
    for module, seen in drawn.items():
        def spy(model, n, rng, seen=seen):
            seen.append(sample_channels(model, n, rng))
            return seen[-1]
        monkeypatch.setattr(module, "sample_channels", spy)
    fc.avg_all(30.0, model, QAM16, mc_cfg)
    fc.avg_bounds("mi", 30.0, model, QAM16, mc_cfg)
    assert (len(drawn[mc]), len(drawn[bounds])) == (
        batches((2 * QAM16.grid_levels[0].size - 1) * 2500),
        batches(len(pair_differences(QAM16)[0]) * model.n_r))
    assert len(drawn[mc]) > len(drawn[bounds])
    assert np.array_equal(np.concatenate(drawn[mc]), np.concatenate(drawn[bounds]))


def test_thread_pool_is_capped_at_the_cpus(monkeypatch):
    """4096 threads over 4096 chunks ask for no more workers than the process
    has CPUs; a fake executor records the request and runs serially."""
    requested = []

    def serial_executor(max_workers):
        requested.append(max_workers)
        return contextlib.nullcontext(types.SimpleNamespace(map=map))

    def step(channel_rng, noise_rng, n):
        return (channel_rng.standard_normal(n),)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", serial_executor)
    monkeypatch.setattr(mc, "_available_cpus", lambda: 3)
    mc_cfg = McConfig(channel_draws=4096, seed=5, parallel_chunks=4096)
    draws = mc._run_chunks(mc_cfg, 1, step, threads=4096)
    assert requested == [3]
    assert np.array_equal(draws, mc._run_chunks(mc_cfg, 1, step))


def test_avg_all_code_threads_bit_for_bit():
    c = fc.make_constellation("qpsk", 2)
    code = fc.SpaceTimeCode(codewords=np.stack([c.points, c.points[:, ::-1]], axis=2))
    mc_cfg = McConfig(channel_draws=300, noise_draws_per_channel=20, seed=59,
                      parallel_chunks=4)
    one = fc.avg_all(4.0, fc.CanonicalRayleigh(2, 2), code, mc_cfg)
    two = fc.avg_all(4.0, fc.CanonicalRayleigh(2, 2), code, mc_cfg, threads=2)
    for k in one:
        assert (one[k].mean, one[k].std_error) == (two[k].mean, two[k].std_error)


# ---------------------------------------------------------------------------
# one sampled true symbol a noise draw on the joint channel-averaged path
# ---------------------------------------------------------------------------

ST16 = fc.SpaceTimeCode(codewords=np.stack([QPSK_2.points, QPSK_2.points[:, ::-1]], axis=2))
GRID_2X8 = fc.make_constellation(
    "custom", 1, points=np.add.outer([-1.0, 1.0], 1j * np.arange(-7.0, 8.0, 2.0)).ravel())


@pytest.mark.parametrize("inputs,sampled", [
    (QPSK_2, True), (QAM16_2, True), (ST16, True),
    (fc.make_constellation("custom", 1, points=np.exp(0.125j * np.pi * np.arange(16))), True),
    (GRID_2X8, True),
    (fc.make_constellation("bpsk", 2), False), (QAM16, False),
    (fc.make_constellation("custom", 1, points=np.exp(0.25j * np.pi * np.arange(8))), False),
    (fc.SpaceTimeCode(codewords=fc.make_constellation("qpsk", 1).points[:, :, None]), False)],
    ids=["qpsk_2", "qam16_2", "spacetime_16", "psk16_1", "grid2x8_1", "bpsk_2", "qam16_1",
         "psk8_1", "spacetime_4"])
def test_sampled_true_symbol_inputs(inputs, sampled):
    """Space-time codes and constellations of at least SAMPLED_MIN_M points
    that do not take the factorised kernel sample the true symbol, such as
    a 2 x 8 grid, which `_grid_factors` turns down (|R|^2 + |I|^2 = 68 >
    M^2 / 4).  The rest, qam16 over one antenna among them, sum over M."""
    assert mc.sampled_true_symbol(inputs) == sampled


def test_avg_all_sampled_draws_chunks_in_batches(monkeypatch):
    """The sampled path draws H and the noise from the channel and noise
    streams, as the full sum does, and each noise draw's true symbol from a
    third stream of its chunk, spawn key (chunk, 2), in draw order."""
    n_noise, snr, seed = 8, 10.0, 73
    mc_cfg = McConfig(channel_draws=120, noise_draws_per_channel=n_noise, seed=seed,
                      parallel_chunks=2)
    monkeypatch.setattr(mc, "BATCH_ELEMENTS", 50 * 2 * n_noise * QAM16_2.m)

    def draw(size, chunk):                      # 60 channels a chunk, batches of 50
        channel_rng, noise_rng, symbol_rng = (
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk, s)))
            for s in range(3))
        h = sample_channels(CORRELATED_2X2, size, channel_rng)
        noise = _complex_normal(noise_rng, (size, n_noise, 2))
        true = symbol_rng.integers(QAM16_2.m, size=(size, n_noise))
        received = np.sqrt(snr) * np.einsum("mt,crt->cmr", QAM16_2.points, h)
        return tuple(s.mean(axis=1) for s in mc.sampled_stats(received, noise, true, snr))

    expected = [draw(size, k) for k, size in enumerate(chunk_sizes(120, 2))]
    for threads in (1, 2):
        est = fc.avg_all(snr, CORRELATED_2X2, QAM16_2, mc_cfg, threads=threads)
        _assert_estimates_equal(est, expected, QAM16_2.log_m)


SAMPLED_CASES = {
    "qam16_2x2_10dB": lambda mc_cfg: fc.avg_all(10.0, CORRELATED_2X2, QAM16_2, mc_cfg),
    "qam16_2x2_20dB": lambda mc_cfg: fc.avg_all(100.0, CORRELATED_2X2, QAM16_2, mc_cfg),
    "spacetime_16": lambda mc_cfg: fc.avg_all(4.0, fc.CanonicalRayleigh(2, 2), ST16, mc_cfg),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_CASES))
def test_sampled_true_symbol_agrees_with_full_sum(monkeypatch, name):
    """On the same channel and noise draws, one sampled true symbol a noise
    draw and the sum over all M true symbols agree within 4 combined
    standard errors for mmse, mi and pe."""
    mc_cfg = McConfig(channel_draws=200, noise_draws_per_channel=8, seed=2024,
                      parallel_chunks=4)
    sampled = SAMPLED_CASES[name](mc_cfg)
    monkeypatch.setattr(mc, "sampled_true_symbol", lambda inputs: False)
    full = SAMPLED_CASES[name](mc_cfg)
    for kind in mc.KINDS:
        a, b = sampled[kind], full[kind]
        assert a.mean != b.mean, kind              # the two paths did run
        assert abs(a.mean - b.mean) <= 4 * np.hypot(a.std_error, b.std_error), kind
