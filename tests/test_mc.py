"""Monte Carlo oracle: limits, closed-form checks, determinism."""

import numpy as np
import pytest
from scipy.special import erfc

import fadecap as fc
from fadecap import designs
from fadecap.bounds import _bound_sums
from fadecap.mc import (Estimate, McConfig, chunk_rngs, chunk_sizes, distance_squared_samples,
                        kernel_stats, suggested_total_draws)
from fadecap.model import _complex_normal, pair_differences, sample_channels

H1 = np.array([[1.0 + 0j]])
BPSK = fc.make_constellation("bpsk", 1)


def cfg(total, chunks=8, noise=None):
    if noise is None:
        noise = max(1, min(total, 100))
    return McConfig(channel_draws=max(1, total // noise),
                    noise_draws_per_channel=noise, seed=123, parallel_chunks=chunks)


def test_mmse_fixed_h_high_snr_vanishes():
    est = fc.mmse_fixed_h(1e6, H1, BPSK, cfg(200_000))
    assert est.mean < 1e-6


def test_mmse_fixed_h_low_snr_prior_variance():
    est = fc.mmse_fixed_h(1e-6, H1, BPSK, cfg(100_000))
    assert abs(est.mean - 1.0) < 3 * est.std_error + 1e-3


def test_mmse_fixed_h_within_bounds():
    est = fc.mmse_fixed_h(1.0, H1, BPSK, cfg(200_000))
    pair = fc.mmse_bounds_fixed_h(1.0, H1, BPSK)
    assert pair.lower - 3 * est.std_error <= est.mean <= pair.upper + 3 * est.std_error


def test_mi_fixed_h_limits():
    lo = fc.mi_fixed_h(1e-6, H1, BPSK, cfg(50_000))
    assert abs(lo.mean) < 1e-3
    hi = fc.mi_fixed_h(1e6, H1, BPSK, cfg(50_000))
    assert abs(hi.mean - np.log(2)) < 1e-3


def test_mi_fixed_h_within_bounds():
    est = fc.mi_fixed_h(1.0, H1, BPSK, cfg(200_000))
    pair = fc.mi_bounds_fixed_h(1.0, H1, BPSK)
    assert pair.lower - 3 * est.std_error <= est.mean <= pair.upper + 3 * est.std_error


def test_pe_fixed_h_binary_closed_form():
    for snr in (0.25, 1.0, 4.0):
        est = fc.pe_ml_fixed_h(snr, H1, BPSK, cfg(400_000))
        exact = 0.5 * erfc(np.sqrt(snr))
        assert abs(est.mean - exact) < 3 * est.std_error


def test_pe_fixed_h_low_snr_guessing():
    snr = 1e-6
    est = fc.pe_ml_fixed_h(snr, H1, BPSK, cfg(200_000))
    # approaches the guessing floor (M-1)/M from below as erfc(sqrt(snr))/2
    assert abs(est.mean - 0.5 * erfc(np.sqrt(snr))) < 3 * est.std_error
    assert abs(est.mean - 0.5) < 3 * est.std_error + 1e-3


def test_pe_fixed_h_binary_bounds_coincide():
    est = fc.pe_ml_fixed_h(2.0, H1, BPSK, cfg(400_000))
    pair = fc.pe_bounds_fixed_h(2.0, H1, BPSK)
    assert pair.lower == pair.upper
    assert abs(est.mean - pair.lower) < 3 * est.std_error


def test_pe_within_bounds_quaternary():
    c = fc.make_constellation("qpsk", 1)
    est = fc.pe_ml_fixed_h(2.0, H1, c, cfg(400_000))
    pair = fc.pe_bounds_fixed_h(2.0, H1, c)
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
    est = fc.avg_quantity("pe", snr, model, BPSK,
                          McConfig(channel_draws=150_000, noise_draws_per_channel=100,
                                   seed=21))
    assert abs(est.mean - exact) < 3 * est.std_error


def test_avg_identity_correlation_matches_canonical():
    c = fc.make_constellation("qpsk", 1)
    canon = fc.CanonicalRayleigh(1, 2)
    corr = fc.CorrelatedRayleigh(theta_t=np.eye(1), theta_r=np.eye(2))
    mc_cfg = McConfig(channel_draws=20_000, noise_draws_per_channel=50, seed=31)
    a = fc.avg_quantity("mi", 5.0, canon, c, mc_cfg)
    b = fc.avg_quantity("mi", 5.0, corr, c,
                        McConfig(channel_draws=20_000, noise_draws_per_channel=50, seed=32))
    assert abs(a.mean - b.mean) < 3 * np.hypot(a.std_error, b.std_error)


def test_avg_mi_nondecreasing_in_snr():
    c = fc.make_constellation("qpsk", 1)
    model = fc.CanonicalRayleigh(1, 1)
    mc_cfg = McConfig(channel_draws=20_000, noise_draws_per_channel=40, seed=41)
    grid = fc.SnrGrid.from_db(-5, 25, 5)
    ests = [fc.avg_quantity("mi", s, model, c, mc_cfg) for s in grid]
    for a, b in zip(ests, ests[1:]):
        assert b.mean >= a.mean - 3 * np.hypot(a.std_error, b.std_error)


def test_i_mmse_integral_consistency():
    """log M - I(snr) matches the tail integral of the fixed-H estimation
    error over SNR (trapezoid on a dense log grid), within 2% + 3 s.e."""
    snr0 = 1.0
    mc_cfg = McConfig(channel_draws=400, noise_draws_per_channel=100, seed=51)
    mi = fc.mi_fixed_h(snr0, H1, BPSK, mc_cfg)
    gap = np.log(2) - mi.mean
    grid = np.logspace(np.log10(snr0), np.log10(25.0), 60)
    vals, errs = [], []
    for s in grid:
        est = fc.mmse_fixed_h(s, H1, BPSK, mc_cfg)
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
        est = fc.avg_quantity("mi", snr, fc.CanonicalRayleigh(1, n_r), BPSK,
                              McConfig(channel_draws=60_000,
                                       noise_draws_per_channel=50, seed=101 + n_r))
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
    pts = fc.empirical_epsilon("mi", grid, model, BPSK, mc_cfg, d=1)
    for p in pts:
        assert 0.1875 - 3 * p.std_error <= p.value <= 0.75 + 3 * p.std_error
        assert not p.flagged
    pe_pts = fc.empirical_epsilon("pe", grid, model, BPSK, mc_cfg, d=1)
    last = pe_pts[-1]
    snr = last.snr
    exact = snr * 0.5 * (1.0 - np.sqrt(snr / (1.0 + snr)))
    assert abs(last.value - exact) <= 3 * last.std_error


def test_empirical_epsilon_flags_underresolved():
    model = fc.CanonicalRayleigh(1, 1)
    grid = fc.SnrGrid(points=np.array([1e4]))
    tiny = McConfig(channel_draws=50, noise_draws_per_channel=2, seed=71)
    pts = fc.empirical_epsilon("mi", grid, model, BPSK, tiny, d=1)
    assert pts[0].flagged


def test_empirical_epsilon_residual():
    model = fc.CanonicalRayleigh(1, 1)
    grid = fc.SnrGrid(points=np.array([100.0]))
    mc_cfg = McConfig(channel_draws=5_000, noise_draws_per_channel=20, seed=81)
    pts = fc.empirical_epsilon("mmse", grid, model, BPSK, mc_cfg, d=1, leading=0.5)
    assert pts[0].residual == pytest.approx(100.0 * (pts[0].value - 0.5), rel=1e-12)


def test_spacetime_pe_reduces_to_vector_channel():
    # one-interval codewords are just constellation vectors
    c = fc.make_constellation("qpsk", 2)
    code = fc.SpaceTimeCode(codewords=c.points[:, :, None])
    mc_cfg = McConfig(channel_draws=4000, noise_draws_per_channel=30, seed=91)
    a = fc.avg_all_spacetime(5.0, code, 2, mc_cfg)["pe"]
    b = fc.avg_quantity("pe", 5.0, fc.CanonicalRayleigh(2, 2), c,
                        McConfig(channel_draws=4000, noise_draws_per_channel=30, seed=92))
    assert abs(a.mean - b.mean) < 3 * np.hypot(a.std_error, b.std_error)


def test_degenerate_transmit_correlation_limits_mi():
    """When a pair difference falls in the null space of the transmit
    correlation, the receiver cannot separate those points and the
    high-SNR mutual information saturates at the class entropy predicted
    by the distance distribution, not at log M."""
    pts = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]) / np.sqrt(2)
    c = fc.make_constellation("custom", 2, points=pts)
    theta_t = np.array([[1.0, -1.0], [-1.0, 1.0]])
    model = fc.CorrelatedRayleigh(theta_t=theta_t, theta_r=np.eye(2))
    dd = fc.distance_dist_correlated(c, theta_t, np.eye(2))
    est = fc.avg_quantity("mi", 1000.0, model, c,
                          McConfig(channel_draws=4000, noise_draws_per_channel=50,
                                   seed=97))
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
        Estimate(mean=np.nan, std_error=0.0, n_samples=1)
    with pytest.raises(ValueError):
        fc.avg_quantity("nope", 1.0, fc.CanonicalRayleigh(1, 1), BPSK, McConfig())
    assert suggested_total_draws(1e-3) == 10_000
    assert suggested_total_draws(1e-6) == 10_000_000


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
    # snr = 1e8: the log-likelihoods are of order 1e8, so only exponentials
    # shifted to a reference hypothesis stay finite; deep fades on the later
    # channels keep some logits of order one
    snr = 1e8
    c = fc.make_constellation("qpsk", 1)
    h = _complex_normal(rng, (3, 2, 1)) * np.array([1.0, 1e-4, 3e-4])[:, None, None]
    received = np.sqrt(snr) * np.einsum("mt,crt->cmr", c.points, h)
    return received, _complex_normal(rng, (3, 40, 2)), snr


@pytest.mark.parametrize("name", ["fixed_h_binary", "qam16_two_rx", "spacetime_dim4",
                                  "high_snr"])
def test_kernel_stats_matches_brute_force(name):
    received, noise, snr = _kernel_case(name)
    mmse, lse, pe = kernel_stats(received, noise, snr)
    ref_mmse, ref_lse, ref_pe = _reference_stats(received, noise, snr)
    for got, ref in ((mmse, ref_mmse), (lse, ref_lse)):
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(pe, ref_pe)
    if name == "high_snr":
        assert np.max(lse) > 1e-3 and np.max(pe) > 0.0   # the fades are resolved


def test_bank_mi_matches_kernel_stats():
    """The power-allocation bank and the MC kernel share the logit step: on
    the bank's own draws, _bank_mi equals log M - mean(lse) of kernel_stats."""
    variance = 2.0
    sub = designs.SubchannelSpec(fc.make_constellation("qam16", 1),
                                 designs.RayleighFading(variance=variance))
    mc_cfg = McConfig(channel_draws=64, noise_draws_per_channel=12, seed=17)
    stream, snr, power = 1, 30.0, 0.7
    bank = designs._subchannel_bank(sub, mc_cfg, stream)
    # the bank's draws, in its order: fading, then noise
    rng = np.random.default_rng(np.random.SeedSequence(mc_cfg.seed).spawn(stream + 1)[-1])
    n_c = mc_cfg.channel_draws
    h = (rng.standard_normal(n_c) + 1j * rng.standard_normal(n_c)) * np.sqrt(variance / 2.0)
    noise = _complex_normal(rng, (n_c, mc_cfg.noise_draws_per_channel))
    received = np.sqrt(snr * power) * h[:, None, None] * sub.constellation.points[None]
    _, lse, _ = kernel_stats(received, noise[:, :, None], snr * power)
    half = n_c // 2
    for part, sel in ((bank, slice(None)), (bank.half(0), slice(0, half)),
                      (bank.half(1), slice(half, None))):
        expected = sub.constellation.log_m - np.mean(lse[sel])
        assert designs._bank_mi(snr, part, power) == pytest.approx(expected, rel=1e-12)


def test_bank_halves_are_views():
    sub = designs.SubchannelSpec(fc.make_constellation("qpsk", 1),
                                 designs.RayleighFading(variance=1.0))
    bank = designs._subchannel_bank(sub, McConfig(channel_draws=32,
                                                  noise_draws_per_channel=4), 0)
    for which in (0, 1):
        part = bank.half(which)
        assert np.shares_memory(part.base_g, bank.base_g)
        assert np.shares_memory(part.base_nsq, bank.base_nsq)


# ---------------------------------------------------------------------------
# draw layout: every consumer draws each seeded chunk in consecutive batches
# ---------------------------------------------------------------------------

def _per_batch(total, seed, chunks, cap, step):
    """Reference draw order: chunk by chunk, each in batches of at most `cap`."""
    parts = []
    for size, rng in zip(chunk_sizes(total, chunks), chunk_rngs(seed, chunks)):
        for start in range(0, size, cap):
            parts.append(step(rng, min(cap, size - start)))
    return parts


def _mean_and_se(samples):
    return float(np.mean(samples)), float(np.std(samples, ddof=1) / np.sqrt(samples.size))


def _assert_estimates_equal(est, per_sample, log_m):
    """`est` is exactly the {mmse, mi, pe} reduction of per-sample (mmse, lse, pe)."""
    mmse, lse, pe = (np.concatenate(s) for s in zip(*per_sample))
    lse_mean, lse_se = _mean_and_se(lse)
    assert (est["mmse"].mean, est["mmse"].std_error) == _mean_and_se(mmse)
    assert (est["mi"].mean, est["mi"].std_error) == (log_m - lse_mean, lse_se)
    assert (est["pe"].mean, est["pe"].std_error) == _mean_and_se(pe)


# The batch caps below are those of the consumers for these shapes; each
# chunk spans several batches, so drawing per chunk or reordering batches
# changes every result.

def test_avg_all_draws_chunks_in_batches():
    model = fc.CanonicalRayleigh(1, 2)
    n_noise, snr = 20_000, 3.0
    mc_cfg = McConfig(channel_draws=120, noise_draws_per_channel=n_noise, seed=41,
                      parallel_chunks=2)

    def step(rng, batch):      # 60 channels a chunk, batches of 50
        h = sample_channels(model, batch, rng)
        received = np.sqrt(snr) * np.einsum("mt,crt->cmr", BPSK.points, h)
        noise = _complex_normal(rng, (batch, n_noise, 2))
        return tuple(s.mean(axis=1) for s in kernel_stats(received, noise, snr))

    expected = _per_batch(120, 41, 2, 50, step)
    for threads in (1, 2):
        est = fc.avg_all(snr, model, BPSK, mc_cfg, threads=threads)
        _assert_estimates_equal(est, expected, BPSK.log_m)


def test_fixed_h_all_draws_chunks_in_batches():
    c = fc.make_constellation("qpsk", 1)
    h = np.array([[0.8 - 0.3j]])
    snr = 2.0
    mc_cfg = McConfig(channel_draws=12_000, noise_draws_per_channel=100, seed=43,
                      parallel_chunks=2)
    received = np.sqrt(snr) * (c.points @ h.T)[None]

    def step(rng, batch):      # 600 000 noise draws a chunk, batches of 500 000
        noise = _complex_normal(rng, (1, batch, 1))
        return tuple(s[0] for s in kernel_stats(received, noise, snr))

    expected = _per_batch(1_200_000, 43, 2, 500_000, step)
    _assert_estimates_equal(fc.fixed_h_all(snr, h, c, mc_cfg), expected, c.log_m)


def test_avg_bounds_draws_chunks_in_batches():
    c = fc.make_constellation("qam16", 2)
    model = fc.CorrelatedRayleigh(theta_t=[[1, 0.5], [0.5, 1]], theta_r=[[1, 0.8], [0.8, 1]])
    mc_cfg = McConfig(channel_draws=1000, noise_draws_per_channel=1, seed=47,
                      parallel_chunks=2)
    diffs, counts = pair_differences(c)
    for kind in ("mmse", "mi", "pe"):
        def step(rng, batch):  # 500 channels a chunk, batches of 416
            rec = sample_channels(model, batch, rng) @ diffs.T
            d2 = np.sum(rec.real ** 2 + rec.imag ** 2, axis=1)
            return _bound_sums(d2, counts.astype(float), 10.0, c.m, kind)

        lower, upper = (np.concatenate(s) for s in
                        zip(*_per_batch(1000, 47, 2, 416, step)))
        pair = fc.avg_bounds(kind, 10.0, model, c, mc_cfg)
        assert (pair.lower.mean, pair.lower.std_error) == _mean_and_se(lower), kind
        assert (pair.upper.mean, pair.upper.std_error) == _mean_and_se(upper), kind


def test_distance_squared_samples_draws_chunks_in_batches():
    model = fc.CorrelatedRayleigh(theta_t=[[1, 0.5], [0.5, 1]], theta_r=np.eye(3))
    diff = np.array([1.0, 0.5j])
    n = 250_001

    def step(rng, batch):      # 125 001 draws a chunk, batches of 100 000
        return np.sum(np.abs(sample_channels(model, batch, rng) @ diff) ** 2, axis=1)

    expected = np.concatenate(_per_batch(n, 53, 2, 100_000, step))
    got = distance_squared_samples(model, diff, n, seed=53, chunks=2)
    assert np.array_equal(got, expected)


def test_avg_all_spacetime_threads_bit_for_bit():
    c = fc.make_constellation("qpsk", 2)
    code = fc.SpaceTimeCode(codewords=np.stack([c.points, c.points[:, ::-1]], axis=2))
    mc_cfg = McConfig(channel_draws=300, noise_draws_per_channel=20, seed=59,
                      parallel_chunks=4)
    one = fc.avg_all_spacetime(4.0, code, 2, mc_cfg)
    two = fc.avg_all_spacetime(4.0, code, 2, mc_cfg, threads=2)
    for k in one:
        assert (one[k].mean, one[k].std_error) == (two[k].mean, two[k].std_error)
