"""Fixed-channel bound formulas and their channel-averaged versions."""

import numpy as np
import pytest
from scipy.special import erfc

import fadecap as fc
from fadecap.mc import McConfig, chunk_rngs, chunk_sizes
from fadecap.model import ordered_pair_differences, pair_differences, sample_channels

H1 = np.array([[1.0 + 0j]])
# asymmetric, with some repeated differences (1 - 0 = 2 - 1, ...)
CUSTOM_ASYM = fc.make_constellation("custom", 1,
                                    points=[0.0, 1.0, 2.0, 2.0 + 1j, 3.0 + 1j, -0.5j])


def test_mmse_bounds_binary_values():
    c = fc.make_constellation("bpsk", 1)
    pair = fc.mmse_bounds_fixed_h(1.0, H1, c)
    assert pair.lower == pytest.approx(0.5 * erfc(1.0), rel=1e-12)
    assert pair.upper == pytest.approx(2.0 * erfc(1.0), rel=1e-12)
    assert pair.lower == pytest.approx(0.0786496, rel=1e-5)


@pytest.mark.parametrize("c", [
    fc.make_constellation("bpsk", 1), fc.make_constellation("qpsk", 1),
    fc.make_constellation("qpsk", 2), fc.make_constellation("qam16", 1),
    fc.make_constellation("qam64", 1), CUSTOM_ASYM,
], ids=["bpsk-1", "qpsk-1", "qpsk-2", "qam16-1", "qam64-1", "custom_asym"])
def test_exact_bound_ratios(c):
    rng = np.random.default_rng(0)
    h = rng.standard_normal((2, c.n_t)) + 1j * rng.standard_normal((2, c.n_t))
    for snr in (0.1, 1.0, 10.0):
        mm = fc.mmse_bounds_fixed_h(snr, h, c)
        pe = fc.pe_bounds_fixed_h(snr, h, c)
        assert mm.upper / mm.lower == pytest.approx(4 * (c.m - 1), rel=1e-12)
        assert pe.upper / pe.lower == pytest.approx(c.m - 1, rel=1e-12)


def test_mi_lower_bound_value():
    c = fc.make_constellation("bpsk", 1)
    pair = fc.mi_bounds_fixed_h(4.0, H1, c)
    assert pair.lower == pytest.approx(np.log(2) - 2 * np.exp(-4.0), rel=1e-12)


def test_mi_bounds_limits_and_sign():
    c = fc.make_constellation("bpsk", 1)
    hi = fc.mi_bounds_fixed_h(1e4, H1, c)
    assert hi.lower == pytest.approx(np.log(2), abs=1e-8)
    assert hi.upper == pytest.approx(np.log(2), abs=1e-8)
    lo = fc.mi_bounds_fixed_h(1e-3, H1, c)
    assert lo.lower < 0.0          # reported raw, not clamped
    assert lo.upper <= np.log(2)


def test_mmse_bounds_vanish_at_high_snr():
    c = fc.make_constellation("qpsk", 1)
    pair = fc.mmse_bounds_fixed_h(1e4, H1, c)
    assert pair.upper < 1e-8


def test_pe_bounds_binary_coincide_and_low_snr():
    c2 = fc.make_constellation("bpsk", 1)
    pair = fc.pe_bounds_fixed_h(1.0, H1, c2)
    assert pair.lower == pytest.approx(pair.upper, rel=1e-12)
    c4 = fc.make_constellation("qpsk", 1)
    vac = fc.pe_bounds_fixed_h(1e-12, H1, c4)
    assert vac.upper == pytest.approx((4 - 1) / 2.0, rel=1e-6)   # vacuous, raw


def test_bounds_monotone_in_snr():
    c = fc.make_constellation("qam16", 1)
    rng = np.random.default_rng(1)
    h = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
    grid = np.logspace(-1, 3, 20)
    mmse_ub = [fc.mmse_bounds_fixed_h(s, h, c).upper for s in grid]
    mi_lb = [fc.mi_bounds_fixed_h(s, h, c).lower for s in grid]
    pe_ub = [fc.pe_bounds_fixed_h(s, h, c).upper for s in grid]
    # non-strict at the top of the grid where the bounds saturate exactly
    assert np.all(np.diff(mmse_ub) <= 0) and mmse_ub[0] > mmse_ub[-1]
    assert np.all(np.diff(mi_lb) >= 0) and mi_lb[0] < mi_lb[-1]
    assert np.all(np.diff(pe_ub) <= 0) and pe_ub[0] > pe_ub[-1]


def test_snr_must_be_positive():
    c = fc.make_constellation("bpsk", 1)
    for fn in (fc.mmse_bounds_fixed_h, fc.mi_bounds_fixed_h, fc.pe_bounds_fixed_h):
        with pytest.raises(ValueError):
            fn(0.0, H1, c)


def test_avg_bounds_ratio_exact_with_shared_draws():
    c = fc.make_constellation("qpsk", 1)
    model = fc.CanonicalRayleigh(1, 1)
    cfg = McConfig(channel_draws=2000, noise_draws_per_channel=1, seed=9)
    mm = fc.avg_bounds("mmse", 5.0, model, c, cfg)
    assert mm.upper.mean / mm.lower.mean == pytest.approx(4 * (c.m - 1), rel=1e-12)
    pe = fc.avg_bounds("pe", 5.0, model, c, cfg)
    assert pe.upper.mean / pe.lower.mean == pytest.approx(c.m - 1, rel=1e-12)


def test_avg_bounds_sandwich_against_oracle():
    c = fc.make_constellation("bpsk", 1)
    model = fc.CanonicalRayleigh(1, 1)
    cfg = McConfig(channel_draws=20_000, noise_draws_per_channel=40, seed=12)
    snr = 10.0
    est = fc.avg_all(snr, model, c, cfg)
    pair = fc.avg_bounds("mi", snr, model, c, cfg)
    slack = 3 * np.hypot(est["mi"].std_error, pair.lower.std_error)
    assert est["mi"].mean >= pair.lower.mean - slack
    slack = 3 * np.hypot(est["mi"].std_error, pair.upper.std_error)
    assert est["mi"].mean <= pair.upper.mean + slack


def test_avg_bounds_sandwich_correlated_channel():
    c = fc.make_constellation("bpsk", 2)
    model = fc.CorrelatedRayleigh(theta_t=[[1, 0.5], [0.5, 1]],
                                  theta_r=[[1, 0.8], [0.8, 1]])
    cfg = McConfig(channel_draws=15_000, noise_draws_per_channel=40, seed=14)
    snr = 10.0
    est = fc.avg_all(snr, model, c, cfg)
    for kind in ("mi", "mmse", "pe"):
        pair = fc.avg_bounds(kind, snr, model, c, cfg)
        lo = pair.lower.mean - 3 * np.hypot(est[kind].std_error, pair.lower.std_error)
        hi = pair.upper.mean + 3 * np.hypot(est[kind].std_error, pair.upper.std_error)
        assert lo <= est[kind].mean <= hi, kind


def test_avg_pe_upper_matches_leading_term():
    # binary Rayleigh: snr * averaged union bound -> 0.25
    c = fc.make_constellation("bpsk", 1)
    model = fc.CanonicalRayleigh(1, 1)
    cfg = McConfig(channel_draws=200_000, noise_draws_per_channel=1, seed=4)
    snr = 1000.0
    pair = fc.avg_bounds("pe", snr, model, c, cfg)
    assert snr * pair.upper.mean == pytest.approx(
        0.25, abs=3 * snr * pair.upper.std_error + 0.25 * 0.01)


def test_avg_bounds_unknown_kind():
    c = fc.make_constellation("bpsk", 1)
    with pytest.raises(ValueError):
        fc.avg_bounds("nope", 1.0, fc.CanonicalRayleigh(1, 1), c, McConfig())


@pytest.mark.parametrize("family,n_t,distinct", [("qam16", 1, 48), ("qam64", 1, 224),
                                                 ("qpsk", 3, 728), ("qam16", 2, 2400)])
def test_pair_differences_counts(family, n_t, distinct):
    c = fc.make_constellation(family, n_t)
    diffs, counts = pair_differences(c)
    assert diffs.shape == (distinct, n_t)
    assert counts.sum() == c.m * (c.m - 1)
    assert pair_differences(c)[0] is diffs          # cached on the constellation


def test_pair_differences_asymmetric_has_no_merges():
    pts = np.array([[1.0, 0.2j], [0.3 - 0.1j, -0.7], [-0.4j, 0.5 + 0.5j],
                    [-0.9 + 0.2j, 0.1]])
    c = fc.make_constellation("custom", 2, points=pts)
    diffs, counts = pair_differences(c)
    assert np.all(counts == 1)
    assert diffs.shape == (12, 2)
    assert np.allclose(np.sort_complex(diffs[:, 0]),
                       np.sort_complex(ordered_pair_differences(c)[:, 0]), rtol=0, atol=0)


MERGED_SETS = pytest.mark.parametrize("c", [
    fc.make_constellation("qam16", 2), fc.make_constellation("qpsk", 3), CUSTOM_ASYM,
], ids=["qam16_nt2", "qpsk_nt3", "custom_asym"])


@MERGED_SETS
def test_pair_differences_match_unique_reference(c):
    ordered = ordered_pair_differences(c)
    parts = ordered.view(float)
    keys = np.rint(parts * (2.0 ** 40 / np.max(np.abs(parts)))).astype(np.int64)
    _, first, counts = np.unique(keys, axis=0, return_index=True, return_counts=True)
    diffs, got_counts = pair_differences(c)
    assert np.array_equal(diffs, ordered[first])
    assert np.array_equal(got_counts, counts)


def _ordered_pair_sums(kind, d2, snr, m):
    """Reference (lower, upper) bound from ordered-pair distances `d2` along
    the last axis."""
    q = 0.5 * erfc(np.sqrt(d2 * snr / 4.0))
    if kind == "mmse":
        core = np.sum(d2 * q, axis=-1)
        return core / (4.0 * m * (m - 1.0)), core / m
    if kind == "pe":
        core = np.sum(q, axis=-1)
        return core / (m * (m - 1.0)), core / m
    return (np.log(m) - np.sum(2.0 * np.exp(-d2 * snr / 4.0), axis=-1) / m,
            np.log(m) - np.sum(0.5 * q, axis=-1) / (m * (m - 1.0)))


@MERGED_SETS
def test_fixed_h_bounds_match_ordered_pair_reference(c):
    rng = np.random.default_rng(5)
    h = rng.standard_normal((2, c.n_t)) + 1j * rng.standard_normal((2, c.n_t))
    d2 = np.sum(np.abs(ordered_pair_differences(c) @ h.T) ** 2, axis=1)
    for kind, fn in (("mmse", fc.mmse_bounds_fixed_h), ("mi", fc.mi_bounds_fixed_h),
                     ("pe", fc.pe_bounds_fixed_h)):
        for snr in (1.0, 100.0):
            pair = fn(snr, h, c)
            assert (pair.lower, pair.upper) == pytest.approx(
                _ordered_pair_sums(kind, d2, snr, c.m), rel=1e-12), (kind, snr)


def _ordered_pair_avg_bounds(kind, snr, model, c, cfg):
    """Reference: every ordered pair of every channel draw, each chunk's
    channels drawn whole from its channel stream."""
    diffs = ordered_pair_differences(c)
    lowers, uppers = [], []
    for size, (channel_rng, _) in zip(chunk_sizes(cfg.channel_draws, cfg.parallel_chunks),
                                      chunk_rngs(cfg.seed, cfg.parallel_chunks)):
        h = sample_channels(model, size, channel_rng)
        rec = np.einsum("pt,crt->cpr", diffs, h)
        lower, upper = _ordered_pair_sums(kind, np.sum(np.abs(rec) ** 2, axis=2), snr, c.m)
        lowers.append(lower)
        uppers.append(upper)
    lo, up = np.concatenate(lowers), np.concatenate(uppers)
    return (lo.mean(), up.mean(), np.std(lo, ddof=1) / np.sqrt(lo.size),
            np.std(up, ddof=1) / np.sqrt(up.size))


@pytest.mark.parametrize("family,n_t,model", [
    ("qam16", 2, fc.CorrelatedRayleigh(theta_t=[[1, 0.5], [0.5, 1]],
                                       theta_r=[[1, 0.8], [0.8, 1]])),
    ("qpsk", 3, fc.CanonicalRayleigh(3, 2)),
    ("qam16", 1, fc.Ricean(2.0, [1.0], [1.0, 1j])),
])
def test_avg_bounds_match_ordered_pair_reference(family, n_t, model):
    c = fc.make_constellation(family, n_t)
    cfg = McConfig(channel_draws=24, noise_draws_per_channel=1, seed=17, parallel_chunks=4)
    for kind in ("mmse", "mi", "pe"):
        for snr in (1.0, 100.0):
            pair = fc.avg_bounds(kind, snr, model, c, cfg)
            lo, up, lo_se, up_se = _ordered_pair_avg_bounds(kind, snr, model, c, cfg)
            got = (pair.lower.mean, pair.upper.mean,
                   pair.lower.std_error, pair.upper.std_error)
            assert got == pytest.approx((lo, up, lo_se, up_se), rel=1e-12), (kind, snr)
