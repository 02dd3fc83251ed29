"""Fixed-channel bound formulas and their channel-averaged versions."""

import itertools
from math import comb

import mpmath
import numpy as np
import pytest
from scipy.special import erfc

import fadecap as fc
from fadecap import bounds
from fadecap.asymptotics import _law
from fadecap.mc import McConfig, chunk_rngs, chunk_sizes
from fadecap.model import (
    _SCALAR_FAMILIES,
    MAX_PAIR_ENTRIES,
    MAX_POINTS,
    _distinct_rows,
    _product_factor,
    _product_pair_differences,
    _scalar_alphabet,
    ordered_pair_differences,
    pair_differences,
    sample_channels,
)

H1 = np.array([[1.0 + 0j]])
# asymmetric, with some repeated differences (1 - 0 = 2 - 1, ...)
CUSTOM_ASYM = fc.make_constellation("custom", 1,
                                    points=[0.0, 1.0, 2.0, 2.0 + 1j, 3.0 + 1j, -0.5j])


def test_mmse_bounds_binary_values():
    c = fc.make_constellation("bpsk", 1)
    pair = fc.fixed_h_bounds("mmse", 1.0, H1, c)
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
        mm = fc.fixed_h_bounds("mmse", snr, h, c)
        pe = fc.fixed_h_bounds("pe", snr, h, c)
        assert mm.upper / mm.lower == pytest.approx(4 * (c.m - 1), rel=1e-12)
        assert pe.upper / pe.lower == pytest.approx(c.m - 1, rel=1e-12)


def test_mi_lower_bound_value():
    c = fc.make_constellation("bpsk", 1)
    pair = fc.fixed_h_bounds("mi", 4.0, H1, c)
    assert pair.lower == pytest.approx(np.log(2) - 2 * np.exp(-4.0), rel=1e-12)


def test_mi_bounds_limits_and_sign():
    c = fc.make_constellation("bpsk", 1)
    hi = fc.fixed_h_bounds("mi", 1e4, H1, c)
    assert hi.lower == pytest.approx(np.log(2), abs=1e-8)
    assert hi.upper == pytest.approx(np.log(2), abs=1e-8)
    lo = fc.fixed_h_bounds("mi", 1e-3, H1, c)
    assert lo.lower < 0.0          # reported raw, not clamped
    assert lo.upper <= np.log(2)


def test_mmse_bounds_vanish_at_high_snr():
    c = fc.make_constellation("qpsk", 1)
    pair = fc.fixed_h_bounds("mmse", 1e4, H1, c)
    assert pair.upper < 1e-8


def test_pe_bounds_binary_coincide_and_low_snr():
    c2 = fc.make_constellation("bpsk", 1)
    pair = fc.fixed_h_bounds("pe", 1.0, H1, c2)
    assert pair.lower == pytest.approx(pair.upper, rel=1e-12)
    c4 = fc.make_constellation("qpsk", 1)
    vac = fc.fixed_h_bounds("pe", 1e-12, H1, c4)
    assert vac.upper == pytest.approx((4 - 1) / 2.0, rel=1e-6)   # vacuous, raw


def test_bounds_monotone_in_snr():
    c = fc.make_constellation("qam16", 1)
    rng = np.random.default_rng(1)
    h = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
    grid = np.logspace(-1, 3, 20)
    mmse_ub = [fc.fixed_h_bounds("mmse", s, h, c).upper for s in grid]
    mi_lb = [fc.fixed_h_bounds("mi", s, h, c).lower for s in grid]
    pe_ub = [fc.fixed_h_bounds("pe", s, h, c).upper for s in grid]
    # non-strict at the top of the grid where the bounds saturate exactly
    assert np.all(np.diff(mmse_ub) <= 0) and mmse_ub[0] > mmse_ub[-1]
    assert np.all(np.diff(mi_lb) >= 0) and mi_lb[0] < mi_lb[-1]
    assert np.all(np.diff(pe_ub) <= 0) and pe_ub[0] > pe_ub[-1]


def test_snr_must_be_positive():
    c = fc.make_constellation("bpsk", 1)
    for kind in ("mmse", "mi", "pe"):
        with pytest.raises(ValueError):
            fc.fixed_h_bounds(kind, 0.0, H1, c)


def test_fixed_h_bounds_checks_kind_and_snr():
    """An unknown kind is an error, not the mi bounds; a negative snr is
    rejected as zero is."""
    c = fc.make_constellation("bpsk", 1)
    with pytest.raises(ValueError, match="unknown bound kind"):
        fc.fixed_h_bounds("nope", 1.0, H1, c)
    with pytest.raises(ValueError, match="snr must be positive"):
        fc.fixed_h_bounds("mi", -1.0, H1, c)


def test_erfc_within_4_ulp_of_scipy():
    """`bounds._erfc` runs Cephes' erfc, as scipy.special.erfc does, but with
    NumPy's exp: within 4 ulp of SciPy wherever SciPy's value is a normal
    float, and exactly 0 exactly where SciPy's is."""
    x = np.linspace(0.0, 27.5, 1_000_001)
    got, ref = bounds._erfc(x), erfc(x)
    normal = ref >= np.finfo(float).tiny
    assert np.all(np.abs(got - ref)[normal] <= 4.0 * np.spacing(ref[normal]))
    assert np.array_equal(got == 0.0, ref == 0.0)


def test_erfc_branch_edges_and_ends():
    """Exact values on both sides of each branch edge (1, 8 and
    sqrt(MAXLOG), past which erfc underflows to 0), at 0 and inf, and an
    empty array; no value raises a floating-point warning."""
    edge = np.sqrt(bounds._MAXLOG)
    assert edge * edge <= bounds._MAXLOG < np.nextafter(edge, np.inf) ** 2
    x = np.array([0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(8.0, 0.0), 8.0,
                  edge, np.nextafter(edge, np.inf), np.inf])
    want = [1.0, 0.15729920705028522, 0.15729920705028516, 1.1224297172983089e-29,
            1.1224297172982928e-29, 1.1771759939871e-310, 0.0, 0.0]
    assert bounds._erfc(x).tolist() == want
    assert bounds._erfc(x[::-1].reshape(2, 4)).tolist() == [want[::-1][:4], want[::-1][4:]]
    assert bounds._erfc(np.array([])).shape == (0,)


def test_erfc_against_mpmath():
    """Within 4e-15 (relative) of mpmath's erfc across the three branches."""
    x = [0.0, 0.01, 0.3, 0.7, 0.99, 1.0, 1.5, 2.5, 4.0, 7.9, 8.0, 12.0, 20.0, 26.0]
    got = bounds._erfc(np.array(x))
    with mpmath.workdps(40):
        ref = [float(mpmath.erfc(mpmath.mpf(v))) for v in x]
    assert got == pytest.approx(ref, rel=4e-15, abs=0.0)


def test_erfc_blocks_do_not_change_values(monkeypatch):
    """The block size bounds the temporaries only: an array spanning many
    blocks, one of uneven length included, gets the values of one pass."""
    x = np.linspace(0.0, 27.5, 10_007).reshape(1, -1)
    whole = bounds._erfc(x)
    monkeypatch.setattr(bounds, "_ERFC_BLOCK", 1000)
    assert np.array_equal(bounds._erfc(x), whole)


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


def test_pair_differences_of_a_code_group_its_flattened_codewords():
    """A code's table is the one a constellation's is, over codewords
    flattened to n_t t entries: bit for bit, read-only and cached."""
    rng = np.random.default_rng(26)
    cws = rng.standard_normal((12, 2, 3)) + 1j * rng.standard_normal((12, 2, 3))
    cws[1] = cws[0] + (cws[3] - cws[2])              # a repeated difference
    code = fc.SpaceTimeCode(codewords=cws)
    diffs, counts = pair_differences(code)
    want_diffs, want_counts = _distinct_rows(ordered_pair_differences(cws.reshape(12, -1)))
    assert np.array_equal(diffs, want_diffs) and np.array_equal(counts, want_counts)
    assert diffs.shape[1] == 6 and counts.max() == 2 and counts.sum() == 12 * 11
    assert not diffs.flags.writeable and not counts.flags.writeable
    again = pair_differences(code)
    assert again[0] is diffs and again[1] is counts


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


def _ordered_table(c):
    return _distinct_rows(ordered_pair_differences(c))


def _bit_identical(got, want):
    (diffs, counts), (want_diffs, want_counts) = got, want
    return (diffs.shape == want_diffs.shape and diffs.flags.c_contiguous
            and np.array_equal(diffs.view(np.uint64), want_diffs.view(np.uint64))
            and counts.dtype == want_counts.dtype and np.array_equal(counts, want_counts))


# every built-in set on n_t >= 2 antennas whose ordered table fits the cap,
# but qam64 on two (a 1.7 GB build; see the next test)
FITTING_PRODUCTS = [
    (family, n_t) for family in _SCALAR_FAMILIES for n_t in range(2, 13)
    if (m := len(_scalar_alphabet(family)) ** n_t) <= MAX_POINTS
    and m * (m - 1) * n_t <= MAX_PAIR_ENTRIES and (family, n_t) != ("qam64", 2)]


@pytest.mark.parametrize("family,n_t", FITTING_PRODUCTS)
def test_product_pair_table_is_the_ordered_one(family, n_t):
    """A built-in set takes the product route, and its table is the
    ordered route's bit for bit: rows, their order, layout and counts."""
    c = fc.make_constellation(family, n_t)
    assert _product_factor(c.points) is not None
    assert _bit_identical(pair_differences(c), _ordered_table(c))


def test_custom_product_set_takes_the_product_route():
    """The route is read off the points, not the family: a hand-built
    product of an irregular scalar set with repeated differences matches."""
    s = np.array([0.0, 1.0, 2.0, 2.0 + 1j, 3.0 + 1j, -0.5j]) / 3.0
    c = fc.make_constellation("custom", 2, points=list(itertools.product(s, repeat=2)))
    assert np.array_equal(_product_factor(c.points), s)
    assert _bit_identical(pair_differences(c), _ordered_table(c))


def _spy_ordered(monkeypatch):
    calls = []
    monkeypatch.setattr("fadecap.model.ordered_pair_differences",
                        lambda c: calls.append(1) or ordered_pair_differences(c))
    return calls


def test_non_product_set_labelled_qam16_takes_the_ordered_route(monkeypatch):
    """qam16 points over two antennas with the antennas swapped (the first
    varies fastest), or with one point moved by one ulp, are no product in
    `itertools.product` order."""
    pts = fc.make_constellation("qam16", 2).points
    moved = pts.copy()
    moved[77, 0] = np.nextafter(moved[77, 0].real, 9.0) + 1j * moved[77, 0].imag
    for points in (pts[:, ::-1], moved):
        c = fc.Constellation(points=points, family="qam16")
        calls = _spy_ordered(monkeypatch)
        assert _product_factor(c.points) is None
        table = pair_differences(c)
        assert calls == [1]
        assert _bit_identical(table, _ordered_table(c))


def test_product_route_falls_back_when_a_difference_keys_to_zero(monkeypatch):
    """2e-6 is 2^-42 of the largest part, 1e7, so it keys to zero with the
    zero difference; the product route then gives way to the ordered one."""
    s = np.array([0.0, 2e-6, 1e7])
    c = fc.make_constellation("custom", 2, points=list(itertools.product(s, repeat=2)))
    assert _product_pair_differences(s.astype(complex), 2) is None
    calls = _spy_ordered(monkeypatch)
    table = pair_differences(c)
    assert calls == [1]
    assert _bit_identical(table, _ordered_table(c))


def test_qam64_on_two_antennas_builds_without_the_ordered_table(monkeypatch):
    """qam64 n_t = 2 (M = 4096) has D = 15^2 x 15^2 - 1 distinct differences."""
    def refuse(c):
        raise AssertionError("the ordered M(M-1) table was built")

    monkeypatch.setattr("fadecap.model.ordered_pair_differences", refuse)
    diffs, counts = pair_differences(fc.make_constellation("qam64", 2))
    assert diffs.shape == (50_624, 2) and counts.sum() == 4096 * 4095
    assert not diffs.flags.writeable and not counts.flags.writeable


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
    for kind in ("mmse", "mi", "pe"):
        for snr in (1.0, 100.0):
            pair = fc.fixed_h_bounds(kind, snr, h, c)
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
    ("qam64", 1, fc.CanonicalRayleigh(1, 2)),
    ("psk8", 1, fc.CanonicalRayleigh(1, 2)),
])
def test_avg_bounds_match_ordered_pair_reference(family, n_t, model):
    """The drawn mmse and mi bounds are the per-channel ordered-pair sums
    averaged over avg_all's channels; pe takes no draws (below).  A
    single-antenna set sums over its distinct |d|^2 scaled by ||h||^2, the
    reference over every ordered pair's ||h d||^2."""
    c = (fc.make_constellation("custom", 1, points=np.exp(0.25j * np.pi * np.arange(8)))
         if family == "psk8" else fc.make_constellation(family, n_t))
    cfg = McConfig(channel_draws=24, noise_draws_per_channel=1, seed=17, parallel_chunks=4)
    for kind in ("mmse", "mi"):
        for snr in (1.0, 100.0):
            pair = fc.avg_bounds(kind, snr, model, c, cfg)
            lo, up, lo_se, up_se = _ordered_pair_avg_bounds(kind, snr, model, c, cfg)
            got = (pair.lower.mean, pair.upper.mean,
                   pair.lower.std_error, pair.upper.std_error)
            assert got == pytest.approx((lo, up, lo_se, up_se), rel=1e-12), (kind, snr)


# ---------------------------------------------------------------------------
# exact averaged pe bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_avg_pe_bounds_match_the_closed_mrc_form(n_r):
    """bpsk under 1 x n_r Rayleigh fading is maximal-ratio combining:
    E Q(sqrt(2 snr g)), g ~ Gamma(n_r, 1), has a closed form, written with
    1 - mu = 1 / ((1 + snr)(1 + mu)) so it does not cancel at high SNR."""
    c = fc.make_constellation("bpsk", 1)
    model = fc.CanonicalRayleigh(1, n_r)
    for snr in fc.SnrGrid.from_db(-30, 80, 5):
        mu = np.sqrt(snr / (1.0 + snr))
        closed = (0.5 / ((1.0 + snr) * (1.0 + mu))) ** n_r * sum(
            comb(n_r - 1 + k, k) * (0.5 * (1.0 + mu)) ** k for k in range(n_r))
        pair = fc.avg_bounds("pe", snr, model, c, McConfig())
        assert pair.lower.mean == pair.upper.mean == pytest.approx(closed, rel=1e-12, abs=0)
        assert pair.lower.std_error == pair.upper.std_error == 0.0


@pytest.mark.parametrize("family,n_t,model", [
    ("qam16", 1, fc.Ricean(2.0, [1.0], [1.0, 1j])),
    ("qpsk", 2, fc.CorrelatedRayleigh(theta_t=[[1, 1], [1, 1]], theta_r=[[1, 0.5], [0.5, 1]])),
], ids=["ricean", "singular_theta_t"])
def test_avg_pe_upper_approaches_the_expansion(family, n_t, model):
    """At 60 dB the union bound less its pairs that Theta_T nulls (each
    Q(0) = 1/2) is the leading expansion term pe.upper / snr^d."""
    c = fc.make_constellation(family, n_t)
    dd = fc.distance_dist(model, c)
    eb = fc.epsilon_bounds(dd, c.m)
    snr = 1e6
    upper = fc.avg_bounds("pe", snr, model, c, McConfig()).upper.mean
    assert snr ** eb.d * (upper - 0.5 * dd.n_excluded / c.m) == pytest.approx(
        eb.pe.upper, rel=1e-3)


@pytest.mark.parametrize("family,n_t,model", [
    ("qpsk", 2, fc.CanonicalRayleigh(2, 2)),
    ("qpsk", 2, fc.CorrelatedRayleigh(theta_t=[[1, 0.5], [0.5, 1]],
                                      theta_r=[[1, 0.8], [0.8, 1]])),
    ("qam16", 1, fc.Ricean(2.0, [1.0], [1.0, 1j])),
], ids=["canonical", "correlated", "ricean"])
def test_avg_pe_bounds_match_monte_carlo(family, n_t, model):
    """The exact bounds lie within 3 sigma of the ordered-pair average over
    20 000 channel draws."""
    c = fc.make_constellation(family, n_t)
    cfg = McConfig(channel_draws=20_000, noise_draws_per_channel=1, seed=19, parallel_chunks=8)
    for snr in fc.SnrGrid.from_db(0, 20, 10):
        pair = fc.avg_bounds("pe", snr, model, c, cfg)
        lo, up, lo_se, up_se = _ordered_pair_avg_bounds("pe", snr, model, c, cfg)
        assert abs(pair.lower.mean - lo) <= 3 * lo_se, float(snr)
        assert abs(pair.upper.mean - up) <= 3 * up_se, float(snr)


def test_avg_pe_bounds_draw_no_channel(monkeypatch):
    drawn = []
    monkeypatch.setattr(bounds, "sample_channels", lambda *args: drawn.append(args))
    fc.avg_bounds("pe", 10.0, fc.CanonicalRayleigh(2, 2), fc.make_constellation("qpsk", 2),
                  McConfig(channel_draws=100))
    assert drawn == []


def _craig_oracle(snr, model, c):
    """`bounds._craig_pe_sum` the long way: Psi of every one of the D law
    rows, node by node, summed over the nodes in node order."""
    lam, m2, terms, counts = _law(model, c)
    x, w = bounds._craig_nodes()
    s = snr / (4.0 * np.sin(0.25 * np.pi * (x + 1.0)) ** 2)
    psi = 0
    for wk, sk in zip(w, s):
        v = sk * np.maximum(lam, 0.0)
        psi = psi + wk * np.exp(-np.sum(terms * np.log1p(v) + v * m2 / (1.0 + v), axis=1))
    return 0.25 * float(psi @ counts)


@pytest.mark.parametrize("budget", [1, 700, bounds._CRAIG_BLOCK])
@pytest.mark.parametrize("family,n_t,model", [
    ("qpsk", 2, fc.CanonicalRayleigh(2, 2)),
    ("qam16", 2, fc.CorrelatedRayleigh(theta_t=[[1, 0.5], [0.5, 1]],
                                       theta_r=[[1, 0.8], [0.8, 1]])),
    ("qpsk", 2, fc.CorrelatedRayleigh(theta_t=[[1, 1], [1, 1]], theta_r=[[1, 0.5], [0.5, 1]])),
    ("qam16", 1, fc.Ricean(2.0, [1.0], [1.0, 1j])),
    ("bpsk", 1, fc.CanonicalRayleigh(1, 2)),
], ids=["canonical", "correlated", "singular_theta_t", "ricean", "one_row"])
def test_craig_sum_on_distinct_law_rows_is_the_per_row_sum(monkeypatch, budget, family,
                                                           n_t, model):
    """Psi once per distinct law row, all nodes in one pass on blocks of
    any size (one row a block at budget 1; bpsk's law has one row), gives
    the per-row, per-node sum bit for bit."""
    monkeypatch.setattr(bounds, "_CRAIG_BLOCK", budget)
    c = fc.make_constellation(family, n_t)
    lam, m2, _, _ = _law(model, c)
    rows, group = bounds._distinct_law_rows(lam, m2)
    assert rows.size < lam.shape[0]
    assert np.array_equal(np.hstack([lam, m2])[rows][group], np.hstack([lam, m2]))
    for snr in 10.0 ** (np.array([0.0, 10.0, 20.0, 40.0]) / 10.0):
        assert bounds._craig_pe_sum(snr, model, c) == _craig_oracle(snr, model, c)


def test_avg_pe_bounds_build_the_craig_nodes_once(monkeypatch):
    """Two SNR points build the Gauss-Legendre nodes once, read-only, and
    the bounds equal those on freshly built nodes bit for bit."""
    built = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: built.append(n) or leggauss(n))
    model, c = fc.CanonicalRayleigh(2, 2), fc.make_constellation("qpsk", 2)
    bounds._craig_nodes.cache_clear()
    pairs = [fc.avg_bounds("pe", snr, model, c, McConfig()) for snr in (1.0, 10.0)]
    assert built == [bounds.CRAIG_NODES]
    assert not any(a.flags.writeable for a in bounds._craig_nodes())
    bounds._craig_nodes.cache_clear()
    assert fc.avg_bounds("pe", 10.0, model, c, McConfig()) == pairs[1]
