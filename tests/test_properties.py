"""Property tests: grid level detection, the factorised grid kernel and its
level kernel, the factorised power-allocation bank, the one-symbol kernel, the
fixed-channel bounds and their erfc."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fadecap as fc
from fadecap import bounds, designs, mc
from fadecap.mc import kernel_stats
from fadecap.model import _complex_normal


@st.composite
def grid_levels(draw, min_size=1):
    """Two sorted level sets on a 1/8 lattice in [-4, 4] (distinct points)."""
    def levels():
        ticks = draw(st.lists(st.integers(-32, 32), min_size=min_size, max_size=6,
                              unique=True))
        return np.sort(np.array(ticks, dtype=float) / 8.0)
    return levels(), levels()


def _grid_points(re, im, seed):
    points = (re[:, None] + 1j * im[None, :]).ravel()
    return np.random.default_rng(seed).permutation(points)


def _custom(points):
    return fc.make_constellation("custom", 1, points=points)


@settings(max_examples=60, deadline=None)
@given(grid_levels(), st.integers(0, 2 ** 32 - 1))
def test_shuffled_grid_levels_are_detected(levels, seed):
    re, im = levels
    assume(re.size * im.size >= 2)
    found = _custom(_grid_points(re, im, seed)).grid_levels
    assert found is not None
    assert np.array_equal(found[0], re) and np.array_equal(found[1], im)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 2.0 * np.pi), st.floats(0.5, 2.0))
def test_psk_like_set_is_not_a_grid(phase, radius):
    points = radius * np.exp(1j * (phase + np.pi / 4.0 * np.arange(8)))
    assert _custom(points).grid_levels is None


@settings(max_examples=60, deadline=None)
@given(grid_levels(min_size=2), st.integers(0, 2 ** 32 - 1), st.data())
def test_perturbed_or_incomplete_grid_is_not_a_grid(levels, seed, data):
    points = _grid_points(*levels, seed)
    k = data.draw(st.integers(0, points.size - 1))
    moved = points.copy()
    moved[k] += data.draw(st.sampled_from([1e-9, -1e-9, 1e-9j, -1e-9j]))
    assert _custom(moved).grid_levels is None
    assert _custom(np.delete(points, k)).grid_levels is None


@settings(max_examples=25, deadline=None)
@given(grid_levels(), st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 15, 30, 45]))
def test_factorised_stats_match_joint_kernel(levels, seed, snr_db):
    """At a random h (one channel, n_r = 2, with the noise drawn as avg_all
    draws it), the factorised per-sample statistics equal kernel_stats on the
    joint points: lse within 1e-14 nats times max(1, snr ||h||^2 max|x|^2),
    mmse within 1e-11 of its scale ||h||^2 max|x|^2, pe exactly.  A level
    set of one value (bpsk's imaginary set) adds 0 to each.

    The lse tolerance scales with snr ||h||^2 max|x|^2, the size of the
    logits.  Both paths form ||r_i - r_k||^2 from differences; on these
    unnormalised grids (|x| up to 4 sqrt 2) their lse is within ~1e-14
    nats of a 40-digit reference at 20 dB."""
    re, im = levels
    points = _grid_points(re, im, seed)
    rng = np.random.default_rng(seed)
    h = _complex_normal(rng, (1, 2))
    noise = _complex_normal(rng, (1, 50, 2))
    snr = 10.0 ** (snr_db / 10.0)
    mmse, lse, pe = mc._grid_stats(*mc._rank_one(h, noise), (re, im), snr)
    received = np.sqrt(snr) * points[None, :, None] * h[:, None, :]
    ref_mmse, ref_lse, ref_pe = kernel_stats(received, noise, snr)
    scale = np.sum(np.abs(h) ** 2) * np.max(np.abs(points) ** 2)
    assert np.max(np.abs(lse - ref_lse)) <= 1e-14 * max(1.0, snr * scale)
    assert np.max(np.abs(mmse - ref_mmse)) <= 1e-11 * scale
    assert np.array_equal(pe, ref_pe)


@st.composite
def level_sets(draw):
    """2-16 sorted levels, scale * k / 8 on integer ticks k in [-32, 32]:
    equally spaced, or any distinct ticks, and whether they are equally
    spaced.  Scaling rounds the levels, so equal differences may differ by
    a few ulp, as on the built-in grids, while distinct ones stay at least
    scale / 8 apart."""
    q = draw(st.integers(2, 16))
    spaced = draw(st.booleans())
    if spaced:
        step = draw(st.integers(1, 64 // (q - 1)))
        start = draw(st.integers(-32, 32 - step * (q - 1)))
        ticks = start + step * np.arange(q)
    else:
        ticks = np.sort(draw(st.lists(st.integers(-32, 32), min_size=q, max_size=q,
                                      unique=True)))
    return draw(st.floats(0.1, 3.0)) * (np.asarray(ticks, dtype=float) / 8.0), spaced


@settings(max_examples=40, deadline=None)
@given(level_sets(), st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 15, 30, 45]))
def test_level_stats_match_kernel_stats(level_set, seed, snr_db):
    """The level kernel on distinct differences equals `kernel_stats` on the
    real points amp l with the same noise coordinate: lse within 1e-14 nats
    times max(1, amp^2 max l^2), the size of the logits, mmse within 1e-11
    of its scale amp^2 max l^2 / snr, pe exactly; equally spaced levels
    weigh 2Q - 1 distinct differences."""
    levels, spaced = level_set
    rng = np.random.default_rng(seed)
    snr = 10.0 ** (snr_db / 10.0)
    amp = np.sqrt(snr) * np.abs(_complex_normal(rng, (3,)))
    z = _complex_normal(rng, (3, 40)).real
    mmse, lse, pe = mc._level_stats(levels, amp, z, snr)
    ref_mmse, ref_lse, ref_pe = kernel_stats(amp[:, None, None] * levels[None, :, None],
                                             z[:, :, None], snr)
    scale = np.max(amp) ** 2 * np.max(levels ** 2)
    assert np.max(np.abs(lse - ref_lse)) <= 1e-14 * max(1.0, scale)
    assert np.max(np.abs(mmse - ref_mmse)) <= 1e-11 * scale / snr
    assert np.array_equal(pe, ref_pe)
    if spaced:
        assert len(mc._level_differences(levels)[0]) == 2 * levels.size - 1


@settings(max_examples=25, deadline=None)
@given(grid_levels(), st.integers(0, 2 ** 32 - 1), st.floats(0.05, 4.0),
       st.floats(0.0, 45.0))
def test_factorised_bank_matches_joint_kernel(levels, seed, power, snr_db):
    """The power-allocation bank of a shuffled grid, on the level kernel of
    its real and imaginary levels, gives the mutual information of
    kernel_stats on all M joint points over the bank's own draws, within
    1e-15 nats times max(1, snr p max|h|^2 max|x|^2): the joint kernel's
    rounding grows with that product (see
    test_factorised_stats_match_joint_kernel)."""
    re, im = levels
    assume(re.size * im.size >= 2)
    c = _custom(_grid_points(re, im, seed))
    sub = designs.SubchannelSpec(c, designs.Fading(variance=1.0))
    mc_cfg = mc.McConfig(channel_draws=8, noise_draws_per_channel=6, seed=seed,
                         parallel_chunks=2)
    bank = designs._subchannel_banks([sub], mc_cfg)[0]
    assert bank[0] is c
    # the bank's draws: chunk k's 4 channels from spawn key (k, 0), its
    # noise from (k, 1)
    h, noise = [], []
    for k in range(2):
        channel_rng, noise_rng = (
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k, s)))
            for s in range(2))
        h.append(_complex_normal(channel_rng, (4,)))
        noise.append(_complex_normal(noise_rng, (4, 6)))
    h, noise = np.concatenate(h), np.concatenate(noise)
    scale = 10.0 ** (snr_db / 10.0) * power
    _, lse, _ = kernel_stats(np.sqrt(scale) * h[:, None, None] * c.points[None],
                             noise[:, :, None], scale)
    got = designs._bank_mi(10.0 ** (snr_db / 10.0), bank, power).mean()
    x_max = np.max(np.abs(c.points) ** 2) * np.max(np.abs(h) ** 2)
    assert abs(got - (c.log_m - np.mean(lse))) <= 1e-15 * max(1.0, scale * x_max)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(1, 2), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0, 15, 30, 45]))
def test_sampled_stats_average_to_kernel_stats(m, n_t, n_r, seed, snr_db):
    """Forcing every sample's true symbol to each i in turn, the mean over i
    of the one-symbol kernel is `kernel_stats` on random Gaussian points,
    channels and noise: lse within 1e-14 of the logits' scale
    max(1, max||r|| (max||r|| + max||n||)), mmse within 1e-13 of
    max||r||^2 / snr, and the error counts exactly (kernel_stats scales
    them by 1/M, a sum over i divides by M)."""
    rng = np.random.default_rng(seed)
    points = _complex_normal(rng, (m, n_t))
    h = _complex_normal(rng, (2, n_r, n_t))
    noise = _complex_normal(rng, (2, 20, n_r))
    snr = 10.0 ** (snr_db / 10.0)
    received = np.sqrt(snr) * np.einsum("mt,crt->cmr", points, h)
    forced = [mc.sampled_stats(received, noise, np.full((2, 20), i), snr) for i in range(m)]
    mmse, lse, errors = (np.sum(s, axis=0) for s in zip(*forced))
    ref_mmse, ref_lse, ref_pe = kernel_stats(received, noise, snr)
    r_max = np.max(np.linalg.norm(received, axis=-1))
    n_max = np.max(np.linalg.norm(noise, axis=-1))
    assert np.max(np.abs(lse / m - ref_lse)) <= 1e-14 * max(1.0, r_max * (r_max + n_max))
    assert np.max(np.abs(mmse / m - ref_mmse)) <= 1e-13 * r_max ** 2 / snr
    assert np.array_equal(errors, np.rint(ref_pe * m))


@st.composite
def fixed_h_cases(draw):
    """A built-in constellation, a Gaussian H with 1-3 receive antennas and
    a receive-side unitary U (QR of a Gaussian matrix), from a drawn seed."""
    family, n_t = draw(st.sampled_from([("bpsk", 1), ("qpsk", 1), ("qam16", 1),
                                        ("qpsk", 2), ("bpsk", 3)]))
    n_r = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = _complex_normal(rng, (n_r, n_t))
    u = np.linalg.qr(_complex_normal(rng, (n_r, n_r)))[0]
    snr = 10.0 ** (draw(st.floats(-10.0, 30.0)) / 10.0)
    return fc.make_constellation(family, n_t), h, u, snr


@settings(max_examples=60, deadline=None)
@given(fixed_h_cases())
def test_fixed_h_bounds_ordered_and_unitarily_invariant(case):
    """lower <= upper for every kind (BoundPair raises otherwise), and the
    bounds depend on H only through ||H d||, so H -> UH leaves them equal
    within rel 1e-12.  The mi values are log M minus a pair sum of at most
    2(M-1), so their tolerance is taken relative to that scale; mmse and pe
    sums below the smallest normal float (high SNR) lose relative precision,
    so that float is their absolute floor."""
    c, h, u, snr = case
    for kind in ("mmse", "mi", "pe"):
        ref = fc.fixed_h_bounds(kind, snr, h, c)
        assert ref.lower <= ref.upper
        got = fc.fixed_h_bounds(kind, snr, u @ h, c)
        atol = 1e-12 * (c.log_m + 2.0 * (c.m - 1)) if kind == "mi" else np.finfo(float).tiny
        assert np.allclose([got.lower, got.upper], [ref.lower, ref.upper],
                           rtol=1e-12, atol=atol), kind


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 30.0), st.floats(1e-12, 30.0) | st.just(np.inf))
def test_erfc_is_non_increasing_in_the_unit_interval(x, gap):
    """On x >= 0, `bounds._erfc` lies in [0, 1], equals 1 at 0 and does not
    increase.  Like SciPy's, Cephes' rational forms wiggle by an ulp between
    neighbouring floats near 1, so the two points lie at least 1e-12 apart,
    where erfc falls by over 1e-12 relative (more than its rounding error)."""
    got = bounds._erfc(np.array([0.0, x, x + gap]))
    assert got[0] == 1.0
    assert 0.0 <= got[2] <= got[1] <= 1.0
