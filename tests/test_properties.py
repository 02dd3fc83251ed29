"""Property tests: grid level detection, the factorised grid kernel and the
fixed-channel bounds."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fadecap as fc
from fadecap import mc
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
@given(grid_levels(min_size=2), st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 15, 30, 45]))
def test_factorised_stats_match_joint_kernel(levels, seed, snr_db):
    """At a random h (one channel, n_r = 2, with the noise drawn as avg_all
    draws it), the factorised per-sample statistics equal kernel_stats on the
    joint points: lse within 1e-14 nats times max(1, snr ||h||^2 max|x|^2),
    mmse within 1e-11 of its scale ||h||^2 max|x|^2, pe exactly.

    The kernel forms ||r_i - r_k||^2 from a Gram of entries up to
    snr ||h||^2 max|x|^2, so its absolute rounding grows with that product;
    on these unnormalised grids (|x| up to 4 sqrt 2) it reaches ~1e-12 nats
    at 30 dB, on either path."""
    re, im = levels
    points = _grid_points(re, im, seed)
    rng = np.random.default_rng(seed)
    h = _complex_normal(rng, (1, 2))
    noise = _complex_normal(rng, (1, 50, 2))
    snr = 10.0 ** (snr_db / 10.0)
    mmse, lse, pe = mc._grid_stats(h, noise, (re, im), snr)
    received = np.sqrt(snr) * points[None, :, None] * h[:, None, :]
    ref_mmse, ref_lse, ref_pe = kernel_stats(received, noise, snr)
    scale = np.sum(np.abs(h) ** 2) * np.max(np.abs(points) ** 2)
    assert np.max(np.abs(lse - ref_lse)) <= 1e-14 * max(1.0, snr * scale)
    assert np.max(np.abs(mmse - ref_mmse)) <= 1e-11 * scale
    assert np.array_equal(pe, ref_pe)


BOUNDS = {"mmse": fc.mmse_bounds_fixed_h, "mi": fc.mi_bounds_fixed_h,
          "pe": fc.pe_bounds_fixed_h}


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
    for kind, bounds in BOUNDS.items():
        ref = bounds(snr, h, c)
        assert ref.lower <= ref.upper
        got = bounds(snr, u @ h, c)
        atol = 1e-12 * (c.log_m + 2.0 * (c.m - 1)) if kind == "mi" else np.finfo(float).tiny
        assert np.allclose([got.lower, got.upper], [ref.lower, ref.upper],
                           rtol=1e-12, atol=atol), kind
