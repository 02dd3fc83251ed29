"""Property tests: grid level detection and the factorised grid kernel."""

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
