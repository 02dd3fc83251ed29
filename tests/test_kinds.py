"""Estimators form only the measures their caller reads: every nonempty
subset of `mc.KINDS` gives, bit for bit, the arrays and estimates of the
all-measures call; each command asks for what it reads; the full-sum kernel
keeps its three-argument, once-a-batch call."""

import itertools
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import fadecap as fc
from fadecap import designs, mc
from fadecap.cli import main
from fadecap.mc import KINDS, McConfig
from fadecap.model import _complex_normal

SUBSETS = [s for r in range(1, len(KINDS) + 1) for s in itertools.combinations(KINDS, r)]


def _assert_subset_of(got, ref, kinds):
    """`got`, a (mmse, lse, pe) tuple for `kinds`, holds exactly ref's arrays
    of those measures and None for the others."""
    for kind, g, r in zip(KINDS, got, ref):
        if kind in kinds:
            assert g is not None and np.array_equal(g, r), (kinds, kind)
        else:
            assert g is None, (kinds, kind)


# ---------------------------------------------------------------------------
# kernels: each measure formed is that of the all-measures call
# ---------------------------------------------------------------------------

@st.composite
def level_cases(draw):
    """2-16 sorted levels (equally spaced, or any distinct ticks of 1/8),
    scaled and rounded as the built-in grids are, with amp and z from a
    drawn seed at 0-45 dB; the first channel is zero (amp = 0, z = 0)."""
    q = draw(st.integers(2, 16))
    if draw(st.booleans()):
        step = draw(st.integers(1, 64 // (q - 1)))
        ticks = draw(st.integers(-32, 32 - step * (q - 1))) + step * np.arange(q)
    else:
        ticks = np.sort(draw(st.lists(st.integers(-32, 32), min_size=q, max_size=q,
                                      unique=True)))
    levels = draw(st.floats(0.1, 3.0)) * (np.asarray(ticks, dtype=float) / 8.0)
    snr = 10.0 ** (draw(st.floats(0.0, 45.0)) / 10.0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amp = np.sqrt(snr) * np.abs(_complex_normal(rng, (4,)))
    z = _complex_normal(rng, (4, 30)).real
    amp[0], z[0] = 0.0, 0.0
    return levels, amp, z, snr


@settings(max_examples=40, deadline=None)
@given(level_cases())
def test_level_stats_measures_match_the_all_measures_call(case):
    levels, amp, z, snr = case
    ref = mc._level_stats(levels, amp, z, snr)
    assert all(r is not None for r in ref)
    for kinds in SUBSETS:
        _assert_subset_of(mc._level_stats(levels, amp, z, snr, kinds=kinds), ref, kinds)


@pytest.mark.parametrize("family", ["qpsk", "qam16", "qam64", "qam256"])
@pytest.mark.parametrize("snr_db", [0, 15, 30, 45])
def test_level_stats_measures_on_built_in_levels(family, snr_db):
    """The built-in levels (Q = 2, 4, 8, 16), a zero channel included."""
    levels = fc.make_constellation(family, 1).grid_levels[0]
    rng = np.random.default_rng(snr_db)
    snr = 10.0 ** (snr_db / 10.0)
    amp = np.sqrt(snr) * np.abs(_complex_normal(rng, (5,)))
    z = _complex_normal(rng, (5, 40)).real
    amp[2], z[2] = 0.0, 0.0
    ref = mc._level_stats(levels, amp, z, snr)
    for kinds in SUBSETS:
        _assert_subset_of(mc._level_stats(levels, amp, z, snr, kinds=kinds), ref, kinds)


# ---------------------------------------------------------------------------
# avg_all: exactly the requested keys, each estimate that of the full call
# ---------------------------------------------------------------------------

QPSK_2 = fc.make_constellation("qpsk", 2)
ST16 = fc.SpaceTimeCode(codewords=np.stack([QPSK_2.points, QPSK_2.points[:, ::-1]], axis=2))
CORRELATED_2X2 = fc.CorrelatedRayleigh(theta_t=[[1, 0.5], [0.5, 1]],
                                       theta_r=[[1, 0.8], [0.8, 1]])
PATHS = {
    "grid": (fc.CanonicalRayleigh(1, 2), fc.make_constellation("qam16", 1)),
    "full_sum": (fc.CanonicalRayleigh(1, 2), fc.make_constellation("qpsk", 1)),
    "sampled": (CORRELATED_2X2, fc.make_constellation("qam16", 2)),
    "spacetime_code": (fc.CanonicalRayleigh(2, 2), ST16),
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_avg_all_returns_the_requested_estimates(path):
    channel, inputs = PATHS[path]
    mc_cfg = McConfig(channel_draws=40, noise_draws_per_channel=6, seed=23, parallel_chunks=3)
    assert (mc._grid_factors(inputs) is not None) == (path == "grid")
    assert mc.sampled_true_symbol(inputs) == (path in ("sampled", "spacetime_code"))
    for snr in (3.0, 300.0):
        ref = fc.avg_all(snr, channel, inputs, mc_cfg)
        assert list(ref) == list(KINDS)
        for kinds in SUBSETS:
            for order in itertools.permutations(kinds):
                got = fc.avg_all(snr, channel, inputs, mc_cfg, kinds=order)
                assert sorted(got) == sorted(kinds)
                assert all(got[kind] == ref[kind] for kind in kinds), (path, order)


@pytest.mark.parametrize("kinds,named", [
    ((), "kinds is empty"), (["mi", "snr"], "'snr'"), (("pe", "mmse", "pe"), "'pe' is repeated"),
    ("mi", "'m'")])
def test_bad_kinds_are_one_value_error_naming_them(kinds, named):
    channel, inputs = PATHS["grid"]
    mc_cfg = McConfig(channel_draws=4, noise_draws_per_channel=2)
    with pytest.raises(ValueError, match=named):
        fc.avg_all(10.0, channel, inputs, mc_cfg, kinds=kinds)


# ---------------------------------------------------------------------------
# callers ask for what they read
# ---------------------------------------------------------------------------

def _spy(monkeypatch, module, name, kinds_seen):
    real = getattr(module, name)

    def spy(*args, **kwargs):
        kinds_seen.append(tuple(kwargs["kinds"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def _run(tmp_path, command, doc):
    path = tmp_path / f"{command}.yaml"
    path.write_text(yaml.safe_dump(doc))
    return main([command, "--config", str(path), "--seed", "3", "--out",
                 str(tmp_path / f"{command}.csv")])


MC_TINY = {"channel_draws": 12, "noise_draws": 3, "chunks": 2}


@pytest.mark.parametrize("kind", list(KINDS))
def test_curve_asks_for_its_one_kind(tmp_path, monkeypatch, kind):
    seen = []
    _spy(monkeypatch, mc, "avg_all", seen)
    doc = {"kind": kind, "constellation": {"family": "qam16", "n_t": 1},
           "channel": {"variant": "rayleigh", "n_r": 2}, "snr_db": {"points": [10, 20]},
           "mc": MC_TINY}
    assert _run(tmp_path, "curve", doc) in (0, 4)
    assert seen == [(kind,)] * 2


def test_stcode_confirm_asks_for_pe(tmp_path, monkeypatch):
    seen = []
    _spy(monkeypatch, mc, "avg_all", seen)
    orthogonal = [[[s1, 0], [-s2, 0]] for s1 in (1, -1) for s2 in (1, -1)]
    doc = {"n_r": 1, "confirm_pe": {"snr_db": 10, "mc": MC_TINY},
           "codebooks": [{"name": "A", "codewords": orthogonal},
                         {"name": "B", "codewords": [[[2 * v for v in row] for row in x]
                                                     for x in orthogonal]}]}
    assert _run(tmp_path, "stcode", doc) == 0
    assert seen == [("pe",)] * 2


def test_banks_ask_for_mi(monkeypatch):
    seen = []
    _spy(monkeypatch, mc, "_level_stats", seen)
    subs = [designs.SubchannelSpec(fc.make_constellation(family, 1), designs.Fading(variance=2.0))
            for family in ("qpsk", "qam16")]
    for bank in designs._subchannel_banks(subs, McConfig(channel_draws=8,
                                                         noise_draws_per_channel=3)):
        designs._bank_mi(100.0, bank, 1.0)
    assert seen == [("mi",)] * 4


# ---------------------------------------------------------------------------
# the full sum's kernel call: once a batch, (received, noise, snr)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kinds", [KINDS, ("mi",), ("pe",)])
def test_full_sum_calls_kernel_stats_once_a_batch_with_three_arguments(monkeypatch, kinds):
    """A benchmark tracer counts the full-sum kernel's work from exactly its
    three positional parameters; whatever the kinds, each batch makes one
    call with those and nothing else."""
    calls = []
    real = mc.kernel_stats

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(mc, "kernel_stats", spy)
    channel, inputs = PATHS["full_sum"]
    n_noise = 50
    mc_cfg = McConfig(channel_draws=2000, noise_draws_per_channel=n_noise, seed=3,
                      parallel_chunks=2)
    fc.avg_all(10.0, channel, inputs, mc_cfg, kinds=kinds)
    cap = mc.BATCH_ELEMENTS // (n_noise * inputs.m)
    batches = sum(math.ceil(size / cap) for size in mc.chunk_sizes(2000, 2))
    assert batches > 2
    assert calls == [(3, {})] * batches
