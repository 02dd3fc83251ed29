"""Power allocation, precoders and space-time code ranking."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import fadecap as fc
from fadecap import designs
from fadecap.asymptotics import EIG_ZERO_REL
from fadecap.mc import McConfig
from fadecap.model import ordered_pair_differences

QAM16 = fc.make_constellation("qam16", 1)
QPSK = fc.make_constellation("qpsk", 1)
QPSK2 = fc.make_constellation("qpsk", 2)


def ray_subs(variances):
    return [designs.SubchannelSpec(QAM16, designs.Fading(v)) for v in variances]


# ---------------------------------------------------------------------------
# closed-form power allocation
# ---------------------------------------------------------------------------

def test_palloc_rayleigh_reference_case():
    alloc = designs.palloc_highsnr(ray_subs([4.0, 1.0]), 2.0)
    assert alloc.p == pytest.approx([2 / 3, 4 / 3], rel=1e-12)
    assert alloc.p.sum() == pytest.approx(2.0, abs=1e-12)


def test_palloc_rayleigh_mixed_constellations():
    # a zero-mean unit-energy M-point set has (1/M) sum over ordered pairs
    # of |x_i - x_j|^2 = 2M, so weights go as 1/sqrt(2M): qpsk 2/3, qam16 1/3
    subs = [designs.SubchannelSpec(c, designs.Fading(1.0))
            for c in (fc.make_constellation("qpsk", 1), QAM16)]
    alloc = designs.palloc_highsnr(subs, 3.0)
    assert alloc.p == pytest.approx([2.0, 1.0], rel=1e-12)


def test_palloc_symmetry_and_scaling():
    alloc = designs.palloc_highsnr(ray_subs([2.0, 2.0]), 3.0)
    assert alloc.p == pytest.approx([1.5, 1.5], rel=1e-12)
    a1 = designs.palloc_highsnr(ray_subs([4.0, 1.0]), 1.0)
    a5 = designs.palloc_highsnr(ray_subs([4.0, 1.0]), 5.0)
    assert a5.p == pytest.approx(5.0 * a1.p, rel=1e-12)


def test_palloc_permutation_equivariance():
    variances = [4.0, 1.0, 2.5]
    a = designs.palloc_highsnr(ray_subs(variances), 2.0)
    b = designs.palloc_highsnr(ray_subs(variances[::-1]), 2.0)
    assert a.p == pytest.approx(b.p[::-1], rel=1e-12)


def test_palloc_ricean_reference_case():
    subs = [designs.SubchannelSpec(QAM16, designs.Fading(4.0, 1 + 1j)),
            designs.SubchannelSpec(QAM16, designs.Fading(1.0, 1 + 1j))]
    alloc = designs.palloc_highsnr(subs, 2.0)
    assert alloc.p[0] / alloc.p[1] == pytest.approx(np.exp(0.75) / 2.0, rel=1e-12)
    assert alloc.p == pytest.approx([1.0284, 0.9716], abs=2e-4)


def test_palloc_ricean_zero_mean_reduces_to_rayleigh():
    subs_r = [designs.SubchannelSpec(QAM16, designs.Fading(v, 0.0))
              for v in (4.0, 1.0)]
    a = designs.palloc_highsnr(subs_r, 2.0)
    b = designs.palloc_highsnr(ray_subs([4.0, 1.0]), 2.0)
    assert np.array_equal(a.p, b.p)


def test_palloc_stronger_line_of_sight_gets_less_power():
    base = designs.SubchannelSpec(QAM16, designs.Fading(1.0, 1.0))
    strong = designs.SubchannelSpec(QAM16, designs.Fading(1.0, 2.0))
    alloc = designs.palloc_highsnr([base, strong], 2.0)
    assert alloc.p[1] < alloc.p[0]


def test_palloc_mixed_fading_one_rule():
    """Rayleigh and Ricean subchannels mix under one rule: the weights
    1/sqrt(4 E) and exp(-|1+j|^2 / 2)/sqrt(E) give p0/p1 = e/2."""
    subs = [designs.SubchannelSpec(QAM16, designs.Fading(4.0)),
            designs.SubchannelSpec(QAM16, designs.Fading(1.0, 1 + 1j))]
    alloc = designs.palloc_highsnr(subs, 2.0)
    assert alloc.p[0] / alloc.p[1] == pytest.approx(np.e / 2.0, rel=1e-12)
    assert alloc.p.sum() == pytest.approx(2.0, abs=1e-12)


def test_palloc_strong_lines_of_sight_stay_finite():
    """Means 40 and 50 at variance 1 underflow the factors exp(-800) and
    exp(-1250) to 0; relative to the smaller exponent they are 1 and
    exp(-450), so the split is finite and all but exp(-450) of it goes to
    the first subchannel."""
    subs = [designs.SubchannelSpec(QAM16, designs.Fading(1.0, mean)) for mean in (40.0, 50.0)]
    alloc = designs.palloc_highsnr(subs, 2.0)
    assert np.all(np.isfinite(alloc.p))
    assert alloc.p.sum() == pytest.approx(2.0, abs=1e-12)
    assert alloc.p[1] / alloc.p[0] == pytest.approx(np.exp(-450.0), rel=1e-12)


@pytest.mark.parametrize("p", [[np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0]])
def test_power_allocation_rejects_non_finite_powers(p):
    with pytest.raises(ValueError, match="powers must be finite"):
        designs.PowerAllocation(p=np.array(p), budget=2.0)


def test_palloc_matches_waterline_bisection_oracle():
    """The closed form is the exact argmin of sum c_k / p_k with
    c_k = weight_k^2; the oracle solves the stationarity condition
    p_k = sqrt(c_k / lam) for the budget-matching lam by bisection."""
    variances = [4.0, 1.0, 2.5, 0.3]
    budget = 3.0
    alloc = designs.palloc_highsnr(ray_subs(variances), budget)
    d2 = np.sum(np.abs(ordered_pair_differences(QAM16)) ** 2, axis=1)
    mean_pair = d2.sum() / QAM16.m
    c = np.array([1.0 / (mean_pair * v) for v in variances])
    lo, hi = 1e-12, 1e12
    for _ in range(200):
        lam = np.sqrt(lo * hi)
        total = np.sum(np.sqrt(c / lam))
        if total > budget:
            lo = lam
        else:
            hi = lam
    oracle = np.sqrt(c / lam)
    assert alloc.p == pytest.approx(oracle, rel=1e-10)


def test_palloc_numeric_single_and_symmetric():
    alloc = designs.palloc_numeric(ray_subs([1.0]), 2.0, 100.0,
                                   McConfig(channel_draws=64, noise_draws_per_channel=4,
                                            seed=1))
    assert alloc.p == pytest.approx([2.0])
    cfg = McConfig(channel_draws=3000, noise_draws_per_channel=24, seed=2)
    sym = designs.palloc_numeric(ray_subs([2.0, 2.0]), 2.0, 100.0, cfg)
    assert abs(sym.p[0] - sym.p[1]) <= 0.05 * 2.0   # symmetry up to MC noise
    assert sym.p.sum() == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("snr", [10.0, 100.0])
def test_palloc_numeric_three_subchannels(snr):
    """Three subchannels take the multi-pair sweeps of the coordinate search:
    the numeric split stays on the simplex and, on the common draws, gives
    at least the summed capacity of the closed-form split."""
    subs = [designs.SubchannelSpec(fc.make_constellation("qpsk", 1), designs.Fading(4.0)),
            designs.SubchannelSpec(fc.make_constellation("qpsk", 1), designs.Fading(1.0)),
            designs.SubchannelSpec(QAM16, designs.Fading(0.5))]
    cfg = McConfig(channel_draws=400, noise_draws_per_channel=8, seed=3)
    numeric = designs.palloc_numeric(subs, 3.0, snr, cfg)
    closed = designs.palloc_highsnr(subs, 3.0)
    assert np.all(numeric.p >= 0.0)
    assert numeric.p.sum() == pytest.approx(3.0, abs=1e-9)
    cap_numeric, cap_closed = designs.subchannel_capacities(subs, [numeric.p, closed.p], snr, cfg)
    assert sum(cap_numeric) >= sum(cap_closed)


def test_palloc_numeric_validation():
    with pytest.raises(ValueError):
        designs.palloc_numeric(ray_subs([1.0] * 5), 1.0, 10.0, McConfig())
    with pytest.raises(ValueError):
        designs.palloc_numeric(ray_subs([1.0]), -1.0, 10.0, McConfig())


PALLOC_2SUB = [designs.SubchannelSpec(QPSK, designs.Fading(4.0)),
               designs.SubchannelSpec(QAM16, designs.Fading(0.5))]


def test_oversized_banks_rejected_before_drawing(monkeypatch):
    """The palloc-2sub banks hold C N (2 + 2 + 4 + 4) table entries; one
    past MAX_BANK_ENTRIES is a ValueError naming the count, raised by both
    bank users before any draw."""
    def unreachable(*args, **kwargs):
        raise AssertionError("drew before the bank size check")

    monkeypatch.setattr(designs.mc, "_run_chunks", unreachable)
    n_noise = 16
    draws = designs.MAX_BANK_ENTRIES // (12 * n_noise) + 1
    cfg = McConfig(channel_draws=draws, noise_draws_per_channel=n_noise)
    message = f"need {draws * n_noise * 12} table entries"
    with pytest.raises(ValueError, match=message):
        designs.palloc_numeric(PALLOC_2SUB, 2.0, 100.0, cfg)
    with pytest.raises(ValueError, match=message):
        designs.subchannel_capacities(PALLOC_2SUB, [[1.0, 1.0]], 100.0, cfg)
    designs._check_bank_size(PALLOC_2SUB, McConfig(channel_draws=draws - 1,
                                                   noise_draws_per_channel=n_noise))


def test_palloc_numeric_runs_one_search(monkeypatch):
    """The optimum and its low-confidence flag come from one search on the
    full bank."""
    calls = []
    search = designs._coordinate_search

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(designs, "_coordinate_search", counted)
    designs.palloc_numeric(PALLOC_2SUB, 2.0, 100.0,
                           McConfig(channel_draws=64, noise_draws_per_channel=4, seed=1))
    assert len(calls) == 1


def test_palloc_numeric_resolution_flag():
    """Two equal qpsk subchannels leave the summed capacity flat near the
    optimum, and 200 x 8 draws cannot tell it from a transfer of 5% of the
    budget; the palloc-2sub subchannels at 1280 x 16 draws can.  At 0 dB a
    subchannel of variance 0.001 gets almost nothing (0.0007 of 2), and a
    transfer of 5% from it is no move at all.  A single channel has no
    standard error and is always flagged."""
    equal = [designs.SubchannelSpec(QPSK, designs.Fading(2.0))] * 2
    assert designs.palloc_numeric(equal, 2.0, 100.0,
                                  McConfig(channel_draws=200, noise_draws_per_channel=8,
                                           seed=1)).flagged
    corner = designs.palloc_numeric([equal[0], designs.SubchannelSpec(QPSK, designs.Fading(1e-3))],
                                    2.0, 1.0, McConfig(channel_draws=400,
                                                       noise_draws_per_channel=8, seed=1))
    assert corner.p[1] < 0.05 * 2.0 and not corner.flagged
    assert not designs.palloc_numeric(PALLOC_2SUB, 2.0, 100.0,
                                      McConfig(channel_draws=1280, noise_draws_per_channel=16,
                                               seed=1)).flagged
    assert designs.palloc_numeric(PALLOC_2SUB, 2.0, 100.0,
                                  McConfig(channel_draws=1, noise_draws_per_channel=16,
                                           seed=1, parallel_chunks=1)).flagged


def test_perfbench_search_tol_is_the_search_default():
    """perfbench's palloc margin (`checks.SEARCH_TOL`) is derived from the
    coordinate search's resolution, so the two must not drift apart."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    assert checks.SEARCH_TOL == designs.SEARCH_TOL


def test_bank_rows_never_outgrow_the_banks():
    """At one noise draw a channel, the three-subchannel search evaluates
    more (subchannel, power) pairs than its banks hold noise-table rows of C
    entries (one a level factor: 2 + 2 + 2); it keeps every mean, and
    per-channel rows only up to that count."""
    subs = [designs.SubchannelSpec(QPSK, designs.Fading(4.0)),
            designs.SubchannelSpec(QPSK, designs.Fading(1.0)),
            designs.SubchannelSpec(QAM16, designs.Fading(0.5))]
    cfg = McConfig(channel_draws=50, noise_draws_per_channel=1, seed=3)
    banks = designs._Banks(subs, 10.0, cfg)
    numeric = designs.palloc_numeric(subs, 3.0, 10.0, cfg, banks)
    assert len(banks.rows) == 6 < len(banks.means)
    assert np.array_equal(numeric.p, designs.palloc_numeric(subs, 3.0, 10.0, cfg).p)


def _golden_count(lo, hi, width):
    """Evaluations the golden-section line search made on (lo, hi): two
    interior points, one more per shrink of the bracket by the golden ratio
    while it is at least `width` wide, and the final midpoint."""
    gold, span, count = (np.sqrt(5.0) - 1.0) / 2.0, hi - lo, 3
    while span >= width:
        span *= gold
        count += 1
    return count


@pytest.mark.parametrize("f,x_best", [
    (lambda u: -(u - 0.3) ** 2, 0.3),       # concave quadratic
    (lambda u: u, 1.0),                     # optimum at the end: subchannel b's p -> 0
    (lambda u: 1.0, None),                  # flat
], ids=["quadratic", "bracket-end", "flat"])
def test_brent_line_search(f, x_best):
    """The coordinate search's line step on a transfer bracket (-p_a, p_b)
    = (-1, 1) from the current split (delta = 0): the final bracket is
    narrower than SEARCH_TOL * budget and holds the optimum within half of
    that, the result is the best point evaluated, every evaluation lies
    strictly inside the bracket (the objective is -inf off the simplex)
    and there are no more of them than the golden-section search made."""
    lo, hi, width = -1.0, 1.0, designs.SEARCH_TOL * 2.0
    points, values = [0.0], [f(0.0)]

    def spy(u):
        points.append(u)
        values.append(f(u))
        return values[-1]

    x, fx, (a, b) = designs._brent_max(spy, lo, hi, 0.0, values[0], width)
    assert b - a < width and a <= x <= b
    assert fx == max(values) and values[points.index(x)] == fx
    assert all(lo < u < hi for u in points[1:])
    assert len(points) - 1 <= _golden_count(lo, hi, width)
    if x_best is not None:
        assert abs(x - x_best) < width / 2


def test_subchannel_capacities_monotone_in_power():
    subs = ray_subs([1.0])
    cfg = McConfig(channel_draws=2000, noise_draws_per_channel=16, seed=3)
    caps = [designs.subchannel_capacities(subs, [[p]], 10.0, cfg)[0][0]
            for p in (0.25, 1.0, 4.0)]
    assert caps[0] < caps[1] < caps[2] <= QAM16.log_m


# ---------------------------------------------------------------------------
# precoders
# ---------------------------------------------------------------------------

CANONICAL_2X2 = fc.CanonicalRayleigh(2, 2)
THETA_T = np.array([[1.0, 0.5], [0.5, 1.0]])
CORRELATED_2X2 = fc.CorrelatedRayleigh(THETA_T, np.array([[1.0, 0.8], [0.8, 1.0]]))
CORRELATED_2X1 = fc.CorrelatedRayleigh(THETA_T, np.eye(1))


def test_precoder_canonical_identity():
    prec, report = designs.optimal_precoder(CANONICAL_2X2, QPSK2, 2.0)
    assert np.allclose(prec.matrix, np.eye(2))
    assert report.stationarity_residual <= 1e-8
    assert report.method == "closed_form"
    # objective value: (n_t/P)^n_r * sum over pairs (1/dbar^2)^n_r
    off = np.sum(np.abs(ordered_pair_differences(QPSK2)) ** 2, axis=1)
    assert report.objective == pytest.approx(np.sum(1.0 / off ** 2), rel=1e-12)


def test_precoder_canonical_beats_random_probes():
    prec, report = designs.optimal_precoder(CANONICAL_2X2, QPSK2, 2.0)
    rng = np.random.default_rng(17)
    for _ in range(200):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        z = g @ g.conj().T
        z *= 2.0 / np.trace(z).real
        assert designs.precoder_objective(z, CANONICAL_2X2, QPSK2) >= report.objective - 1e-12


def test_precoder_scalar_case():
    c = fc.make_constellation("qam16", 1)
    prec, _ = designs.optimal_precoder(fc.CanonicalRayleigh(1, 1), c, 3.0)
    assert prec.matrix == pytest.approx(np.sqrt(3.0))


def test_precoder_objective_invariant_under_left_unitary():
    prec, report = designs.optimal_precoder(CANONICAL_2X2, QPSK2, 2.0)
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    rotated = q @ prec.matrix
    z1 = prec.matrix.conj().T @ prec.matrix
    z2 = rotated.conj().T @ rotated
    assert np.allclose(z1, z2, atol=1e-12)
    assert designs.precoder_objective(z1, CANONICAL_2X2, QPSK2) == pytest.approx(
        designs.precoder_objective(z2, CANONICAL_2X2, QPSK2), rel=1e-12)


def test_precoder_asymmetric_falls_through_to_numeric():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) / np.sqrt(1.5)
    c = fc.make_constellation("custom", 2, points=pts)
    prec, report = designs.optimal_precoder(fc.CanonicalRayleigh(2, 1), c, 2.0)
    assert report.method == "projected_gradient"
    assert np.trace(prec.matrix @ prec.matrix.conj().T).real <= 2.0 + 1e-9


def test_precoder_closed_form_equals_descent_from_scaled_identity():
    """The closed form is the descent's starting point certified by the
    descent's own residual, so a descent started there (z0) ends on the same
    matrix, objective and stationarity_residual."""
    prec, closed = designs.optimal_precoder(CANONICAL_2X2, QPSK2, 2.0)
    prec_d, descent = designs.optimal_precoder(CANONICAL_2X2, QPSK2, 2.0, z0=np.eye(2))
    assert (closed.method, descent.method) == ("closed_form", "projected_gradient")
    assert np.array_equal(prec.matrix, prec_d.matrix)
    assert closed.objective == descent.objective
    assert closed.stationarity_residual == descent.stationarity_residual


@pytest.mark.parametrize("channel,c,p_total,objective", [
    (fc.CanonicalRayleigh(1, 1),
     fc.make_constellation("custom", 1, points=np.array([[1.0], [1j], [-0.5 - 0.5j]])),
     1.0, 2.6),
    (fc.CorrelatedRayleigh(np.eye(2), np.eye(2)), QPSK2, 2.0, 96.1111111111112),
], ids=["three_points", "correlated_identity"])
def test_precoder_stationary_identity_is_closed_form(channel, c, p_total, objective):
    """The residual, not the channel family or a sign symmetry, decides the
    closed form: a non-symmetric set whose scaled identity is stationary,
    and qpsk on a correlated channel with Theta_T = I, take it with 0
    iterations at the scaled identity's objective (2 (1/2 + 2/2.5) for the
    three points, the canonical qpsk value for Theta_T = I)."""
    prec, report = designs.optimal_precoder(channel, c, p_total)
    assert (report.method, report.iterations) == ("closed_form", 0)
    assert report.stationarity_residual <= 1e-8
    assert report.objective == pytest.approx(objective, rel=1e-14)
    assert np.allclose(prec.matrix, np.sqrt(p_total / c.n_t) * np.eye(c.n_t))


def test_precoder_canonical_descent_reports_no_angles():
    """Theta_T = I makes every basis an eigenbasis, so the canonical descent
    reports no alignment angles."""
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5], [0.3, -0.7]])
    c = fc.make_constellation("custom", 2, points=pts)
    _, report = designs.optimal_precoder(fc.CanonicalRayleigh(2, 1), c, 2.0)
    assert report.method == "projected_gradient"
    assert report.principal_angles is None


def test_precoder_correlated_identity_reduction():
    """Theta_T = I, where the scaled identity is stationary and is returned
    as the closed form, and a starting point on the canonical channel, which
    runs projected gradient, both reach the closed-form objective."""
    _, closed = designs.optimal_precoder(CANONICAL_2X2, QPSK2, 2.0)
    _, report = designs.optimal_precoder(fc.CorrelatedRayleigh(np.eye(2), np.eye(2)),
                                         QPSK2, 2.0)
    z0 = np.array([[1.5, 0.2], [0.2, 0.5]])
    _, started = designs.optimal_precoder(CANONICAL_2X2, QPSK2, 2.0, z0=z0)
    assert started.method == "projected_gradient"
    for rep in (report, started):
        assert rep.objective <= closed.objective + 1e-6
        assert rep.objective >= closed.objective - 1e-6


def test_precoder_rejects_ricean_and_transmit_size_mismatch():
    with pytest.raises(ValueError, match="canonical or the transmit-correlated"):
        designs.optimal_precoder(fc.Ricean(1.0, [1.0, 1.0], [1.0]), QPSK2, 2.0)
    with pytest.raises(ValueError, match="n_t"):
        designs.optimal_precoder(fc.CanonicalRayleigh(3, 2), QPSK2, 2.0)
    with pytest.raises(ValueError, match="n_t"):
        designs.precoder_objective(np.eye(2), fc.CanonicalRayleigh(1, 2), QPSK2)


def test_precoder_correlated_aligns_with_transmit_correlation():
    prec, report = designs.optimal_precoder(CORRELATED_2X2, QPSK2, 2.0)
    assert np.max(report.principal_angles) <= 1e-3
    # left singular vectors of the returned precoder match the eigenvectors
    u, _, _ = np.linalg.svd(prec.matrix)
    overlaps = np.abs(u.conj().T @ np.linalg.eigh(THETA_T)[1])
    assert np.max(np.min(1 - overlaps, axis=1)) < 1e-6


def test_precoder_correlated_realizes_certified_objective():
    """The returned precoder must realize the optimized coefficient: the
    pair forms e^+ P^+ Theta_T P e, evaluated on the actual precoder,
    reproduce the reported objective.  (A right-rotated recovery such as
    U diag(sqrt q) with identity right factor realizes a different,
    strictly worse coefficient for this geometry.)"""
    prec, report = designs.optimal_precoder(CORRELATED_2X2, QPSK2, 2.0)
    diffs = ordered_pair_differences(QPSK2) @ prec.matrix.T
    forms = np.real(np.einsum("pi,ij,pj->p", diffs.conj(), THETA_T, diffs))
    realized = np.sum(forms ** -2.0)
    assert realized == pytest.approx(report.objective, rel=1e-6)
    p = prec.matrix
    assert np.allclose(p.conj().T @ p, p @ p.conj().T, atol=1e-12)


def test_precoder_correlated_convexity_probes():
    _, report = designs.optimal_precoder(CORRELATED_2X2, QPSK2, 2.0)
    rng = np.random.default_rng(29)
    for _ in range(100):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        z = g @ g.conj().T
        z *= 2.0 / np.trace(z).real
        val = designs.precoder_objective(z, CORRELATED_2X2, QPSK2)
        assert val >= report.objective - 1e-6


# a skewed 4-point set on which rescaling the eigenvalues onto the budget,
# in place of the Euclidean projection, never converged at n_r = 1
SKEW4_RAW = np.array([[-0.5 + 0.6j, -0.1 - 0.6j], [0.3 - 0.7j, -0.3 + 2.0j],
                      [-1.9 + 0.8j, -0.1 + 1.8j], [0.2 + 2.1j, 1.1 - 0.8j]])
SKEW4 = fc.make_constellation(
    "custom", 2, points=SKEW4_RAW / np.sqrt(np.mean(np.sum(np.abs(SKEW4_RAW) ** 2, axis=1))))


@pytest.mark.parametrize("c,n_r,optimum", [(QPSK2, 2, 104.658498648),
                                           (SKEW4, 1, 7.500101882)],
                         ids=["qpsk", "skew4"])
def test_precoder_correlated_meets_kkt_at_interior_optimum(c, n_r, optimum):
    """At an interior optimum of f over {Z PSD, tr Z <= P} the gradient is a
    multiple of I (KKT).  The gradient is formed here from the ordered pairs;
    the optima come from an independent BFGS over Z = L L^+ scaled to P."""
    prec, report = designs.optimal_precoder(fc.CorrelatedRayleigh(THETA_T, np.eye(n_r)),
                                            c, 2.0)
    z = prec.matrix.conj().T @ prec.matrix
    assert np.min(np.linalg.eigvalsh(z)) > 0.1
    from fadecap.model import hermitian_sqrt
    w = ordered_pair_differences(c) @ hermitian_sqrt(THETA_T).T
    forms = np.real(np.einsum("pi,ij,pj->p", w.conj(), z, w))
    grad = np.einsum("p,pi,pj->ij", -n_r * forms ** (-n_r - 1.0), w, w.conj())
    iso = np.trace(grad).real / c.n_t * np.eye(c.n_t)
    assert np.linalg.norm(grad - iso) <= 1e-4 * np.linalg.norm(grad)
    assert report.objective == pytest.approx(optimum, rel=1e-9)


def test_precoder_correlated_rejects_degenerate_transmit_correlation():
    channel = fc.CorrelatedRayleigh(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError, match="singular"):
        designs.optimal_precoder(channel, QPSK2, 2.0)


def test_precoder_budget_tightness():
    # the objective strictly improves with power, so the budget is saturated
    prec, _ = designs.optimal_precoder(CORRELATED_2X1, QPSK2, 2.0)
    assert np.trace(prec.matrix @ prec.matrix.conj().T).real == pytest.approx(2.0, abs=1e-9)
    prec2, _ = designs.optimal_precoder(CANONICAL_2X2, QPSK2, 2.0)
    assert np.trace(prec2.matrix.conj().T @ prec2.matrix).real == pytest.approx(2.0, abs=1e-12)


def test_precoder_correlated_nonconvergence_carries_best_iterate(monkeypatch):
    monkeypatch.setattr(designs, "PRECODER_MAX_ITER", 0)
    with pytest.raises(designs.PrecoderConvergenceError, match="in 0 iterations"):
        designs.optimal_precoder(CORRELATED_2X1, QPSK2, 2.0)


# ---------------------------------------------------------------------------
# space-time code criteria
# ---------------------------------------------------------------------------

def orthogonal_pair_code(scale=1.0):
    a = scale / np.sqrt(2.0)
    cws = []
    for s1 in (a, -a):
        for s2 in (a, -a):
            cws.append([[s1, -np.conj(s2)], [s2, np.conj(s1)]])
    return fc.SpaceTimeCode(codewords=np.array(cws, dtype=complex))


def repetition_code(scale=1.0):
    a = scale / np.sqrt(2.0)
    cws = [np.array([[v0, v0], [v1, v1]]) / np.sqrt(2.0)
           for v0, v1 in [(a, a), (a, -a), (-a, a), (-a, -a)]]
    return fc.SpaceTimeCode(codewords=np.array(cws, dtype=complex))


def test_st_criteria_orthogonal_design():
    code = orthogonal_pair_code()
    for n_r in (1, 2):
        rep = designs.st_criteria(code, n_r)
        assert rep.r_min == 2
        assert rep.d == 2 * n_r
        assert rep.certified
        # single-symbol differences have Gram 2I: per-pair value (1/4)^n_r,
        # 8 such ordered pairs dominate plus 4 both-symbol pairs at (1/16)^n_r
        expected = 8 * (1 / 4) ** n_r + 4 * (1 / 16) ** n_r
        assert rep.criterion == pytest.approx(expected, rel=1e-10)


def test_st_criteria_repetition_rank_one():
    rep = designs.st_criteria(repetition_code(), 2)
    assert rep.r_min == 1
    assert rep.d == 2


def test_st_criteria_t1_reduces_to_distance_sum():
    c = fc.make_constellation("qpsk", 2)
    code = fc.SpaceTimeCode(codewords=c.points[:, :, None])
    for n_r in (1, 2):
        rep = designs.st_criteria(code, n_r)
        off = np.sum(np.abs(ordered_pair_differences(c)) ** 2, axis=1)
        assert rep.r_min == 1
        assert rep.criterion == pytest.approx(np.sum((1.0 / off) ** n_r), rel=1e-10)


def alamouti_qpsk():
    """Alamouti's code over QPSK: 16 codewords [[s1, -s2*], [s2, s1*]] / sqrt 2,
    whose 240 ordered pairs share far fewer distinct differences."""
    q = fc.make_constellation("qpsk", 1).points[:, 0]
    s1, s2 = (s.ravel() for s in np.meshgrid(q, q, indexing="ij"))
    cws = np.stack([np.stack([s1, -s2.conj()], axis=1), np.stack([s2, s1.conj()], axis=1)],
                   axis=1)
    return fc.SpaceTimeCode(codewords=cws / np.sqrt(2.0))


@pytest.mark.parametrize("n_r", [1, 2])
def test_spacetime_sums_match_ordered_pair_reference(n_r):
    """st_criteria's criterion and the sum of distance_dist's code
    values, grouped over distinct codeword differences, equal the sums over
    every ordered pair of its own Gram eigenvalues within rel 1e-12."""
    code = alamouti_qpsk()
    ranks, terms = [], []
    for i in range(code.m):
        for j in range(code.m):
            if i != j:
                diff = code.codewords[i] - code.codewords[j]
                lam = np.linalg.eigvalsh(diff @ diff.conj().T)
                lam = lam[lam > EIG_ZERO_REL * lam[-1]]
                ranks.append(lam.size)
                terms.append(np.prod(lam ** -float(n_r)))
    ranks, terms = np.array(ranks), np.array(terms)
    r_min = ranks.min()
    rep = designs.st_criteria(code, n_r)
    dd = fc.distance_dist(fc.CanonicalRayleigh(code.n_t, n_r), code)
    assert dd.values.size < code.m * (code.m - 1)        # the differences repeat
    assert rep.r_min == r_min == 2
    assert rep.criterion == pytest.approx(np.sum(terms[ranks == r_min]), rel=1e-12)
    assert np.sum(dd.values) == pytest.approx(np.sum(terms), rel=1e-12)
    assert dd.orders.min() == n_r * r_min - 1


def test_st_criteria_flags_extrapolation():
    cws = np.zeros((2, 3, 2), dtype=complex)
    cws[1, 0, 0] = 1.0
    rep = designs.st_criteria(fc.SpaceTimeCode(codewords=cws), 1)
    assert not rep.certified


def test_st_compare_orderings():
    full = orthogonal_pair_code()
    rep = repetition_code()
    assert designs.st_compare(full, rep, 1) == 1
    assert designs.st_compare(rep, full, 1) == -1
    assert designs.st_compare(full, full, 1) == 0
    # same rank, smaller criterion wins: scale one codebook up
    big = orthogonal_pair_code(scale=2.0)
    assert designs.st_compare(big, full, 1) == 1


def test_st_compare_is_total_preorder():
    rng = np.random.default_rng(31)
    books = []
    for _ in range(5):
        cws = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        books.append(fc.SpaceTimeCode(codewords=cws))
    for a in books:
        for b in books:
            assert designs.st_compare(a, b, 1) == -designs.st_compare(b, a, 1)
    # transitivity of the induced weak order
    import functools
    ordered = sorted(books, key=functools.cmp_to_key(
        lambda x, y: -designs.st_compare(x, y, 1)))
    for x, y in zip(ordered, ordered[1:]):
        assert designs.st_compare(x, y, 1) >= 0


def test_st_compare_shape_mismatch():
    full = orthogonal_pair_code()
    cws = np.zeros((4, 2, 3), dtype=complex)
    for k in range(1, 4):
        cws[k, 0, k - 1] = 1.0
    other = fc.SpaceTimeCode(codewords=cws)
    with pytest.raises(ValueError):
        designs.st_compare(full, other, 1)
