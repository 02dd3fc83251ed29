"""Power allocation, precoders and space-time code ranking."""

import numpy as np
import pytest

import fadecap as fc
from fadecap import designs
from fadecap.mc import McConfig

QAM16 = fc.make_constellation("qam16", 1)
QPSK2 = fc.make_constellation("qpsk", 2)


def ray_subs(variances):
    return [designs.SubchannelSpec(QAM16, designs.RayleighFading(v)) for v in variances]


# ---------------------------------------------------------------------------
# closed-form power allocation
# ---------------------------------------------------------------------------

def test_palloc_rayleigh_reference_case():
    alloc = designs.palloc_rayleigh_highsnr(ray_subs([4.0, 1.0]), 2.0)
    assert alloc.p == pytest.approx([2 / 3, 4 / 3], rel=1e-12)
    assert alloc.p.sum() == pytest.approx(2.0, abs=1e-12)


def test_palloc_rayleigh_mixed_constellations():
    # a zero-mean unit-energy M-point set has (1/M) sum over ordered pairs
    # of |x_i - x_j|^2 = 2M, so weights go as 1/sqrt(2M): qpsk 2/3, qam16 1/3
    subs = [designs.SubchannelSpec(c, designs.RayleighFading(1.0))
            for c in (fc.make_constellation("qpsk", 1), QAM16)]
    alloc = designs.palloc_rayleigh_highsnr(subs, 3.0)
    assert alloc.p == pytest.approx([2.0, 1.0], rel=1e-12)


def test_palloc_symmetry_and_scaling():
    alloc = designs.palloc_rayleigh_highsnr(ray_subs([2.0, 2.0]), 3.0)
    assert alloc.p == pytest.approx([1.5, 1.5], rel=1e-12)
    a1 = designs.palloc_rayleigh_highsnr(ray_subs([4.0, 1.0]), 1.0)
    a5 = designs.palloc_rayleigh_highsnr(ray_subs([4.0, 1.0]), 5.0)
    assert a5.p == pytest.approx(5.0 * a1.p, rel=1e-12)


def test_palloc_permutation_equivariance():
    variances = [4.0, 1.0, 2.5]
    a = designs.palloc_rayleigh_highsnr(ray_subs(variances), 2.0)
    b = designs.palloc_rayleigh_highsnr(ray_subs(variances[::-1]), 2.0)
    assert a.p == pytest.approx(b.p[::-1], rel=1e-12)


def test_palloc_ricean_reference_case():
    subs = [designs.SubchannelSpec(QAM16, designs.RiceanFading(1 + 1j, 4.0)),
            designs.SubchannelSpec(QAM16, designs.RiceanFading(1 + 1j, 1.0))]
    alloc = designs.palloc_ricean_highsnr(subs, 2.0)
    assert alloc.p[0] / alloc.p[1] == pytest.approx(np.exp(0.75) / 2.0, rel=1e-12)
    assert alloc.p == pytest.approx([1.0284, 0.9716], abs=2e-4)


def test_palloc_ricean_zero_mean_reduces_to_rayleigh():
    subs_r = [designs.SubchannelSpec(QAM16, designs.RiceanFading(0.0, v))
              for v in (4.0, 1.0)]
    a = designs.palloc_ricean_highsnr(subs_r, 2.0)
    b = designs.palloc_rayleigh_highsnr(ray_subs([4.0, 1.0]), 2.0)
    assert a.p == pytest.approx(b.p, rel=1e-12)


def test_palloc_stronger_line_of_sight_gets_less_power():
    base = designs.SubchannelSpec(QAM16, designs.RiceanFading(1.0, 1.0))
    strong = designs.SubchannelSpec(QAM16, designs.RiceanFading(2.0, 1.0))
    alloc = designs.palloc_ricean_highsnr([base, strong], 2.0)
    assert alloc.p[1] < alloc.p[0]


def test_palloc_mixed_variants_rejected():
    subs = [designs.SubchannelSpec(QAM16, designs.RayleighFading(1.0)),
            designs.SubchannelSpec(QAM16, designs.RiceanFading(1.0, 1.0))]
    with pytest.raises(ValueError):
        designs.palloc_rayleigh_highsnr(subs, 1.0)
    with pytest.raises(ValueError):
        designs.palloc_ricean_highsnr(subs, 1.0)


def test_palloc_matches_waterline_bisection_oracle():
    """The closed form is the exact argmin of sum c_k / p_k with
    c_k = weight_k^2; the oracle solves the stationarity condition
    p_k = sqrt(c_k / lam) for the budget-matching lam by bisection."""
    variances = [4.0, 1.0, 2.5, 0.3]
    budget = 3.0
    alloc = designs.palloc_rayleigh_highsnr(ray_subs(variances), budget)
    d2 = fc.pairwise_sq_distances(QAM16)
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


def test_palloc_numeric_validation():
    with pytest.raises(ValueError):
        designs.palloc_numeric(ray_subs([1.0] * 5), 1.0, 10.0, McConfig())
    with pytest.raises(ValueError):
        designs.palloc_numeric(ray_subs([1.0]), -1.0, 10.0, McConfig())


def test_subchannel_capacities_monotone_in_power():
    subs = ray_subs([1.0])
    cfg = McConfig(channel_draws=2000, noise_draws_per_channel=16, seed=3)
    caps = [designs.subchannel_capacities(subs, [p], 10.0, cfg)[0]
            for p in (0.25, 1.0, 4.0)]
    assert caps[0] < caps[1] < caps[2] <= QAM16.log_m


# ---------------------------------------------------------------------------
# precoders
# ---------------------------------------------------------------------------

def test_precoder_canonical_identity():
    prec, report = designs.precoder_canonical(QPSK2, 2, 2.0)
    assert np.allclose(prec.matrix, np.eye(2))
    assert report.stationarity_residual <= 1e-8
    assert report.method == "closed_form"
    # objective value: (n_t/P)^n_r * sum over pairs (1/dbar^2)^n_r
    d2 = fc.pairwise_sq_distances(QPSK2)
    off = d2[~np.eye(QPSK2.m, dtype=bool)]
    assert report.objective == pytest.approx(np.sum(1.0 / off ** 2), rel=1e-12)


def test_precoder_canonical_beats_random_probes():
    prec, report = designs.precoder_canonical(QPSK2, 2, 2.0)
    rng = np.random.default_rng(17)
    for _ in range(200):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        z = g @ g.conj().T
        z *= 2.0 / np.trace(z).real
        assert designs.precoder_objective(z, QPSK2, 2) >= report.objective - 1e-12


def test_precoder_scalar_case():
    c = fc.make_constellation("qam16", 1)
    prec, _ = designs.precoder_canonical(c, 1, 3.0)
    assert prec.matrix == pytest.approx(np.sqrt(3.0))


def test_precoder_objective_invariant_under_left_unitary():
    prec, report = designs.precoder_canonical(QPSK2, 2, 2.0)
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    rotated = q @ prec.matrix
    z1 = prec.gram
    z2 = rotated.conj().T @ rotated
    assert np.allclose(z1, z2, atol=1e-12)
    assert designs.precoder_objective(z1, QPSK2, 2) == pytest.approx(
        designs.precoder_objective(z2, QPSK2, 2), rel=1e-12)


def test_precoder_asymmetric_falls_through_to_numeric():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) / np.sqrt(1.5)
    c = fc.make_constellation("custom", 2, points=pts)
    assert not c.has_coordinate_sign_symmetry()
    prec, report = designs.precoder_canonical(c, 1, 2.0)
    assert report.method == "projected_gradient"
    assert np.trace(prec.matrix @ prec.matrix.conj().T).real <= 2.0 + 1e-9


def test_precoder_correlated_identity_reduction():
    prec, report = designs.precoder_correlated(QPSK2, np.eye(2), np.eye(2), 2, 2.0)
    _, closed = designs.precoder_canonical(QPSK2, 2, 2.0)
    assert report.objective <= closed.objective + 1e-6
    assert report.objective >= closed.objective - 1e-6


def test_precoder_correlated_aligns_with_transmit_correlation():
    theta_t = np.array([[1.0, 0.5], [0.5, 1.0]])
    theta_r = np.array([[1.0, 0.8], [0.8, 1.0]])
    prec, report = designs.precoder_correlated(QPSK2, theta_t, theta_r, 2, 2.0)
    assert np.max(report.principal_angles) <= 1e-3
    # left singular vectors of the returned precoder match the eigenvectors
    u, _, _ = np.linalg.svd(prec.matrix)
    overlaps = np.abs(u.conj().T @ np.linalg.eigh(theta_t)[1])
    assert np.max(np.min(1 - overlaps, axis=1)) < 1e-6


def test_precoder_correlated_realizes_certified_objective():
    """The returned precoder must realize the optimized coefficient: the
    pair forms e^+ P^+ Theta_T P e, evaluated on the actual precoder,
    reproduce the reported objective.  (A right-rotated recovery such as
    U diag(sqrt q) with identity right factor realizes a different,
    strictly worse coefficient for this geometry.)"""
    theta_t = np.array([[1.0, 0.5], [0.5, 1.0]])
    theta_r = np.array([[1.0, 0.8], [0.8, 1.0]])
    prec, report = designs.precoder_correlated(QPSK2, theta_t, theta_r, 2, 2.0)
    from fadecap.model import ordered_pair_differences
    diffs = ordered_pair_differences(QPSK2) @ prec.matrix.T
    forms = np.real(np.einsum("pi,ij,pj->p", diffs.conj(), theta_t, diffs))
    realized = np.sum(forms ** -2.0)
    assert realized == pytest.approx(report.objective, rel=1e-6)
    assert np.allclose(prec.gram, prec.matrix @ prec.matrix.conj().T, atol=1e-12)


def test_precoder_correlated_convexity_probes():
    theta_t = np.array([[1.0, 0.5], [0.5, 1.0]])
    theta_r = np.array([[1.0, 0.8], [0.8, 1.0]])
    _, report = designs.precoder_correlated(QPSK2, theta_t, theta_r, 2, 2.0)
    rng = np.random.default_rng(29)
    for _ in range(100):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        z = g @ g.conj().T
        z *= 2.0 / np.trace(z).real
        val = designs.precoder_objective(z, QPSK2, 2, theta_t=theta_t)
        assert val >= report.objective - 1e-6


def test_precoder_correlated_rejects_degenerate_transmit_correlation():
    theta_t = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="singular"):
        designs.precoder_correlated(QPSK2, theta_t, np.eye(2), 2, 2.0)


def test_precoder_budget_tightness():
    # the objective strictly improves with power, so the budget is saturated
    theta_t = np.array([[1.0, 0.5], [0.5, 1.0]])
    prec, _ = designs.precoder_correlated(QPSK2, theta_t, np.eye(2), 1, 2.0)
    assert np.trace(prec.matrix @ prec.matrix.conj().T).real == pytest.approx(2.0, abs=1e-9)
    prec2, _ = designs.precoder_canonical(QPSK2, 2, 2.0)
    assert np.trace(prec2.gram).real == pytest.approx(2.0, abs=1e-12)


def test_precoder_correlated_nonconvergence_carries_best_iterate():
    theta_t = np.array([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(designs.PrecoderConvergenceError) as exc:
        designs.precoder_correlated(QPSK2, theta_t, np.eye(2), 1, 2.0, max_iter=0)
    assert exc.value.best_gram is not None
    assert np.isfinite(exc.value.best_objective)


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
        d2 = fc.pairwise_sq_distances(c)
        off = d2[~np.eye(c.m, dtype=bool)]
        assert rep.r_min == 1
        assert rep.criterion == pytest.approx(np.sum((1.0 / off) ** n_r), rel=1e-10)


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
