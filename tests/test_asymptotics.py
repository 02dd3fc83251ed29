"""Expansion constants, distance-density engines and offset identities."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc, factorial, iv

import fadecap as fc
from fadecap.asymptotics import (
    EIG_ZERO_REL,
    BoundPair,
    _distinguishable_class_entropy,
    _law,
    analytic_spreads,
    expansion_constant,
    expansion_constant_alt_form,
)
from fadecap.model import _distinct_rows, ordered_pair_differences, pair_differences

ALL_KINDS = ("mmse_lb", "mmse_ub", "mi_lb", "mi_ub", "pe_lb", "pe_ub")


# ---------------------------------------------------------------------------
# constants and their defining integrals
# ---------------------------------------------------------------------------

def iterated_integral_constant(kind, n, m):
    """Independent quadrature oracle.

    The n-fold iterated tail integral of a kernel f collapses to
    int f(t) t^(n-1)/(n-1)! dt; the kernels are c*t*erfc(sqrt(t/4)) for the
    estimation-error constants and c*erfc(sqrt(t/4)) for the error-rate
    constants.  The information constants are the opposite-side
    estimation-error constants divided by n.
    """
    if kind == "mi_lb":
        return iterated_integral_constant("mmse_ub", n, m) / n
    if kind == "mi_ub":
        return iterated_integral_constant("mmse_lb", n, m) / n
    if kind.startswith("mmse"):
        pref = 1.0 / (8 * m * (m - 1)) if kind == "mmse_lb" else 1.0 / (2 * m)
        def f(t):
            return pref * t * erfc(np.sqrt(t / 4.0))
    else:
        pref = 1.0 / (2 * m * (m - 1)) if kind == "pe_lb" else 1.0 / (2 * m)
        def f(t):
            return pref * erfc(np.sqrt(t / 4.0))
    # substitute t = 4u^2 so the integrand decays like a Gaussian
    def g(u):
        t = 4.0 * u * u
        return f(t) * t ** (n - 1) / factorial(n - 1) * 8.0 * u
    val, err = quad(g, 0, np.inf, limit=400, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-9 * max(abs(val), 1.0)
    return val


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 16])
def test_constants_match_quadrature(kind, n, m):
    assert expansion_constant(kind, n, m) == pytest.approx(
        iterated_integral_constant(kind, n, m), rel=1e-8)


def test_constant_spot_values():
    assert expansion_constant("mmse_ub", 1, 2) == pytest.approx(1.5, rel=1e-12)
    assert expansion_constant("mi_lb", 1, 16) == pytest.approx(0.1875, rel=1e-12)
    assert expansion_constant("pe_ub", 1, 2) == pytest.approx(0.5, rel=1e-12)
    # reference integrals behind the spot values
    assert quad(lambda t: t * erfc(np.sqrt(t / 4)), 0, np.inf)[0] == pytest.approx(6.0, rel=1e-10)
    assert quad(lambda t: erfc(np.sqrt(t / 4)), 0, np.inf)[0] == pytest.approx(2.0, rel=1e-10)


@pytest.mark.parametrize("m", [2, 4, 16, 64, 256])
@pytest.mark.parametrize("n", range(1, 7))
def test_information_constants_are_scaled_estimation_constants(n, m):
    assert expansion_constant("mi_lb", n, m) == expansion_constant("mmse_ub", n, m) / n
    assert expansion_constant("mi_ub", n, m) == expansion_constant("mmse_lb", n, m) / n


@pytest.mark.parametrize("measure", ["mmse", "mi", "pe"])
def test_constant_ratios(measure):
    # the wide/narrow constant ratio is 4(M-1) (M-1 for the error rate);
    # for mutual information the capacity lower bound carries the larger one
    for m in (2, 4, 16):
        ub = expansion_constant(f"{measure}_ub", 2, m)
        lb = expansion_constant(f"{measure}_lb", 2, m)
        wide = lb / ub if measure == "mi" else ub / lb
        expected = (m - 1.0) if measure == "pe" else 4.0 * (m - 1.0)
        assert wide == pytest.approx(expected, rel=1e-12)


def test_alt_form_disagrees_with_quadrature():
    # the alternative Gamma closed form is not what the defining integrals give
    main = expansion_constant("mmse_ub", 1, 2)
    alt = expansion_constant_alt_form("mmse_ub", 1, 2)
    oracle = iterated_integral_constant("mmse_ub", 1, 2)
    assert main == pytest.approx(oracle, rel=1e-10)
    assert abs(alt - oracle) > 0.1 * oracle
    # error-rate constants coincide in both forms
    assert expansion_constant_alt_form("pe_lb", 2, 4) == expansion_constant("pe_lb", 2, 4)


def test_constant_validation():
    with pytest.raises(ValueError):
        expansion_constant("mmse_lb", 0, 2)
    with pytest.raises(ValueError):
        expansion_constant("mmse_lb", 1, 1)
    with pytest.raises(ValueError):
        expansion_constant("nope", 1, 2)


def test_erfc_integral_identity():
    # erfc(sqrt(t/4)) = (2/pi) int exp(-t (x^2+1)/4) / (x^2+1) dx
    for t in (0.3, 1.0, 4.0):
        val, _ = quad(lambda x: np.exp(-t * (x * x + 1) / 4.0) / (x * x + 1), 0, np.inf)
        assert 2.0 / np.pi * val == pytest.approx(erfc(np.sqrt(t / 4.0)), rel=1e-10)


# ---------------------------------------------------------------------------
# weighted quadratic-form density engine
# ---------------------------------------------------------------------------

def test_pdf_zero_single_exponential():
    order, value = fc.pdf_zero_derivative_weighted([(2.5, 1)])
    assert order == 0 and value == pytest.approx(1 / 2.5)


def test_pdf_zero_two_distinct_rates_vs_closed_form():
    lam1, lam2 = 1.7, 0.4
    order, value = fc.pdf_zero_derivative_weighted([(lam1, 1), (lam2, 1)])
    assert order == 1 and value == pytest.approx(1 / (lam1 * lam2), rel=1e-12)
    # derivative at zero of the two-term exponential mixture density
    def p(x):
        return (np.exp(-x / lam1) - np.exp(-x / lam2)) / (lam1 - lam2)
    h = 1e-6
    assert (p(h) - p(0.0)) / h == pytest.approx(value, rel=1e-4)


def test_pdf_zero_repeated_multiplicities():
    order, value = fc.pdf_zero_derivative_weighted([(2.0, 2), (3.0, 2)])
    assert order == 3 and value == pytest.approx(1.0 / 36.0, rel=1e-12)


def test_pdf_zero_convolution_cross_check():
    """Transform-route leading derivative agrees with direct quadrature of
    the density (convolution of two Gamma(2, lam) factors) near zero, where
    p(x) ~ value * x^order / order!."""
    lam = [1.3, 0.6]
    n_r = 2
    order, value = fc.pdf_zero_derivative_weighted([(l, n_r) for l in lam])
    assert order == 2 * n_r - 1
    def gamma2(x, l):
        return x * np.exp(-x / l) / l ** 2
    def dens(x):
        return quad(lambda u: gamma2(u, lam[0]) * gamma2(x - u, lam[1]), 0, x)[0]
    x = 1e-3
    lead = dens(x) * factorial(order) / x ** order
    assert lead == pytest.approx(value, rel=1e-2)


def test_pdf_zero_validation():
    with pytest.raises(ValueError):
        fc.pdf_zero_derivative_weighted([])
    with pytest.raises(ValueError):
        fc.pdf_zero_derivative_weighted([(0.0, 1)])
    with pytest.raises(ValueError):
        fc.pdf_zero_derivative_weighted([(1.0, 0)])


# ---------------------------------------------------------------------------
# per-family distance distributions
# ---------------------------------------------------------------------------

def test_rayleigh_distribution_bpsk():
    c = fc.make_constellation("bpsk", 1)
    dd = fc.distance_dist(fc.CanonicalRayleigh(c.n_t, 1), c)
    assert np.all(dd.orders == 0)
    assert np.allclose(dd.values, 0.25)
    assert np.sum(dd.values) == pytest.approx(0.5)
    dd2 = fc.distance_dist(fc.CanonicalRayleigh(c.n_t, 2), c)
    assert np.all(dd2.orders == 1)
    assert np.allclose(dd2.values, 1 / 16)


def test_correlated_identity_reduces_to_rayleigh():
    c = fc.make_constellation("qpsk", 2)
    dd_ray = fc.distance_dist(fc.CanonicalRayleigh(c.n_t, 2), c)
    dd_cor = fc.distance_dist(fc.CorrelatedRayleigh(theta_t=np.eye(2), theta_r=np.eye(2)), c)
    assert np.array_equal(dd_ray.orders, dd_cor.orders)
    assert np.allclose(dd_ray.values, dd_cor.values, rtol=1e-12)


def test_correlated_receive_eigenvalue_multiplier():
    c = fc.make_constellation("bpsk", 2)
    theta_r = np.array([[1.0, 0.8], [0.8, 1.0]])   # eigenvalues 1.8, 0.2
    dd_cor = fc.distance_dist(fc.CorrelatedRayleigh(theta_t=np.eye(2), theta_r=theta_r), c)
    dd_ray = fc.distance_dist(fc.CanonicalRayleigh(c.n_t, 2), c)
    assert np.allclose(dd_cor.values / dd_ray.values, 1.0 / 0.36, rtol=1e-10)


def test_correlated_degenerate_pair_exclusion():
    # theta_t null space aligned with the difference of the first two points
    pts = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]) / np.sqrt(2)
    c = fc.make_constellation("custom", 2, points=pts)
    theta_t = np.array([[1.0, -1.0], [-1.0, 1.0]])   # kills [1,1] directions
    theta_r = np.eye(2)
    dd = fc.distance_dist(fc.CorrelatedRayleigh(theta_t=theta_t, theta_r=theta_r), c)
    assert dd.n_excluded == 2           # the ordered pair (0,1) and its mirror
    assert dd.orders.size == 4
    expected = -(2 / 3) * np.log(2 / 3) - (1 / 3) * np.log(1 / 3)
    assert dd.effective_log_m == pytest.approx(expected, rel=1e-12)
    assert dd.effective_log_m < np.log(3)


def test_class_entropy_counts_distinct_images():
    """qam16 on two antennas under the all-ones Theta_T: x and x' collapse
    iff x_1 + x_2 = x'_1 + x'_2, so the classes are the 49 distinct sums,
    counted here independently of the greedy labelling."""
    c = fc.make_constellation("qam16", 2)
    theta_t = np.ones((2, 2))
    sums = np.round(c.points.sum(axis=1) * np.sqrt(10.0) * np.sqrt(2.0)).astype(complex)
    _, counts = np.unique(sums, return_counts=True)
    assert counts.size == 49 and counts.sum() == c.m
    probs = counts / c.m
    expected = float(-np.sum(probs * np.log(probs)))
    assert _distinguishable_class_entropy(c, theta_t) == pytest.approx(expected, rel=1e-12)
    dd = fc.distance_dist(fc.CorrelatedRayleigh(theta_t=theta_t, theta_r=np.eye(2)), c)
    assert dd.effective_log_m == pytest.approx(expected, rel=1e-12)


def test_degenerate_receive_correlation_drops_order():
    c = fc.make_constellation("bpsk", 1)
    theta_r = np.array([[1.0, 1.0], [1.0, 1.0]])    # rank one: n' = 1
    dd = fc.distance_dist(fc.CorrelatedRayleigh(theta_t=np.eye(1), theta_r=theta_r), c)
    assert np.all(dd.orders == 0)
    # single surviving receive eigenvalue is 2
    assert np.allclose(dd.values, (1 / 4) * (1 / 2))
    assert fc.diversity_order(dd) == 1


def test_ricean_k0_reduces_to_rayleigh():
    c = fc.make_constellation("qam16", 1)
    dd_ray = fc.distance_dist(fc.CanonicalRayleigh(c.n_t, 2), c)
    dd_ric = fc.distance_dist(fc.Ricean(k_factor=0.0, a_t=[1.0], a_r=[1.0, 1.0]), c)
    assert np.array_equal(dd_ray.orders, dd_ric.orders)
    assert np.allclose(dd_ray.values, dd_ric.values, rtol=1e-12)


def test_ricean_orthogonal_line_of_sight_example():
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    c = fc.make_constellation("custom", 2, points=pts)
    for k in (0.0, 2.0, 5.0):
        dd = fc.distance_dist(fc.Ricean(k_factor=k, a_t=[1, 1], a_r=[1, 1]), c)
        # difference is orthogonal to the transmit response: no exponential
        # penalty, each ordered pair contributes ((K+1)/2)^2
        assert np.allclose(dd.values, ((k + 1) / 2.0) ** 2, rtol=1e-12)
        assert np.sum(dd.values) == pytest.approx((k + 1) ** 2 / 2.0, rel=1e-12)


def test_ricean_scalar_scaling():
    c = fc.make_constellation("qam16", 1)
    k = 2.0
    dd_ray = fc.distance_dist(fc.CanonicalRayleigh(c.n_t, 1), c)
    dd_ric = fc.distance_dist(fc.Ricean(k_factor=k, a_t=[1.0], a_r=[1.0]), c)
    assert np.allclose(dd_ric.values, dd_ray.values * (k + 1) * np.exp(-k), rtol=1e-12)


def test_ricean_bessel_density_cross_check():
    """Leading derivative from the noncentral-quadratic-form density (the
    small-argument Bessel series) matches the engine for n_r in {1, 2}."""
    lam, k, tau = 2.0, 1.5, 0.7     # tau = line-of-sight projection term
    theta = lam / (k + 1.0)
    s2 = lam * k / (k + 1.0) * tau
    for n_r in (1, 2):
        def dens(x):
            return (1 / theta) * (x / s2) ** ((n_r - 1) / 2) * \
                np.exp(-(s2 + x) / theta) * iv(n_r - 1, 2 * np.sqrt(s2 * x) / theta)
        x = 1e-4
        lead = dens(x) * factorial(n_r - 1) / x ** (n_r - 1)
        expected = (1 / theta) ** n_r * np.exp(-k * tau)
        assert lead == pytest.approx(expected, rel=1e-3)


def test_spacetime_distribution_cases():
    # rank-1 differences, n_r = 1: order 0, value 1/lam
    cws = np.zeros((2, 2, 2), dtype=complex)
    cws[1, 0, :] = [1.0, 1.0]
    code = fc.SpaceTimeCode(codewords=cws)
    dd = fc.distance_dist(fc.CanonicalRayleigh(code.n_t, 1), code)
    assert np.all(dd.orders == 0)
    assert np.allclose(dd.values, 0.5)
    # full-rank pair with eigenvalues (2, 2), n_r = 2: order 3, value 1/16
    cws2 = np.zeros((2, 2, 2), dtype=complex)
    cws2[1] = np.sqrt(2.0) * np.eye(2)
    code2 = fc.SpaceTimeCode(codewords=cws2)
    dd2 = fc.distance_dist(fc.CanonicalRayleigh(code2.n_t, 2), code2)
    assert np.all(dd2.orders == 3)
    assert np.allclose(dd2.values, 1.0 / 16.0)


def test_spacetime_t1_reduces_to_rayleigh():
    # a t = 1 code groups its codeword differences as the constellation
    # groups its point differences, so the two distributions agree class by class
    c = fc.make_constellation("qpsk", 2)
    code = fc.SpaceTimeCode(codewords=c.points[:, :, None])
    for n_r in (1, 2):
        dd_code = fc.distance_dist(fc.CanonicalRayleigh(code.n_t, n_r), code)
        dd_ray = fc.distance_dist(fc.CanonicalRayleigh(c.n_t, n_r), c)
        assert np.all(dd_ray.orders == n_r - 1)
        assert np.array_equal(dd_code.orders, dd_ray.orders)
        assert np.allclose(dd_code.values, dd_ray.values, rtol=1e-12, atol=0.0)


def test_spacetime_distribution_matches_scalar_form_bit_for_bit():
    """The batched pass equals `pdf_zero_derivative_weighted` applied to each
    distinct difference's nonzero Gram eigenvalues at multiplicity n_r, bit
    for bit, on random codes with and without rank-deficient differences."""
    rng = np.random.default_rng(15)
    for trial in range(60):
        n_t, t = rng.integers(1, 4, size=2)
        m = int(rng.integers(2, 24))
        cws = rng.standard_normal((m, n_t, t)) + 1j * rng.standard_normal((m, n_t, t))
        if trial % 3 == 0:
            cws[:, -1, :] = (0.5 - 0.25j) * cws[:, 0, :]     # rank <= n_t - 1 for n_t >= 2
        code = fc.SpaceTimeCode(codewords=cws)
        n_r = trial % 3 + 1
        diffs, counts = _distinct_rows(ordered_pair_differences(cws.reshape(m, -1)))
        diffs = diffs.reshape(-1, n_t, t)
        lam = np.linalg.eigvalsh(diffs @ diffs.conj().transpose(0, 2, 1))
        oracle = [fc.pdf_zero_derivative_weighted(
            [(x, n_r) for x in row[row > EIG_ZERO_REL * row[-1]]])
            for row in lam]
        dd = fc.distance_dist(fc.CanonicalRayleigh(code.n_t, n_r), code)
        assert dd.orders.tolist() == [order for order, _ in oracle]
        assert np.array_equal(dd.values, counts * np.array([value for _, value in oracle]))


@pytest.mark.parametrize("c", [
    fc.make_constellation("qam16", 2), fc.make_constellation("qpsk", 3),
    fc.make_constellation("custom", 1, points=[0.0, 1.0, 2.0, 2.0 + 1j, 3.0 + 1j, -0.5j]),
], ids=["qam16_nt2", "qpsk_nt3", "custom_asym"])
@pytest.mark.parametrize("theta_t", ["banded", "singular"])
def test_distance_builders_match_ordered_pair_reference(c, theta_t):
    """Each family's sum, exclusions, diversity order and coefficient sum
    equal the ordered-pair formulas, and each class's order and value equal
    its closed form.  The all-ones Theta_T is singular for n_t >= 2 and
    removes every difference whose entries sum to zero."""
    n_t, n_r = c.n_t, 2
    idx = np.arange(n_t)
    theta = (0.5 ** np.abs(idx[:, None] - idx[None, :]) if theta_t == "banded"
             else np.ones((n_t, n_t)))
    theta_r = np.array([[1.0, 0.8], [0.8, 1.0]])
    a_t, a_r = np.exp(0.7j * idx), np.array([1.0, 1j])
    diffs = ordered_pair_differences(c)
    d2 = np.sum(np.abs(diffs) ** 2, axis=1)
    lam_t = np.real(np.einsum("pi,ij,pj->p", diffs.conj(), theta, diffs))
    keep = lam_t >= 1e-10 * lam_t.max()
    los = np.sum(np.abs(a_r) ** 2) * np.abs(diffs @ a_t.conj()) ** 2 / d2
    # per class: one entry per distinct difference, in pair_differences order
    u, counts = pair_differences(c)
    u2 = np.sum(np.abs(u) ** 2, axis=1)
    u_t = np.real(np.einsum("pi,ij,pj->p", u.conj(), theta, u))
    u_keep = u_t >= 1e-10 * u_t.max()
    u_los = np.sum(np.abs(a_r) ** 2) * np.abs(u @ a_t.conj()) ** 2 / u2
    rayleigh = counts * u2 ** -float(n_r)
    code = fc.SpaceTimeCode(codewords=c.points[:, :, None])
    cases = [
        (fc.distance_dist(fc.CanonicalRayleigh(n_t, n_r), c),
         np.sum(d2 ** -float(n_r)), 0, rayleigh, 1e-13),
        (fc.distance_dist(fc.CorrelatedRayleigh(theta_t=theta, theta_r=theta_r), c),
         np.sum(lam_t[keep] ** -float(n_r)) / np.prod(np.linalg.eigvalsh(theta_r)),
         int(np.sum(~keep)),
         counts[u_keep] * u_t[u_keep] ** -float(n_r) / np.prod(np.linalg.eigvalsh(theta_r)), 1e-13),
        (fc.distance_dist(fc.CanonicalRayleigh(n_t=n_t, n_r=n_r), code),
         np.sum(d2 ** -float(n_r)), 0, rayleigh, 1e-12),
    ]
    for k in (1.5, 10.0):
        cases.append((fc.distance_dist(fc.Ricean(k_factor=k, a_t=a_t, a_r=a_r), c),
                      np.sum(((k + 1.0) / d2) ** n_r * np.exp(-k * los)), 0,
                      counts * ((k + 1.0) / u2) ** n_r * np.exp(-k * u_los), 1e-13))
    if theta_t == "singular" and n_t > 1:
        assert cases[1][2] > 0
    for dd, sum_s, n_excluded, per_class, rtol in cases:
        assert np.sum(dd.values) == pytest.approx(sum_s, rel=1e-12)
        assert dd.n_excluded == n_excluded
        assert fc.diversity_order(dd) == n_r
        assert fc.epsilon_bounds(dd, c.m).sum_s == pytest.approx(sum_s, rel=1e-12)
        assert dd.orders.tolist() == [n_r - 1] * per_class.size
        np.testing.assert_allclose(dd.values, per_class, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("channel, delta", [
    (fc.CanonicalRayleigh(n_t=1, n_r=2), [1.3 - 0.4j]),
    (fc.CorrelatedRayleigh(theta_t=[[1.0, 0.5], [0.5, 1.0]], theta_r=np.ones((2, 2))),
     [1.0, -0.5j]),
    (fc.Ricean(k_factor=1.5, a_t=[1.0, 1j], a_r=[1.0, -1.0]), [1.0, 0.5]),
], ids=["rayleigh_1x2", "correlated_rank_one_theta_r", "ricean_k1.5"])
def test_distance_law_mean_matches_samples(channel, delta):
    """The law's mean, sum_l lam_l (terms + sum |m|^2), and variance,
    sum_l lam_l^2 (terms + 2 sum |m|^2), equal the sample moments of
    ||H Delta||^2 within 4 standard errors, for Delta and -Delta.  The
    variance tells a rank-one Theta_R from the identity, the mean cannot."""
    delta = np.asarray(delta, dtype=complex)
    if isinstance(channel, fc.Ricean):
        assert abs(channel.a_t.conj() @ delta) > 0.5
    c = fc.make_constellation("custom", delta.size, points=[np.zeros_like(delta), delta])
    lam, m2, terms, counts = _law(channel, c)
    assert counts.tolist() == [1, 1]
    x = fc.mc.distance_squared_samples(channel, delta, 20_000, seed=16)
    mean = np.sum(lam * (terms + m2), axis=1)
    assert np.all(np.abs(mean - x.mean()) <= 4.0 * x.std(ddof=1) / np.sqrt(x.size))
    dev2 = (x - x.mean()) ** 2
    var = np.sum(lam ** 2 * (terms + 2.0 * m2), axis=1)
    assert np.all(np.abs(var - dev2.mean()) <= 4.0 * dev2.std(ddof=1) / np.sqrt(x.size))


def test_distance_dist_rejects_unsupported_inputs():
    c = fc.make_constellation("qpsk", 2)
    code = fc.SpaceTimeCode(codewords=c.points[:, :, None])
    with pytest.raises(ValueError, match="n_t"):
        fc.distance_dist(fc.CanonicalRayleigh(n_t=3, n_r=1), c)
    with pytest.raises(ValueError, match="i.i.d. Rayleigh"):
        fc.distance_dist(fc.CorrelatedRayleigh(theta_t=np.eye(2), theta_r=np.eye(2)), code)
    with pytest.raises(TypeError, match="unknown channel"):
        fc.distance_dist(SimpleNamespace(n_t=1, n_r=1), fc.make_constellation("bpsk", 1))


# ---------------------------------------------------------------------------
# diversity order, coefficient bounds, curves, offsets
# ---------------------------------------------------------------------------

def test_diversity_order_rules():
    c = fc.make_constellation("bpsk", 1)
    assert fc.diversity_order(fc.distance_dist(fc.CanonicalRayleigh(c.n_t, 2), c)) == 2
    # mixed-rank space-time set: rank-1 pairs dominate
    cws = np.zeros((3, 2, 2), dtype=complex)
    cws[1, 0, :] = [1.0, 0.0]
    cws[2] = np.eye(2)
    dd = fc.distance_dist(fc.CanonicalRayleigh(2, 1), fc.SpaceTimeCode(codewords=cws))
    assert fc.diversity_order(dd) == 1


def test_epsilon_bounds_bpsk_rayleigh():
    c = fc.make_constellation("bpsk", 1)
    eb = fc.epsilon_bounds(fc.distance_dist(fc.CanonicalRayleigh(c.n_t, 1), c), c.m)
    assert eb.d == 1 and eb.sum_s == pytest.approx(0.5)
    assert eb.mi.lower == pytest.approx(0.1875, rel=1e-12)
    assert eb.mi.upper == pytest.approx(0.75, rel=1e-12)
    assert eb.mi.lower == pytest.approx(eb.mmse.lower / eb.d, rel=1e-12)
    assert eb.mi.upper == pytest.approx(eb.mmse.upper / eb.d, rel=1e-12)
    assert eb.mi.upper / eb.mi.lower == pytest.approx(4 * (c.m - 1), rel=1e-12)
    assert eb.pe.upper / eb.pe.lower == pytest.approx(c.m - 1, rel=1e-12)


def test_epsilon_bounds_ricean_examples():
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    c = fc.make_constellation("custom", 2, points=pts)
    k = 2.0
    ricean = fc.Ricean(k_factor=k, a_t=[1, 1], a_r=[1, 1])
    eb_ric = fc.epsilon_bounds(fc.distance_dist(ricean, c), c.m)
    assert eb_ric.d == 2
    assert eb_ric.sum_s == pytest.approx((k + 1) ** 2 / 2, rel=1e-12)
    assert eb_ric.mi.lower == pytest.approx(1.25 * 4.5, rel=1e-12)
    assert eb_ric.mi.upper == pytest.approx(5.0 * 4.5, rel=1e-12)
    eb_ray = fc.epsilon_bounds(fc.distance_dist(fc.CanonicalRayleigh(c.n_t, 2), c), c.m)
    assert eb_ric.sum_s / eb_ray.sum_s == pytest.approx((k + 1) ** 2, rel=1e-12)


def test_only_minimal_order_pairs_contribute():
    dd = fc.DistanceDistribution(orders=np.array([0, 1, 0]),
                                 values=np.array([0.3, 100.0, 0.2]),
                                 effective_log_m=np.log(3))
    eb = fc.epsilon_bounds(dd, 3)
    assert eb.d == 1 and eb.sum_s == pytest.approx(0.5)


def test_evaluate_expansion_power_law():
    c = fc.make_constellation("bpsk", 1)
    eb = fc.epsilon_bounds(fc.distance_dist(fc.CanonicalRayleigh(c.n_t, 2), c), c.m)
    grid = fc.SnrGrid(points=np.array([50.0, 100.0]))
    curves = fc.evaluate_expansion(eb, grid)
    gap0 = eb.log_m_limit - curves["mi_lb"][0]
    gap1 = eb.log_m_limit - curves["mi_lb"][1]
    assert gap0 / gap1 == pytest.approx(4.0, rel=1e-12)     # d = 2: doubling snr -> 4x


def test_evaluate_expansion_bpsk_values():
    c = fc.make_constellation("bpsk", 1)
    eb = fc.epsilon_bounds(fc.distance_dist(fc.CanonicalRayleigh(c.n_t, 1), c), c.m)
    grid = fc.SnrGrid(points=np.array([100.0]))
    curves = fc.evaluate_expansion(eb, grid)
    assert np.log(2) - curves["mi_lb"][0] == pytest.approx(7.5e-3, rel=1e-12)
    assert np.log(2) - curves["mi_ub"][0] == pytest.approx(1.875e-3, rel=1e-12)
    assert curves["pe_ub"][0] == pytest.approx(0.25 / 100.0, rel=1e-12)


def test_snr_offsets_identities_and_tables():
    c16 = fc.make_constellation("qam16", 1)
    eb = fc.epsilon_bounds(fc.distance_dist(fc.CanonicalRayleigh(c16.n_t, 1), c16), c16.m)
    d_lb, d_ub, dp_lb, dp_ub = fc.snr_offsets(eb, 0.1, 0.1)
    assert d_ub - d_lb == pytest.approx(5 * np.log10(60), rel=1e-12)
    assert dp_lb - dp_ub == pytest.approx(10 * np.log10(60), rel=1e-12)
    # the spreads match the published 16-QAM single-antenna row to 0.1 dB
    assert d_ub - d_lb == pytest.approx(2.0 - (-6.9), abs=0.1)
    assert dp_lb - dp_ub == pytest.approx(3.9 - (-13.8), abs=0.1)
    # binary-input row: 1.1 - (-4.9) = 6.0 dB
    c2 = fc.make_constellation("bpsk", 1)
    eb2 = fc.epsilon_bounds(fc.distance_dist(fc.CanonicalRayleigh(c2.n_t, 1), c2), c2.m)
    _, _, dp_lb2, dp_ub2 = fc.snr_offsets(eb2, 0.3, 0.3)
    assert dp_lb2 - dp_ub2 == pytest.approx(6.0, abs=0.1)
    # coefficient measured exactly at its upper bound: zero offset there
    _, _, dp_lb3, _ = fc.snr_offsets(eb2, eb2.mmse.upper, eb2.mi.upper)
    assert dp_lb3 == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fc.snr_offsets(eb, -1.0, 0.1)


def test_analytic_spreads_match_offset_differences():
    for m, d in [(16, 1), (16, 2), (2, 1), (64, 1), (256, 1)]:
        s_mmse, s_mi = analytic_spreads(d, m)
        assert s_mmse == pytest.approx((10 / (d + 1)) * np.log10(4 * (m - 1)), rel=1e-12)
        assert s_mi == pytest.approx((10 / d) * np.log10(4 * (m - 1)), rel=1e-12)


def test_scalar_ricean_coefficient_decreases_with_k():
    c = fc.make_constellation("qam16", 1)
    ks = np.linspace(0.0, 10.0, 21)
    sums = [np.sum(fc.distance_dist(fc.Ricean(k_factor=k, a_t=[1.0], a_r=[1.0]), c).values)
            for k in ks]
    assert np.all(np.diff(sums) <= 1e-12)


def test_bound_pair_validation():
    with pytest.raises(ValueError):
        BoundPair(lower=2.0, upper=1.0)
