"""High-SNR expansion machinery.

For fading channels with discrete inputs, the averaged mutual-information
gap (log M - I), the averaged MMSE and the averaged ML error rate all decay
as powers of 1/snr.  The decay exponent and the leading coefficient are set
by how the density of the received-space pairwise distance d_ij^2 behaves
at zero: if the first nonvanishing derivative over all ordered pairs is
p^(d-1)(0), then

    gap(snr)  ~ eps' / snr^d        with  k'_ub * S <= eps' <= k'_lb * S
    mmse(snr) ~ eps  / snr^(d+1)    with  k_lb  * S <= eps  <= k_ub  * S
    pe(snr)   ~ eps''/ snr^d        with  k''_lb * S <= eps'' <= k''_ub * S

where S sums p^(d-1)(0) over ordered pairs.  This module computes the
constants, the (order, leading derivative) data per class of ordered pairs
for each channel family, and the dB offsets between measured and
bound-predicted expansions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .model import (
    Constellation,
    SnrGrid,
    SpaceTimeCode,
    check_psd,
    hermitian_sqrt,
    pair_differences,
)

__all__ = [
    "BoundPair",
    "DistanceDistribution",
    "ExpansionBounds",
    "expansion_constant",
    "expansion_constant_alt_form",
    "pdf_zero_derivative_weighted",
    "distance_dist_rayleigh",
    "distance_dist_correlated",
    "distance_dist_ricean",
    "distance_dist_spacetime",
    "diversity_order",
    "epsilon_bounds",
    "evaluate_expansion",
    "snr_offsets",
    "analytic_spreads",
]

EIG_ZERO_REL = 1e-10   # eigenvalues below this fraction of the largest count as zero

_CONSTANT_KINDS = ("mmse_lb", "mmse_ub", "mi_lb", "mi_ub", "pe_lb", "pe_ub")


@dataclass(frozen=True)
class BoundPair:
    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= self.upper):
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")


def _check_n_m(n: int, m: int) -> None:
    if int(n) != n or n < 1:
        raise ValueError("order n must be an integer >= 1")
    if int(m) != m or m < 2:
        raise ValueError("cardinality M must be an integer >= 2")


def expansion_constant(kind: str, n: int, m: int) -> float:
    """Leading-coefficient constant for expansion order `n` and cardinality M.

    The mutual-information constants equal the MMSE constants of the
    opposite side divided by n (lower MI constant from upper MMSE constant
    and vice versa), which is enforced here by construction.
    """
    _check_n_m(n, m)
    if kind not in _CONSTANT_KINDS:
        raise ValueError(f"unknown constant kind {kind!r}")
    if kind.startswith("pe"):
        # 4^n Gamma(n+1/2) / (sqrt(pi) Gamma(n+1)), union/genie prefactors
        shape = np.exp(n * np.log(4.0) + gammaln(n + 0.5) - 0.5 * np.log(np.pi) - gammaln(n + 1.0))
        if kind == "pe_lb":
            return shape / (2.0 * m * (m - 1.0))
        return shape / (2.0 * m)
    # n 4^n Gamma(n+3/2) / (sqrt(pi) Gamma(n+2)) shared shape factor
    shape = n * np.exp(n * np.log(4.0) + gammaln(n + 1.5) - 0.5 * np.log(np.pi) - gammaln(n + 2.0))
    mmse_lb = shape / (2.0 * m * (m - 1.0))
    mmse_ub = 2.0 * shape / m
    if kind == "mmse_lb":
        return mmse_lb
    if kind == "mmse_ub":
        return mmse_ub
    if kind == "mi_lb":
        return mmse_ub / n
    return mmse_lb / n


def expansion_constant_alt_form(kind: str, n: int, m: int) -> float:
    """Alternative closed form with a Gamma(n+1/2) denominator that
    circulates for these constants.

    It disagrees with direct quadrature of the defining iterated integrals
    for the mmse/mi kinds (the Gamma(n+2)-denominator forms in
    :func:`expansion_constant` are the ones quadrature confirms); kept so
    both values can be reported side by side.  The pe kinds coincide with
    the primary forms.
    """
    _check_n_m(n, m)
    if kind not in _CONSTANT_KINDS:
        raise ValueError(f"unknown constant kind {kind!r}")
    if kind.startswith("pe"):
        return expansion_constant(kind, n, m)
    shape = np.exp((n + 1) * np.log(4.0) + gammaln(n + 1.5) - 0.5 * np.log(np.pi) - gammaln(n + 0.5))
    if kind == "mmse_lb":
        return n * shape / (8.0 * m * (m - 1.0))
    if kind == "mmse_ub":
        return n * shape / (2.0 * m)
    if kind == "mi_lb":
        return shape / (2.0 * m)
    return shape / (8.0 * m * (m - 1.0))


# ---------------------------------------------------------------------------
# distance-density data at zero
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceDistribution:
    """Behavior of the received-distance density at zero, by class of
    ordered pairs.

    Entry p is a class of ordered pairs whose distances share one law: the
    pairs with one distinct difference x_i - x_j for constellations, a
    single pair for space-time codes.  ``orders[p]`` is the smallest n with
    p^(n)(0) != 0 for that law and ``values[p]`` that derivative summed over
    the class, so ``values.sum()`` is the sum over ordered pairs.  Pairs
    whose received distance is identically zero (indistinguishable under the
    channel) are excluded and counted in ``n_excluded``; their effect is
    absorbed into ``effective_log_m``, the infinite-SNR mutual information
    limit.
    """

    orders: np.ndarray
    values: np.ndarray
    effective_log_m: float
    n_excluded: int = 0

    def __post_init__(self):
        orders = np.asarray(self.orders, dtype=int)
        values = np.asarray(self.values, dtype=float)
        if orders.size == 0:
            raise ValueError("no distinguishable pairs")
        if orders.shape != values.shape:
            raise ValueError("orders and values must align")
        if np.any(orders < 0) or np.any(values <= 0):
            raise ValueError("orders must be >= 0 and leading derivatives > 0")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "values", values)


def pdf_zero_derivative_weighted(eigenvalues) -> tuple[int, float]:
    """Leading density behavior of sum_m lam_m * chi_m where chi_m collects
    mu_m squared CN(0,1) magnitudes.

    The Laplace transform is prod (1 + lam_m s)^(-mu_m); its large-s decay
    s^(-N) * prod lam^(-mu), N = sum mu, fixes the first nonzero derivative
    at the origin: order N-1 with value prod lam^(-mu).

    Parameters: iterable of (eigenvalue > 0, multiplicity >= 1) pairs.
    Returns (order, derivative value).
    """
    pairs = list(eigenvalues)
    if not pairs:
        raise ValueError("empty eigenvalue list")
    total_mu = 0
    log_value = 0.0
    for lam, mu in pairs:
        if lam <= 0:
            raise ValueError("eigenvalues must be positive")
        if int(mu) != mu or mu < 1:
            raise ValueError("multiplicities must be integers >= 1")
        total_mu += int(mu)
        log_value -= mu * np.log(lam)
    return total_mu - 1, float(np.exp(log_value))


def distance_dist_rayleigh(c: Constellation, n_r: int) -> DistanceDistribution:
    """Uncorrelated Rayleigh: per pair, d_ij^2 is Gamma(n_r, scale=dbar_ij^2),
    so the first n_r - 1 derivatives vanish and p^(n_r-1)(0) = dbar^(-2 n_r)."""
    if n_r < 1:
        raise ValueError("n_r must be >= 1")
    diffs, counts = pair_differences(c)
    d2 = np.sum(np.abs(diffs) ** 2, axis=1)
    orders = np.full(d2.size, n_r - 1, dtype=int)
    values = counts * d2 ** (-float(n_r))
    return DistanceDistribution(orders=orders, values=values, effective_log_m=c.log_m)


def distance_dist_correlated(c: Constellation, theta_t, theta_r) -> DistanceDistribution:
    """Separable correlation.  Per pair the distance is a weighted sum of
    n_r squared Gaussians with weights lam_T_ij * lam_R_k, where lam_T_ij is
    the transmit-side quadratic form (x_i-x_j)^+ Theta_T (x_i-x_j).

    Zero receive-side eigenvalues reduce the decay exponent; pairs whose
    difference falls in the null space of Theta_T become indistinguishable
    and are removed, lowering the infinite-SNR limit to the entropy of the
    distinguishable classes.
    """
    theta_t = np.asarray(theta_t, dtype=complex)
    theta_r = np.asarray(theta_r, dtype=complex)
    lam_r = check_psd(theta_r)
    check_psd(theta_t)
    lam_r = np.where(lam_r < EIG_ZERO_REL * max(lam_r[-1], 1e-300), 0.0, lam_r)
    lam_r_pos = lam_r[lam_r > 0]
    n_prime = lam_r_pos.size
    if n_prime == 0:
        raise ValueError("theta_r has no nonzero eigenvalues")

    diffs, counts = pair_differences(c)
    lam_t = np.real(np.einsum("pi,ij,pj->p", diffs.conj(), theta_t, diffs))
    lam_t = np.where(lam_t < EIG_ZERO_REL * max(lam_t.max(), 1e-300), 0.0, lam_t)
    keep = lam_t > 0
    n_excluded = int(np.sum(counts[~keep]))
    if not np.any(keep):
        raise ValueError("all pairs are indistinguishable under theta_t")

    values = counts[keep] * (1.0 / lam_t[keep]) ** n_prime * np.prod(1.0 / lam_r_pos)
    orders = np.full(values.size, n_prime - 1, dtype=int)

    if n_excluded:
        eff = _distinguishable_class_entropy(c, theta_t)
    else:
        eff = c.log_m
    return DistanceDistribution(orders=orders, values=values,
                                effective_log_m=eff, n_excluded=n_excluded)


def _distinguishable_class_entropy(c: Constellation, theta_t: np.ndarray) -> float:
    """Entropy of the partition x_i ~ x_j iff Theta_T^{1/2}(x_i - x_j) = 0.

    With equiprobable inputs this is the infinite-SNR mutual information a
    receiver can extract when some inputs collapse onto each other.
    """
    root = hermitian_sqrt(theta_t)
    pts = c.points
    m = pts.shape[0]
    labels = -np.ones(m, dtype=int)
    images = (root @ pts.T).T
    scale = max(float(np.max(np.abs(images))), 1.0)
    next_label = 0
    for i in range(m):
        if labels[i] >= 0:
            continue
        labels[i] = next_label
        for j in range(i + 1, m):
            if labels[j] < 0 and np.sum(np.abs(images[i] - images[j]) ** 2) <= EIG_ZERO_REL * scale ** 2:
                labels[j] = next_label
        next_label += 1
    counts = np.bincount(labels)
    probs = counts / m
    return float(-np.sum(probs * np.log(probs)))


def distance_dist_ricean(c: Constellation, k_factor: float,
                         a_t, a_r) -> DistanceDistribution:
    """Rank-one line of sight.  Per pair the distance is a noncentral
    chi-square-type sum; the leading derivative keeps the Rayleigh shape
    scaled by (K+1)^n_r and an exponential penalty exp(-K ||H0 u||^2) where
    u is the unit difference direction (the line-of-sight component only
    helps when it projects onto the difference)."""
    if k_factor < 0:
        raise ValueError("K factor must be >= 0")
    a_t = np.asarray(a_t, dtype=complex).ravel()
    a_r = np.asarray(a_r, dtype=complex).ravel()
    n_r = a_r.size
    if a_t.size != c.n_t:
        raise ValueError("a_t must match the constellation antenna count")

    diffs, counts = pair_differences(c)
    d2 = np.sum(np.abs(diffs) ** 2, axis=1)
    # ||H0 u||^2 = ||a_r||^2 |a_t^+ u|^2 for the rank-one H0 = a_r a_t^+
    proj = np.abs(diffs @ a_t.conj()) ** 2 / d2
    trace_term = np.sum(np.abs(a_r) ** 2) * proj
    values = counts * ((k_factor + 1.0) / d2) ** n_r * np.exp(-k_factor * trace_term)
    orders = np.full(values.size, n_r - 1, dtype=int)
    return DistanceDistribution(orders=orders, values=values, effective_log_m=c.log_m)


def distance_dist_spacetime(code: SpaceTimeCode, n_r: int) -> DistanceDistribution:
    """Codeword matrices over t symbol intervals: each nonzero eigenvalue of
    the difference Gram matrix contributes n_r squared-Gaussian degrees, so a
    rank-r pair has order n_r*r - 1 and value prod lam^(-n_r)."""
    if n_r < 1:
        raise ValueError("n_r must be >= 1")
    orders, values = zip(*[pdf_zero_derivative_weighted([(lam, n_r) for lam in lams])
                           for lams in _pair_gram_eigenvalues(code)])
    return DistanceDistribution(orders=np.array(orders), values=np.array(values),
                                effective_log_m=code.log_m)


def _pair_gram_eigenvalues(code: SpaceTimeCode) -> list[np.ndarray]:
    """Nonzero eigenvalues of the difference Gram matrix of every ordered
    pair (i, j), i != j, in row-major order.

    (X_j - X_i)(X_j - X_i)^+ equals (X_i - X_j)(X_i - X_j)^+ bit for bit, so
    each unordered pair is decomposed once and shared by both orders.
    """
    m = code.m
    lams = {}
    for i in range(m):
        for j in range(i + 1, m):
            lam = np.linalg.eigvalsh(code.difference_gram(i, j))
            lam = lam[lam > EIG_ZERO_REL * max(lam[-1], 1e-300)]
            if lam.size == 0:
                raise ValueError(f"codewords {i} and {j} coincide")
            lams[i, j] = lams[j, i] = lam
    return [lams[i, j] for i in range(m) for j in range(m) if i != j]


# ---------------------------------------------------------------------------
# diversity order, coefficient bounds, expansion evaluation
# ---------------------------------------------------------------------------

def diversity_order(dd: DistanceDistribution) -> int:
    """d = 1 + smallest vanishing order over pairs; higher-order pairs do
    not contribute to the leading coefficient."""
    return int(dd.orders.min()) + 1


@dataclass(frozen=True)
class ExpansionBounds:
    """Diversity order, leading-coefficient sum and the bound intervals for
    the three performance measures.  The gap/MMSE/error curves these
    coefficients generate share the same dB-offset structure."""

    d: int
    sum_s: float
    mi: BoundPair
    mmse: BoundPair
    pe: BoundPair
    log_m_limit: float


def epsilon_bounds(dd: DistanceDistribution, m: int) -> ExpansionBounds:
    """Bound intervals for the leading expansion coefficients.

    Only pairs at the minimal vanishing order contribute to the coefficient
    sum.  The MI interval equals the MMSE interval divided by d, which is
    asserted here.
    """
    d = diversity_order(dd)
    at_min = dd.orders == (d - 1)
    sum_s = float(np.sum(dd.values[at_min]))
    mi = BoundPair(lower=expansion_constant("mi_ub", d, m) * sum_s,
                   upper=expansion_constant("mi_lb", d, m) * sum_s)
    mmse = BoundPair(lower=expansion_constant("mmse_lb", d, m) * sum_s,
                     upper=expansion_constant("mmse_ub", d, m) * sum_s)
    pe = BoundPair(lower=expansion_constant("pe_lb", d, m) * sum_s,
                   upper=expansion_constant("pe_ub", d, m) * sum_s)
    if not (np.isclose(mi.lower, mmse.lower / d, rtol=1e-12)
            and np.isclose(mi.upper, mmse.upper / d, rtol=1e-12)):
        raise AssertionError("MI bounds must equal MMSE bounds divided by d")
    return ExpansionBounds(d=d, sum_s=sum_s, mi=mi, mmse=mmse, pe=pe,
                           log_m_limit=dd.effective_log_m)


def evaluate_expansion(eb: ExpansionBounds, grid: SnrGrid) -> dict[str, np.ndarray]:
    """Leading-term curves over the grid.

    mi curves are log_m_limit - coeff/snr^d (both coefficient bounds),
    mmse curves coeff/snr^(d+1), pe curves coeff/snr^d.
    """
    snr = grid.points
    return {
        "snr": snr,
        "mi_lb": eb.log_m_limit - eb.mi.upper / snr ** eb.d,
        "mi_ub": eb.log_m_limit - eb.mi.lower / snr ** eb.d,
        "mmse_lb": eb.mmse.lower / snr ** (eb.d + 1),
        "mmse_ub": eb.mmse.upper / snr ** (eb.d + 1),
        "pe_lb": eb.pe.lower / snr ** eb.d,
        "pe_ub": eb.pe.upper / snr ** eb.d,
    }


def snr_offsets(eb: ExpansionBounds, empirical_eps: float,
                empirical_eps_prime: float) -> tuple[float, float, float, float]:
    """dB offsets between the measured expansion coefficients and their
    bound-predicted values: (delta_lb, delta_ub) for the MMSE curve and
    (delta_prime_lb, delta_prime_ub) for the MI-gap curve.

    Because a coefficient ratio r shifts the curve by r^(1/(d+1)) (MMSE) or
    r^(1/d) (gap) in SNR, the spreads delta_ub - delta_lb and
    delta_prime_lb - delta_prime_ub are fixed by the constant ratio
    4(M-1) independently of the measurement.
    """
    if empirical_eps <= 0 or empirical_eps_prime <= 0:
        raise ValueError("empirical coefficients must be positive")
    d = eb.d
    delta_lb = (10.0 / (d + 1)) * np.log10(eb.mmse.lower / empirical_eps)
    delta_ub = (10.0 / (d + 1)) * np.log10(eb.mmse.upper / empirical_eps)
    delta_p_lb = (10.0 / d) * np.log10(eb.mi.upper / empirical_eps_prime)
    delta_p_ub = (10.0 / d) * np.log10(eb.mi.lower / empirical_eps_prime)
    return float(delta_lb), float(delta_ub), float(delta_p_lb), float(delta_p_ub)


def analytic_spreads(d: int, m: int) -> tuple[float, float]:
    """Measurement-independent spreads (delta_ub - delta_lb,
    delta_prime_lb - delta_prime_ub) in dB."""
    _check_n_m(d, m)
    ratio = 4.0 * (m - 1.0)
    return (10.0 / (d + 1)) * np.log10(ratio), (10.0 / d) * np.log10(ratio)
