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
constants, the (order, leading derivative) data per class of ordered pairs,
and the dB offsets between measured and bound-predicted expansions.  The
data come from one law of the distance per channel family, read off by
`distance_dist(channel, inputs)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

from .model import (
    CanonicalRayleigh,
    ChannelModel,
    Constellation,
    CorrelatedRayleigh,
    Ricean,
    SnrGrid,
    SpaceTimeCode,
    _check_transmit_size,
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
    "distance_dist",
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
        shape = np.exp(n * np.log(4.0) + lgamma(n + 0.5) - 0.5 * np.log(np.pi) - lgamma(n + 1.0))
        if kind == "pe_lb":
            return shape / (2.0 * m * (m - 1.0))
        return shape / (2.0 * m)
    # n 4^n Gamma(n+3/2) / (sqrt(pi) Gamma(n+2)) shared shape factor
    shape = n * np.exp(n * np.log(4.0) + lgamma(n + 1.5) - 0.5 * np.log(np.pi) - lgamma(n + 2.0))
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
    shape = np.exp((n + 1) * np.log(4.0) + lgamma(n + 1.5) - 0.5 * np.log(np.pi) - lgamma(n + 0.5))
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
    pairs with one distinct difference x_i - x_j (X_i - X_j for space-time
    codes).  ``orders[p]`` is the smallest n with p^(n)(0) != 0 for that
    law and ``values[p]`` that derivative summed over the class, so
    ``values.sum()`` is the sum over ordered pairs.  Pairs
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


def distance_dist(channel: ChannelModel,
                  inputs: Constellation | SpaceTimeCode) -> DistanceDistribution:
    """Density behavior at zero of ||H Delta||^2 under `channel`, one entry
    per distinct difference Delta of `inputs` (a constellation, or a
    space-time code under i.i.d. Rayleigh fading).

    With N nonzero-weight terms in the law (`_law`), the Laplace transform
    decays as s^(-N) prod lam^(-terms) e^(-sum |m|^2): order N - 1 and that
    value.  Weights below EIG_ZERO_REL of a difference's largest count as
    zero; a difference with none left is indistinguishable and excluded.

    Uncorrelated Rayleigh thus gives order n_r - 1 and value
    ||Delta||^(-2 n_r); a zero eigenvalue of Theta_R lowers the correlated
    order; Ricean scales the Rayleigh value by (K+1)^n_r e^(-K ||H0 u||^2),
    u = Delta/||Delta||; a rank-r codeword difference has order n_r*r - 1.
    Excluded pairs drop the infinite-SNR limit to the entropy of the
    distinguishable classes.
    """
    lam, m2, terms, counts = _law(channel, inputs)
    nonzero = lam > EIG_ZERO_REL * lam[:, -1:]
    keep = nonzero[:, -1]
    # cumsum adds the ascending weights' logs in order, as the scalar form does
    log_terms = terms * np.log(np.where(nonzero, lam, 1.0))
    log_values = -np.cumsum(log_terms, axis=1)[:, -1] - np.sum(m2 * nonzero, axis=1)
    n_excluded = int(np.sum(counts[~keep]))
    # only a singular Theta_T nulls a difference
    eff = _distinguishable_class_entropy(inputs, channel.theta_t) if n_excluded else inputs.log_m
    return DistanceDistribution(orders=terms * nonzero[keep].sum(axis=1) - 1,
                                values=counts[keep] * np.exp(log_values[keep]),
                                effective_log_m=eff, n_excluded=n_excluded)


def _law(channel: ChannelModel, inputs: Constellation | SpaceTimeCode):
    """(lam, m2, terms, counts): ||H Delta||^2 = sum_l lam[:, l] * chi_l for
    each distinct difference Delta, chi_l independent sums of `terms`
    squared magnitudes |z + m|^2, z ~ CN(0, 1), whose |m|^2 add up to
    m2[:, l].  lam (D, L) ascends along l; it is 0 where Theta_T nulls Delta."""
    _check_transmit_size(channel.n_t, inputs)
    if isinstance(inputs, SpaceTimeCode) and not isinstance(channel, CanonicalRayleigh):
        raise ValueError("space-time codes are analysed under i.i.d. Rayleigh fading only")
    diffs, counts = pair_differences(inputs)      # built here, after the checks
    if isinstance(inputs, SpaceTimeCode):
        # eig((X_i - X_j)(X_i - X_j)^+), each on n_r terms
        diffs = diffs.reshape(-1, inputs.n_t, inputs.t)
        lam = np.linalg.eigvalsh(diffs @ diffs.conj().transpose(0, 2, 1))
        return lam, np.zeros_like(lam), channel.n_r, counts
    d2 = np.sum(np.abs(diffs) ** 2, axis=1)[:, None]
    if isinstance(channel, CanonicalRayleigh):
        return d2, np.zeros_like(d2), channel.n_r, counts
    if isinstance(channel, CorrelatedRayleigh):
        # Delta^+ Theta_T Delta * lam_R,k, one term each; a form below
        # EIG_ZERO_REL of the largest over all differences counts as nulled
        lam_t = np.real(np.einsum("pi,ij,pj->p", diffs.conj(), channel.theta_t, diffs))
        lam_t = np.where(lam_t < EIG_ZERO_REL * max(lam_t.max(), 1e-300), 0.0, lam_t)
        lam = lam_t[:, None] * np.linalg.eigvalsh(channel.theta_r)
        return lam, np.zeros_like(lam), 1, counts
    if isinstance(channel, Ricean):
        # H Delta = sqrt(||Delta||^2/(K+1)) (z + m) with m = sqrt(K) a_R a_T^+ Delta / ||Delta||
        k = channel.k_factor
        los = np.sum(np.abs(channel.a_r) ** 2) * np.abs(diffs @ channel.a_t.conj())[:, None] ** 2
        return d2 / (k + 1.0), k * los / d2, channel.n_r, counts
    raise TypeError(f"unknown channel model {type(channel)!r}")


def _mgf(law, s) -> np.ndarray:
    """Psi(s) = E exp(-s ||H Delta||^2) = prod_l (1 + s lam_l)^(-terms)
    exp(-sum_l s lam_l m2_l / (1 + s lam_l)) of each distinct difference of a
    `_law`, shape (D,) for a float s and (K, D) for K values; 1 for a
    difference Theta_T nulls."""
    lam, m2, terms, _ = law
    x = np.multiply.outer(s, np.maximum(lam, 0.0))  # eigvalsh of a singular Theta_R may dip below 0
    return np.exp(-np.sum(terms * np.log1p(x) + x * m2 / (1.0 + x), axis=-1))


def _distinguishable_class_entropy(c: Constellation, theta_t: np.ndarray) -> float:
    """Entropy of the partition x_i ~ x_j iff Theta_T^{1/2}(x_i - x_j) = 0.

    With equiprobable inputs this is the infinite-SNR mutual information a
    receiver can extract when some inputs collapse onto each other.
    """
    images = (hermitian_sqrt(theta_t) @ c.points.T).T
    tol = EIG_ZERO_REL * max(float(np.max(np.abs(images))), 1.0) ** 2
    # greedy: the first unlabelled point takes every unlabelled point near it
    labels = np.full(c.m, -1)
    for label in range(c.m):
        free = np.flatnonzero(labels < 0)
        if not free.size:
            break
        d2 = np.sum(np.abs(images[free] - images[free[0]]) ** 2, axis=1)
        labels[free[d2 <= tol]] = label
    probs = np.bincount(labels) / c.m
    return float(-np.sum(probs * np.log(probs)))


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
    sum.  The MI interval equals the MMSE interval divided by d, since
    `expansion_constant` builds the MI constants that way.
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
