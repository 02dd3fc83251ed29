"""System design procedures driven by the high-SNR expansion coefficients.

One entry point per job, each reading the channel family off its input:

- `palloc_highsnr(subs, budget)`: closed-form power allocation across
  parallel scalar subchannels, each with its own `Fading(variance, mean)`
  (Rayleigh at mean 0, Ricean otherwise); `palloc_numeric` (Brent's
  method on each pairwise power transfer) and `subchannel_capacities`
  validate it by Monte Carlo on common draws, which one `_Banks` draws once
  and evaluates once per (subchannel, power).
- `optimal_precoder(channel, c, p_total)`: the gap-minimizing precoder for
  a `CanonicalRayleigh` or `CorrelatedRayleigh` channel (the scaled identity
  when its stationarity residual certifies it, else projected gradient on
  the Gram matrix), and `precoder_objective(z, channel, c)` its objective.
- `st_criteria` / `st_compare`: ranking of space-time codebooks by
  (minimum difference rank, leading coefficient).

Sign convention for the space-time criterion: we *minimize*
sum over minimal-rank pairs of prod(1/lambda)^n_r, equivalently maximize
the products of nonzero difference-Gram eigenvalues, matching the classic
rank-and-determinant rules; a smaller criterion means a smaller high-SNR
capacity gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import mc
from .asymptotics import EIG_ZERO_REL, distance_dist, epsilon_bounds
from .model import (
    CanonicalRayleigh,
    Constellation,
    CorrelatedRayleigh,
    SpaceTimeCode,
    _check_transmit_size,
    _complex_normal,
    hermitian_sqrt,
    pair_differences,
)

__all__ = [
    "Fading",
    "SubchannelSpec",
    "PowerAllocation",
    "Precoder",
    "PrecoderReport",
    "PrecoderConvergenceError",
    "palloc_highsnr",
    "palloc_numeric",
    "subchannel_capacities",
    "optimal_precoder",
    "precoder_objective",
    "st_criteria",
    "st_compare",
    "SpaceTimeReport",
]

BUDGET_TOL = 1e-9
# Most subchannels `palloc_numeric` searches over; each sweep of its
# coordinate search makes one line search per pair of subchannels.
MAX_NUMERIC_SUBCHANNELS = 4
# Resolution of the power-allocation search, as a fraction of the budget.
SEARCH_TOL = 1e-3
# Most float64 noise-table entries, C * N * (sum of the factor sizes Q over
# the subchannels), that the palloc banks may hold (512 MB).  A grid's level
# factor holds one (C, N) table, within that count, and `_bank_mi` adds its
# (2Q - 1, C, N) logit table; any other set's factor a (Q, C, N) table, and
# `_bank_mi` one work set of two (Q, C, N) buffers at the largest Q.
MAX_BANK_ENTRIES = 2 ** 26
# The precoder's projected gradient stops when one step lowers the objective
# by less than PRECODER_REL_TOL of its value, and fails after
# PRECODER_MAX_ITER steps.
PRECODER_MAX_ITER = 10_000
PRECODER_REL_TOL = 1e-10


# ---------------------------------------------------------------------------
# parallel scalar subchannels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fading:
    """Scalar fading h ~ CN(mean, variance): Rayleigh at mean 0, Ricean
    (line of sight) otherwise."""

    variance: float
    mean: complex = 0

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("fading variance must be positive")


@dataclass(frozen=True)
class SubchannelSpec:
    """One scalar subchannel: y = sqrt(snr) h sqrt(p) x + n with h drawn
    CN(mean, variance) and x from a unit-power scalar constellation."""

    constellation: Constellation
    fading: Fading

    def __post_init__(self):
        if self.constellation.n_t != 1:
            raise ValueError("subchannels take scalar (n_t = 1) constellations")


@dataclass(frozen=True)
class PowerAllocation:
    p: np.ndarray
    budget: float
    flagged: bool = False

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if not np.all(np.isfinite(p) & (p >= -BUDGET_TOL)):
            raise ValueError("powers must be finite and nonnegative")
        if p.sum() > self.budget * (1.0 + BUDGET_TOL):
            raise ValueError("allocation exceeds the budget")
        object.__setattr__(self, "p", np.maximum(p, 0.0))


def _mean_pair_energy(c: Constellation) -> float:
    """(1/M) sum over ordered pairs of squared distances."""
    diffs, counts = pair_differences(c)
    return float(np.sum(np.abs(diffs) ** 2, axis=1) @ counts / c.m)


def palloc_highsnr(subs: Sequence[SubchannelSpec], budget: float) -> PowerAllocation:
    """Closed-form high-SNR allocation p_k proportional to
    exp(-|mu_k|^2 / (2 sigma_k^2)) / sqrt((1/M_k) sum_pairs dbar^2 * sigma_k^2),
    using the full budget.

    Stronger subchannels (larger fading variance) get less power: they
    already close their capacity gap faster.  A line-of-sight mean mu_k
    damps the weight, so it diverts power to the other subchannels; at
    mu_k = 0 the factor is exactly 1 (the Rayleigh rule).  Exponents count
    from the smallest (0 with any Rayleigh subchannel), so the largest
    factor is 1 and strong lines of sight cannot underflow every weight.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    los = np.array([abs(complex(s.fading.mean)) ** 2 / (2.0 * s.fading.variance)
                    for s in subs])
    w = np.exp(-(los - los.min())) / np.sqrt(
        [_mean_pair_energy(s.constellation) * s.fading.variance for s in subs])
    p = budget * w / w.sum()
    return PowerAllocation(p=p, budget=budget)


def _point_sets(c: Constellation) -> list[np.ndarray]:
    """The factors of a subchannel's bank: a grid R x I splits exactly into
    the point sets R and jI, whose logits add, and a factor of a single
    level (lse exactly 0) is left out; any other constellation is one factor
    of all M points."""
    levels = c.grid_levels
    if levels is None:
        return [c.points[:, 0]]
    return [q for q in (levels[0], 1j * levels[1]) if q.size > 1]


def _check_bank_size(subs: Sequence[SubchannelSpec], cfg: mc.McConfig) -> None:
    """Reject a plan whose banks hold more than MAX_BANK_ENTRIES table
    entries, before anything is drawn."""
    entries = cfg.channel_draws * cfg.noise_draws_per_channel * sum(
        q.size for sub in subs for q in _point_sets(sub.constellation))
    if entries > MAX_BANK_ENTRIES:
        raise ValueError(f"the power-allocation banks need {entries} table entries "
                         f"(channel_draws x noise_draws x points), more than the "
                         f"{MAX_BANK_ENTRIES} supported")


def _subchannel_banks(subs: Sequence[SubchannelSpec], cfg: mc.McConfig):
    """Common-random-number draw banks, one a subchannel.  One
    `mc._run_chunks` call draws the unit fading (C, K) from the channel
    streams and the noise (C, N, K) from the noise streams.

    With w = conj(h) n, the logit of hypothesis k for true input i of a
    point set q at power p is
    2*sqrt(snr*p)*(Re(conj(q_k) w) - Re(conj(q_i) w)) - snr*p*|h|^2 |q_i - q_k|^2,
    so the fading and noise enter only through power-independent tables and
    every candidate power is compared on identical randomness.  The lse adds
    over the factors of `_point_sets`.  A bank is (factors, |h| (C,)).  A
    grid's factor, levels R or jI, is the pair of its sorted levels and the
    one real noise coordinate z (C, N) = Re(w) / |h| or Im(w) / |h| of
    `mc._level_stats`; any other set's one factor is a pair of d2 (Q, Q) =
    |q_i - q_k|^2 and the hypothesis-first noise table (Q, C, N) =
    Re(conj(q_m h) n), the layout `mc.kernel_stats` uses.  A plan over
    MAX_BANK_ENTRIES is a ValueError.
    """
    _check_bank_size(subs, cfg)
    k_sub, n_noise = len(subs), cfg.noise_draws_per_channel

    def step(channel_rng, noise_rng, batch):
        return (_complex_normal(channel_rng, (batch, k_sub)),
                _complex_normal(noise_rng, (batch, n_noise, k_sub)))

    fading, noise = mc._run_chunks(cfg, n_noise * k_sub, step)
    banks = []
    for k, sub in enumerate(subs):
        fad = sub.fading
        h = fading[:, k] * np.sqrt(fad.variance)
        if fad.mean:
            h = h + complex(fad.mean)
        gain = np.abs(h)
        grid = sub.constellation.grid_levels is not None
        if grid:    # a zero channel gives w = 0, so z = 0 and lse = log Q
            u = h.conj()[:, None] * noise[:, :, k]
            u /= np.where(gain > 0.0, gain, 1.0)[:, None]
        factors = []
        for q in _point_sets(sub.constellation):
            if not grid:
                qh = q[:, None] * h[None, :]                     # (Q, C)
                base_g = (qh.real[:, :, None] * noise[None, :, :, k].real
                          + qh.imag[:, :, None] * noise[None, :, :, k].imag)
                factors.append((np.abs(q[:, None] - q[None, :]) ** 2, base_g))
            elif np.isrealobj(q):
                factors.append((q, np.ascontiguousarray(u.real)))
            else:
                factors.append((q.imag, np.ascontiguousarray(u.imag)))
        banks.append((tuple(factors), gain))
    return banks


def _bank_work(banks) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """One work set for `_bank_mi` on every point-set factor of `banks`
    (none without one): the scaled noise table and the weights, (Q, C, N)
    each at the largest Q, and one (C, N) row of per-sample lse."""
    shapes = [table.shape for factors, _ in banks for _, table in factors if table.ndim == 3]
    if not shapes:
        return None
    shape = max(shapes)
    return np.empty(shape), np.empty(shape), np.empty(shape[1:])


def _bank_mi(snr: float, bank, power: float, work=None) -> np.ndarray:
    """Mutual information of one subchannel on each channel c (draw c) of its
    bank, (C,): the sum over factors of Q points of log Q (log M in all) minus
    the mean lse over c's noise draws.  A grid's level factors run
    `mc._level_stats`; a point-set factor loops over its Q true points,
    weighted by `mc._shifted_weights`, on `work` (`_bank_work`; one is made
    if none is given)."""
    factors, gain = bank
    mi = np.zeros(gain.size)
    if power <= 0.0:
        return mi
    scale = snr * power
    for factor in factors:
        q = factor[0].shape[0]
        if factor[1].ndim == 2:         # sorted levels and their noise coordinate
            levels, z = factor
            _, lse_cn, _ = mc._level_stats(levels, np.sqrt(scale) * gain, z, scale,
                                           lse_only=True)
            mi += np.log(q) - lse_cn.mean(axis=1)
            continue
        d2, base_g = factor
        g2_work, weights, lse_cn = work or _bank_work([bank])
        g2 = np.multiply(base_g, 2.0 * np.sqrt(scale), out=g2_work[:q])
        buf = weights[:q]
        h2 = gain ** 2
        lse = np.zeros(gain.size)
        for i in range(q):
            a_max = mc._shifted_weights(g2, scale * (d2[i][:, None] * h2), i, buf)
            np.log(np.sum(buf, axis=0, out=lse_cn), out=lse_cn)
            lse_cn += a_max
            lse += lse_cn.mean(axis=1)
        mi += np.log(q) - lse / q
    return mi


class _Banks:
    """The draw banks of `subs` and their mutual information: `mi(k, power)`
    is subchannel k's per-channel `_bank_mi` at `power` and `mean(k, power)`
    its mean, each (k, power) evaluated once.  One `_Banks` lets the search,
    its resolution flag and the capacity columns read one draw.  The banks
    are drawn on first use, and every evaluation shares one `_bank_work`
    set.  Every mean is kept; the per-channel rows are kept while they hold
    fewer entries than the banks' noise tables, so a long search at few
    noise draws cannot outgrow the banks (a row asked for past that is
    evaluated again)."""

    def __init__(self, subs: Sequence[SubchannelSpec], snr: float, cfg: mc.McConfig):
        self.subs, self.snr, self.cfg = subs, snr, cfg
        self.means: dict[tuple[int, float], float] = {}
        self.rows: dict[tuple[int, float], np.ndarray] = {}

    @cached_property
    def _drawn(self):
        banks = _subchannel_banks(self.subs, self.cfg)
        tables = sum(table.size for factors, _ in banks for _, table in factors)
        return banks, _bank_work(banks), tables // self.cfg.channel_draws

    def mi(self, k: int, power: float) -> np.ndarray:
        key = (k, float(power))
        row = self.rows.get(key)
        if row is None:
            banks, work, row_budget = self._drawn
            row = _bank_mi(self.snr, banks[k], power, work)
            self.means[key] = row.mean()
            if len(self.rows) < row_budget:
                self.rows[key] = row
        return row

    def mean(self, k: int, power: float) -> float:
        key = (k, float(power))
        if key not in self.means:
            self.mi(k, power)
        return self.means[key]


_GOLD = (3.0 - np.sqrt(5.0)) / 2.0     # golden-section fraction of a bracket


def _brent_max(f, lo: float, hi: float, x: float, fx: float, width: float):
    """Maximise f on (lo, hi) from the evaluated point x, f(x) = fx, by
    Brent's method (*Algorithms for Minimization without Derivatives*, 1973,
    ch. 5): a parabola through the three best points when its vertex is a
    safe step, a golden-section step into the larger side otherwise.  It
    stops when the best point lies within width/2 of both ends of the
    bracket, so the bracket is narrower than `width`.  Steps of at least
    width/4 away from the best point and from the ends keep every
    evaluation strictly inside (lo, hi).  Returns the best point evaluated,
    its value and the final bracket."""
    a, b = lo, hi
    tol = width / 4.0
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while max(x - a, b - x) >= 2.0 * tol:
        m = 0.5 * (a + b)
        p = q = r = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q                           # the parabola's vertex
            if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (b - x) if x < m else (a - x)
            d = _GOLD * e
        u = x + (d if abs(d) >= tol else np.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, (a, b)


def _coordinate_search(objective, p0: np.ndarray, budget: float):
    """Pairwise power transfers, each resolved by `_brent_max` from the
    current split to SEARCH_TOL of the budget, on a deterministic
    (bank-backed) objective; stays on the simplex sum p = P.  One sweep
    resolves two subchannels exactly; more take up to 4."""
    p = p0.copy()
    best = objective(p)
    k_sub = p.size
    for _ in range(1 if k_sub == 2 else 4):
        moved = 0.0
        for a in range(k_sub):
            for b in range(a + 1, k_sub):

                def j_of(delta):
                    q = p.copy()
                    q[a] += delta
                    q[b] -= delta
                    return objective(q)

                delta, best, _ = _brent_max(j_of, -p[a], p[b], 0.0, best,
                                            SEARCH_TOL * budget)
                p[a] += delta
                p[b] -= delta
                moved = max(moved, abs(delta))
        if moved < SEARCH_TOL * budget:
            break
    return p, best


def subchannel_capacities(subs: Sequence[SubchannelSpec], allocations, snr: float,
                          cfg: mc.McConfig, banks: _Banks | None = None) -> list[list[float]]:
    """Per-subchannel average mutual information (nats) for each power split
    in `allocations`, on the same common-random-number banks the numeric
    optimizer uses, so designs are compared on identical draws.  The banks
    are drawn once for all splits; a caller that passes the `_Banks` of
    (subs, snr, cfg) it gave `palloc_numeric` reads the numeric split's
    values off the search instead of evaluating them again."""
    allocations = [np.asarray(p, dtype=float) for p in allocations]
    if any(p.size != len(subs) for p in allocations):
        raise ValueError("power vector length must match the subchannel count")
    banks = banks or _Banks(subs, snr, cfg)
    return [[float(banks.mean(k, pk)) for k, pk in enumerate(p)]
            for p in allocations]


def palloc_numeric(subs: Sequence[SubchannelSpec], budget: float, snr: float,
                   cfg: mc.McConfig, banks: _Banks | None = None) -> PowerAllocation:
    """Direct maximization of the Monte Carlo capacity over the simplex.

    Limited to MAX_NUMERIC_SUBCHANNELS.  Uses one frozen draw bank per
    subchannel (common random numbers) so candidate allocations are compared
    on the same randomness, then resolves the optimum p by one search of
    pairwise transfers, each a Brent line search (`_brent_max`) from the
    current split.  `banks`, the `_Banks` of (subs, snr, cfg), shares the
    draw and every evaluated (subchannel, power) with the caller.  The
    result is flagged low-confidence when the MC noise is comparable to the
    objective differences: when C < 2, or when for some transfer of t = 5%
    of the budget the per-channel summed capacity loss D has
    mean(D) < std(D)/sqrt(C).  As mean(D) ~ kappa t^2/2 and
    se(D) ~ t se(J'), with kappa the curvature, that is
    se(p) = se(J')/kappa > t/2.
    """
    if not 1 <= len(subs) <= MAX_NUMERIC_SUBCHANNELS:
        raise ValueError(f"numeric allocation supports 1 to {MAX_NUMERIC_SUBCHANNELS} "
                         "subchannels")
    if budget <= 0 or snr <= 0:
        raise ValueError("budget and snr must be positive")
    if len(subs) == 1:
        return PowerAllocation(p=np.array([budget]), budget=budget)

    banks = banks or _Banks(subs, snr, cfg)

    def objective(p):
        if np.any(p < 0):
            return -np.inf
        return sum(banks.mean(k, pk) for k, pk in enumerate(p))

    p0 = np.full(len(subs), budget / len(subs))
    p_opt, _ = _coordinate_search(objective, p0, budget)
    t, n_ch = 0.05 * budget, cfg.channel_draws
    at, up, down = (np.array([banks.mi(k, pk + dp) for k, pk in enumerate(p_opt)])
                    for dp in (0.0, t, -t))                       # (K, C) each
    loss = (at - up)[:, None] + (at - down)[None, :]   # (a, b, C): t moved from b to a
    moves = (p_opt >= t)[None, :] & ~np.eye(len(subs), dtype=bool)
    flagged = n_ch < 2 or bool(np.any(
        (loss.mean(axis=2) < loss.std(axis=2, ddof=1) / np.sqrt(n_ch))[moves]))
    return PowerAllocation(p=p_opt, budget=budget, flagged=flagged)


# ---------------------------------------------------------------------------
# precoders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Precoder:
    matrix: np.ndarray
    budget: float

    def __post_init__(self):
        p = np.asarray(self.matrix, dtype=complex)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("precoder must be square")
        if np.trace(p @ p.conj().T).real > self.budget * (1.0 + BUDGET_TOL):
            raise ValueError("precoder exceeds the power budget")
        object.__setattr__(self, "matrix", p)


@dataclass(frozen=True)
class PrecoderReport:
    objective: float
    iterations: int
    stationarity_residual: float
    method: str
    principal_angles: np.ndarray | None = None


class PrecoderConvergenceError(RuntimeError):
    """Raised when the projected-gradient loop exhausts its iteration budget."""


def _pair_forms(z: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("pi,ij,pj->p", diffs.conj(), z, diffs))


def _gap_objective(z: np.ndarray, diffs: np.ndarray, counts: np.ndarray,
                   n_r: int) -> float:
    """Sum over ordered pairs of form^(-n_r), from the distinct (whitened)
    differences `diffs` and their multiplicities `counts`."""
    forms = _pair_forms(z, diffs)
    if np.any(forms <= 0):
        return np.inf
    return float(forms ** (-float(n_r)) @ counts)


def _gap_gradient(z: np.ndarray, diffs: np.ndarray, counts: np.ndarray,
                  n_r: int) -> np.ndarray:
    coef = -n_r * counts * _pair_forms(z, diffs) ** (-float(n_r) - 1.0)
    return np.einsum("p,pi,pj->ij", coef, diffs, diffs.conj())


def _whitened_pairs(channel: CanonicalRayleigh | CorrelatedRayleigh,
                    c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pair differences of `c` and their multiplicities, each
    difference whitened by Theta_T^{1/2} on a `CorrelatedRayleigh` channel.
    Any other channel, or one whose n_t differs from the constellation's,
    is a ValueError."""
    if not isinstance(channel, (CanonicalRayleigh, CorrelatedRayleigh)):
        raise ValueError("precoders are designed for the canonical or the "
                         "transmit-correlated Rayleigh channel")
    _check_transmit_size(channel.n_t, c)
    diffs, counts = pair_differences(c)
    if isinstance(channel, CorrelatedRayleigh):
        diffs = diffs @ hermitian_sqrt(channel.theta_t).T
    return diffs, counts


def precoder_objective(z, channel: CanonicalRayleigh | CorrelatedRayleigh,
                       c: Constellation) -> float:
    """Pairwise-distance gap objective evaluated at a Gram matrix Z:
    sum over ordered pairs of quadratic-form^(-n_r), whitened by the
    channel's transmit correlation if it has one.  The objective depends on
    a precoder only through its Gram matrix."""
    return _gap_objective(np.asarray(z, dtype=complex), *_whitened_pairs(channel, c),
                          channel.n_r)


def _project_trace_psd(z: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto {Z PSD, tr Z <= budget}: shift the
    eigenvalues down by the simplex threshold tau >= 0 that meets the
    budget, then clamp them at 0.  Only the projection makes the fixed
    points of the gradient step the KKT points (a rescaling onto the budget
    stalls where the gradient is proportional to Z, not to I)."""
    z = 0.5 * (z + z.conj().T)
    w, v = np.linalg.eigh(z)
    if np.maximum(w, 0.0).sum() > budget:
        desc = w[::-1]
        tau = (np.cumsum(desc) - budget) / np.arange(1, w.size + 1)
        w = w - tau[np.flatnonzero(desc > tau)[-1]]
    w = np.maximum(w, 0.0)
    return (v * w) @ v.conj().T


def _stationarity_residual(z: np.ndarray, grad: np.ndarray, budget: float,
                           step: float) -> float:
    """Norm of the projected-gradient mapping (Z - proj(Z - t grad)) / t at
    t = min(step, 1), over the gradient's norm: 0 exactly at the KKT points."""
    t = min(step, 1.0)
    mapping = (z - _project_trace_psd(z - t * grad, budget)) / t
    return float(np.linalg.norm(mapping) / max(np.linalg.norm(grad), 1e-300))


def optimal_precoder(channel: CanonicalRayleigh | CorrelatedRayleigh, c: Constellation,
                     p_total: float, z0: np.ndarray | None = None):
    """Transmit precoder minimizing the high-SNR gap coefficient
    f(Z) = sum over ordered pairs of tr(e^+ Theta_T^{1/2} Z Theta_T^{1/2} e)^(-n_r)
    over the Gram variable Z in {Z PSD, tr Z <= P}, with n_r and Theta_T
    from `channel` (Theta_T = I for `CanonicalRayleigh`).  The receive
    correlation only scales the coefficient and cannot move the optimum, so
    it is omitted from f.  Returns (Precoder, PrecoderReport).

    Closed form: without a starting point `z0`, the scaled identity is
    returned when its stationarity residual is at most 1e-8; f is convex in
    Z, so a KKT point is a global optimizer (on the canonical channel every
    set closed under per-coordinate sign flips qualifies).

    Otherwise projected gradient descent runs from `z0` (default the scaled
    identity) and reports the same residual at its last iterate.  On a
    correlated channel the optimizer aligns the eigenvectors of Z with those
    of Theta_T, reported as principal angles (None on the canonical channel).
    The returned precoder is the Hermitian square root of the optimal Gram
    matrix, P = U diag(sqrt q) U^+, so that P^+ P equals the certified
    optimizer variable exactly.  The right unitary factor is not a free
    reporting choice: it rotates the constellation before the channel, and
    only this (commuting) choice makes the realized pair forms
    e^+ P^+ Theta_T P e coincide with the certified objective at the
    aligned optimum.

    Degenerate Theta_T is rejected: with perfectly correlated transmit
    paths the objective itself changes form (some pairs stop contributing
    and the infinite-SNR limit drops), so optimizing f would certify the
    wrong quantity.
    """
    if p_total <= 0:
        raise ValueError("power budget must be positive")
    diffs, counts = _whitened_pairs(channel, c)
    n_t, n_r = c.n_t, channel.n_r
    correlated = isinstance(channel, CorrelatedRayleigh)
    if correlated:
        w_t = np.linalg.eigvalsh(channel.theta_t)
        if w_t[0] <= EIG_ZERO_REL * w_t[-1]:
            raise ValueError("theta_t is singular; the degenerate case is out of scope here")

    z = (p_total / n_t) * np.eye(n_t, dtype=complex) if z0 is None \
        else _project_trace_psd(np.asarray(z0, dtype=complex), p_total)
    f_z = _gap_objective(z, diffs, counts, n_r)
    grad = _gap_gradient(z, diffs, counts, n_r)
    step = p_total / max(np.linalg.norm(grad), 1e-300)
    residual = _stationarity_residual(z, grad, p_total, step)
    if z0 is None and residual <= 1e-8:
        it, method = 0, "closed_form"
    else:
        method = "projected_gradient"
        for it in range(1, PRECODER_MAX_ITER + 1):
            grad = _gap_gradient(z, diffs, counts, n_r)
            # backtracking on the prox decrease condition
            while True:
                z_new = _project_trace_psd(z - step * grad, p_total)
                dz = z_new - z
                f_new = _gap_objective(z_new, diffs, counts, n_r)
                quad = f_z + np.real(np.vdot(grad, dz)) + np.linalg.norm(dz) ** 2 / (2.0 * step)
                if f_new <= quad + 1e-15 * abs(f_z) or step < 1e-18:
                    break
                step *= 0.5
            rel_drop = (f_z - f_new) / max(abs(f_new), 1e-300)
            z, f_z = z_new, f_new
            step *= 1.25
            if 0 <= rel_drop < PRECODER_REL_TOL:
                break
        else:
            raise PrecoderConvergenceError(
                f"projected gradient did not converge in {PRECODER_MAX_ITER} iterations")
        residual = _stationarity_residual(z, _gap_gradient(z, diffs, counts, n_r),
                                          p_total, step)

    q, u = np.linalg.eigh(z)
    order = np.argsort(q)[::-1]
    q, u = np.maximum(q[order], 0.0), u[:, order]
    report = PrecoderReport(objective=f_z, iterations=it, stationarity_residual=residual,
                            method=method,
                            principal_angles=_principal_angles(u, channel.theta_t)
                            if correlated else None)
    return Precoder(matrix=(u * np.sqrt(q)) @ u.conj().T, budget=p_total), report


def _principal_angles(u: np.ndarray, theta_t: np.ndarray) -> np.ndarray:
    """Angle between each column of `u` and its best-matching eigenvector of
    theta_t (invariant to phase and to ordering)."""
    _, v = np.linalg.eigh(theta_t)
    overlaps = np.abs(u.conj().T @ v)       # (cols of u, cols of v)
    angles = np.empty(u.shape[1])
    available = list(range(v.shape[1]))
    for i in range(u.shape[1]):
        j_best = max(available, key=lambda j: overlaps[i, j])
        available.remove(j_best)
        angles[i] = np.arccos(np.clip(overlaps[i, j_best], 0.0, 1.0))
    return angles


# ---------------------------------------------------------------------------
# space-time code criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeReport:
    r_min: int
    criterion: float
    d: int
    certified: bool = True     # False flags antenna sizes beyond the proven scope


def st_criteria(code: SpaceTimeCode, n_r: int) -> SpaceTimeReport:
    """(minimum difference rank, leading-coefficient criterion, diversity).

    The criterion is the leading coefficient sum of the code's distance
    distribution under i.i.d. Rayleigh (`distance_dist`): the sum over
    ordered pairs at minimal rank of prod_r (1/lambda_r)^n_r, with
    d = n_r * r_min.  Certified for n_t = 2; other transmit sizes are
    computed by the same eigenvalue engine but flagged as extrapolation.
    """
    eb = epsilon_bounds(distance_dist(CanonicalRayleigh(n_t=code.n_t, n_r=n_r), code), code.m)
    return SpaceTimeReport(r_min=eb.d // n_r, criterion=eb.sum_s, d=eb.d,
                           certified=(code.n_t == 2))


def st_compare(code_a: SpaceTimeCode, code_b: SpaceTimeCode, n_r: int) -> int:
    """Rank two codebooks by `_st_rank`: +1 if a is better, -1 if b, 0 if tied."""
    _check_comparable([code_a, code_b])
    return _st_rank(st_criteria(code_a, n_r), st_criteria(code_b, n_r))


def _check_comparable(codes: Sequence[SpaceTimeCode]) -> None:
    if len({(code.n_t, code.t, code.m) for code in codes}) > 1:
        raise ValueError("codebooks must share (n_t, t, M) to be comparable")


def _st_rank(ra: SpaceTimeReport, rb: SpaceTimeReport) -> int:
    """+1 if report a ranks above b, -1 if below, 0 if tied.

    Higher minimum rank wins; on equal rank the smaller criterion wins
    (smaller high-SNR capacity gap).  Criteria within relative 1e-12 tie.
    """
    if ra.r_min != rb.r_min:
        return 1 if ra.r_min > rb.r_min else -1
    if np.isclose(ra.criterion, rb.criterion, rtol=1e-12, atol=0.0):
        return 0
    return 1 if ra.criterion < rb.criterion else -1
