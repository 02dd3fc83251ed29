"""Closed-form bounds at fixed channel realization, valid at every SNR.

All three measures are bounded through the ordered-pair received distances
d_ij^2(H): a genie that narrows the hypothesis set to two points gives the
lower bounds, while a minimum-distance detector / union bound gives the
upper bounds.  The resulting pairs have exact ratios (4(M-1) for MMSE,
M-1 for error probability) because upper and lower differ only in the
pair-averaging prefactor.  Every pair sum runs over the D distinct
differences of `model.pair_differences`, each weighted by its multiplicity,
so its cost scales with D, not M(M-1); a single-antenna constellation's
sums run over its distinct |d|^2 alone, scaled by ||h||^2
(`_distance_table`).

Channel-averaged versions keep the exact ratios.  The pe bounds are exact:
each ordered pair's E_H Q(sqrt(snr ||H d||^2 / 2)) is Craig's integral of
Psi(s) = E exp(-s ||H d||^2), read off the law of ||H d||^2
(`asymptotics._law`) and taken on fixed Gauss-Legendre nodes, so no
channel is drawn and the std_error is 0.  Psi is evaluated once per
distinct row of that law, so their cost scales with those rows, not D.
The mmse and mi bounds are Monte Carlo means of the fixed-H bounds over
shared channel draws.

Every Gaussian tail comes from `_erfc`, a NumPy port of the Cephes erfc
that scipy.special.erfc runs, so no command loads `scipy.special`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .asymptotics import BoundPair, _law, _mgf
from .mc import KINDS, Estimate, McConfig, _estimate, _run_chunks
from .model import (
    ChannelModel,
    Constellation,
    _check_constellation,
    _check_transmit_size,
    _fixed_h,
    _row_groups,
    pair_differences,
    sample_channels,
)

__all__ = [
    "AveragedBoundPair",
    "fixed_h_bounds",
    "avg_bounds",
]

# Gauss-Legendre nodes of Craig's integral in the exact pe bounds.  64 miss
# the closed form of bpsk under Rayleigh fading by 3e-11 (relative) at
# -30 dB; 128 meet it within 7e-15 from -30 to 80 dB.
CRAIG_NODES = 128
# Elements (nodes x law rows x weights) of one block of the Craig pass, so
# its temporaries stay in cache (512 KB each).
_CRAIG_BLOCK = 1 << 16


def _distance_table(c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """The rows the pair sums run over, and the count of each: the distinct
    differences d (D, n_t) of `model.pair_differences`, or, for a
    single-antenna constellation, whose ||h d||^2 is ||h||^2 |d|^2, the
    distinct |d|^2 (D',), grouped by `model._row_groups` with their counts
    summed (9 on qam16 against 48 differences)."""
    diffs, counts = pair_differences(c)
    if c.n_t > 1:
        return diffs, counts
    sq = diffs[:, 0].real ** 2 + diffs[:, 0].imag ** 2
    first, group = _row_groups(sq[:, None])
    return sq[first], np.bincount(group, weights=counts)


def _sq_distances(h: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """||H d||^2 over the rows of a `_distance_table` for h of shape (...,
    n_r, n_t), along a last axis of D: ||h||^2 |d|^2 on a single-antenna
    table, one norm a channel instead of a (n_r, D) product."""
    if rows.ndim == 1:
        return np.sum(h.real ** 2 + h.imag ** 2, axis=(-2, -1))[..., None] * rows
    rec = h @ rows.T                                    # (..., n_r, D)
    return np.sum(rec.real ** 2 + rec.imag ** 2, axis=-2)


# Cephes' erfc (ndtr.c: Moshier, Methods and Programs for Mathematical
# Functions, 1989; rational forms after Cody, Math. Comp. 1969), the one
# scipy.special.erfc runs: 1 - x T(x^2)/U(x^2) below 1, exp(-x^2) P(x)/Q(x)
# on [1, 8), exp(-x^2) R(x)/S(x) from 8, and 0 where x^2 > MAXLOG = log of
# the largest double.  U, Q and S are monic; as in Cephes their leading 1
# is left out.
_ERFC_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
           7.00332514112805075473e3, 5.55923013010394962768e4)
_ERFC_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
           2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2
# Values a pass, so the Horner temporaries stay in cache: one call of the
# drawn mi bound at M = 256 holds 10^6 values, and unblocked it took 1.3-1.6x
# as long.
_ERFC_BLOCK = 1 << 15


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    """Cephes' polevl, coefs[0] x^N + ... + coefs[N] by Horner, in place on
    one new array."""
    y = x * coefs[0]
    y += coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


def _p1evl(x: np.ndarray, coefs) -> np.ndarray:
    """Cephes' p1evl: `_polevl` with a leading coefficient 1 not stored."""
    y = x + coefs[0]
    for c in coefs[1:]:
        y *= x
        y += c
    return y


def _exp_ratio(x: np.ndarray, num, den) -> np.ndarray:
    """exp(-x^2) num(x) / den(x) in Cephes' order, (z p) / q."""
    y = x * x
    np.negative(y, out=y)
    np.exp(y, out=y)
    y *= _polevl(x, num)
    y /= _p1evl(x, den)
    return y


def _erfc_block(x: np.ndarray, out: np.ndarray) -> None:
    """`_erfc` of the 1-d `x` into the zeros of `out`, each rational on the
    elements of its own region only (NaN falls in [1, 8) and stays NaN)."""
    low = x < 1.0
    xl = x[low]
    if xl.size:
        z = xl * xl
        y = _polevl(z, _ERFC_T)
        y *= xl
        y /= _p1evl(z, _ERFC_U)
        out[low] = np.subtract(1.0, y, out=y)
    high = x >= 8.0
    mid = ~(low | high)
    if mid.any():
        out[mid] = _exp_ratio(x[mid], _ERFC_P, _ERFC_Q)
    high &= x * x <= _MAXLOG             # beyond, erfc underflows: out keeps its 0
    if high.any():
        out[high] = _exp_ratio(x[high], _ERFC_R, _ERFC_S)


def _erfc(x) -> np.ndarray:
    """erfc of each x >= 0 by Cephes' branches, coefficients and operation
    order.  It matches scipy.special.erfc bit for bit with libm's exp, and
    within 4 ulp with NumPy's.  The underflow region is never evaluated, so
    inf gives 0 and no value raises a floating-point warning."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for start in range(0, flat_x.size, _ERFC_BLOCK):
        stop = start + _ERFC_BLOCK
        _erfc_block(flat_x[start:stop], flat_out[start:stop])
    return out


def _pair_erfc(d2: np.ndarray, snr: float) -> np.ndarray:
    return 0.5 * _erfc(np.sqrt(d2 * snr / 4.0))


def _bound_sums(d2: np.ndarray, counts: np.ndarray, snr: float, m: int, kind: str):
    """(lower, upper) of one measure from the distinct-difference distances
    along the last axis of `d2`, each counted `counts` times."""
    def total(terms):   # row by row, so a row's sum does not depend on the row count
        return np.sum(terms * counts, axis=-1)

    q = _pair_erfc(d2, snr)
    if kind == "mmse":
        core = total(d2 * q)
        return core / (4.0 * m * (m - 1.0)), core / m
    if kind == "pe":
        core = total(q)
        return core / (m * (m - 1.0)), core / m
    log_m = float(np.log(m))
    return (log_m - total(2.0 * np.exp(-d2 * snr / 4.0)) / m,
            log_m - total(0.5 * q) / (m * (m - 1.0)))


def _check(kind: str, snr: float) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown bound kind {kind!r}")
    if snr <= 0:
        raise ValueError("snr must be positive")


def fixed_h_bounds(kind: str, snr: float, h, c: Constellation) -> BoundPair:
    """Bounds on one measure at fixed H; kind in {mmse, mi, pe}: the
    estimation error of the noiseless receive point, the mutual information
    in nats, or the ML symbol error probability.

    Upper/lower ratios are exactly 4(M-1) for mmse and M-1 for pe, so the
    pe bounds coincide for binary inputs.  At low SNR the mi lower bound can
    go negative and the pe union upper bound can exceed one; both are
    reported raw rather than clamped.
    """
    _check(kind, snr)
    h = _fixed_h(h, c)
    rows, counts = _distance_table(c)
    lower, upper = _bound_sums(_sq_distances(h, rows), counts, snr, c.m, kind)
    return BoundPair(lower=float(lower), upper=float(upper))


@dataclass(frozen=True)
class AveragedBoundPair:
    """Channel-averaged bound pair.  For pe both sides are exact, with
    std_error 0; for mmse and mi both are Monte Carlo estimates computed
    from the same channel draws."""

    lower: Estimate
    upper: Estimate


@functools.cache
def _craig_nodes() -> tuple[np.ndarray, np.ndarray]:
    """The CRAIG_NODES Gauss-Legendre nodes and weights on [-1, 1], read-only.
    Built once, on first use rather than at import: `leggauss` solves a
    CRAIG_NODES-square eigenproblem, which would otherwise run at every SNR."""
    x, w = np.polynomial.legendre.leggauss(CRAIG_NODES)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _distinct_law_rows(lam: np.ndarray, m2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of a `_law` whose (lam, m2) are equal as floats:
    the first row of each group, and each row's group."""
    rows = np.hstack([lam, m2])
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)]
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return order[first], group


def _craig_pe_sum(snr: float, model: ChannelModel, c: Constellation) -> float:
    """Sum over ordered pairs of E_H Q(sqrt(snr ||H d||^2 / 2)), each term
    (1/pi) int_0^{pi/2} Psi(snr / (4 sin^2 theta)) dtheta by Craig's form of
    Q, on CRAIG_NODES Gauss-Legendre nodes.

    Psi is taken once per distinct law row (qam16 on two antennas under a
    correlated channel has 2400 differences but 64 rows), for all nodes in
    one pass on blocks of _CRAIG_BLOCK elements, and summed over the nodes
    in node order."""
    lam, m2, terms, counts = _law(model, c)
    rows, group = _distinct_law_rows(lam, m2)
    x, w = _craig_nodes()
    s = snr / (4.0 * np.sin(0.25 * np.pi * (x + 1.0)) ** 2)
    psi = np.empty(rows.size)
    step = max(1, _CRAIG_BLOCK // (s.size * lam.shape[1]))
    for start in range(0, rows.size, step):
        block = rows[start:start + step]
        law = lam[block], m2[block], terms, None
        # accumulated, not summed: a one-row block's node axis is contiguous,
        # and NumPy sums a contiguous axis pairwise, not in node order
        psi[start:start + step] = np.add.accumulate(w[:, None] * _mgf(law, s))[-1]
    return 0.25 * float(psi[group] @ counts)


def avg_bounds(kind: str, snr: float, model: ChannelModel, c: Constellation,
               cfg: McConfig) -> AveragedBoundPair:
    """The fixed-H bounds averaged over the channel.

    pe is exact (`_craig_pe_sum`), with std_error 0, and draws no channel;
    `cfg` is unused there.  mmse and mi are Monte Carlo means on the
    channels `mc.avg_all` draws for the same config.  Both sides share one
    sum (pe) or the same draws (mmse, mi), which keeps the exact fixed-H
    ratios (4(M-1) for mmse, M-1 for pe) intact in the averages.
    """
    _check(kind, snr)
    _check_constellation(c)
    _check_transmit_size(model.n_t, c)
    if kind == "pe":
        core = _craig_pe_sum(snr, model, c)
        return AveragedBoundPair(lower=Estimate(core / (c.m * (c.m - 1.0)), 0.0),
                                 upper=Estimate(core / c.m, 0.0))
    # mmse and mi stay drawn until the MC error bars hold at high SNR (see ROADMAP item 2)
    rows, counts = _distance_table(c)

    def step(channel_rng, noise_rng, batch):
        d2 = _sq_distances(sample_channels(model, batch, channel_rng), rows)
        return _bound_sums(d2, counts, snr, c.m, kind)

    # the largest block a channel: (n_r, D) received differences, or the (D',) distances
    per_draw = len(rows) * (model.n_r if rows.ndim > 1 else 1)
    lower, upper = _run_chunks(cfg, per_draw, step)
    return AveragedBoundPair(lower=_estimate(lower), upper=_estimate(upper))
