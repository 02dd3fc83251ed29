"""Closed-form bounds at fixed channel realization, valid at every SNR.

All three measures are bounded through the ordered-pair received distances
d_ij^2(H): a genie that narrows the hypothesis set to two points gives the
lower bounds, while a minimum-distance detector / union bound gives the
upper bounds.  The resulting pairs have exact ratios (4(M-1) for MMSE,
M-1 for error probability) because upper and lower differ only in the
pair-averaging prefactor.  Every pair sum runs over the D distinct
differences of `model.pair_differences`, each weighted by its multiplicity,
so its cost scales with D, not M(M-1).

Channel-averaged versions keep the exact ratios.  The pe bounds are exact:
each ordered pair's E_H Q(sqrt(snr ||H d||^2 / 2)) is Craig's integral of
Psi(s) = E exp(-s ||H d||^2), read off the law of ||H d||^2
(`asymptotics._law`) and taken on fixed Gauss-Legendre nodes, so no
channel is drawn and the std_error is 0.
The mmse and mi bounds are Monte Carlo means of the fixed-H bounds over
shared channel draws.
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


def _received_sq_distances(h: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """||H d||^2 for each distinct difference d (rows of `diffs`): h of shape
    (..., n_r, n_t) gives shape (..., D)."""
    rec = h @ diffs.T                                   # (..., n_r, D)
    return np.sum(rec.real ** 2 + rec.imag ** 2, axis=-2)


def _pair_erfc(d2: np.ndarray, snr: float) -> np.ndarray:
    from scipy.special import erfc      # here, so commands without bounds skip its import
    return 0.5 * erfc(np.sqrt(d2 * snr / 4.0))


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
    diffs, counts = pair_differences(c)
    d2 = _received_sq_distances(h, diffs)
    lower, upper = _bound_sums(d2, counts, snr, c.m, kind)
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


def _craig_pe_sum(snr: float, model: ChannelModel, c: Constellation) -> float:
    """Sum over ordered pairs of E_H Q(sqrt(snr ||H d||^2 / 2)), each term
    (1/pi) int_0^{pi/2} Psi(snr / (4 sin^2 theta)) dtheta by Craig's form of
    Q, on CRAIG_NODES Gauss-Legendre nodes."""
    law = _law(model, c)
    x, w = _craig_nodes()
    s = snr / (4.0 * np.sin(0.25 * np.pi * (x + 1.0)) ** 2)
    psi = sum(wk * _mgf(law, sk) for wk, sk in zip(w, s))
    return 0.25 * float(psi @ law[3])


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
    diffs, counts = pair_differences(c)

    def step(channel_rng, noise_rng, batch):
        d2 = _received_sq_distances(sample_channels(model, batch, channel_rng), diffs)
        return _bound_sums(d2, counts, snr, c.m, kind)

    lower, upper = _run_chunks(cfg, diffs.shape[0] * model.n_r, step)
    return AveragedBoundPair(lower=_estimate(lower), upper=_estimate(upper))
