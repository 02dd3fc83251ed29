"""Closed-form bounds at fixed channel realization, valid at every SNR.

All three measures are bounded through the ordered-pair received distances
d_ij^2(H): a genie that narrows the hypothesis set to two points gives the
lower bounds, while a minimum-distance detector / union bound gives the
upper bounds.  The resulting pairs have exact ratios (4(M-1) for MMSE,
M-1 for error probability) because upper and lower differ only in the
pair-averaging prefactor.  Every pair sum runs over the D distinct
differences of `model.pair_differences`, each weighted by its multiplicity,
so its cost scales with D, not M(M-1).

Channel-averaged versions are Monte Carlo means of the fixed-H bounds over
shared channel draws, which preserves the exact ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .asymptotics import BoundPair
from .mc import KINDS, Estimate, McConfig, _estimate, _run_chunks
from .model import ChannelModel, Constellation, pair_differences, sample_channels

__all__ = [
    "BoundPair",
    "AveragedBoundPair",
    "mmse_bounds_fixed_h",
    "mi_bounds_fixed_h",
    "pe_bounds_fixed_h",
    "avg_bounds",
]


def _received_sq_distances(h: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """||H d||^2 for each distinct difference d (rows of `diffs`): h of shape
    (..., n_r, n_t) gives shape (..., D)."""
    rec = h @ diffs.T                                   # (..., n_r, D)
    return np.sum(rec.real ** 2 + rec.imag ** 2, axis=-2)


def _pair_erfc(d2: np.ndarray, snr: float) -> np.ndarray:
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


def _fixed_h(kind: str, snr: float, h, c: Constellation) -> BoundPair:
    if snr <= 0:
        raise ValueError("snr must be positive")
    diffs, counts = pair_differences(c)
    d2 = _received_sq_distances(np.asarray(h, dtype=complex), diffs)
    lower, upper = _bound_sums(d2, counts, snr, c.m, kind)
    return BoundPair(lower=float(lower), upper=float(upper))


def mmse_bounds_fixed_h(snr: float, h, c: Constellation) -> BoundPair:
    """Estimation error of the noiseless receive point.  Upper/lower ratio
    is exactly 4(M-1)."""
    return _fixed_h("mmse", snr, h, c)


def mi_bounds_fixed_h(snr: float, h, c: Constellation) -> BoundPair:
    """Mutual information in nats.  The lower bound can go negative at low
    SNR; it is reported raw rather than clamped."""
    return _fixed_h("mi", snr, h, c)


def pe_bounds_fixed_h(snr: float, h, c: Constellation) -> BoundPair:
    """ML symbol error probability.  Upper/lower ratio is exactly M-1, so
    the bounds coincide for binary inputs.  The union upper bound may exceed
    one at low SNR and is reported raw."""
    return _fixed_h("pe", snr, h, c)


@dataclass(frozen=True)
class AveragedBoundPair:
    """Channel-averaged bound pair; both sides are Monte Carlo estimates
    computed from the same channel draws."""

    lower: Estimate
    upper: Estimate


def avg_bounds(kind: str, snr: float, model: ChannelModel, c: Constellation,
               cfg: McConfig) -> AveragedBoundPair:
    """Monte Carlo average over the channel of the fixed-H bounds, on the
    channels `mc.avg_all` draws for the same config.

    Reusing the same draws for both sides keeps the exact fixed-H ratios
    (4(M-1) for mmse, M-1 for pe) intact in the averaged estimates.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown bound kind {kind!r}")
    if snr <= 0:
        raise ValueError("snr must be positive")
    diffs, counts = pair_differences(c)

    def step(channel_rng, noise_rng, batch):
        d2 = _received_sq_distances(sample_channels(model, batch, channel_rng), diffs)
        return _bound_sums(d2, counts, snr, c.m, kind)

    lower, upper = _run_chunks(cfg.channel_draws, cfg.seed, cfg.parallel_chunks,
                               diffs.shape[0] * model.n_r, step)
    return AveragedBoundPair(lower=_estimate(lower), upper=_estimate(upper))
