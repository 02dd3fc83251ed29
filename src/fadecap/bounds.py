"""Closed-form bounds at fixed channel realization, valid at every SNR.

All three measures are bounded through the ordered-pair received distances
d_ij^2(H): a genie that narrows the hypothesis set to two points gives the
lower bounds, while a minimum-distance detector / union bound gives the
upper bounds.  The resulting pairs have exact ratios (4(M-1) for MMSE,
M-1 for error probability) because upper and lower differ only in the
pair-averaging prefactor.

Channel-averaged versions are Monte Carlo means of the fixed-H bounds over
shared channel draws, which preserves the exact ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .asymptotics import BoundPair
from .mc import KINDS, Estimate, McConfig, _estimate, _run_chunks
from .model import (
    ChannelModel,
    Constellation,
    ordered_pair_differences,
    pair_differences,
    sample_channels,
)

__all__ = [
    "BoundPair",
    "AveragedBoundPair",
    "mmse_bounds_fixed_h",
    "mi_bounds_fixed_h",
    "pe_bounds_fixed_h",
    "avg_bounds",
    "pair_distance_table",
]


def pair_distance_table(c: Constellation, h: np.ndarray) -> np.ndarray:
    """Ordered-pair received squared distances ||H(x_i - x_j)||^2, shape (M(M-1),).

    Precomputing this table lets a whole SNR grid reuse the O(M^2) work.
    """
    diffs = ordered_pair_differences(c)
    h = np.asarray(h, dtype=complex)
    rec = diffs @ h.T
    return np.sum(np.abs(rec) ** 2, axis=1)


def _pair_erfc(d2: np.ndarray, snr: float) -> np.ndarray:
    return 0.5 * erfc(np.sqrt(d2 * snr / 4.0))


def _bound_sums(d2: np.ndarray, weights: np.ndarray | None, snr: float, m: int,
                kind: str):
    """(lower, upper) of one measure from pair distances along the last axis
    of `d2`, each pair counted `weights` times (None: once)."""
    def total(terms):
        return np.sum(terms, axis=-1) if weights is None else terms @ weights

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


def _fixed_h(kind: str, snr: float, h, c: Constellation,
             d2_pairs: np.ndarray | None) -> BoundPair:
    if snr <= 0:
        raise ValueError("snr must be positive")
    d2 = pair_distance_table(c, h) if d2_pairs is None else d2_pairs
    lower, upper = _bound_sums(d2, None, snr, c.m, kind)
    return BoundPair(lower=float(lower), upper=float(upper))


def mmse_bounds_fixed_h(snr: float, h, c: Constellation,
                        d2_pairs: np.ndarray | None = None) -> BoundPair:
    """Estimation error of the noiseless receive point.  Upper/lower ratio
    is exactly 4(M-1)."""
    return _fixed_h("mmse", snr, h, c, d2_pairs)


def mi_bounds_fixed_h(snr: float, h, c: Constellation,
                      d2_pairs: np.ndarray | None = None) -> BoundPair:
    """Mutual information in nats.  The lower bound can go negative at low
    SNR; it is reported raw rather than clamped."""
    return _fixed_h("mi", snr, h, c, d2_pairs)


def pe_bounds_fixed_h(snr: float, h, c: Constellation,
                      d2_pairs: np.ndarray | None = None) -> BoundPair:
    """ML symbol error probability.  Upper/lower ratio is exactly M-1, so
    the bounds coincide for binary inputs.  The union upper bound may exceed
    one at low SNR and is reported raw."""
    return _fixed_h("pe", snr, h, c, d2_pairs)


@dataclass(frozen=True)
class AveragedBoundPair:
    """Channel-averaged bound pair; both sides are Monte Carlo estimates
    computed from the same channel draws."""

    lower: Estimate
    upper: Estimate


def avg_bounds(kind: str, snr: float, model: ChannelModel, c: Constellation,
               cfg: McConfig) -> AveragedBoundPair:
    """Monte Carlo average over the channel of the fixed-H bounds.

    Reusing the same draws for both sides keeps the exact fixed-H ratios
    (4(M-1) for mmse, M-1 for pe) intact in the averaged estimates.  The
    pair sums run over the D distinct differences of `c`, each weighted by
    its multiplicity, so the cost per draw scales with D, not M(M-1).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown bound kind {kind!r}")
    if snr <= 0:
        raise ValueError("snr must be positive")
    diffs, counts = pair_differences(c)
    weights = counts.astype(float)

    def step(rng, batch):
        rec = sample_channels(model, batch, rng) @ diffs.T     # (batch, n_r, D)
        d2 = np.sum(rec.real ** 2 + rec.imag ** 2, axis=1)    # (batch, D)
        return _bound_sums(d2, weights, snr, c.m, kind)

    lower, upper = _run_chunks(cfg.channel_draws, cfg.seed, cfg.parallel_chunks,
                               _batch_size(diffs.shape[0] * model.n_r), step)
    return AveragedBoundPair(lower=_estimate(lower), upper=_estimate(upper))


def _batch_size(columns: int) -> int:
    # keep the (batch, columns) received-difference block around a few MB
    return max(1, min(4096, int(2_000_000 / max(columns, 1))))
