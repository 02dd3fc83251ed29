"""Monte Carlo oracles for the exact averaged performance measures.

Estimates the averaged MMSE of the noiseless receive point, the averaged
mutual information (nats) and the averaged ML symbol error rate, plus the
scaled sequences used to extract expansion coefficients empirically.

Estimator identities, all driven by the per-hypothesis log weights
A_j = -||r_i - r_j||^2 - 2 Re<r_i - r_j, n> for true input i (r_m are the
noiseless receive points scaled by sqrt(snr), n ~ CN(0, I)):

  * mutual information: I = log M - (1/M) sum_i E_n logsumexp_j A_j
  * conditional mean:  E{Hx | y} = sum_j softmax_j(A) H x_j
  * ML detection errs iff max_j A_j > 0 (the true hypothesis has A_i = 0)

Only the noise is sampled at fixed H (no quadrature); channel averaging
adds an outer Monte Carlo stage whose per-channel means drive the reported
standard error.  Work is split into `parallel_chunks` independently seeded
chunks reduced in fixed order, so results are bit-reproducible for a given
(seed, config, inputs) and independent of worker scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (
    CanonicalRayleigh,
    ChannelModel,
    Constellation,
    SnrGrid,
    SpaceTimeCode,
    _complex_normal,
    sample_channels,
)

__all__ = [
    "McConfig",
    "Estimate",
    "EpsilonPoint",
    "mmse_fixed_h",
    "mi_fixed_h",
    "pe_ml_fixed_h",
    "fixed_h_all",
    "avg_quantity",
    "avg_all",
    "avg_all_spacetime",
    "empirical_epsilon",
    "distance_squared_samples",
    "suggested_total_draws",
]

KINDS = ("mmse", "mi", "pe")


@dataclass(frozen=True)
class McConfig:
    """Sampling plan.  Results are a pure function of (config, inputs);
    each chunk has its own generator, so changing `parallel_chunks` changes
    the draws and moves the estimates within their standard errors."""

    channel_draws: int = 10_000
    noise_draws_per_channel: int = 100
    seed: int = 0
    parallel_chunks: int = 8

    def __post_init__(self):
        if self.channel_draws < 1 or self.noise_draws_per_channel < 1:
            raise ValueError("draw counts must be >= 1")
        if self.parallel_chunks < 1:
            raise ValueError("parallel_chunks must be >= 1")


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if not np.isfinite(self.mean):
            raise ValueError("estimate mean is not finite")
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")


def suggested_total_draws(gap_target: float) -> int:
    """Total sample count keeping the relative error of a gap-sized mean
    bounded: max(1e4, 10/gap)."""
    if gap_target <= 0:
        raise ValueError("gap_target must be positive")
    return int(max(1e4, 10.0 / gap_target))


def chunk_sizes(total: int, chunks: int) -> list[int]:
    """Balanced split of `total` into `chunks` parts (some may be zero)."""
    base, extra = divmod(total, chunks)
    return [base + (1 if k < extra else 0) for k in range(chunks)]


def chunk_rngs(seed: int, chunks: int) -> list[np.random.Generator]:
    """Independent per-chunk generators derived from (seed, chunk index)."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(chunks)]


# ---------------------------------------------------------------------------
# core kernel
# ---------------------------------------------------------------------------

def _shifted_weights(g2: np.ndarray, nsq_i: np.ndarray, i: int, out: np.ndarray,
                     gain: float = 1.0) -> np.ndarray:
    """Max-shifted exponential weights for true hypothesis i, hypothesis-first.

    g2    : (M, C, N) per-hypothesis noise terms, g2[k] ~ 2 Re<r_k, n>
    nsq_i : (M, C) squared distances ||r_i - r_k||^2 at the same scale
    Fills ``out`` (M, C, N) with exp(A_k - max_k A_k), where
    A_k = gain * (g2[k] - g2[i]) - nsq_i[k], and returns the (C, N) max.
    Reductions over k then run as M elementwise passes over (C, N) slabs.
    """
    np.subtract(g2, g2[i], out=out)
    if gain != 1.0:
        out *= gain
    out -= nsq_i[:, :, None]
    a_max = out.max(axis=0)
    out -= a_max
    np.exp(out, out=out)
    return a_max


def kernel_stats(received: np.ndarray, noise: np.ndarray, snr: float):
    """Per-sample statistics for a batch of channels.

    received : (C, M, dim) complex noiseless receive points, sqrt(snr) included
    noise    : (C, N, dim) complex CN(0, I) draws
    Returns (mmse, lse, pe) arrays of shape (C, N), each already averaged
    over the M equiprobable transmit hypotheses.  The mutual information is
    log M - lse.  Overflow is handled by max-shifted exponentials.
    """
    c_sz, m, dim = received.shape
    n_sz = noise.shape[1]
    # (C, 2 dim, M): real parts of the points stacked over imaginary parts
    pts = np.empty((c_sz, 2 * dim, m))
    pts[:, :dim] = received.real.transpose(0, 2, 1)
    pts[:, dim:] = received.imag.transpose(0, 2, 1)
    rr_t, ri_t = pts[:, :dim], pts[:, dim:]
    rr_, ri_ = rr_t.transpose(0, 2, 1), ri_t.transpose(0, 2, 1)
    g = noise.real @ rr_t + noise.imag @ ri_t           # (C, N, M): Re<r_m, n>
    g2 = np.empty((m, c_sz, n_sz))                      # (M, C, N): 2 Re<r_m, n>
    np.multiply(g.transpose(2, 0, 1), 2.0, out=g2)
    gram = (rr_ @ rr_t + ri_ @ ri_t).transpose(1, 2, 0)  # (M, M, C) view: Re<r_m, r_k>
    diag = np.einsum("mmc->mc", gram)
    nsq = np.empty((m, m, c_sz))                        # (M_i, M_k, C): ||r_i - r_k||^2
    np.add(diag[:, None, :], diag[None, :, :], out=nsq)
    nsq -= 2.0 * gram
    np.maximum(nsq, 0.0, out=nsq)

    mmse = np.zeros((c_sz, n_sz))
    lse = np.zeros((c_sz, n_sz))
    pe = np.zeros((c_sz, n_sz))
    ea = np.empty((m, c_sz, n_sz))
    for i in range(m):
        a_max = _shifted_weights(g2, nsq[i], i, ea)
        pe += a_max > 0.0
        s = ea.sum(axis=0)
        lse += a_max + np.log(s)
        cm = pts @ ea.transpose(1, 0, 2)                 # (C, 2 dim, N)
        cm /= s[:, None, :]
        cm -= pts[:, :, i, None]
        mmse += np.sum(cm * cm, axis=1)
    inv_m = 1.0 / m
    return mmse * (inv_m / snr), lse * inv_m, pe * inv_m


def _batch_channels(m: int, n_noise: int) -> int:
    # per-hypothesis logit block (M, batch, N) kept around 16 MB
    return max(8, min(4096, int(2_000_000 / max(m * n_noise, 1))))


def _estimate(samples: np.ndarray) -> Estimate:
    n = samples.size
    se = float(np.std(samples, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return Estimate(mean=float(np.mean(samples)), std_error=se, n_samples=n)


def _estimates(samples, log_m: float) -> dict[str, Estimate]:
    """The {mmse, mi, pe} estimates from per-sample (mmse, lse, pe) arrays;
    the mutual information is log M - mean(lse)."""
    mmse, lse, pe = (_estimate(s) for s in samples)
    mi = Estimate(mean=log_m - lse.mean, std_error=lse.std_error, n_samples=lse.n_samples)
    return {"mmse": mmse, "mi": mi, "pe": pe}


def _run_chunks(total: int, seed: int, chunks: int, cap: int, step, threads: int = 1):
    """The seeded draw loop of every Monte Carlo consumer.

    Splits `total` draws into `chunks` parts, each with its own generator,
    and calls ``step(rng, batch)`` on consecutive batches of at most `cap`
    draws of each part.  Returns the step outputs, arrays or tuples of
    arrays, concatenated in chunk order; ``threads > 1`` runs the parts on a
    thread pool with the same result.

    `cap` fixes the results, not only the memory: a step draws a whole batch
    at once, so another cap gives a seed different draws.
    """
    def run_chunk(job):
        size, rng = job
        return [step(rng, min(cap, size - start)) for start in range(0, size, cap)]

    jobs = list(zip(chunk_sizes(total, chunks), chunk_rngs(seed, chunks)))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(jobs))) as ex:
            per_chunk = list(ex.map(run_chunk, jobs))
    else:
        per_chunk = [run_chunk(j) for j in jobs]
    parts = [p for chunk in per_chunk for p in chunk]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(column) for column in zip(*parts))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# fixed-channel estimators (noise-only Monte Carlo)
# ---------------------------------------------------------------------------

def fixed_h_all(snr: float, h, c: Constellation, cfg: McConfig) -> dict[str, Estimate]:
    """All three fixed-H estimates from one shared pass over
    channel_draws * noise_draws_per_channel noise samples."""
    if snr <= 0:
        raise ValueError("snr must be positive")
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[1] != c.n_t:
        raise ValueError("H must have shape (n_r, n_t)")
    received = np.sqrt(snr) * (c.points @ h.T)[None, :, :]   # (1, M, n_r)

    def step(rng, batch):
        noise = _complex_normal(rng, (1, batch, h.shape[0]))
        return tuple(s[0] for s in kernel_stats(received, noise, snr))

    samples = _run_chunks(cfg.channel_draws * cfg.noise_draws_per_channel, cfg.seed,
                          cfg.parallel_chunks, max(256, int(2_000_000 / max(c.m, 1))), step)
    return _estimates(samples, c.log_m)


def mmse_fixed_h(snr: float, h, c: Constellation, cfg: McConfig) -> Estimate:
    """E||Hx - H E{x|y}||^2 at fixed H."""
    return fixed_h_all(snr, h, c, cfg)["mmse"]


def mi_fixed_h(snr: float, h, c: Constellation, cfg: McConfig) -> Estimate:
    """I(x; sqrt(snr) H x + n) at fixed H, in nats."""
    return fixed_h_all(snr, h, c, cfg)["mi"]


def pe_ml_fixed_h(snr: float, h, c: Constellation, cfg: McConfig) -> Estimate:
    """Minimum-distance (ML) symbol error probability at fixed H."""
    return fixed_h_all(snr, h, c, cfg)["pe"]


# ---------------------------------------------------------------------------
# channel-averaged estimators
# ---------------------------------------------------------------------------

def _averaged(snr: float, received, dim: int, m: int, log_m: float, cfg: McConfig,
              threads: int) -> dict[str, Estimate]:
    """Outer Monte Carlo over channel draws.

    ``received(rng, batch)`` must return (batch, M, dim) noiseless receive
    points with the sqrt(snr) scale included.  Each channel's mean over its
    noise draws is one sample of the estimates.
    """
    if snr <= 0:
        raise ValueError("snr must be positive")
    n_noise = cfg.noise_draws_per_channel

    def step(rng, batch):
        noise_free = received(rng, batch)
        noise = _complex_normal(rng, (batch, n_noise, dim))
        return tuple(s.mean(axis=1) for s in kernel_stats(noise_free, noise, snr))

    samples = _run_chunks(cfg.channel_draws, cfg.seed, cfg.parallel_chunks,
                          _batch_channels(m, n_noise), step, threads)
    return _estimates(samples, log_m)


def avg_all(snr: float, model: ChannelModel, c: Constellation, cfg: McConfig,
            threads: int = 1) -> dict[str, Estimate]:
    """Averaged (mmse, mi, pe) estimates sharing one set of channel draws."""
    if model.n_t != c.n_t:
        raise ValueError("channel and constellation transmit sizes differ")
    points = c.points
    root_snr = np.sqrt(snr)

    def received(rng, batch):
        h = sample_channels(model, batch, rng)
        return root_snr * np.einsum("mt,crt->cmr", points, h)

    return _averaged(snr, received, model.n_r, c.m, c.log_m, cfg, threads)


def avg_quantity(kind: str, snr: float, model: ChannelModel, c: Constellation,
                 cfg: McConfig, threads: int = 1) -> Estimate:
    """Averaged estimate of one measure; kind in {mmse, mi, pe}."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    return avg_all(snr, model, c, cfg, threads)[kind]


def avg_all_spacetime(snr: float, code: SpaceTimeCode, n_r: int, cfg: McConfig,
                      threads: int = 1) -> dict[str, Estimate]:
    """Averaged measures for codeword matrices over t symbol intervals under
    i.i.d. fading constant within a codeword; receive points live in C^(n_r t)."""
    if n_r < 1:
        raise ValueError("n_r must be >= 1")
    model = CanonicalRayleigh(n_t=code.n_t, n_r=n_r)
    cw = code.codewords
    dim = n_r * code.t
    root_snr = np.sqrt(snr)

    def received(rng, batch):
        h = sample_channels(model, batch, rng)
        rec = np.einsum("crt,mts->cmrs", h, cw)
        return root_snr * rec.reshape(batch, code.m, dim)

    return _averaged(snr, received, dim, code.m, code.log_m, cfg, threads)


# ---------------------------------------------------------------------------
# empirical expansion coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonPoint:
    """One grid point of the scaled sequence snr^a * measure.  ``flagged``
    marks points whose Monte Carlo error exceeds 20% of the scaled value --
    the gap is below MC resolution there, not a fault."""

    snr: float
    value: float
    std_error: float
    flagged: bool
    residual: float | None = None


def empirical_epsilon(kind: str, grid: SnrGrid, model: ChannelModel,
                      c: Constellation, cfg: McConfig, d: int,
                      log_m_limit: float | None = None,
                      leading: float | None = None,
                      threads: int = 1) -> list[EpsilonPoint]:
    """Scaled sequences whose limits are the expansion coefficients:
    snr^(d+1) * mmse, snr^d * (log M - mi) or snr^d * pe per grid point.

    ``log_m_limit`` overrides the infinite-SNR mutual-information limit for
    degenerate channels.  If ``leading`` is supplied, each point also
    carries the next-order residual obtained by subtracting the leading
    term (exploratory; the residual inherits the scaled MC noise).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if d < 1:
        raise ValueError("diversity order d must be >= 1")
    limit = c.log_m if log_m_limit is None else float(log_m_limit)
    points = []
    for snr in grid:
        est = avg_quantity(kind, snr, model, c, cfg, threads)
        if kind == "mmse":
            scale = snr ** (d + 1)
            raw = est.mean
        elif kind == "mi":
            scale = snr ** d
            raw = limit - est.mean
        else:
            scale = snr ** d
            raw = est.mean
        value = scale * raw
        se = scale * est.std_error
        flagged = (value <= 0.0) or (se > 0.2 * abs(value))
        residual = None
        if leading is not None:
            residual = snr * (value - leading)
        points.append(EpsilonPoint(snr=float(snr), value=float(value),
                                   std_error=float(se), flagged=bool(flagged),
                                   residual=residual))
    return points


# ---------------------------------------------------------------------------
# empirical distance densities
# ---------------------------------------------------------------------------

def distance_squared_samples(model: ChannelModel, diff, n: int, seed: int,
                             chunks: int = 8) -> np.ndarray:
    """`n` draws of ||H diff||^2 for a fixed difference vector.

    Used to validate the analytic density behavior at zero against an
    empirical histogram near the origin.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    diff = np.asarray(diff, dtype=complex).ravel()
    if diff.size != model.n_t:
        raise ValueError("difference vector length must equal n_t")

    def step(rng, batch):
        rec = sample_channels(model, batch, rng) @ diff
        return np.sum(np.abs(rec) ** 2, axis=1)

    return _run_chunks(n, seed, chunks, 100_000, step)
