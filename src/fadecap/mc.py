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
standard error.  There, inputs of at least SAMPLED_MIN_M points that do
not take the factorised grid kernel sample the true input too: each noise
draw takes one uniform i, so that

  * I = log M - E_{i,n} logsumexp_j A_j, and likewise for mmse and pe,

costs M logits a sample instead of M^2.  The variance between channels
dominates, so this widens the error bars little.  Single-antenna grids
R x I take the factorised kernel instead: per level set, the logits depend
on the level difference alone, so each sample weighs the distinct
differences once (2Q - 1 for Q equally spaced levels, not Q^2) and every
true level reads its row of them (`_level_stats`).  Work is split into
`parallel_chunks` independently seeded chunks reduced in fixed order, so
results are bit-reproducible for a given (seed, config, inputs) and
independent of worker scheduling and batching.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelModel,
    Constellation,
    SnrGrid,
    SpaceTimeCode,
    _check_transmit_size,
    _complex_normal,
    _fixed_h,
    _row_groups,
    sample_channels,
)

__all__ = [
    "McConfig",
    "Estimate",
    "EpsilonPoint",
    "fixed_h_all",
    "avg_all",
    "sampled_true_symbol",
    "empirical_epsilon",
    "distance_squared_samples",
]

KINDS = ("mmse", "mi", "pe")

# Floor of the max-shifted logits.  np.exp leaves its vector fast path where
# the result is no longer a normal float (below about -708) and is 20-200x
# slower there.  A weight of at most e^-700 (~1e-304) is absorbed in every
# weight sum: the per-hypothesis kernels' sums hold the argmax weight of
# exactly 1, and the level kernel's window sums the d = 0 weight e^-max,
# where max <= z^2 for the one noise coordinate z, N(0, 1/2).
EXP_FLOOR = -700.0

# Elements in a batch's largest block (1 MB of float64): memory and speed,
# never a result.  Steps draw in draw order, so no batch size changes a draw.
# A kernel sweeps its (M, C, N) block once per hypothesis, and past the L2
# cache its cost per logit rises 1.2-2.7x: at 2^17 `avg_all` ran 1.6-1.9x
# faster than at 2,000,000 elements on every kernel path, and 2^15 was
# slower than 2^17 on each (2-core Xeon, 2 MB of L2 a core, one BLAS thread).
BATCH_ELEMENTS = 2 ** 17

# Inputs of at least this many points, factorised grids aside, evaluate
# one sampled true symbol a noise draw in the channel-averaged estimators
# (`sampled_true_symbol`).  Measured 1 / (std_error^2 * seconds), sampled
# over full sum: 0.2-0.7 at M = 4, 0.6-1.2 at M = 8, 1.2-2.8 at M = 16
# (a space-time code 0.4-1.4, even in geometric mean), 2.6-5.8 at M = 64.
SAMPLED_MIN_M = 16


@dataclass(frozen=True)
class McConfig:
    """Sampling plan.  (seed, parallel_chunks) fix every channel and noise
    draw, the power-allocation banks' included; each chunk has its own
    generators, so changing `parallel_chunks` changes the draws and moves
    the estimates within their standard errors."""

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

    def __post_init__(self):
        if not np.isfinite(self.mean):
            raise ValueError("estimate mean is not finite")
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")


def chunk_sizes(total: int, chunks: int) -> list[int]:
    """Balanced split of `total` into `chunks` parts (some may be zero)."""
    base, extra = divmod(total, chunks)
    return [base + (1 if k < extra else 0) for k in range(chunks)]


def chunk_rngs(seed: int, chunks: int, streams: int = 2) -> list[tuple[np.random.Generator, ...]]:
    """Per-chunk (channel, noise) generators spawned from (seed, chunk index);
    ``streams=3`` adds a third, for sampled true symbols, and leaves the
    first two unchanged."""
    return [tuple(np.random.default_rng(s) for s in chunk.spawn(streams))
            for chunk in np.random.SeedSequence(seed).spawn(chunks)]


# ---------------------------------------------------------------------------
# core kernel
# ---------------------------------------------------------------------------

def _weights(a: np.ndarray) -> np.ndarray:
    """Logits a -> exp(max(a - max a, EXP_FLOOR)) in place over axis 0; returns max a."""
    a_max = a.max(axis=0)
    a -= a_max
    np.exp(np.maximum(a, EXP_FLOOR, out=a), out=a)
    return a_max


def _shifted_weights(g2: np.ndarray, nsq_i: np.ndarray, i: int, out: np.ndarray) -> np.ndarray:
    """The logits of true hypothesis i, hypothesis-first, and their weights.

    g2    : (M, C, N) per-hypothesis noise terms, g2[k] ~ 2 Re<r_k, n>, at
            the scale of the points (callers scale their tables before the
            loop over i, not once per hypothesis)
    nsq_i : (M, C) squared distances ||r_i - r_k||^2 at the same scale
    Fills ``out`` (M, C, N) with the `_weights` of A_k = g2[k] - g2[i] - nsq_i[k]
    (reductions over k then run over (C, N) slabs); returns the (C, N) max.
    """
    np.subtract(g2, g2[i], out=out)
    out -= nsq_i[:, :, None]
    return _weights(out)


def kernel_stats(received: np.ndarray, noise: np.ndarray, snr: float):
    """Per-sample statistics for a batch of channels.

    received : (C, M, dim) complex128 noiseless receive points, sqrt(snr)
               included, or (C, M, D) float64 real coordinates
    noise    : (C, N, dim) complex128 CN(0, I) draws, or (C, N, D) float64
               real coordinates, N(0, 1/2) each
    Both are read through `.view(float)`, which needs the last axis
    contiguous: a complex array as its interleaved (re, im) floats, D =
    2 dim, so that Re<r, n> is their dot product, and a float array as it
    is.  Returns (mmse, lse, pe) arrays of shape (C, N), each already
    averaged over the M equiprobable transmit hypotheses.  The mutual
    information is log M - lse.  The distances ||r_i - r_k||^2 come from the
    differences r_k - r_i, so their rounding scales with them, not with the
    points.  Its weights, as those of `sampled_stats` and the power-allocation
    banks, come from `_weights`: max-shifted and floored at EXP_FLOOR.
    """
    c_sz, m = received.shape[:2]
    n_sz = noise.shape[1]
    pts = received.view(float).transpose(0, 2, 1)     # (C, D, M) real coordinates
    g2 = np.empty((m, c_sz, n_sz))                      # (M, C, N): 2 Re<r_m, n>
    np.multiply((noise.view(float) @ pts).transpose(2, 0, 1), 2.0, out=g2)
    coords = np.ascontiguousarray(pts.transpose(1, 2, 0))      # (D, M, C)
    diff = np.empty_like(coords)          # reused: a new one per i is ~4x slower at M = 256
    nsq_i = np.empty((m, c_sz))                         # ||r_i - r_k||^2 over k

    mmse = np.zeros((c_sz, n_sz))
    lse = np.zeros((c_sz, n_sz))
    pe = np.zeros((c_sz, n_sz))
    ea = np.empty((m, c_sz, n_sz))
    for i in range(m):
        np.subtract(coords, coords[:, i, None], out=diff)
        diff *= diff
        np.sum(diff, axis=0, out=nsq_i)
        a_max = _shifted_weights(g2, nsq_i, i, ea)
        pe += a_max > 0.0
        s = ea.sum(axis=0)
        lse += a_max + np.log(s)
        cm = pts @ ea.transpose(1, 0, 2)                 # (C, D, N)
        cm /= s[:, None, :]
        cm -= pts[:, :, i, None]
        mmse += np.sum(cm * cm, axis=1)
    inv_m = 1.0 / m
    return mmse * (inv_m / snr), lse * inv_m, pe * inv_m


def _level_differences(levels: np.ndarray):
    """The distinct differences of the sorted real `levels` l (Q >= 2) and
    where each true level reads them, built once per level set
    (`_level_plan`, read-only).

    Differences l_k - l_i are grouped as `model._distinct_rows` groups pair
    differences (integer keys in units of 2^-40 of the largest), so each
    member lies within 2^-40 (l_max - l_min) of its group's first member,
    the representative: on qam16, qam64 and qam256 within 1, 2 and 4 ulp
    of the member (1.1e-16, 1.1e-16 and 2.2e-16).  Returns the
    representatives (D,), ascending; for each true level i a pair (rows, m)
    with rows a slice of them and m the (2, len) matrix of ones over
    l_k - l_i and of those differences; and the (group, count) pairs of the
    neighbour differences l_{i+1} - l_i and l_i - l_{i+1}.  Equally spaced
    levels give D = 2Q - 1 and row i the window [Q - 1 - i, 2Q - 1 - i);
    other sets read all D rows, with zeros in m off row i.
    """
    return _level_plan(levels.tobytes())


@functools.lru_cache(maxsize=64)
def _level_plan(key: bytes):
    levels = np.frombuffer(key)
    q = levels.size
    d = levels[None, :] - levels[:, None]                  # d[i, k] = l_k - l_i
    first, group = _row_groups(d.reshape(-1, 1))
    diffs, index = d.ravel()[first], group.reshape(q, q)
    if np.array_equal(index, np.arange(q)[None, :] - np.arange(q)[:, None] + q - 1):
        rows = [(slice(q - 1 - i, 2 * q - 1 - i), np.stack((np.ones(q), diffs[row])))
                for i, row in enumerate(index)]
    else:
        rows = []
        for row in index:
            m = np.zeros((2, diffs.size))
            m[0, row] = 1.0
            m[1, row] = diffs[row]
            rows.append((slice(None), m))
    for shared in [diffs] + [m for _, m in rows]:
        shared.flags.writeable = False
    r = np.arange(q - 1)
    counts = np.bincount(np.concatenate((index[r, r + 1], index[r + 1, r])),
                         minlength=diffs.size)
    neighbours = tuple((g, float(counts[g])) for g in np.flatnonzero(counts))
    return diffs, tuple(rows), neighbours


def _level_stats(levels: np.ndarray, amp: np.ndarray, z: np.ndarray, snr: float, *,
                 lse_only: bool = False):
    """Per-sample (mmse, lse, pe) of `kernel_stats` for the real points
    amp l of the sorted levels l (Q >= 2) under one real noise coordinate,
    from the logits of their distinct level differences.

    levels   : (Q,) sorted real levels
    amp      : (C,) nonnegative scale of each channel's points
    z        : (C, N) float64 noise coordinate, N(0, 1/2) each
    lse_only : skip mmse and pe, returned as None (the power-allocation
               banks read lse alone)
    The logit of hypothesis k for true level i is A = tau (2z - tau) with
    tau = amp (l_k - l_i), so it depends on the difference alone: the
    (D, C, N) table of the D distinct differences (`_level_differences`;
    2Q - 1 for equally spaced levels, instead of Q^2) is formed once and
    weighted by `_weights`, shifted by its max over all D.  True level i
    then reads its weight sum s_i and its conditional-mean sum off its row
    of differences, and lse_i = max + log s_i.  Each s_i holds the d = 0
    weight e^-max and A <= z^2, so the floor (EXP_FLOOR) is absorbed while
    z^2 stays far below 700, as for every Gaussian draw.  With sorted
    levels some A_k > 0 iff a neighbour's A > 0 (the one on z's side), so
    pe counts the neighbour differences' positive logits.
    """
    diffs, rows, neighbours = _level_differences(levels)
    tau = diffs[:, None] * amp                                  # (D, C)
    a = 2.0 * z - tau[:, :, None]
    a *= tau[:, :, None]                                        # (D, C, N) logits
    pe = None
    if not lse_only:
        pe = np.zeros(z.shape)
        for g, count in neighbours:
            pe += count * (a[g] > 0.0)
    a_max = _weights(a)
    weights = a.reshape(diffs.size, -1)
    lse, mmse = np.zeros(z.size), np.zeros(z.size)
    sums = np.empty((2, z.size))            # in place: fresh (C, N) blocks cost page faults
    for row, m in rows:
        if lse_only:
            s = np.matmul(m[0], weights[row], out=sums[0])
        else:
            s, num = np.matmul(m, weights[row], out=sums)
            num /= s
            num *= np.abs(num) >= 2.0 ** -500     # squares below 2^-1000 are dropped:
            num *= num                            # subnormal products run ~50x slower
            mmse += num
        lse += np.log(s, out=s)
    inv_q = 1.0 / levels.size
    lse = lse.reshape(z.shape)
    lse *= inv_q
    lse += a_max
    if lse_only:
        return None, lse, None
    mmse = mmse.reshape(z.shape)
    mmse *= (amp * amp * (inv_q / snr))[:, None]
    pe *= inv_q
    return mmse, lse, pe


def sampled_stats(received: np.ndarray, noise: np.ndarray, true: np.ndarray, snr: float):
    """Per-sample statistics of one true symbol a sample.

    received : (C, M, dim) complex128 or (C, M, D) float64, as `kernel_stats`
    noise    : (C, N, dim) complex128 or (C, N, D) float64, as `kernel_stats`
    true     : (C, N) index i of the true symbol of each noise draw
    Returns (mmse, lse, pe) arrays of shape (C, N) for that i alone.  With
    d_k = r_k - r_i the logits are A_k = 2 Re<d_k, n> - ||d_k||^2 (A_i = 0
    exactly), lse = logsumexp_k A_k, the detector errs iff max_k A_k > 0,
    and E{Hx | y} - r_i = softmax(A) @ d.  Over a uniform i each statistic
    averages to that of `kernel_stats`, from M logits a sample instead of
    M^2, weighted by `_weights` on a hypothesis-first view.  The real
    coordinates come first, so each is one (C, N, M) slab of d, formed
    twice (logits, then weights) rather than held as a D times larger block.
    """
    # (D, C, M), (D, C, N), (D, C, N): real coordinates of r, 2n, r_i
    pts = received.view(float).transpose(2, 0, 1)
    z2 = 2.0 * noise.view(float).transpose(2, 0, 1)
    pts_i = np.take_along_axis(pts, np.broadcast_to(true, (len(pts),) + true.shape), axis=2)
    a = np.zeros(true.shape + received.shape[1:2])                    # (C, N, M) logits
    d = np.empty_like(a)                                              # one coordinate of d
    t = np.empty_like(a)
    for x, x_i, z in zip(pts, pts_i, z2):
        np.subtract(x[:, None, :], x_i[:, :, None], out=d)
        np.subtract(z[:, :, None], d, out=t)
        t *= d
        a += t
    a_max = _weights(np.moveaxis(a, -1, 0))
    s = a.sum(axis=-1)
    mmse = np.zeros(true.shape)
    for x, x_i in zip(pts, pts_i):
        np.subtract(x[:, None, :], x_i[:, :, None], out=d)
        d *= a
        cm = d.sum(axis=-1) / s
        mmse += cm * cm
    return mmse / snr, a_max + np.log(s), (a_max > 0.0).astype(float)


def _estimate(samples: np.ndarray) -> Estimate:
    n = samples.size
    se = float(np.std(samples, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return Estimate(mean=float(np.mean(samples)), std_error=se)


def _estimates(samples, log_m: float) -> dict[str, Estimate]:
    """The {mmse, mi, pe} estimates from per-sample (mmse, lse, pe) arrays;
    the mutual information is log M - mean(lse)."""
    mmse, lse, pe = (_estimate(s) for s in samples)
    mi = Estimate(mean=log_m - lse.mean, std_error=lse.std_error)
    return {"mmse": mmse, "mi": mi, "pe": pe}


def _available_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_chunks(cfg: McConfig, per_draw: int, step, threads: int = 1, streams: int = 2):
    """The seeded draw loop of every Monte Carlo consumer.

    Splits the plan's `channel_draws` into its `parallel_chunks` parts, each
    with `streams` generators (`chunk_rngs` of its `seed`), and calls
    ``step(channel_rng, noise_rng, batch, *more_rngs)`` on consecutive
    batches of each part, sized so that the step's largest block (`per_draw`
    elements a draw) holds about `BATCH_ELEMENTS`.  Steps draw in draw
    order, so the batch size never changes a draw.  Each step returns a
    tuple of arrays; the result is the tuple of their concatenations in
    chunk order.  ``threads > 1`` runs the parts on a thread pool of at most
    `threads`, chunks and `_available_cpus()` workers, with the same result.
    """
    cap = max(1, BATCH_ELEMENTS // per_draw)

    def run_chunk(job):
        size, (channel_rng, noise_rng, *more_rngs) = job
        return [step(channel_rng, noise_rng, min(cap, size - start), *more_rngs)
                for start in range(0, size, cap)]

    jobs = list(zip(chunk_sizes(cfg.channel_draws, cfg.parallel_chunks),
                    chunk_rngs(cfg.seed, cfg.parallel_chunks, streams)))
    workers = min(threads, len(jobs), _available_cpus())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            per_chunk = list(ex.map(run_chunk, jobs))
    else:
        per_chunk = [run_chunk(j) for j in jobs]
    parts = [p for chunk in per_chunk for p in chunk]
    return tuple(np.concatenate(column) for column in zip(*parts))


# ---------------------------------------------------------------------------
# fixed-channel estimators (noise-only Monte Carlo)
# ---------------------------------------------------------------------------

def fixed_h_all(snr: float, h, c: Constellation, cfg: McConfig) -> dict[str, Estimate]:
    """The fixed-H estimates {mmse: E||Hx - H E{x|y}||^2, mi: I(x; sqrt(snr)
    H x + n) in nats, pe: minimum-distance (ML) symbol error probability}
    from channel_draws blocks of noise_draws_per_channel noise samples, each
    block a copy of H."""
    if snr <= 0:
        raise ValueError("snr must be positive")
    h = _fixed_h(h, c)
    n_noise = cfg.noise_draws_per_channel
    blocks, levels = c.blocks, _grid_factors(c)

    def step(channel_rng, noise_rng, batch):
        noise = _complex_normal(noise_rng, (batch, n_noise, h.shape[0]))
        stats = _sample_stats(np.broadcast_to(h, (batch, *h.shape)), noise, blocks, levels, snr)
        return tuple(s.ravel() for s in stats)

    samples = _run_chunks(cfg, _full_sum_block(c.m, levels, n_noise), step)
    return _estimates(samples, c.log_m)


# ---------------------------------------------------------------------------
# channel-averaged estimators
# ---------------------------------------------------------------------------

def sampled_true_symbol(c: Constellation | SpaceTimeCode) -> bool:
    """Whether `avg_all` evaluates one uniformly drawn true symbol a noise
    draw rather than all M: space-time codes and constellations of at least
    SAMPLED_MIN_M points that do not take the factorised kernel
    (`_grid_factors`).  Those grids, every smaller input and every fixed-H
    estimate sum over all M."""
    return c.m >= SAMPLED_MIN_M and _grid_factors(c) is None


def _grid_factors(c: Constellation | SpaceTimeCode):
    """Level sets (R, I) of a single-antenna grid constellation with
    |R|^2 + |I|^2 <= M^2 / 4 (qam16, qam64, qam256), whose factorised
    kernel weighs the distinct differences of each level set (2|R| + 2|I|
    - 2 logits a sample when equally spaced); None otherwise."""
    levels = c.grid_levels
    if levels is None or 4 * (levels[0].size ** 2 + levels[1].size ** 2) > c.m ** 2:
        return None
    return levels


def _grid_stats(h: np.ndarray, noise: np.ndarray, levels, snr: float):
    """Per-sample (mmse, lse, pe) of `kernel_stats` for the single-antenna
    grid constellation R x I, from one kernel call per level set.

    h     : (C, n_r) channel columns
    noise : (C, N, n_r) CN(0, I) draws
    With u = h^+ n / ||h|| ~ CN(0, 1), the logit of hypothesis k for true
    input i is A = -snr ||h||^2 |x_i - x_k|^2 - 2 sqrt(snr) ||h||
    Re(conj(x_i - x_k) u), which splits into a real-level and an
    imaginary-level term.  So per sample lse = lse_R + lse_I, mmse =
    mmse_R + mmse_I and pe = pe_R + pe_I - pe_R pe_I (an error in either
    coordinate), each factor being that of `kernel_stats` on the one real
    coordinate sqrt(snr) ||h|| level of its points, with the one real noise
    coordinate Re u (R) or Im u (I), and computed by `_level_stats` on the
    distinct level differences.  The error rate is formed from the integer
    error counts, so it equals the joint kernel's.
    """
    gain = np.sqrt(np.sum(h.real ** 2 + h.imag ** 2, axis=1))          # (C,)
    # a zero channel gives u = 0 and all-zero points, so lse = log M
    u = (noise @ h.conj()[:, :, None])[:, :, 0] / np.where(gain > 0.0, gain, 1.0)[:, None]
    amp = np.sqrt(snr) * gain
    (mmse_r, lse_r, pe_r), (mmse_i, lse_i, pe_i) = (
        _level_stats(lev, amp, z, snr) for lev, z in ((levels[0], u.real), (levels[1], u.imag)))
    n_re, n_im = levels[0].size, levels[1].size
    err_r, err_i = np.rint(pe_r * n_re), np.rint(pe_i * n_im)
    errors = err_r * n_im + err_i * n_re - err_r * err_i
    return mmse_r + mmse_i, lse_r + lse_i, errors * (1.0 / (n_re * n_im))


def _full_sum_block(m: int, levels, n_noise: int) -> int:
    """Elements a draw of the largest block of the kernels that sum over all
    M true symbols: the (D, N) logits of the largest level set's distinct
    differences on a factorised grid (`_level_stats`; D = 2Q - 1 for
    equally spaced levels), the (M, N) logits otherwise."""
    if levels is None:
        return n_noise * m
    return n_noise * max(len(_level_differences(lev)[0]) for lev in levels)


def _sample_stats(h: np.ndarray, noise: np.ndarray, blocks: np.ndarray, levels, snr: float,
                  true=None):
    """Per-sample (mmse, lse, pe) of channels h (C, n_r, n_t) under noise
    (C, N, n_r t) for the M equiprobable (n_t, t) input `blocks`: a
    constellation's points as (M, n_t, 1), or a space-time code's codewords.
    Given the level sets `levels` of a single-antenna grid R x I
    (`_grid_factors`), it takes the factorised kernel of `_grid_stats`: the
    channel is rank one and projecting the noise onto h loses nothing, so
    the statistics are exact and need the logits of the distinct level
    differences of R and I (2|R| + 2|I| - 2 when each is equally spaced)
    rather than M^2.
    Otherwise it takes the joint kernel on the receive points in C^(n_r t),
    over all M true symbols or, given `true` (C, N), over one a sample."""
    if levels is not None:
        return _grid_stats(h[:, :, 0], noise, levels, snr)
    received = np.sqrt(snr) * np.einsum("crt,mts->cmrs", h, blocks).reshape(len(h), len(blocks), -1)
    return (kernel_stats(received, noise, snr) if true is None
            else sampled_stats(received, noise, true, snr))


def avg_all(snr: float, channel: ChannelModel, inputs: Constellation | SpaceTimeCode,
            cfg: McConfig, threads: int = 1) -> dict[str, Estimate]:
    """Averaged (mmse, mi, pe) estimates of a constellation or of a
    space-time code (codewords over t intervals, fading constant within a
    codeword, receive points in C^(n_r t); pass a code with
    `CanonicalRayleigh(code.n_t, n_r)`).  Outer Monte Carlo over channel
    draws, by `_sample_stats`: H from the channel stream, the one
    `bounds.avg_bounds` sees for the same config, and (batch, N, n_r t)
    noise from the noise stream; a channel's means are one sample.  Unless
    `sampled_true_symbol(inputs)`, the statistics average the M
    hypotheses; otherwise each chunk spawns a third stream, and each noise
    draw's one uniform true symbol is drawn from it."""
    _check_transmit_size(channel.n_t, inputs)
    if snr <= 0:
        raise ValueError("snr must be positive")
    blocks, levels = inputs.blocks, _grid_factors(inputs)
    n_noise = cfg.noise_draws_per_channel
    m, noise_dim = len(blocks), channel.n_r * blocks.shape[2]

    def step(channel_rng, noise_rng, batch, symbol_rng=None):
        h = sample_channels(channel, batch, channel_rng)
        noise = _complex_normal(noise_rng, (batch, n_noise, noise_dim))
        true = None if symbol_rng is None else symbol_rng.integers(m, size=(batch, n_noise))
        return tuple(s.mean(axis=1) for s in _sample_stats(h, noise, blocks, levels, snr, true))

    if sampled_true_symbol(inputs):     # (N, M) logits and one (N, M) coordinate slab a channel
        per_draw, streams = 2 * n_noise * m, 3
    else:
        per_draw, streams = _full_sum_block(m, levels, n_noise), 2
    samples = _run_chunks(cfg, per_draw, step, threads, streams)
    return _estimates(samples, float(np.log(m)))


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


def empirical_epsilon(grid: SnrGrid, channel: ChannelModel,
                      inputs: Constellation | SpaceTimeCode, cfg: McConfig, d: int,
                      limit: float, threads: int = 1) -> dict[str, list[EpsilonPoint]]:
    """Scaled sequences whose limits are the expansion coefficients, each
    grid point from one `avg_all` call: {mmse: snr^(d+1) * mmse,
    mi: snr^d * (limit - mi), pe: snr^d * pe}.  `limit` is the
    infinite-SNR mutual information, below log M on degenerate channels
    (`asymptotics.ExpansionBounds.log_m_limit`)."""
    if d < 1:
        raise ValueError("diversity order d must be >= 1")
    points = {kind: [] for kind in KINDS}
    for snr in grid:
        est = avg_all(snr, channel, inputs, cfg, threads)
        for kind in KINDS:
            points[kind].append(_epsilon_point(kind, est[kind], snr, d, limit))
    return points


def _epsilon_point(kind: str, est: Estimate, snr: float, d: int, limit: float) -> EpsilonPoint:
    """`est` of measure `kind` at `snr` on its scaled sequence, flagged when
    the value is not positive or its standard error exceeds 20% of it."""
    if kind == "mmse":
        scale, raw = snr ** (d + 1), est.mean
    elif kind == "mi":
        scale, raw = snr ** d, limit - est.mean
    else:
        scale, raw = snr ** d, est.mean
    value = scale * raw
    se = scale * est.std_error
    return EpsilonPoint(snr=float(snr), value=float(value), std_error=float(se),
                        flagged=bool(value <= 0.0 or se > 0.2 * abs(value)))


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

    def step(channel_rng, noise_rng, batch):
        rec = sample_channels(model, batch, channel_rng) @ diff
        return (np.sum(np.abs(rec) ** 2, axis=1),)

    cfg = McConfig(channel_draws=n, seed=seed, parallel_chunks=chunks)
    return _run_chunks(cfg, model.n_r * model.n_t, step)[0]
