"""System design procedures driven by the high-SNR expansion coefficients.

Covers power allocation across parallel scalar fading subchannels (closed
forms plus a Monte Carlo validation optimizer), precoder optimization for
uncorrelated and transmit-correlated channels, and ranking of space-time
codebooks by (minimum difference rank, leading coefficient).

Sign convention for the space-time criterion: we *minimize*
sum over minimal-rank pairs of prod(1/lambda)^n_r, equivalently maximize
the products of nonzero difference-Gram eigenvalues, matching the classic
rank-and-determinant rules; a smaller criterion means a smaller high-SNR
capacity gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mc
from .asymptotics import EIG_ZERO_REL, _pair_gram_eigenvalues
from .model import (
    Constellation,
    SpaceTimeCode,
    _complex_normal,
    check_psd,
    hermitian_sqrt,
    pair_differences,
    pairwise_sq_distances,
)

__all__ = [
    "RayleighFading",
    "RiceanFading",
    "SubchannelSpec",
    "PowerAllocation",
    "Precoder",
    "PrecoderReport",
    "PrecoderConvergenceError",
    "palloc_rayleigh_highsnr",
    "palloc_ricean_highsnr",
    "palloc_numeric",
    "subchannel_capacities",
    "precoder_canonical",
    "precoder_correlated",
    "precoder_objective",
    "st_criteria",
    "st_compare",
    "SpaceTimeReport",
]

BUDGET_TOL = 1e-9


# ---------------------------------------------------------------------------
# parallel scalar subchannels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RayleighFading:
    variance: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("fading variance must be positive")


@dataclass(frozen=True)
class RiceanFading:
    mean: complex
    variance: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("fading variance must be positive")


@dataclass(frozen=True)
class SubchannelSpec:
    """One scalar subchannel: y = sqrt(snr) h sqrt(p) x + n with h drawn
    CN(mean, variance) and x from a unit-power scalar constellation."""

    constellation: Constellation
    fading: RayleighFading | RiceanFading

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
        if np.any(p < -BUDGET_TOL):
            raise ValueError("powers must be nonnegative")
        if p.sum() > self.budget * (1.0 + BUDGET_TOL):
            raise ValueError("allocation exceeds the budget")
        object.__setattr__(self, "p", np.maximum(p, 0.0))


def _mean_pair_energy(c: Constellation) -> float:
    """(1/M) sum over ordered pairs of squared distances."""
    diffs, counts = pair_differences(c)
    return float(np.sum(np.abs(diffs) ** 2, axis=1) @ counts / c.m)


def _highsnr_weights(subs: Sequence[SubchannelSpec], ricean: bool) -> np.ndarray:
    w = np.empty(len(subs))
    for k, sub in enumerate(subs):
        fad = sub.fading
        if ricean:
            if not isinstance(fad, RiceanFading):
                raise ValueError("all subchannels must be Ricean")
            mu2 = abs(complex(fad.mean)) ** 2
            los = np.exp(-mu2 / (2.0 * fad.variance))
        else:
            if not isinstance(fad, RayleighFading):
                raise ValueError("all subchannels must be Rayleigh")
            los = 1.0
        w[k] = los / np.sqrt(_mean_pair_energy(sub.constellation) * fad.variance)
    return w


def palloc_rayleigh_highsnr(subs: Sequence[SubchannelSpec], budget: float) -> PowerAllocation:
    """Closed-form high-SNR allocation p_k proportional to
    1/sqrt((1/M_k) sum_pairs dbar^2 * sigma_k^2), using the full budget.

    Stronger subchannels (larger fading variance) get less power: they
    already close their capacity gap faster.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    w = _highsnr_weights(subs, ricean=False)
    p = budget * w / w.sum()
    return PowerAllocation(p=p, budget=budget)


def palloc_ricean_highsnr(subs: Sequence[SubchannelSpec], budget: float) -> PowerAllocation:
    """Ricean variant: each weight is damped by exp(-|mu|^2 / (2 sigma^2)),
    so a stronger line-of-sight component diverts power to the other
    subchannels.  Reduces to the Rayleigh rule at mu = 0."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    w = _highsnr_weights(subs, ricean=True)
    p = budget * w / w.sum()
    return PowerAllocation(p=p, budget=budget)


@dataclass(frozen=True)
class _SubchannelBank:
    """Common-random-number draw bank for one subchannel.

    The per-hypothesis logits at power p factor as
    2*sqrt(snr*p)*(base_g_k - base_g_i) - snr*p*base_nsq_ik, so the fading
    and noise enter only through the power-independent tables below and
    every candidate power is compared on identical randomness.  Both tables
    are hypothesis-first, the layout `mc.kernel_stats` uses.
    """

    base_nsq: np.ndarray   # (M, M, C): |h|^2 ||x_i - x_k||^2
    base_g: np.ndarray     # (M, C, N): Re<h x_m, n>
    log_m: float

    def half(self, which: int) -> "_SubchannelBank":
        c_sz = self.base_g.shape[1]
        sel = slice(0, c_sz // 2) if which == 0 else slice(c_sz // 2, None)
        return _SubchannelBank(self.base_nsq[:, :, sel], self.base_g[:, sel], self.log_m)


def _subchannel_bank(sub: SubchannelSpec, cfg: mc.McConfig, stream: int) -> _SubchannelBank:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(stream + 1)[-1])
    fad = sub.fading
    c_draws, n_draws = cfg.channel_draws, cfg.noise_draws_per_channel
    h = _complex_normal(rng, (c_draws,)) * np.sqrt(fad.variance)
    if isinstance(fad, RiceanFading):
        h = h + complex(fad.mean)
    noise = _complex_normal(rng, (c_draws, n_draws))
    pts = sub.constellation.points[:, 0]
    base_nsq = pairwise_sq_distances(sub.constellation)[:, :, None] * np.abs(h) ** 2
    hx = pts[:, None] * h[None, :]                       # (M, C)
    base_g = (hx.real[:, :, None] * noise.real[None]
              + hx.imag[:, :, None] * noise.imag[None])
    return _SubchannelBank(base_nsq=base_nsq, base_g=base_g,
                           log_m=sub.constellation.log_m)


def _bank_mi(snr: float, bank: _SubchannelBank, power: float) -> float:
    """Average mutual information of one subchannel evaluated on the bank."""
    if power <= 0.0:
        return 0.0
    scale = snr * power
    root = 2.0 * np.sqrt(scale)
    m = bank.base_g.shape[0]
    buf = np.empty(bank.base_g.shape)
    lse_total = 0.0
    for i in range(m):
        a_max = mc._shifted_weights(bank.base_g, scale * bank.base_nsq[i], i, buf, root)
        lse_total += float(np.mean(a_max + np.log(buf.sum(axis=0))))
    return bank.log_m - lse_total / m


def _coordinate_search(objective, p0: np.ndarray, budget: float,
                       sweeps: int = 4, tol: float = 1e-3):
    """Pairwise power transfers with golden-section line search on a
    deterministic (bank-backed) objective; stays on the simplex sum p = P.
    A single sweep resolves the two-subchannel case exactly."""
    gold = (np.sqrt(5.0) - 1.0) / 2.0
    p = p0.copy()
    best = objective(p)
    k_sub = p.size
    if k_sub == 2:
        sweeps = 1
    for _ in range(sweeps):
        moved = 0.0
        for a in range(k_sub):
            for b in range(a + 1, k_sub):
                lo, hi = -p[a], p[b]

                def j_of(delta):
                    q = p.copy()
                    q[a] += delta
                    q[b] -= delta
                    return objective(q)

                x1 = hi - gold * (hi - lo)
                x2 = lo + gold * (hi - lo)
                f1, f2 = j_of(x1), j_of(x2)
                while hi - lo >= tol * budget:
                    if f1 < f2:
                        lo, x1, f1 = x1, x2, f2
                        x2 = lo + gold * (hi - lo)
                        f2 = j_of(x2)
                    else:
                        hi, x2, f2 = x2, x1, f1
                        x1 = hi - gold * (hi - lo)
                        f1 = j_of(x1)
                delta = 0.5 * (lo + hi)
                cand = j_of(delta)
                if cand > best:
                    best = cand
                    p[a] += delta
                    p[b] -= delta
                    moved = max(moved, abs(delta))
        if moved < tol * budget:
            break
    return p, best


def subchannel_capacities(subs: Sequence[SubchannelSpec], p, snr: float,
                          cfg: mc.McConfig) -> list[float]:
    """Per-subchannel average mutual information (nats) for a given power
    split, on the same common-random-number banks the numeric optimizer
    uses, so designs are compared on identical draws."""
    p = np.asarray(p, dtype=float)
    if p.size != len(subs):
        raise ValueError("power vector length must match the subchannel count")
    banks = [_subchannel_bank(sub, cfg, k) for k, sub in enumerate(subs)]
    return [_bank_mi(snr, bank, pk) for bank, pk in zip(banks, p)]


def palloc_numeric(subs: Sequence[SubchannelSpec], budget: float, snr: float,
                   cfg: mc.McConfig) -> PowerAllocation:
    """Direct maximization of the Monte Carlo capacity over the simplex.

    Limited to 4 subchannels.  Uses one frozen draw bank per subchannel
    (common random numbers) so candidate allocations are compared on the
    same randomness, then resolves the optimum by pairwise golden-section
    transfers.  The result is flagged low-confidence when two half-bank
    optimizations disagree by more than 5% of the budget, i.e. when the MC
    noise is comparable to the objective differences.
    """
    if not 1 <= len(subs) <= 4:
        raise ValueError("numeric allocation supports 1 to 4 subchannels")
    if budget <= 0 or snr <= 0:
        raise ValueError("budget and snr must be positive")
    if len(subs) == 1:
        return PowerAllocation(p=np.array([budget]), budget=budget)

    banks = [_subchannel_bank(sub, cfg, k) for k, sub in enumerate(subs)]

    def objective_with(banks_):
        def obj(p):
            if np.any(p < 0):
                return -np.inf
            return sum(_bank_mi(snr, bank, pk) for bank, pk in zip(banks_, p))
        return obj

    p0 = np.full(len(subs), budget / len(subs))
    p_opt, _ = _coordinate_search(objective_with(banks), p0, budget)

    halves = []
    if cfg.channel_draws >= 16:
        for which in (0, 1):
            sub_banks = [b.half(which) for b in banks]
            p_half, _ = _coordinate_search(objective_with(sub_banks), p0, budget,
                                           sweeps=2)
            halves.append(p_half)
    flagged = bool(halves and np.max(np.abs(halves[0] - halves[1])) > 0.05 * budget)
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

    @property
    def gram(self) -> np.ndarray:
        return self.matrix.conj().T @ self.matrix


@dataclass(frozen=True)
class PrecoderReport:
    objective: float
    iterations: int
    stationarity_residual: float
    method: str
    principal_angles: np.ndarray | None = None


class PrecoderConvergenceError(RuntimeError):
    """Raised when the projected-gradient loop exhausts its iteration budget;
    carries the best iterate found."""

    def __init__(self, message, best_gram=None, best_objective=None):
        super().__init__(message)
        self.best_gram = best_gram
        self.best_objective = best_objective


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


def precoder_objective(z, c: Constellation, n_r: int, theta_t=None) -> float:
    """Pairwise-distance gap objective evaluated at a Gram matrix Z:
    sum over ordered pairs of quadratic-form^(-n_r), with an optional
    transmit-correlation whitening.  The objective depends on a precoder
    only through its Gram matrix."""
    diffs, counts = pair_differences(c)
    if theta_t is not None:
        diffs = diffs @ hermitian_sqrt(np.asarray(theta_t, dtype=complex)).T
    return _gap_objective(np.asarray(z, dtype=complex), diffs, counts, n_r)


def _project_trace_psd(z: np.ndarray, budget: float) -> np.ndarray:
    """Clamp negative eigenvalues, then scale onto the trace budget."""
    z = 0.5 * (z + z.conj().T)
    w, v = np.linalg.eigh(z)
    w = np.maximum(w, 0.0)
    total = w.sum()
    if total > budget:
        w *= budget / total
    return (v * w) @ v.conj().T


def precoder_canonical(c: Constellation, n_r: int, p_total: float):
    """Isotropic precoder for the uncorrelated channel.

    For constellations closed under per-coordinate sign flips the
    scaled identity is a global optimizer of the pairwise-distance
    objective (the flip pairing cancels every off-diagonal gradient entry
    and equalizes the diagonal), which is verified here through the
    first-order stationarity residual.  Asymmetric constellations fall
    through to the numeric correlated-channel path with identity
    correlation.
    """
    if p_total <= 0:
        raise ValueError("power budget must be positive")
    n_t = c.n_t
    if not c.has_coordinate_sign_symmetry():
        return precoder_correlated(c, np.eye(n_t), np.eye(n_r), n_r, p_total)
    diffs, counts = pair_differences(c)
    z_star = (p_total / n_t) * np.eye(n_t, dtype=complex)
    objective = _gap_objective(z_star, diffs, counts, n_r)
    grad = _gap_gradient(z_star, diffs, counts, n_r)
    iso = np.trace(grad).real / n_t * np.eye(n_t)
    residual = float(np.linalg.norm(grad - iso) / max(np.linalg.norm(grad), 1e-300))
    if residual > 1e-8:
        raise AssertionError(
            f"stationarity residual {residual:.3e} exceeds 1e-8 for a "
            "sign-symmetric constellation")
    precoder = Precoder(matrix=np.sqrt(p_total / n_t) * np.eye(n_t, dtype=complex),
                        budget=p_total)
    report = PrecoderReport(objective=objective, iterations=0,
                            stationarity_residual=residual, method="closed_form")
    return precoder, report


def precoder_correlated(c: Constellation, theta_t, theta_r, n_r: int,
                        p_total: float, z0: np.ndarray | None = None,
                        max_iter: int = 10_000, rel_tol: float = 1e-10):
    """Transmit-side precoder for the correlated channel by projected
    gradient descent on the Gram variable.

    Minimizes f(Z) = sum over ordered pairs of
    tr(e^+ Theta_T^{1/2} Z Theta_T^{1/2} e)^(-n_r) over {Z PSD,
    tr Z <= P}; the receive correlation only scales the coefficient and
    cannot move the optimum, so it is omitted from f.  The optimizer
    aligns the eigenvectors of Z with those of Theta_T (reported as
    principal angles).

    The returned precoder is the Hermitian square root of the optimal
    Gram matrix, P = U diag(sqrt q) U^+, so that P^+ P equals the
    certified optimizer variable exactly.  The right unitary factor is
    not a free reporting choice: it rotates the constellation before the
    channel, and only this (commuting) choice makes the realized pair
    forms e^+ P^+ Theta_T P e coincide with the certified objective at
    the aligned optimum.

    Degenerate Theta_T is rejected: with perfectly correlated transmit
    paths the objective itself changes form (some pairs stop contributing
    and the infinite-SNR limit drops), so optimizing f would certify the
    wrong quantity.
    """
    if p_total <= 0:
        raise ValueError("power budget must be positive")
    theta_t = np.asarray(theta_t, dtype=complex)
    theta_r = np.asarray(theta_r, dtype=complex)
    w_t = check_psd(theta_t)
    check_psd(theta_r)
    if w_t[0] <= EIG_ZERO_REL * w_t[-1]:
        raise ValueError("theta_t is singular; the degenerate case is out of scope here")
    root_t = hermitian_sqrt(theta_t)
    diffs, counts = pair_differences(c)
    diffs = diffs @ root_t.T              # whiten each difference vector
    n_t = c.n_t

    z = (p_total / n_t) * np.eye(n_t, dtype=complex) if z0 is None \
        else _project_trace_psd(np.asarray(z0, dtype=complex), p_total)
    f_z = _gap_objective(z, diffs, counts, n_r)
    best_z, best_f = z, f_z
    step = p_total / max(np.linalg.norm(_gap_gradient(z, diffs, counts, n_r)), 1e-300)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
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
        if f_new < best_f:
            best_z, best_f = z_new, f_new
        rel_drop = (f_z - f_new) / max(abs(f_new), 1e-300)
        z, f_z = z_new, f_new
        step *= 1.25
        if 0 <= rel_drop < rel_tol:
            converged = True
            break
    if not converged:
        raise PrecoderConvergenceError(
            f"projected gradient did not converge in {max_iter} iterations",
            best_gram=best_z, best_objective=best_f)

    grad = _gap_gradient(z, diffs, counts, n_r)
    t_chk = min(step, 1.0)
    mapping = (z - _project_trace_psd(z - t_chk * grad, p_total)) / t_chk
    residual = float(np.linalg.norm(mapping) / max(np.linalg.norm(grad), 1e-300))

    q, u = np.linalg.eigh(z)
    order = np.argsort(q)[::-1]
    q, u = np.maximum(q[order], 0.0), u[:, order]
    p_mat = (u * np.sqrt(q)) @ u.conj().T

    angles = _principal_angles(u, theta_t)
    precoder = Precoder(matrix=p_mat, budget=p_total)
    report = PrecoderReport(objective=f_z, iterations=it,
                            stationarity_residual=residual,
                            method="projected_gradient",
                            principal_angles=angles)
    return precoder, report


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

    criterion = sum over ordered pairs at minimal rank of
    prod_r (1/lambda_r)^n_r; d = n_r * r_min.  Certified for n_t = 2;
    other transmit sizes are computed by the same eigenvalue engine but
    flagged as extrapolation.
    """
    if n_r < 1:
        raise ValueError("n_r must be >= 1")
    lams = _pair_gram_eigenvalues(code)
    ranks = np.array([lam.size for lam in lams])
    crit = np.array([np.prod((1.0 / lam) ** n_r) for lam in lams])
    r_min = int(ranks.min())
    criterion = float(np.sum(crit[ranks == r_min]))
    return SpaceTimeReport(r_min=r_min, criterion=criterion, d=n_r * r_min,
                           certified=(code.n_t == 2))


def st_compare(code_a: SpaceTimeCode, code_b: SpaceTimeCode, n_r: int) -> int:
    """Rank two codebooks: +1 if a is better, -1 if b is better, 0 if tied.

    Higher minimum rank wins; on equal rank the smaller criterion wins
    (smaller high-SNR capacity gap).  Criteria within relative 1e-12 tie.
    """
    if (code_a.n_t, code_a.t, code_a.m) != (code_b.n_t, code_b.t, code_b.m):
        raise ValueError("codebooks must share (n_t, t, M) to be comparable")
    ra = st_criteria(code_a, n_r)
    rb = st_criteria(code_b, n_r)
    if ra.r_min != rb.r_min:
        return 1 if ra.r_min > rb.r_min else -1
    if np.isclose(ra.criterion, rb.criterion, rtol=1e-12, atol=0.0):
        return 0
    return 1 if ra.criterion < rb.criterion else -1
