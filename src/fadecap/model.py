"""Core system model: constellations, fading channel models and distances.

Channel convention: y = sqrt(snr) * H x + n with n ~ CN(0, I) per receive
antenna and E{tr(H H^+)} = n_t * n_r for every channel variant.  Inputs are
equiprobable finite constellations with Sigma_x = I / n_t for the built-in
families.

All containers are frozen dataclasses wrapping numpy arrays; treat the
arrays as immutable after construction.  Random sampling takes an explicit
``numpy.random.Generator`` so parallel callers can derive independent
streams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "Constellation",
    "CanonicalRayleigh",
    "CorrelatedRayleigh",
    "Ricean",
    "ChannelModel",
    "SpaceTimeCode",
    "SnrGrid",
    "make_constellation",
    "pairwise_sq_distances",
    "pair_differences",
    "sample_channels",
    "received_sq_distance",
    "hermitian_sqrt",
    "is_hermitian",
    "check_psd",
    "db_to_linear",
    "linear_to_db",
]

HERMITIAN_TOL = 1e-12
PSD_EIG_TOL = 1e-10
DISTINCT_TOL = 1e-12
NORM_TOL = 1e-9
# Largest joint constellation accepted.  The Monte Carlo kernel and the pair
# sums hold O(M^2) tables per channel; qam256 over two antennas (M = 65536)
# would need ~137 GB for its (M, M, n_t) pairwise difference table alone.
MAX_POINTS = 4096
# Complex entries per row block of the distinctness check (2 MB).
DISTINCT_BLOCK = 2 ** 17


def _check_size(m: int, n_t: int) -> None:
    if m > MAX_POINTS:
        raise ValueError(f"constellation with n_t={n_t} has M={m} points, "
                         f"more than the {MAX_POINTS} supported")


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x):
    return 10.0 * np.log10(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# matrix helpers
# ---------------------------------------------------------------------------

def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and \
        np.max(np.abs(a - a.conj().T)) <= tol * max(1.0, np.max(np.abs(a)))


def check_psd(a: np.ndarray, tol: float = PSD_EIG_TOL) -> np.ndarray:
    """Validate Hermitian PSD-ness and return the eigenvalues (ascending)."""
    if not is_hermitian(a):
        raise ValueError("matrix is not Hermitian")
    w = np.linalg.eigvalsh(a)
    if w[0] < -tol * max(1.0, abs(w[-1])):
        raise ValueError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
    return w


def hermitian_sqrt(a: np.ndarray, clip: float = 1e-12) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues below `clip` are treated as 0."""
    if not is_hermitian(a):
        raise ValueError("square root requires a Hermitian matrix")
    w, v = np.linalg.eigh(a)
    if w[0] < -PSD_EIG_TOL * max(1.0, abs(w[-1])):
        raise ValueError("square root requires a PSD matrix")
    w = np.where(w < clip, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def _validate_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a.view(float) if np.iscomplexobj(a) else a)):
        raise ValueError(f"{name} contains NaN/Inf entries")


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constellation:
    """Equiprobable set of M complex n_t-vectors.

    ``points`` has shape (M, n_t) with M >= 2.  Built-in families are i.i.d.
    per-antenna products of a unit-energy scalar alphabet, scaled by
    1/sqrt(n_t) so the input covariance is I/n_t.
    """

    points: np.ndarray
    family: str = "custom"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        if pts.ndim != 2:
            raise ValueError("points must be a (M, n_t) array")
        if pts.shape[0] < 2:
            raise ValueError(f"constellation has M={pts.shape[0]} points, "
                             "fewer than the 2 needed")
        _validate_finite(pts, "constellation points")
        _check_size(*pts.shape)
        object.__setattr__(self, "points", pts)
        _check_distinct(pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def n_t(self) -> int:
        return self.points.shape[1]

    @property
    def log_m(self) -> float:
        return float(np.log(self.m))

    def input_covariance(self) -> np.ndarray:
        """Empirical Sigma_x = (1/M) sum x x^+."""
        return self.points.conj().T @ self.points / self.m

    def has_negation_symmetry(self) -> bool:
        """True when -x is in the set for every point x."""
        return self._closed_under(lambda p: -p)

    def has_coordinate_sign_symmetry(self) -> bool:
        """True when flipping the sign of any single coordinate maps the set
        onto itself.  Product constellations of symmetric scalar alphabets
        satisfy this; it is the structure the isotropic-precoder argument
        needs."""
        for k in range(self.n_t):
            def flip(p, k=k):
                q = p.copy()
                q[:, k] = -q[:, k]
                return q
            if not self._closed_under(flip):
                return False
        return True

    @cached_property
    def _pair_differences(self) -> tuple[np.ndarray, np.ndarray]:
        # built on first use, not in __post_init__, so construction stays cheap
        diffs = ordered_pair_differences(self)
        parts = diffs.view(float)
        scale = 2.0 ** 40 / np.max(np.abs(parts))
        keys = np.rint(parts * scale).astype(np.int64)
        # stable lexicographic sort (first column primary), then cut into runs
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)])
        counts = np.diff(np.r_[starts, keys.shape[0]])
        diffs = diffs[order[starts]]
        for shared in (diffs, counts):      # every caller gets these same arrays
            shared.flags.writeable = False
        return diffs, counts

    @cached_property
    def grid_levels(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Real and imaginary level sets (R, I), sorted, when the points of a
        single-antenna constellation are exactly the grid {a + jb : a in R,
        b in I}; None otherwise.

        Levels are compared for exact equality, so a point off the grid by
        any amount makes the set not a grid.  The M points are distinct and
        each lies in R x I, so they fill it iff |R| |I| = M.
        """
        if self.n_t != 1:
            return None
        x = self.points[:, 0]
        levels = np.unique(x.real), np.unique(x.imag)
        if levels[0].size * levels[1].size != self.m:
            return None
        for shared in levels:
            shared.flags.writeable = False
        return levels

    def _closed_under(self, transform) -> bool:
        mapped = transform(self.points.copy())
        for q in mapped:
            if np.min(np.sum(np.abs(self.points - q) ** 2, axis=1)) > 1e-18:
                return False
        return True


def _check_distinct(pts: np.ndarray) -> None:
    """Reject two points within DISTINCT_TOL in squared distance, comparing
    each row block of the pairwise table so memory stays O(M n_t)."""
    m, n_t = pts.shape
    rows = max(1, DISTINCT_BLOCK // (m * n_t))
    for start in range(0, m, rows):
        block = pts[start:start + rows]
        d2 = np.sum(np.abs(block[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        d2[np.arange(block.shape[0]), np.arange(start, start + block.shape[0])] = np.inf
        if d2.min() <= DISTINCT_TOL:
            raise ValueError("constellation has duplicate points")


_SCALAR_FAMILIES = ("bpsk", "qpsk", "qam16", "qam64", "qam256")


def _scalar_alphabet(family: str) -> np.ndarray:
    """Unit average-energy scalar alphabet."""
    if family == "bpsk":
        return np.array([1.0 + 0j, -1.0 + 0j])
    if family == "qpsk":
        return np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
    sizes = {"qam16": 16, "qam64": 64, "qam256": 256}
    m = sizes[family]
    side = int(round(np.sqrt(m)))
    levels = np.arange(-(side - 1), side, 2, dtype=float)
    grid = (levels[:, None] + 1j * levels[None, :]).ravel()
    return grid / np.sqrt(np.mean(np.abs(grid) ** 2))


def make_constellation(family: str, n_t: int, points=None) -> Constellation:
    """Build a joint constellation over `n_t` transmit antennas.

    Built-in families take the per-antenna product of the scalar alphabet
    (joint cardinality M^n_t) scaled so the input covariance is I/n_t.
    ``family="custom"`` accepts explicit joint points of shape (M, n_t);
    they are validated for distinctness but not re-normalized.
    """
    if n_t < 1:
        raise ValueError("n_t must be >= 1")
    fam = family.lower()
    if fam == "custom":
        if points is None:
            raise ValueError("custom constellation requires points")
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != n_t:
            raise ValueError(f"points have {pts.shape[1]} antennas, expected {n_t}")
        return Constellation(points=pts, family="custom")
    if fam not in _SCALAR_FAMILIES:
        raise ValueError(f"unknown constellation family {family!r}")
    scal = _scalar_alphabet(fam)
    _check_size(len(scal) ** n_t, n_t)
    joint = np.array([np.array(tup) for tup in itertools.product(scal, repeat=n_t)])
    joint = joint / np.sqrt(n_t)
    return Constellation(points=joint, family=fam)


def pairwise_sq_distances(c: Constellation | np.ndarray) -> np.ndarray:
    """M x M table of squared transmit-space distances ||x_i - x_j||^2."""
    pts = c.points if isinstance(c, Constellation) else np.asarray(c, dtype=complex)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sum(np.abs(diff) ** 2, axis=2)


def ordered_pair_differences(c: Constellation) -> np.ndarray:
    """All M(M-1) difference vectors x_i - x_j with i != j, shape (P, n_t)."""
    pts = c.points
    m = pts.shape[0]
    idx = ~np.eye(m, dtype=bool)
    diff = pts[:, None, :] - pts[None, :, :]
    return diff[idx]


def pair_differences(c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Distinct differences x_i - x_j (i != j) and their multiplicities.

    Returns ``(diffs, counts)`` with ``diffs`` of shape (D, n_t) and integer
    ``counts`` summing to M(M-1), so any sum over ordered pairs of a function
    of the difference equals ``f(diffs) @ counts``.  Differences are grouped
    on integer keys (real and imaginary parts in units of 2^-40 of the
    largest one), so only vectors that differ by rounding are merged; a
    group split by a rounding boundary is still exact.  Computed once per
    constellation and cached on it.
    """
    return c._pair_differences


# ---------------------------------------------------------------------------
# channel models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalRayleigh:
    """i.i.d. CN(0,1) channel entries, no correlation, no line of sight."""

    n_t: int
    n_r: int

    def __post_init__(self):
        if self.n_t < 1 or self.n_r < 1:
            raise ValueError("antenna counts must be >= 1")


@dataclass(frozen=True)
class CorrelatedRayleigh:
    """Separable correlation: H = Theta_R^{1/2} H_w Theta_T^{1/2}.

    Both correlation matrices must be unit-diagonal Hermitian PSD.
    """

    theta_t: np.ndarray
    theta_r: np.ndarray

    def __post_init__(self):
        tt = np.asarray(self.theta_t, dtype=complex)
        tr = np.asarray(self.theta_r, dtype=complex)
        for name, mat in (("theta_t", tt), ("theta_r", tr)):
            _validate_finite(mat, name)
            check_psd(mat)
            if np.max(np.abs(np.diag(mat) - 1.0)) > NORM_TOL:
                raise ValueError(f"{name} must have unit diagonal")
        object.__setattr__(self, "theta_t", tt)
        object.__setattr__(self, "theta_r", tr)

    @property
    def n_t(self) -> int:
        return self.theta_t.shape[0]

    @property
    def n_r(self) -> int:
        return self.theta_r.shape[0]


@dataclass(frozen=True)
class Ricean:
    """Rank-one line-of-sight plus i.i.d. scatter:
    H = sqrt(K/(K+1)) a_R a_T^+ + sqrt(1/(K+1)) H_w.

    Array responses are constrained to ||a_T||^2 = n_t, ||a_R||^2 = n_r so
    the total channel energy stays n_t * n_r for every K.
    """

    k_factor: float
    a_t: np.ndarray
    a_r: np.ndarray

    def __post_init__(self):
        if self.k_factor < 0:
            raise ValueError("K factor must be >= 0")
        at = np.asarray(self.a_t, dtype=complex).ravel()
        ar = np.asarray(self.a_r, dtype=complex).ravel()
        _validate_finite(at, "a_t")
        _validate_finite(ar, "a_r")
        if abs(np.sum(np.abs(at) ** 2) - at.size) > NORM_TOL * at.size:
            raise ValueError("||a_t||^2 must equal n_t")
        if abs(np.sum(np.abs(ar) ** 2) - ar.size) > NORM_TOL * ar.size:
            raise ValueError("||a_r||^2 must equal n_r")
        object.__setattr__(self, "a_t", at)
        object.__setattr__(self, "a_r", ar)

    @property
    def n_t(self) -> int:
        return self.a_t.size

    @property
    def n_r(self) -> int:
        return self.a_r.size

    @property
    def los_matrix(self) -> np.ndarray:
        return np.outer(self.a_r, self.a_t.conj())


ChannelModel = Union[CanonicalRayleigh, CorrelatedRayleigh, Ricean]


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0,1) entries, each from two consecutive N(0, 1/2) draws (real,
    imaginary) in C order: shape (a + b, ...) equals (a, ...) then (b, ...)."""
    z = rng.standard_normal((*shape, 2)).view(np.complex128)[..., 0]
    z *= np.sqrt(0.5)
    return z


def sample_channels(model: ChannelModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `n` channel matrices, shape (n, n_r, n_t)."""
    shape = (n, model.n_r, model.n_t)
    hw = _complex_normal(rng, shape)
    if isinstance(model, CanonicalRayleigh):
        return hw
    if isinstance(model, CorrelatedRayleigh):
        rt = hermitian_sqrt(model.theta_t)
        rr = hermitian_sqrt(model.theta_r)
        return rr @ hw @ rt
    if isinstance(model, Ricean):
        k = model.k_factor
        los = np.sqrt(k / (k + 1.0)) * model.los_matrix
        return los[None, :, :] + np.sqrt(1.0 / (k + 1.0)) * hw
    raise TypeError(f"unknown channel model {type(model)!r}")


def received_sq_distance(h: np.ndarray, x_i: np.ndarray, x_j: np.ndarray) -> float:
    """Squared distance between the noiseless receive points, ||H (x_i - x_j)||^2."""
    h = np.asarray(h, dtype=complex)
    diff = np.asarray(x_i, dtype=complex).ravel() - np.asarray(x_j, dtype=complex).ravel()
    return float(np.sum(np.abs(h @ diff) ** 2))


# ---------------------------------------------------------------------------
# space-time codes and SNR grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeCode:
    """M codeword matrices of shape (n_t, t), used over t symbol intervals."""

    codewords: np.ndarray

    def __post_init__(self):
        cw = np.asarray(self.codewords, dtype=complex)
        if cw.ndim != 3 or cw.shape[0] < 2:
            raise ValueError("codewords must be a (M, n_t, t) array with M >= 2")
        _validate_finite(cw, "codewords")
        object.__setattr__(self, "codewords", cw)
        m = cw.shape[0]
        for i in range(m):
            for j in range(i + 1, m):
                if np.sum(np.abs(cw[i] - cw[j]) ** 2) <= DISTINCT_TOL:
                    raise ValueError(f"codewords {i} and {j} coincide")

    @property
    def m(self) -> int:
        return self.codewords.shape[0]

    @property
    def n_t(self) -> int:
        return self.codewords.shape[1]

    @property
    def t(self) -> int:
        return self.codewords.shape[2]

    @property
    def log_m(self) -> float:
        return float(np.log(self.m))

    def difference_gram(self, i: int, j: int) -> np.ndarray:
        """(X_i - X_j)(X_i - X_j)^+, Hermitian PSD by construction."""
        d = self.codewords[i] - self.codewords[j]
        return d @ d.conj().T


@dataclass(frozen=True)
class SnrGrid:
    """Strictly increasing grid of linear-scale SNR values."""

    points: np.ndarray = field(default_factory=lambda: np.array([1.0]))

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).ravel()
        if pts.size == 0:
            raise ValueError("empty SNR grid")
        if np.any(pts <= 0):
            raise ValueError("SNR values must be positive")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("SNR grid must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_db(cls, start_db: float, stop_db: float, step_db: float = 1.0) -> "SnrGrid":
        if step_db <= 0:
            raise ValueError("step_db must be positive")
        n = int(np.floor((stop_db - start_db) / step_db + 1e-9)) + 1
        if n < 1:
            raise ValueError("empty dB range")
        db = start_db + step_db * np.arange(n)
        return cls(points=db_to_linear(db))

    @property
    def db(self) -> np.ndarray:
        return linear_to_db(self.points)

    def __len__(self) -> int:
        return self.points.size

    def __iter__(self):
        return iter(self.points)
