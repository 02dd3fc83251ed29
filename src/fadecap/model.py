"""Core system model: constellations, fading channel models and distances.

Channel convention: y = sqrt(snr) * H x + n with n ~ CN(0, I) per receive
antenna and E{tr(H H^+)} = n_t * n_r for every channel variant.  Inputs are
equiprobable finite constellations with Sigma_x = I / n_t for the built-in
families.  Every sum over ordered pairs runs on the distinct differences of
`pair_differences`; a product set builds that table from its factor.

All containers are frozen dataclasses wrapping numpy arrays; treat the
arrays as immutable after construction.  Random sampling takes an explicit
``numpy.random.Generator`` so parallel callers can derive independent
streams.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
    "pair_differences",
    "sample_channels",
    "hermitian_sqrt",
    "db_to_linear",
]

HERMITIAN_TOL = 1e-12
PSD_EIG_TOL = 1e-10
# `hermitian_sqrt` treats eigenvalues below this as 0.
SQRT_CLIP = 1e-12
DISTINCT_TOL = 1e-12
NORM_TOL = 1e-9
# Largest constellation or space-time code accepted.  `ordered_pair_differences`
# builds an (M, M, n_t) table: qam256 over two antennas (M = 65536) would need
# ~137 GB.
MAX_POINTS = 4096
# Most entries M(M-1) d of the ordered-difference table (d = n_t for points,
# n_t t for codewords).  Its build peaks at about 50 bytes an entry (measured
# with tracemalloc), so this cap is ~1.7 GB: every single-antenna set up to
# MAX_POINTS and qam64 on two antennas pass, qam16 on three does not.
# Product sets build their table from their factor, but meet the same cap.
MAX_PAIR_ENTRIES = 2 ** 25
# Largest SNR grid accepted; every point is a Monte Carlo run in `curve`.
MAX_SNR_POINTS = 1000
# Entries per row block of the distinctness check's distance table (1 MB).
DISTINCT_BLOCK = 2 ** 17


def _check_size(shape: tuple[int, ...], what: str = "constellation") -> None:
    """Reject M inputs of shape `shape[1:]`, (n_t,) points or (n_t, t)
    codewords, beyond MAX_POINTS or MAX_PAIR_ENTRIES."""
    m, n_t, d = shape[0], shape[1], math.prod(shape[1:])
    if m > MAX_POINTS:
        raise ValueError(f"{what} with n_t={n_t} has M={m} points, "
                         f"more than the {MAX_POINTS} supported")
    if m * (m - 1) * d > MAX_PAIR_ENTRIES:
        raise ValueError(f"{what} with n_t={n_t} has M={m} points, whose differences "
                         f"need {m * (m - 1) * d} table entries (M(M-1) x {d}), more than "
                         f"the {MAX_PAIR_ENTRIES} supported")


def db_to_linear(x_db) -> np.ndarray:
    """10^(x/10) of each dB value, one float64 scalar pow (libm's) at a
    time, so a value maps to the same float alone and in a grid: NumPy's
    vectorised pow can differ in the last bit.  An overflow gives inf, as
    for an array, not an OverflowError."""
    db = np.asarray(x_db, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        return np.array([10.0 ** (x / 10.0) for x in db.ravel()]).reshape(db.shape)


# ---------------------------------------------------------------------------
# matrix helpers
# ---------------------------------------------------------------------------

def _is_hermitian(a: np.ndarray) -> bool:
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and \
        np.max(np.abs(a - a.conj().T)) <= HERMITIAN_TOL * max(1.0, np.max(np.abs(a)))


def _check_psd(a: np.ndarray) -> None:
    """Reject a matrix that is not Hermitian PSD."""
    if not _is_hermitian(a):
        raise ValueError("matrix is not Hermitian")
    w = np.linalg.eigvalsh(a)
    if w[0] < -PSD_EIG_TOL * max(1.0, abs(w[-1])):
        raise ValueError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")


def hermitian_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues below SQRT_CLIP are treated as 0."""
    _check_psd(a)
    w, v = np.linalg.eigh(a)
    w = np.where(w < SQRT_CLIP, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def _validate_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a.view(float) if np.iscomplexobj(a) else a)):
        raise ValueError(f"{name} contains NaN/Inf entries")


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

class _Inputs:
    """M equiprobable (n_t, t) input blocks: a constellation's points as
    blocks of t = 1, or a space-time code's codewords.  The expansions see
    either only through the differences of its flattened blocks."""

    grid_levels = None      # a code's is always None; a constellation's may be set

    def _accept(self, field: str, blocks: np.ndarray, what: str, rows: str) -> None:
        """Store `blocks` as `field` if they are finite, few and distinct.
        The n-fold product of a scalar set s is distinct when s is: a joint
        squared distance is a float sum of nonnegative per-entry terms, at
        least the term of an entry where the two rows differ, and that term
        is a squared distance of s.  So a product set checks s alone, and
        the full search runs only when s fails, to name the joint pair."""
        _validate_finite(blocks, rows)
        _check_size(blocks.shape, what)
        object.__setattr__(self, field, blocks)
        flat = blocks.reshape(len(blocks), -1)
        factor = _product_factor(flat)
        if factor is None or _close_pair(factor[:, None]) is not None:
            _check_distinct(flat, rows)

    @property
    def m(self) -> int:
        return self.blocks.shape[0]

    @property
    def n_t(self) -> int:
        return self.blocks.shape[1]

    @property
    def t(self) -> int:
        return self.blocks.shape[2]

    @property
    def log_m(self) -> float:
        return float(np.log(self.m))

    @cached_property
    def _pair_differences(self) -> tuple[np.ndarray, np.ndarray]:
        # built on first use, not in __post_init__, so construction stays cheap
        rows = self.blocks.reshape(self.m, -1)
        factor = _product_factor(rows)
        table = None if factor is None else _product_pair_differences(factor, rows.shape[1])
        diffs, counts = table or _distinct_rows(ordered_pair_differences(self))
        for shared in (diffs, counts):      # every caller gets these same arrays
            shared.flags.writeable = False
        return diffs, counts


@dataclass(frozen=True)
class Constellation(_Inputs):
    """Equiprobable set of M complex n_t-vectors.

    ``points`` has shape (M, n_t) with M >= 2.  Built-in families are i.i.d.
    per-antenna products of a unit-energy scalar alphabet, scaled by
    1/sqrt(n_t) so the input covariance is I/n_t.
    """

    points: np.ndarray
    family: str = "custom"

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=complex)
        if pts.ndim != 2:
            raise ValueError("points must be a (M, n_t) array")
        if pts.shape[0] < 2:
            raise ValueError(f"constellation has M={pts.shape[0]} points, "
                             "fewer than the 2 needed")
        self._accept("points", pts, "constellation", "constellation points")

    @property
    def blocks(self) -> np.ndarray:
        return self.points[:, :, None]

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
        levels = _sorted_values(x.real), _sorted_values(x.imag)
        if levels[0].size * levels[1].size != self.m:
            return None
        for shared in levels:
            shared.flags.writeable = False
        return levels


def _sorted_values(v: np.ndarray) -> np.ndarray:
    """The distinct values of the real 1-d `v`, sorted: np.unique's sort and
    mask, without its first call's import of numpy.ma."""
    v = np.sort(v)
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _close_pair(rows: np.ndarray) -> tuple[int, int] | None:
    """The first two rows within DISTINCT_TOL in squared distance, or None.
    The distances are formed from coordinate differences in row blocks of
    DISTINCT_BLOCK entries, so memory stays O(M n)."""
    block = max(1, DISTINCT_BLOCK // len(rows))
    for start in range(0, len(rows), block):
        d2 = sum(np.abs(q[:, None] - p) ** 2 for q, p in zip(rows[start:start + block].T, rows.T))
        np.fill_diagonal(d2[:, start:], np.inf)
        close = np.flatnonzero(d2.min(axis=1) <= DISTINCT_TOL)
        if close.size:
            return start + int(close[0]), int(d2[close[0]].argmin())
    return None


def _check_distinct(rows: np.ndarray, what: str) -> None:
    """Reject two rows within DISTINCT_TOL in squared distance, naming the
    first such pair of `what`."""
    pair = _close_pair(rows)
    if pair is not None:
        raise ValueError(f"duplicate {what}: {pair[0]} and {pair[1]} coincide")


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
    they are validated for distinctness but not re-normalized.  Points
    given with a built-in family are a ValueError.
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
    if points is not None:
        raise ValueError("points only apply to the custom family")
    scal = _scalar_alphabet(fam)
    _check_size((len(scal) ** n_t, n_t))
    joint = np.array([np.array(tup) for tup in itertools.product(scal, repeat=n_t)])
    joint = joint / np.sqrt(n_t)
    return Constellation(points=joint, family=fam)


def ordered_pair_differences(c: _Inputs | np.ndarray) -> np.ndarray:
    """All M(M-1) difference vectors x_i - x_j with i != j, shape (P, n), of
    an input's flattened blocks (n = n_t t) or of an (M, n) array's rows."""
    pts = c.blocks.reshape(c.m, -1) if isinstance(c, _Inputs) else np.asarray(c, dtype=complex)
    m = pts.shape[0]
    idx = ~np.eye(m, dtype=bool)
    diff = pts[:, None, :] - pts[None, :, :]
    return diff[idx]


def _distinct_rows(diffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of the complex (P, n) array `diffs`, in lexicographic
    order, and their multiplicities, grouped as `pair_differences` says."""
    first, group = _row_groups(diffs)
    return diffs[first], np.bincount(group)


def _row_groups(diffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grouping of `_distinct_rows` for the (P, n) complex or real
    array `diffs`: the index of each group's first row, groups in
    lexicographic key order, and the group of every row, (P,)."""
    parts = diffs.view(float)
    keys = np.rint(parts * (2.0 ** 40 / np.max(np.abs(parts)))).astype(np.int64)
    # stable lexicographic sort (first column primary), then cut into runs
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    new = np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)]
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def _product_factor(rows: np.ndarray) -> np.ndarray | None:
    """The scalar set s when the (M, n) `rows`, n >= 2, are bit for bit the
    n-fold product of s in `itertools.product` order (the last entry varies
    fastest), else None.  s is the last column's first M^(1/n) values."""
    m, n = rows.shape
    ms = round(m ** (1.0 / n))
    if n < 2 or ms ** n != m:
        return None
    s = rows[:ms, -1]
    bits = s[_product_index(ms, n)].view(np.uint64)
    return s if np.array_equal(bits, rows.view(np.uint64)) else None


def _product_index(size: int, n: int) -> np.ndarray:
    """The size^n index tuples of `itertools.product(range(size), repeat=n)`,
    in its order, as a C-ordered (size^n, n) array."""
    return np.ascontiguousarray(np.indices((size,) * n).reshape(n, -1).T)


def _product_pair_differences(s: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """`_distinct_rows(ordered_pair_differences(rows))` of the n-fold product
    `rows` of the scalar set s, bit for bit, from the groups of its Ms^2
    scalar differences; None if a nonzero scalar difference keys to zero.

    A joint key is the tuple of its entries' scalar keys, on the same scale
    (the largest part of both tables is a scalar difference's), so the
    product of the sorted scalar groups, first entry slowest, is the joint
    lexicographic order, and a joint count is the product of its entries'.
    The first ordered pair of a joint group takes the first scalar pair of
    each entry's group, so the representatives agree too.  Only the
    all-zero row, i = j alone, is dropped."""
    sd, sc = _distinct_rows((s[:, None] - s[None, :]).reshape(-1, 1))
    sd = sd[:, 0]
    zero = np.flatnonzero(sd == 0)[0]   # the group of (s_0, s_0), first in pair order
    if sc[zero] != s.size:
        return None
    idx = _product_index(sd.size, n)
    idx = idx[np.any(idx != zero, axis=1)]
    return sd[idx], np.prod(sc[idx], axis=1)


def pair_differences(c: Constellation | SpaceTimeCode) -> tuple[np.ndarray, np.ndarray]:
    """Distinct differences x_i - x_j (i != j) of a constellation's points,
    or of a space-time code's flattened codewords, and their multiplicities.

    Returns ``(diffs, counts)`` with ``diffs`` of shape (D, n_t t) and integer
    ``counts`` summing to M(M-1), so any sum over ordered pairs of a function
    of the difference equals ``f(diffs) @ counts``.  Differences are grouped
    on integer keys (real and imaginary parts in units of 2^-40 of the
    largest one), so only vectors that differ by rounding are merged; a
    group split by a rounding boundary is still exact.  Computed once per
    input, cached on it and read-only.

    Inputs whose flattened blocks are exactly an n-fold product of one
    scalar set (every built-in family on n_t >= 2 antennas) build the table
    from the Ms^2 scalar differences rather than the M(M-1) ordered pairs:
    the same array bit for bit, without the ordered table (~1.7 GB for
    qam64 on two antennas).
    """
    return c._pair_differences


def _check_transmit_size(n_t: int, inputs: _Inputs) -> None:
    """Reject a channel of `n_t` transmit antennas for `inputs` of another size."""
    if n_t != inputs.n_t:
        raise ValueError(f"channel and input transmit sizes differ: "
                         f"the channel has n_t={n_t}, the inputs n_t={inputs.n_t}")


def _check_constellation(inputs: _Inputs) -> None:
    """Reject a space-time code of t > 1 where only a constellation's points
    (blocks of t = 1) are taken: the fixed-H estimators and every bound."""
    if inputs.t != 1:
        raise ValueError(f"fixed-H estimators and bounds take a constellation, "
                         f"not a space-time code of t={inputs.t}")


def _fixed_h(h, inputs: _Inputs) -> np.ndarray:
    """A fixed channel `h` as a complex (n_r, n_t) matrix for constellation
    `inputs`; any other shape, or a space-time code, is a ValueError."""
    _check_constellation(inputs)
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError(f"H must have shape (n_r, n_t), not {h.shape}")
    _check_transmit_size(h.shape[1], inputs)
    return h


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
            _check_psd(mat)
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


# ---------------------------------------------------------------------------
# space-time codes and SNR grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeCode(_Inputs):
    """M codeword matrices of shape (n_t, t), used over t symbol intervals."""

    codewords: np.ndarray

    def __post_init__(self):
        cw = np.ascontiguousarray(self.codewords, dtype=complex)
        if cw.ndim != 3 or cw.shape[0] < 2:
            raise ValueError("codewords must be a (M, n_t, t) array with M >= 2")
        self._accept("codewords", cw, "space-time code", "codewords")

    @property
    def blocks(self) -> np.ndarray:
        return self.codewords


@dataclass(frozen=True)
class SnrGrid:
    """Strictly increasing grid of linear-scale SNR values."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).ravel()
        if not 1 <= pts.size <= MAX_SNR_POINTS:
            raise ValueError(f"SNR grid needs 1 to {MAX_SNR_POINTS} points, got {pts.size}")
        if not np.all((pts > 0) & np.isfinite(pts)):
            raise ValueError("SNR values must be positive and finite")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("SNR grid must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_db(cls, start_db: float, stop_db: float, step_db: float = 1.0) -> "SnrGrid":
        if step_db <= 0:
            raise ValueError("step_db must be positive")
        n = np.floor((stop_db - start_db) / step_db + 1e-9) + 1
        if not 1 <= n <= MAX_SNR_POINTS:     # before the grid is allocated
            raise ValueError(f"dB range needs 1 to {MAX_SNR_POINTS} points, got {n:g}")
        # an overflow is rejected as non-finite
        return cls(points=db_to_linear(start_db + step_db * np.arange(int(n))))

    def __len__(self) -> int:
        return self.points.size

    def __iter__(self):
        return iter(self.points)
