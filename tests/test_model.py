"""Constellations, channel models, sampling and distance primitives."""

import ast
import importlib
import pkgutil
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

import fadecap as fc
from fadecap import asymptotics, designs, mc, model
from fadecap.model import hermitian_sqrt, ordered_pair_differences


def test_bpsk_points_and_min_distance():
    c = fc.make_constellation("bpsk", 1)
    assert sorted(c.points.ravel().real.tolist()) == [-1.0, 1.0]
    assert np.sum(np.abs(c.points[0] - c.points[1]) ** 2) == pytest.approx(4.0, abs=1e-12)


def test_qpsk_product_covariance():
    c = fc.make_constellation("qpsk", 2)
    assert c.m == 16 and c.t == 1
    assert np.allclose(c.points.conj().T @ c.points / c.m, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("family,n_t", [("bpsk", 1), ("qpsk", 2), ("qam16", 1),
                                        ("qam64", 1), ("qam256", 1), ("qam16", 2)])
def test_builtin_covariance_and_symmetry(family, n_t):
    c = fc.make_constellation(family, n_t)
    assert np.allclose(c.points.conj().T @ c.points / c.m, np.eye(n_t) / n_t, atol=1e-9)
    # negation symmetry: -x is in the set for every point x
    points = {tuple(row) for row in np.round(c.points, 12)}
    assert {tuple(row) for row in np.round(-c.points, 12)} == points


def test_oversized_constellations_rejected_before_building(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the size check must come before the point tables")

    # qam16 over two antennas (M = 256) is the largest size in use and builds
    assert fc.make_constellation("qam16", 2).m == 256
    monkeypatch.setattr(model.itertools, "product", must_not_run)
    monkeypatch.setattr(model, "_check_distinct", must_not_run)
    for n_t, m in [(2, 256 ** 2), (4, 256 ** 4)]:
        with pytest.raises(ValueError, match=f"n_t={n_t} has M={m} points"):
            fc.make_constellation("qam256", n_t)
    custom = np.arange(model.MAX_POINTS + 1, dtype=complex)
    with pytest.raises(ValueError, match=f"n_t=1 has M={model.MAX_POINTS + 1} points"):
        fc.make_constellation("custom", 1, points=custom)


def test_qam16_mean_pair_distance_zero_mean_identity():
    # ordered-pair mean distance for a zero-mean unit-energy set is 2M/(M-1)
    c = fc.make_constellation("qam16", 1)
    mean_pair = np.mean(np.sum(np.abs(ordered_pair_differences(c)) ** 2, axis=1))
    assert mean_pair == pytest.approx(2 * 16 / 15, rel=1e-12)


def test_qpsk_scalar_distances():
    c = fc.make_constellation("qpsk", 1)
    off = np.unique(np.round(np.abs(ordered_pair_differences(c)[:, 0]) ** 2, 12))
    assert np.allclose(off, [2.0, 4.0])


def test_distinctness_check_memory_is_bounded():
    """The check compares row blocks, so M = 1024 stays far below the
    ~128 MB of the full (M, M, n_t) difference table."""
    tracemalloc.start()
    try:
        assert fc.make_constellation("qpsk", 5).m == 1024
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("gap2,distinct", [(0.0, False), (0.5 * model.DISTINCT_TOL, False),
                                           (100.0 * model.DISTINCT_TOL, True)])
def test_distinctness_check_spans_row_blocks(gap2, distinct):
    """Points 0 and 1000 of M = 1024 lie in different row blocks."""
    points = np.exp(2j * np.pi * np.arange(1024) / 1024)
    points[1000] = points[0] + np.sqrt(gap2)
    if distinct:
        assert fc.make_constellation("custom", 1, points=points).m == 1024
    else:
        with pytest.raises(ValueError, match="duplicate"):
            fc.make_constellation("custom", 1, points=points)


def test_custom_constellation_and_errors():
    c = fc.make_constellation("custom", 2, points=[[0, 0], [1, 0]])
    assert np.sum(np.abs(c.points[0] - c.points[1]) ** 2) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="duplicate"):
        fc.make_constellation("custom", 1, points=[[1.0], [1.0]])
    for points in ([[0.0]], [[1.0]], np.ones((1, 3))):
        with pytest.raises(ValueError, match="M=1 points, fewer than the 2"):
            fc.make_constellation("custom", np.shape(points)[1], points=points)
    with pytest.raises(ValueError, match="unknown"):
        fc.make_constellation("qam32", 1)


def test_points_with_a_built_in_family_are_rejected():
    """Points apply to the custom family only: given with qpsk they raise
    instead of being dropped for the built-in set."""
    with pytest.raises(ValueError, match="points only apply to the custom family"):
        fc.make_constellation("qpsk", 1, points=[[5], [6]])


def test_canonical_rayleigh_unit_variance():
    model = fc.CanonicalRayleigh(1, 1)
    rng = np.random.default_rng(0)
    h = fc.sample_channels(model, 100_000, rng)
    power = np.abs(h.ravel()) ** 2
    se = power.std(ddof=1) / np.sqrt(power.size)
    assert abs(power.mean() - 1.0) < 3 * se


@pytest.mark.parametrize("model", [
    fc.CanonicalRayleigh(2, 2),
    fc.CorrelatedRayleigh(theta_t=[[1, 0.5], [0.5, 1]], theta_r=[[1, 0.8], [0.8, 1]]),
    fc.Ricean(k_factor=2.0, a_t=[1, 1], a_r=[1, 1]),
])
def test_channel_energy_normalization(model):
    rng = np.random.default_rng(1)
    h = fc.sample_channels(model, 20_000, rng)
    energies = np.sum(np.abs(h) ** 2, axis=(1, 2))
    se = energies.std(ddof=1) / np.sqrt(energies.size)
    assert abs(energies.mean() - model.n_t * model.n_r) < 3 * se


def test_ricean_large_k_is_deterministic():
    model = fc.Ricean(k_factor=1e6, a_t=[1, 1], a_r=[1, 1])
    rng = np.random.default_rng(2)
    h = fc.sample_channels(model, 100, rng)
    dev = np.sqrt(np.mean(np.sum(np.abs(h - model.los_matrix) ** 2, axis=(1, 2))))
    assert dev < 1e-2


def test_identity_correlation_matches_canonical():
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(4)
    corr = fc.CorrelatedRayleigh(theta_t=np.eye(2), theta_r=np.eye(2))
    canon = fc.CanonicalRayleigh(2, 2)
    ta = np.sum(np.abs(fc.sample_channels(corr, 4000, rng_a)) ** 2, axis=(1, 2))
    tb = np.sum(np.abs(fc.sample_channels(canon, 4000, rng_b)) ** 2, axis=(1, 2))
    assert ks_2samp(ta, tb).pvalue > 0.01


def test_channel_model_validation():
    with pytest.raises(ValueError, match="unit diagonal"):
        fc.CorrelatedRayleigh(theta_t=[[2, 0], [0, 1]], theta_r=np.eye(2))
    with pytest.raises(ValueError, match="not PSD"):
        fc.CorrelatedRayleigh(theta_t=[[1, 2], [2, 1]], theta_r=np.eye(2))
    with pytest.raises(ValueError, match="a_t"):
        fc.Ricean(k_factor=1.0, a_t=[1, 0], a_r=[1, 1])
    with pytest.raises(ValueError, match="K factor"):
        fc.Ricean(k_factor=-0.5, a_t=[1, 1], a_r=[1, 1])


def test_hermitian_sqrt_roundtrip():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = g @ g.conj().T
    r = hermitian_sqrt(a)
    assert np.max(np.abs(r - r.conj().T)) <= 1e-12 * np.max(np.abs(r))
    assert np.allclose(r @ r, a, atol=1e-10)
    with pytest.raises(ValueError):
        hermitian_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]) * -1)


def test_spacetime_code_validation():
    cw = np.zeros((2, 2, 2), dtype=complex)
    cw[1] = np.eye(2)
    code = fc.SpaceTimeCode(codewords=cw)
    assert code.m == 2 and code.n_t == 2 and code.t == 2 and code.grid_levels is None
    d = code.codewords[0] - code.codewords[1]
    assert np.allclose(d @ d.conj().T, np.eye(2))
    with pytest.raises(ValueError, match="coincide"):
        fc.SpaceTimeCode(codewords=np.zeros((2, 2, 2), dtype=complex))


QPSK_1 = fc.make_constellation("qpsk", 1)
WIDE_H = np.ones((1, 2))
TRANSMIT_SIZE_CASES = {
    "fixed_h_all": lambda: fc.fixed_h_all(10.0, WIDE_H, QPSK_1, fc.McConfig(4)),
    "avg_bounds": lambda: fc.avg_bounds("pe", 10.0, fc.CanonicalRayleigh(2, 1), QPSK_1,
                                        fc.McConfig(4)),
    "fixed_h_bounds": lambda: fc.fixed_h_bounds("pe", 10.0, WIDE_H, QPSK_1),
    "distance_dist": lambda: fc.distance_dist(fc.CanonicalRayleigh(2, 1), QPSK_1),
    "precoder_objective": lambda: designs.precoder_objective(np.eye(2),
                                                             fc.CanonicalRayleigh(2, 1), QPSK_1),
}


@pytest.mark.parametrize("name", TRANSMIT_SIZE_CASES)
def test_every_consumer_checks_the_transmit_size(name):
    """A channel or fixed H of another transmit size than the inputs' is the
    ValueError `avg_all` raises, before any matrix product."""
    with pytest.raises(ValueError, match="transmit sizes differ"):
        TRANSMIT_SIZE_CASES[name]()


CODE_2X2 = fc.SpaceTimeCode(codewords=np.stack([np.eye(2), -np.eye(2)]).astype(complex))
CONSTELLATION_ONLY_CASES = {
    "fixed_h_all": lambda: fc.fixed_h_all(10.0, np.eye(2), CODE_2X2, fc.McConfig(4)),
    **{f"fixed_h_bounds-{kind}":
       lambda kind=kind: fc.fixed_h_bounds(kind, 10.0, np.eye(2), CODE_2X2)
       for kind in ("mmse", "mi", "pe")},
    **{f"avg_bounds-{kind}":
       lambda kind=kind: fc.avg_bounds(kind, 10.0, fc.CanonicalRayleigh(2, 2), CODE_2X2,
                                       fc.McConfig(4))
       for kind in ("mmse", "mi", "pe")},
}


@pytest.mark.parametrize("name", CONSTELLATION_ONLY_CASES)
def test_fixed_h_and_bound_consumers_reject_a_space_time_code(name):
    """A 2x2 code under a channel of its n_t is a named ValueError, not a
    failure inside a matrix product."""
    with pytest.raises(ValueError, match="take a constellation, not a space-time code of t=2"):
        CONSTELLATION_ONLY_CASES[name]()


@pytest.mark.parametrize("fixed_h", [
    lambda h: fc.fixed_h_all(10.0, h, QPSK_1, fc.McConfig(4)),
    lambda h: fc.fixed_h_bounds("pe", 10.0, h, QPSK_1),
], ids=["fixed_h_all", "fixed_h_bounds"])
def test_fixed_h_must_be_a_matrix(fixed_h):
    with pytest.raises(ValueError, match=r"H must have shape \(n_r, n_t\), not \(3, 2, 1\)"):
        fixed_h(np.ones((3, 2, 1)))


def test_oversized_spacetime_code_rejected_before_distinctness(monkeypatch):
    """A code is capped at MAX_POINTS codewords, as a constellation is, and
    the cap is checked before the codeword distances."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("the size check must come before the distinctness check")

    monkeypatch.setattr(model, "_check_distinct", must_not_run)
    cw = np.arange(model.MAX_POINTS + 1, dtype=complex).reshape(-1, 1, 1)
    with pytest.raises(ValueError, match=f"n_t=1 has M={model.MAX_POINTS + 1} points"):
        fc.SpaceTimeCode(codewords=cw)


def test_pair_table_cap_rejected_before_building(monkeypatch):
    """Within MAX_POINTS, a point set or code whose M(M-1) x d table of
    ordered differences (d = n_t, or n_t t for codewords) exceeds
    MAX_PAIR_ENTRIES is rejected, naming the entry count, before its points
    or its distinctness check are built.  qam64 over two antennas is the
    largest built-in set that passes."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("the size check must come before the point tables")

    monkeypatch.setattr(model.itertools, "product", must_not_run)
    monkeypatch.setattr(model, "_check_distinct", must_not_run)
    for family, n_t, m in [("qpsk", 6, 4096), ("qam16", 3, 4096), ("bpsk", 11, 2048)]:
        with pytest.raises(ValueError, match=f"need {m * (m - 1) * n_t} table entries"):
            fc.make_constellation(family, n_t)
    with pytest.raises(ValueError, match=f"need {4096 * 4095 * 4} table entries"):
        fc.SpaceTimeCode(codewords=np.zeros((4096, 2, 2), dtype=complex))
    model._check_size((64 ** 2, 2))
    model._check_size((4096, 1), "space-time code")


def test_distinctness_check_names_the_pair():
    with pytest.raises(ValueError, match="duplicate constellation points: 1 and 3 coincide"):
        fc.make_constellation("custom", 1, points=[0.0, 1.0, 2.0, 1.0])
    cw = np.arange(4, dtype=complex).reshape(-1, 1, 1)
    cw[2] = cw[0]
    with pytest.raises(ValueError, match="duplicate codewords: 0 and 2 coincide"):
        fc.SpaceTimeCode(codewords=cw)


def test_product_sets_search_only_their_factor(monkeypatch):
    """qam64 over two antennas (M = 4096) is the 2-fold product of its 64
    scalar points, so only those are searched for a coinciding pair; a
    product of a set with a repeated value is searched whole, and the error
    names the joint pair."""
    searched = []
    close_pair = model._close_pair

    def spy(rows):
        searched.append(len(rows))
        return close_pair(rows)

    monkeypatch.setattr(model, "_close_pair", spy)
    assert fc.make_constellation("qam64", 2).m == 4096
    assert searched == [64]
    repeated = [0.0, 1.0, 2.0, 1.0]
    points = [[a, b] for a in repeated for b in repeated]
    with pytest.raises(ValueError, match="duplicate constellation points: 1 and 3 coincide"):
        fc.make_constellation("custom", 2, points=points)
    assert searched[1:] == [4, 16]


def test_strided_inputs_are_accepted_as_copies():
    """A non-contiguous complex view (antennas swapped, every other
    codeword) is stored contiguous, as its copy would be."""
    pts = fc.make_constellation("qpsk", 2).points[:, ::-1]
    cw = (np.arange(24) + 1j).reshape(12, 2, 1)[::2]
    for got, want in ((fc.Constellation(points=pts).points, pts),
                      (fc.SpaceTimeCode(codewords=cw).codewords, cw)):
        assert got.flags.c_contiguous and np.array_equal(got, want)


def test_snr_grid():
    grid = fc.SnrGrid.from_db(0, 30, 5)
    assert len(grid) == 7
    assert grid.points[0] == pytest.approx(1.0)
    assert grid.points[-1] == pytest.approx(1000.0)
    assert np.allclose(10 * np.log10(grid.points), np.arange(0, 31, 5))
    with pytest.raises(ValueError):
        fc.SnrGrid(points=[1.0, 1.0])
    with pytest.raises(ValueError):
        fc.SnrGrid(points=[-1.0, 2.0])
    with pytest.raises(ValueError):
        fc.SnrGrid.from_db(0, 10, -1)


@pytest.mark.parametrize("points", [[1.0, np.inf], [np.nan], [1.0, np.nan, 2.0]])
def test_snr_grid_rejects_non_finite_points(points):
    with pytest.raises(ValueError, match="positive and finite"):
        fc.SnrGrid(points=points)


def test_snr_grid_size_is_bounded():
    n = model.MAX_SNR_POINTS
    assert len(fc.SnrGrid(points=np.arange(1.0, n + 1))) == n
    with pytest.raises(ValueError, match=f"1 to {n} points"):
        fc.SnrGrid(points=np.arange(1.0, n + 2))
    assert len(fc.SnrGrid.from_db(0, n - 1)) == n
    with pytest.raises(ValueError, match=f"1 to {n} points"):
        fc.SnrGrid.from_db(0, n)


def test_snr_grid_from_db_checks_the_count_first():
    """A ten-million-point range (80 MB a table) fails before any array is
    allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="got 1e\\+07"):
            fc.SnrGrid.from_db(0, 1e7, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("name", ["fadecap"] + [f"fadecap.{m.name}"
                                                for m in pkgutil.iter_modules(fc.__path__)])
def test_every_exported_name_resolves(name):
    """A name left in a module's __all__ after its definition is gone fails
    only at `from module import *`; catch it here."""
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []



def test_every_public_name_has_a_caller():
    """Each name in a layer module's __all__, each public method of a class
    there and each fadecap re-export is read (not just defined, imported or
    listed) in the package, the README or the acceptance tests; a name only
    unit tests call belongs in the tests."""
    src = Path(fc.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in src.glob("*.py")}
    used = set(re.findall(r"\w+", (src.parents[1] / "README.md").read_text()))
    for tree in [*trees.values(), ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())]:
        used |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    surface = [f"fadecap.{a.name}" for n in trees.pop("__init__").body
               if isinstance(n, ast.ImportFrom) for a in n.names]
    for stem, tree in trees.items():
        exported = {e.value for n in tree.body if isinstance(n, ast.Assign)
                    and getattr(n.targets[0], "id", None) == "__all__" for e in n.value.elts}
        surface += [f"{stem}.{name}" for name in exported]
        surface += [f"{stem}.{c.name}.{f.name}" for c in tree.body
                    if isinstance(c, ast.ClassDef) and c.name in exported for f in c.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    assert sorted(name for name in surface if name.rsplit(".", 1)[1] not in used) == []


QPSK = fc.make_constellation("qpsk", 1)
RAYLEIGH_1X1 = fc.CanonicalRayleigh(n_t=1, n_r=1)
TINY_MC = fc.McConfig(channel_draws=2, noise_draws_per_channel=2)
QPSK_SUB = designs.SubchannelSpec(QPSK, designs.Fading(variance=1.0))

# (call, the ValueError message it raises): one input a library check rejects
INPUT_ERRORS = [
    (lambda: fc.make_constellation("qpsk", 0), "n_t must be >= 1"),
    (lambda: fc.make_constellation("custom", 1), "custom constellation requires points"),
    (lambda: fc.make_constellation("custom", 2, points=[[1, 0, 0], [0, 1, 0]]),
     "points have 3 antennas, expected 2"),
    (lambda: fc.Constellation(points=np.array([1.0, -1.0])), "points must be a (M, n_t) array"),
    (lambda: fc.CanonicalRayleigh(n_t=1, n_r=0), "antenna counts must be >= 1"),
    (lambda: fc.Ricean(k_factor=1.0, a_t=[1], a_r=[2]), "||a_r||^2 must equal n_r"),
    (lambda: fc.CorrelatedRayleigh(theta_t=[[1, 0.5], [0.2, 1]], theta_r=[[1]]),
     "matrix is not Hermitian"),
    (lambda: fc.CorrelatedRayleigh(theta_t=[[1, np.nan], [np.nan, 1]], theta_r=[[1]]),
     "theta_t contains NaN/Inf entries"),
    (lambda: fc.SpaceTimeCode(codewords=np.eye(2)),
     "codewords must be a (M, n_t, t) array with M >= 2"),
    (lambda: designs.Fading(0), "fading variance must be positive"),
    (lambda: designs.SubchannelSpec(fc.make_constellation("qpsk", 2), designs.Fading(1.0)),
     "subchannels take scalar (n_t = 1) constellations"),
    (lambda: designs.PowerAllocation(p=np.array([1.0, 1.5]), budget=2.0),
     "allocation exceeds the budget"),
    (lambda: designs.palloc_highsnr([QPSK_SUB], 0), "budget must be positive"),
    (lambda: designs.subchannel_capacities([QPSK_SUB, QPSK_SUB], [[1.0]], 10.0, TINY_MC),
     "power vector length must match the subchannel count"),
    (lambda: designs.Precoder(np.ones((2, 3)), 2.0), "precoder must be square"),
    (lambda: designs.Precoder(2.0 * np.eye(2), 2.0), "precoder exceeds the power budget"),
    (lambda: designs.optimal_precoder(fc.CanonicalRayleigh(2, 1),
                                      fc.make_constellation("qpsk", 2), 0),
     "power budget must be positive"),
    (lambda: fc.Estimate(0.0, -1.0), "std_error must be >= 0"),
    (lambda: fc.fixed_h_all(0.0, [[1.0]], QPSK, TINY_MC), "snr must be positive"),
    (lambda: fc.avg_all(0.0, RAYLEIGH_1X1, QPSK, TINY_MC), "snr must be positive"),
    (lambda: fc.empirical_epsilon(fc.SnrGrid(points=[10.0]), RAYLEIGH_1X1, QPSK, TINY_MC,
                                  d=0, limit=np.log(4.0)),
     "diversity order d must be >= 1"),
    (lambda: mc.distance_squared_samples(RAYLEIGH_1X1, [1, 1], 10, seed=1),
     "difference vector length must equal n_t"),
    (lambda: asymptotics.expansion_constant_alt_form("bad", 1, 4), "unknown constant kind 'bad'"),
    (lambda: fc.DistanceDistribution(orders=[], values=[], effective_log_m=1.0),
     "no distinguishable pairs"),
    (lambda: fc.DistanceDistribution(orders=[1, 1], values=[1.0], effective_log_m=1.0),
     "orders and values must align"),
    (lambda: fc.DistanceDistribution(orders=[1], values=[0.0], effective_log_m=1.0),
     "orders must be >= 0 and leading derivatives > 0"),
]


@pytest.mark.parametrize("call,message", INPUT_ERRORS, ids=[m for _, m in INPUT_ERRORS])
def test_library_input_error_names_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
