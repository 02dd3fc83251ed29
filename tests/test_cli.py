"""CLI: config validation, CSV schema, determinism, exit codes."""

import dataclasses
import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import fadecap
from fadecap import designs
from fadecap.cli import main
from fadecap.config import ConfigError, load_config, validate_command_config
from fadecap.mc import McConfig

CURVE_CFG = {
    "kind": "mi",
    "constellation": {"family": "bpsk", "n_t": 1},
    "channel": {"variant": "rayleigh", "n_r": 1},
    "snr_db": {"start": 0, "stop": 30, "step": 5},
    "mc": {"channel_draws": 800, "noise_draws": 16, "chunks": 4},
}


def write_cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    rest = [l for l in lines if not l.startswith("#")]
    header = rest[0].split(",")
    rows = [r.split(",") for r in rest[1:]]
    return meta, header, rows


def test_curve_runs_and_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, CURVE_CFG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(["curve", "--config", cfg, "--seed", 42, "--out", out1]) == 0
    assert run(["curve", "--config", cfg, "--seed", 42, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta, header, rows = read_csv(out1)
    assert any("seed: 42" in m for m in meta)
    assert any("config_digest" in m for m in meta)
    assert f"# numpy: {np.__version__}" in meta
    assert not any(m.startswith("# scipy:") for m in meta)      # no number depends on it
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert f"# blas: {blas['name']} {blas['version']}" in meta
    assert header[:7] == ["snr_db", "mc_mean", "mc_stderr", "bound_lb", "bound_ub",
                          "expansion_lb", "expansion_ub"]
    assert len(rows) == 7
    for row in rows:
        mc_mean = float(row[1])
        lb, ub = float(row[3]), float(row[4])
        se = float(row[2])
        assert lb - 4 * se <= mc_mean <= ub + 4 * se
        # bits columns are nats / ln 2
        assert float(row[7]) == pytest.approx(mc_mean / np.log(2), rel=1e-9)


def test_blas_line_falls_back_to_unknown(monkeypatch):
    from fadecap import cli
    monkeypatch.setattr(np, "show_config", lambda mode: {})
    assert cli._blas() == "unknown"


def test_curve_unknown_key_rejected(tmp_path):
    doc = dict(CURVE_CFG)
    doc["typo_key"] = 1
    cfg = write_cfg(tmp_path, doc)
    assert run(["curve", "--config", cfg, "--seed", 1]) == 2


def test_curve_bad_kind_names_field(tmp_path, capsys):
    doc = dict(CURVE_CFG)
    doc["kind"] = "capacity"
    cfg = write_cfg(tmp_path, doc)
    assert run(["curve", "--config", cfg, "--seed", 1]) == 2
    assert "kind" in capsys.readouterr().err


@pytest.mark.parametrize("n_t", [2, 4])
def test_oversized_constellation_is_a_config_error(tmp_path, capsys, n_t):
    doc = dict(CURVE_CFG)
    doc["constellation"] = {"family": "qam256", "n_t": n_t}
    doc["channel"] = {"variant": "rayleigh", "n_r": 1}
    cfg = write_cfg(tmp_path, doc)
    assert run(["curve", "--config", cfg, "--seed", 1]) == 2
    assert f"n_t={n_t}" in capsys.readouterr().err


def test_oversized_pair_table_is_a_config_error(tmp_path, capsys, monkeypatch):
    """qpsk over six antennas has 4096 points, but its table of ordered
    differences is over model.MAX_PAIR_ENTRIES: a config error naming the
    constellation, raised before the joint points are built."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("built the joint points")

    monkeypatch.setattr(fadecap.model.itertools, "product", must_not_run)
    doc = dict(CURVE_CFG, constellation={"family": "qpsk", "n_t": 6})
    assert run(["curve", "--config", write_cfg(tmp_path, doc), "--seed", 1]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'constellation': ") and "table entries" in err


def test_repeated_yaml_key_is_a_config_error(tmp_path, capsys):
    """A key written twice in one mapping is a config error naming the key
    and its line, not a silent win for the last one; keys a << merge brings
    in may still be overridden."""
    path = tmp_path / "repeated.yaml"
    text = yaml.safe_dump({k: v for k, v in CURVE_CFG.items() if k != "snr_db"})
    path.write_text(text + "snr_db: {points: [10]}\nsnr_db: {points: [20]}\n")
    out = tmp_path / "o.csv"
    assert run(["curve", "--config", path, "--seed", 1, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "repeated key 'snr_db'" in err and f"line {len(text.splitlines()) + 2}" in err
    assert not out.exists()
    path.write_text("mc: {<<: {channel_draws: 40, chunks: 4}, chunks: 2}\n")
    assert load_config(str(path))[0] == {"mc": {"channel_draws": 40, "chunks": 2}}


ONE_POINT = {"family": "custom", "points": [[1]]}
RAYLEIGH_1 = {"kind": "rayleigh", "variance": 1.0}


@pytest.mark.parametrize("command,doc,field", [
    ("curve", dict(CURVE_CFG, constellation=dict(ONE_POINT, n_t=1)), "constellation"),
    ("palloc", {"budget": 1.0, "snr_db": 10, "numeric": False,
                "subchannels": [dict(ONE_POINT, fading=RAYLEIGH_1),
                                {"family": "bpsk", "fading": RAYLEIGH_1}]}, "subchannels[0]"),
], ids=["curve", "palloc"])
def test_one_point_constellation_is_a_config_error(tmp_path, capsys, command, doc, field):
    cfg = write_cfg(tmp_path, doc)
    assert run([command, "--config", cfg, "--seed", 1, "--out", tmp_path / "o.csv"]) == 2
    err = capsys.readouterr().err
    assert field in err and "fewer than the 2" in err
    assert not (tmp_path / "o.csv").exists()


def test_seed_is_mandatory(tmp_path):
    cfg = write_cfg(tmp_path, CURVE_CFG)
    assert run(["curve", "--config", cfg]) == 2


@pytest.mark.parametrize("command", ["curve", "offsets", "palloc", "precode", "stcode"])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "1.5"])
def test_seed_outside_u64_is_rejected(tmp_path, capsys, command, seed):
    cfg = write_cfg(tmp_path, CURVE_CFG)
    assert run([command, "--config", cfg, "--seed", seed]) == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-4", "1.5"])
def test_threads_below_one_is_rejected(tmp_path, capsys, threads):
    """A worker cap must be a positive integer; 0 or -4 is a config error
    naming --threads, not a silent run on one thread."""
    out = tmp_path / "o.csv"
    assert run(["curve", "--config", write_cfg(tmp_path, CURVE_CFG), "--seed", 1,
                "--threads", threads, "--out", out]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_main_returns_the_command_result(tmp_path, monkeypatch):
    """main returns what the command returns, untouched: a timing harness
    that swaps each command for a stub returning 0 (to time set-up alone)
    expects exit 0 and no --out file, so main must not post-process a
    command's result or write output on its behalf."""
    from fadecap import cli
    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name, lambda *args: 0)
    docs = {"curve": CURVE_CFG, "offsets": OFFSETS_DOC, "palloc": PALLOC_2SUB,
            "precode": correlated_precode_doc([[1.0, 0.5], [0.5, 1.0]]),
            "stcode": {"n_r": 1, "codebooks": [CODEBOOK]}}
    for name, doc in docs.items():
        out = tmp_path / f"{name}.csv"
        cfg = write_cfg(tmp_path, doc, f"{name}.yaml")
        assert run([name, "--config", cfg, "--seed", 1, "--out", out]) == 0
        assert not out.exists()


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_seed_range_ends_are_accepted(tmp_path, seed):
    doc = dict(CURVE_CFG, snr_db={"points": [10]},
               mc={"channel_draws": 40, "noise_draws": 4, "chunks": 2})
    out = tmp_path / "c.csv"
    assert run(["curve", "--config", write_cfg(tmp_path, doc), "--seed", seed,
                "--out", out]) == 0
    assert f"# seed: {seed}" in read_csv(out)[0]


def test_samples_line_is_deterministic(tmp_path):
    """curve and offsets name their sample counts in one metadata line that
    is the same across repeats and --threads, and say for each constellation
    whether a noise draw evaluates all M true symbols or one sampled one."""
    samples = "# samples: channel_draws=80 noise_draws=6 chunks=3 true_symbols="
    mc_doc = {"channel_draws": 80, "noise_draws": 6, "chunks": 3}
    rayleigh = {"variant": "rayleigh", "n_r": 2}
    docs = {
        "curve": (dict(CURVE_CFG, constellation={"family": "qam16", "n_t": 1},
                       snr_db={"points": [10, 20]}, mc=mc_doc), "all"),
        "curve_sampled": (dict(CURVE_CFG, kind="pe", constellation={"family": "qpsk", "n_t": 2},
                               channel=rayleigh, snr_db={"points": [10]}, mc=mc_doc),
                          "one_sampled"),
        "offsets": ({"anchor_snr_db": 20, "mc": mc_doc,
                     "systems": [{"constellation": {"family": "qpsk", "n_t": n_t},
                                  "channel": rayleigh} for n_t in (1, 2)]},
                    "all,one_sampled"),
    }
    for name, (doc, symbols) in docs.items():
        command = name.split("_")[0]
        cfg = write_cfg(tmp_path, doc, f"{name}.yaml")
        outs = []
        for k, threads in enumerate((1, 1, 2)):
            out = tmp_path / f"{name}{k}.csv"
            assert run([command, "--config", cfg, "--seed", 17, "--threads", threads,
                        "--out", out]) in (0, 4)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2], name
        meta = read_csv(tmp_path / f"{name}0.csv")[0]
        assert [m for m in meta if m.startswith("# samples:")] == [samples + symbols], name


def test_curve_pe_binary_bounds_identical(tmp_path):
    doc = dict(CURVE_CFG)
    doc["kind"] = "pe"
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "pe.csv"
    assert run(["curve", "--config", cfg, "--seed", 5, "--out", out]) == 0
    _, header, rows = read_csv(out)
    for row in rows:
        assert row[3] == row[4]        # genie and union bounds coincide at M = 2


def test_offsets_spreads(tmp_path):
    doc = {
        "anchor_snr_db": 30,
        "mc": {"channel_draws": 4000, "noise_draws": 32, "chunks": 4},
        "systems": [
            {"constellation": {"family": "qam16", "n_t": 1},
             "channel": {"variant": "rayleigh", "n_r": 1}},
            {"constellation": {"family": "bpsk", "n_t": 1},
             "channel": {"variant": "rayleigh", "n_r": 1}},
        ],
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "offsets.csv"
    code = run(["offsets", "--config", cfg, "--seed", 3, "--out", out])
    assert code in (0, 4)
    _, header, rows = read_csv(out)
    qam = dict(zip(header, rows[0]))
    assert float(qam["spread_mmse_db"]) == pytest.approx(8.9, abs=0.1)
    assert float(qam["spread_mi_db"]) == pytest.approx(17.8, abs=0.1)
    bpsk = dict(zip(header, rows[1]))
    assert float(bpsk["spread_mmse_db"]) == pytest.approx(3.0, abs=0.1)
    assert float(bpsk["spread_mi_db"]) == pytest.approx(6.0, abs=0.1)
    # offset spreads reproduce the analytic spreads whatever the measurement
    assert float(qam["delta_ub_db"]) - float(qam["delta_lb_db"]) == pytest.approx(
        float(qam["spread_mmse_db"]), abs=1e-9)


def test_palloc_closed_form_columns(tmp_path):
    doc = {
        "budget": 2.0,
        "snr_db": 25,
        "numeric": False,
        "subchannels": [
            {"family": "qam16", "fading": {"kind": "rayleigh", "variance": 4.0}},
            {"family": "qam16", "fading": {"kind": "rayleigh", "variance": 1.0}},
        ],
        "mc": {"channel_draws": 600, "noise_draws": 8, "chunks": 2},
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "palloc.csv"
    assert run(["palloc", "--config", cfg, "--seed", 9, "--out", out]) == 0
    _, header, rows = read_csv(out)
    assert header[0] == "subchannel"
    assert float(rows[0][1]) == pytest.approx(2 / 3, rel=1e-9)
    assert float(rows[1][1]) == pytest.approx(4 / 3, rel=1e-9)
    # capacities reported in nats and bits
    assert float(rows[0][4]) == pytest.approx(float(rows[0][3]) / np.log(2), rel=1e-9)


def _exit_and_loaded(tmp_path, command, doc, module="scipy.special"):
    """(exit code, whether `module` was loaded) of one command run in a
    fresh interpreter."""
    cfg = write_cfg(tmp_path, doc)
    script = ("import sys\n"
              "from fadecap.cli import main\n"
              f"code = main([{command!r}, '--config', {cfg!r}, '--seed', '5',"
              f" '--out', {str(tmp_path / 'p.csv')!r}])\n"
              f"print(code, {module!r} in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fadecap.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.splitlines()[-1].split()


def test_palloc_does_not_import_scipy_special(tmp_path):
    """scipy.special is imported only where a bound evaluates erfc, so a
    numeric palloc run, which evaluates none, never loads it."""
    doc = {
        "budget": 2.0,
        "snr_db": 10,
        "numeric": True,
        "subchannels": [
            {"family": "qpsk", "fading": {"kind": "rayleigh", "variance": 4.0}},
            {"family": "qam16", "fading": {"kind": "rayleigh", "variance": 0.5}},
        ],
        "mc": {"channel_draws": 32, "noise_draws": 4, "chunks": 2},
    }
    assert _exit_and_loaded(tmp_path, "palloc", doc) == ["0", "False"]


def test_pe_curve_does_not_import_scipy_special(tmp_path):
    """The averaged pe bounds are exact and evaluate no erfc."""
    doc = dict(CURVE_CFG, kind="pe", constellation={"family": "qpsk", "n_t": 2},
               channel={"variant": "rayleigh", "n_r": 2}, snr_db={"points": [0, 10]},
               mc={"channel_draws": 32, "noise_draws": 4, "chunks": 2})
    assert _exit_and_loaded(tmp_path, "curve", doc) == ["0", "False"]


@pytest.mark.parametrize("command,name", [
    ("curve", "mi"), ("curve", "mmse"), ("offsets", "offsets"), ("precode", "precode"),
    ("stcode", "stcode"),
])
def test_no_command_imports_scipy_special(tmp_path, command, name):
    """The drawn mi and mmse bounds take erfc from `bounds._erfc`, and
    offsets, precode and stcode evaluate none, so no command loads
    scipy.special.  The curves reach every erfc branch, underflow included."""
    curve = dict(CURVE_CFG, constellation={"family": "qam16", "n_t": 1},
                 channel={"variant": "rayleigh", "n_r": 2}, snr_db={"points": [0, 30]},
                 mc={"channel_draws": 32, "noise_draws": 4, "chunks": 2})
    docs = {
        "mi": curve,
        "mmse": dict(curve, kind="mmse"),
        "offsets": OFFSETS_DOC,
        "precode": correlated_precode_doc([[1.0, 0.5], [0.5, 1.0]]),
        "stcode": {"n_r": 1, "codebooks": [CODEBOOK], "confirm_pe": {
            "snr_db": 10, "mc": {"channel_draws": 32, "noise_draws": 4, "chunks": 2}}},
    }
    code, special = _exit_and_loaded(tmp_path, command, docs[name])
    assert code in ("0", "4") and special == "False"


@pytest.mark.parametrize("command", ["curve", "palloc"])
def test_grid_runs_do_not_import_numpy_ma(tmp_path, command):
    """`Constellation.grid_levels` sorts and masks its levels itself, so a
    qam16 1x2 curve and a palloc run never load numpy.ma, which the first
    np.unique call imports."""
    docs = {
        "curve": dict(CURVE_CFG, constellation={"family": "qam16", "n_t": 1},
                      channel={"variant": "rayleigh", "n_r": 2}, snr_db={"points": [0, 10]},
                      mc={"channel_draws": 32, "noise_draws": 4, "chunks": 2}),
        "palloc": dict(PALLOC_2SUB, numeric=True),
    }
    code, ma = _exit_and_loaded(tmp_path, command, docs[command], "numpy.ma")
    assert code in ("0", "4") and ma == "False"


def test_palloc_mixed_fading_one_rule(tmp_path):
    """Rayleigh and Ricean subchannels mix under the one closed form: for
    qam16 with variance 4 and with mean 1+1j, variance 1, p0/p1 = e/2."""
    doc = {
        "budget": 2.0,
        "snr_db": 10,
        "numeric": False,
        "subchannels": [
            {"family": "qam16", "fading": {"kind": "rayleigh", "variance": 4.0}},
            {"family": "qam16", "fading": {"kind": "ricean", "mean": [1, 1], "variance": 1.0}},
        ],
        "mc": {"channel_draws": 40, "noise_draws": 4, "chunks": 2},
    }
    out = tmp_path / "palloc.csv"
    assert run(["palloc", "--config", write_cfg(tmp_path, doc), "--seed", 9,
                "--out", out]) == 0
    _, _, rows = read_csv(out)
    assert float(rows[0][1]) / float(rows[1][1]) == pytest.approx(np.e / 2.0, rel=1e-9)


def test_precode_canonical_report(tmp_path):
    doc = {
        "constellation": {"family": "qpsk", "n_t": 2},
        "p_total": 2.0,
        "channel": {"variant": "rayleigh", "n_r": 2},
        "probes": 50,
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "precode.csv"
    assert run(["precode", "--config", cfg, "--seed", 11, "--out", out]) == 0
    _, header, rows = read_csv(out)
    rec = dict(zip(header, rows[0]))
    assert rec["method"] == "closed_form"
    assert int(rec["probes_worse"]) == 50
    assert float(rec["stationarity_residual"]) <= 1e-8


def test_precode_correlated(tmp_path):
    doc = {
        "constellation": {"family": "qpsk", "n_t": 2},
        "p_total": 2.0,
        "channel": {"variant": "correlated",
                    "theta_t": [[1.0, 0.5], [0.5, 1.0]],
                    "theta_r": [[1.0, 0.8], [0.8, 1.0]]},
        "restarts": 2,
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "precode.csv"
    assert run(["precode", "--config", cfg, "--seed", 13, "--out", out]) == 0
    _, header, rows = read_csv(out)
    rec = dict(zip(header, rows[0]))
    assert rec["method"] == "projected_gradient"
    assert float(rec["max_angle_rad"]) <= 1e-3
    assert float(rec["restart_spread"]) <= 1e-6 * max(1.0, float(rec["objective"]))


def precode_row(tmp_path, doc, seed):
    """The one CSV row of a precode run of `doc` at `seed`, by header name."""
    out = tmp_path / "precode.csv"
    assert run(["precode", "--config", write_cfg(tmp_path, doc), "--seed", seed,
                "--out", out]) == 0
    _, header, rows = read_csv(out)
    return dict(zip(header, rows[0]))


def test_precode_restarts_a_rayleigh_design(tmp_path):
    """Restarts apply on a rayleigh channel too: they are counted, their
    spread is reported, and they leave the closed form in place."""
    doc = {"constellation": {"family": "qpsk", "n_t": 2}, "p_total": 2.0,
           "channel": {"variant": "rayleigh", "n_r": 2}, "restarts": 3}
    rec = precode_row(tmp_path, doc, 5)
    assert rec["method"] == "closed_form"
    assert int(rec["restarts"]) == 3
    assert 0.0 <= float(rec["restart_spread"]) < np.inf
    assert rec["max_angle_rad"] == "nan"


def test_precode_probes_a_correlated_design(tmp_path):
    """Random feasible probes check a correlated design too."""
    doc = dict(correlated_precode_doc([[1.0, 0.5], [0.5, 1.0]]), probes=5)
    rec = precode_row(tmp_path, doc, 5)
    assert (int(rec["probes_tested"]), int(rec["probes_worse"])) == (5, 5)
    assert float(rec["best_probe_objective"]) >= float(rec["objective"])


@pytest.mark.parametrize("family,n_r", [("qpsk", 2), ("bpsk", 1), ("qam16", 1)])
@pytest.mark.parametrize("seed", [1, 2])
def test_precode_restarts_keep_the_closed_form(tmp_path, family, n_r, seed):
    """Ten descents from random feasible Gram matrices end at or above the
    certified scaled identity, so the closed form stays the design."""
    doc = {"constellation": {"family": family, "n_t": 2}, "p_total": 2.0,
           "channel": {"variant": "rayleigh", "n_r": n_r}}
    rec = precode_row(tmp_path, doc, seed)
    assert (rec["method"], rec["iterations"], rec["restarts"]) == ("closed_form", "0", "10")


def test_precode_restarts_a_canonical_descent(tmp_path):
    """On a rayleigh channel whose scaled identity is not stationary (five
    asymmetric points), the design restarts ten times and keeps the best,
    which is no worse than the one descent from the scaled identity."""
    points = [[1, 0], [0, 1], [1, 1], [-1, 0.5], [0.3, -0.7]]
    doc = {"constellation": {"family": "custom", "n_t": 2, "points": points},
           "p_total": 2.0, "channel": {"variant": "rayleigh", "n_r": 1}}
    rec = precode_row(tmp_path, doc, 3)
    c = fadecap.make_constellation("custom", 2, points=points)
    _, single = designs.optimal_precoder(fadecap.CanonicalRayleigh(2, 1), c, 2.0)
    assert (rec["method"], rec["restarts"]) == ("projected_gradient", "10")
    assert float(rec["objective"]) <= single.objective


def test_precode_degenerate_theta_is_numeric_failure(tmp_path):
    doc = {
        "constellation": {"family": "qpsk", "n_t": 2},
        "p_total": 2.0,
        "channel": {"variant": "correlated",
                    "theta_t": [[1.0, 1.0], [1.0, 1.0]],
                    "theta_r": [[1.0, 0.0], [0.0, 1.0]]},
    }
    cfg = write_cfg(tmp_path, doc)
    assert run(["precode", "--config", cfg, "--seed", 1]) == 3


def correlated_precode_doc(theta_t):
    return {
        "constellation": {"family": "qpsk", "n_t": 2},
        "p_total": 2.0,
        "channel": {"variant": "correlated", "theta_t": theta_t,
                    "theta_r": [[1.0, 0.8], [0.8, 1.0]]},
        "restarts": 1,
    }


def test_precode_theta_size_mismatch_config_error(tmp_path, capsys):
    """The correlated channel is built as curve builds it: a Theta_T sized
    for another n_t names the field, once."""
    theta_t = [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]
    cfg = write_cfg(tmp_path, correlated_precode_doc(theta_t))
    assert run(["precode", "--config", cfg, "--seed", 1]) == 2
    assert capsys.readouterr().err == \
        "error: config field 'channel.theta_t': size does not match constellation n_t\n"


def test_precode_root_receive_count_is_unknown_key(tmp_path, capsys):
    """n_r belongs to the channel: the correlated channel reads it off
    Theta_R, so a root n_r is an unknown key."""
    doc = dict(correlated_precode_doc([[1.0, 0.5], [0.5, 1.0]]), n_r=2)
    assert run(["precode", "--config", write_cfg(tmp_path, doc), "--seed", 1]) == 2
    assert capsys.readouterr().err == "error: config field '<root>.n_r': unknown key\n"


def test_precode_ricean_channel_config_error(tmp_path, capsys):
    doc = dict(correlated_precode_doc([[1.0, 0.5], [0.5, 1.0]]),
               channel={"variant": "ricean", "k_factor": 2.0, "a_t": [1, 1], "a_r": [1]})
    assert run(["precode", "--config", write_cfg(tmp_path, doc), "--seed", 1]) == 2
    assert capsys.readouterr().err == ("error: config field 'channel.variant': unknown "
                                       "variant 'ricean' (rayleigh | correlated)\n")


PALLOC_2SUB = {
    "budget": 2.0,
    "snr_db": 20,
    "numeric": False,
    "subchannels": [{"family": "qpsk", "fading": {"kind": "rayleigh", "variance": 4.0}},
                    {"family": "qam16", "fading": {"kind": "rayleigh", "variance": 0.5}}],
    "mc": {"channel_draws": 40, "noise_draws": 4, "chunks": 2},
}
NAN, INF = float("nan"), float("inf")
HUGE = 10 ** 400          # a YAML integer beyond float range


@pytest.mark.parametrize("command,doc,field", [
    ("palloc", dict(PALLOC_2SUB, budget=NAN), "budget"),
    ("palloc", dict(PALLOC_2SUB, snr_db=NAN), "snr_db"),
    ("palloc", dict(PALLOC_2SUB, budget=INF), "budget"),
    ("palloc", dict(PALLOC_2SUB, subchannels=[
        {"family": "qpsk", "fading": {"kind": "ricean", "mean": [1.0, NAN], "variance": 1.0}},
        PALLOC_2SUB["subchannels"][1]]), "subchannels[0].fading.mean"),
    ("curve", dict(CURVE_CFG, snr_db={"start": 0, "stop": INF, "step": 5}), "snr_db.stop"),
    ("precode", dict(correlated_precode_doc([[1.0, 0.5], [0.5, 1.0]]), p_total=INF), "p_total"),
    ("precode", dict(correlated_precode_doc([[1.0, 0.5], [0.5, 1.0]]), p_total=HUGE), "p_total"),
    ("palloc", dict(PALLOC_2SUB, subchannels=[
        {"family": "qpsk", "fading": {"kind": "ricean", "mean": [HUGE, 0], "variance": 1.0}},
        PALLOC_2SUB["subchannels"][1]]), "subchannels[0].fading.mean"),
], ids=["palloc-budget-nan", "palloc-snr-nan", "palloc-budget-inf", "palloc-mean-nan",
        "curve-stop-inf", "precode-p-total-inf", "precode-p-total-huge-int",
        "palloc-mean-huge-int"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, command, doc, field):
    out = tmp_path / "o.csv"
    assert run([command, "--config", write_cfg(tmp_path, doc), "--seed", 1, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: config field '{field}': must be finite\n"
    assert not out.exists()


def test_palloc_strong_lines_of_sight_stay_finite(tmp_path):
    """Two Ricean subchannels with means 40 and 50 at variance 1 underflow
    both line-of-sight factors; the split is still finite and uses the
    whole budget."""
    doc = dict(PALLOC_2SUB, subchannels=[
        {"family": "qam16", "fading": {"kind": "ricean", "mean": mean, "variance": 1.0}}
        for mean in (40, 50)])
    out = tmp_path / "palloc.csv"
    assert run(["palloc", "--config", write_cfg(tmp_path, doc), "--seed", 1,
                "--out", out]) == 0
    _, _, rows = read_csv(out)
    p = np.array([float(r[1]) for r in rows])
    assert np.all(np.isfinite(p))
    assert p.sum() == pytest.approx(2.0, rel=1e-9)


FIVE_SUBCHANNELS = [{"family": "qpsk", "fading": {"kind": "rayleigh", "variance": v}}
                    for v in (0.5, 1.0, 2.0, 4.0, 8.0)]


def test_palloc_numeric_over_four_subchannels_config_error(tmp_path, capsys, monkeypatch):
    """The numeric optimizer takes at most designs.MAX_NUMERIC_SUBCHANNELS;
    more is a config error naming `subchannels`, raised before any draw."""
    def unreachable(*args, **kwargs):
        raise AssertionError("drew after the subchannel check")

    monkeypatch.setattr(fadecap.mc, "_run_chunks", unreachable)
    doc = dict(PALLOC_2SUB, numeric=True, subchannels=FIVE_SUBCHANNELS)
    out = tmp_path / "palloc.csv"
    assert run(["palloc", "--config", write_cfg(tmp_path, doc), "--seed", 1,
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'subchannels': ") and "at most 4" in err
    assert not out.exists()


@pytest.mark.parametrize("numeric", [True, False])
def test_palloc_oversized_banks_config_error(tmp_path, capsys, monkeypatch, numeric):
    """The README palloc config at 10^7 channel draws would ask for ~41 GB
    of bank tables; with either numeric setting, since the capacity columns
    draw the banks too, it is a config error naming mc.channel_draws,
    raised before any draw."""
    def unreachable(*args, **kwargs):
        raise AssertionError("drew after the bank size check")

    monkeypatch.setattr(fadecap.mc, "_run_chunks", unreachable)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### palloc -- ", 1)[1]
    doc = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])
    doc["mc"]["channel_draws"] = 10_000_000
    doc["numeric"] = numeric
    out = tmp_path / "palloc.csv"
    assert run(["palloc", "--config", write_cfg(tmp_path, doc), "--seed", 1,
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'mc.channel_draws': ")
    assert f"{10_000_000 * 32 * 16} table entries" in err
    assert not out.exists()


def test_palloc_closed_form_takes_five_subchannels(tmp_path):
    """With numeric: false the subchannel cap does not apply."""
    doc = dict(PALLOC_2SUB, numeric=False, subchannels=FIVE_SUBCHANNELS)
    out = tmp_path / "palloc.csv"
    assert run(["palloc", "--config", write_cfg(tmp_path, doc), "--seed", 1,
                "--out", out]) == 0
    _, _, rows = read_csv(out)
    assert sum(float(r[1]) for r in rows) == pytest.approx(2.0, rel=1e-9)


def test_precode_non_unit_diagonal_theta_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, correlated_precode_doc([[2.0, 0.5], [0.5, 2.0]]))
    assert run(["precode", "--config", cfg, "--seed", 1]) == 2
    assert "theta_t must have unit diagonal" in capsys.readouterr().err


def alamouti_repetition_doc():
    """Alamouti over BPSK (full rank) and a rank-one repetition code, n_r = 1."""
    a = 2.0 ** -0.5
    alamouti = []
    for s1 in (a, -a):
        for s2 in (a, -a):
            alamouti.append([[[s1, 0], [-s2, 0]], [[s2, 0], [s1, 0]]])
    repetition = []
    for v0, v1 in [(a, a), (a, -a), (-a, a), (-a, -a)]:
        w = 2.0 ** -0.5
        repetition.append([[[v0 * w, 0], [v0 * w, 0]], [[v1 * w, 0], [v1 * w, 0]]])
    return {
        "n_r": 1,
        "codebooks": [
            {"name": "orthogonal", "codewords": alamouti},
            {"name": "repetition", "codewords": repetition},
        ],
    }


def test_stcode_ranking(tmp_path, capsys):
    cfg = write_cfg(tmp_path, alamouti_repetition_doc())
    out = tmp_path / "stcode.csv"
    assert run(["stcode", "--config", cfg, "--seed", 2, "--out", out]) == 0
    _, header, rows = read_csv(out)
    recs = {r[0]: dict(zip(header, r)) for r in rows}
    assert int(recs["orthogonal"]["r_min"]) == 2
    assert int(recs["repetition"]["r_min"]) == 1
    assert "ranking: orthogonal > repetition" in capsys.readouterr().out


def test_stcode_computes_criteria_once_per_codebook(tmp_path, monkeypatch):
    """The rows and the ranking share one report per codebook."""
    calls = []
    original = designs.st_criteria

    def counted(code, n_r):
        calls.append(code)
        return original(code, n_r)

    monkeypatch.setattr(designs, "st_criteria", counted)
    cfg = write_cfg(tmp_path, alamouti_repetition_doc())
    assert run(["stcode", "--config", cfg, "--seed", 2, "--out", tmp_path / "st.csv"]) == 0
    assert len(calls) == 2


def test_stcode_near_tie_ranking(tmp_path, capsys):
    """A rotated copy of a code has the same criterion up to rounding, so it
    ties with the code (`=`) and both rank above the rank-one code."""
    qpsk = [complex(re, im) / 2 for re in (1, -1) for im in (1, -1)]

    def entries(x):
        return [[[float(v.real), float(v.imag)] for v in row] for row in x]

    alamouti = [np.array([[s1, -np.conj(s2)], [s2, np.conj(s1)]]) for s1 in qpsk for s2 in qpsk]
    repetition = [np.array([[v0, v0], [v1, v1]]) for v0 in qpsk for v1 in qpsk]
    doc = {
        "n_r": 2,
        "codebooks": [
            {"name": "alamouti", "codewords": [entries(x) for x in alamouti]},
            {"name": "rotated", "codewords": [entries(x * np.exp(0.3j)) for x in alamouti]},
            {"name": "repetition", "codewords": [entries(x) for x in repetition]},
        ],
    }
    cfg = write_cfg(tmp_path, doc)
    assert run(["stcode", "--config", cfg, "--seed", 2, "--out", tmp_path / "st.csv"]) == 0
    assert capsys.readouterr().out == "ranking: alamouti = rotated > repetition\n"


def test_stcode_tie_keeps_config_order(tmp_path, capsys):
    """A code and its copy scaled by 1 + 1e-14 tie under `_st_rank`, so the
    report keeps their config order, whatever their raw criteria."""
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    code = [np.eye(2), -np.eye(2), rot, -rot]
    doc = {"n_r": 1, "codebooks": [
        {"name": name, "codewords": [[[[float(v * scale), 0.0] for v in row] for row in x]
                                     for x in code]}
        for name, scale in (("A", 1.0), ("B", 1 + 1e-14))]}
    out = tmp_path / "st.csv"
    assert run(["stcode", "--config", write_cfg(tmp_path, doc), "--seed", 1, "--out", out]) == 0
    assert capsys.readouterr().out == "ranking: A = B\n"
    _, header, rows = read_csv(out)
    assert [r[header.index("criterion")] for r in rows] == ["2.25", "2.25"]


def test_unwritable_out_fails_before_any_draw(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("--out must be checked before the draws")

    monkeypatch.setattr(fadecap.mc, "avg_all", must_not_run)
    cfg = write_cfg(tmp_path, CURVE_CFG)
    for out in (tmp_path / "no" / "such" / "x.csv", tmp_path):
        assert run(["curve", "--config", cfg, "--seed", 1, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {out}: ")
    # a write that fails after the check exits 2 the same way
    monkeypatch.undo()
    monkeypatch.setattr(fadecap.cli, "_check_out", lambda path: None)
    out = tmp_path / "missing" / "x.csv"
    assert run(["curve", "--config", cfg, "--seed", 1, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out {out}: ")


def test_curve_ricean_channel(tmp_path):
    doc = {
        "kind": "mmse",
        "constellation": {"family": "bpsk", "n_t": 1},
        "channel": {"variant": "ricean", "k_factor": 2.0, "a_t": [1.0], "a_r": [1.0]},
        "snr_db": {"points": [10.0]},
        "mc": {"channel_draws": 500, "noise_draws": 8, "chunks": 2},
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "ricean.csv"
    assert run(["curve", "--config", cfg, "--seed", 21, "--out", out]) == 0
    _, header, rows = read_csv(out)
    # line of sight shrinks the expansion coefficient vs K = 0 by (K+1)e^{-K};
    # 10 dB -> snr 10, estimation-error curve decays as snr^-(d+1)
    assert float(rows[0][5]) == pytest.approx(0.1875 * 3 * np.exp(-2) / 10.0 ** 2,
                                              rel=1e-9)


def test_curve_correlated_channel(tmp_path):
    doc = {
        "kind": "mi",
        "constellation": {"family": "bpsk", "n_t": 2},
        "channel": {"variant": "correlated",
                    "theta_t": [[1.0, 0.0], [0.0, 1.0]],
                    "theta_r": [[1.0, 0.8], [0.8, 1.0]]},
        "snr_db": {"points": [15.0]},
        "mc": {"channel_draws": 500, "noise_draws": 8, "chunks": 2},
    }
    cfg = write_cfg(tmp_path, doc)
    assert run(["curve", "--config", cfg, "--seed", 22, "--out", tmp_path / "c.csv"]) == 0


def test_curve_flags_pre_asymptotic_request(tmp_path):
    # far below the expansion's regime the leading term overshoots the
    # measured gap by more than 10x and the run is flagged (exit 4)
    doc = dict(CURVE_CFG)
    doc["snr_db"] = {"start": -20, "stop": -15, "step": 5}
    doc["mc"] = {"channel_draws": 2000, "noise_draws": 16, "chunks": 2}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "flagged.csv"
    assert run(["curve", "--config", cfg, "--seed", 8, "--out", out]) == 4
    assert any("flagged" in m for m in read_csv(out)[0])


OFFSETS_DOC = {
    "anchor_snr_db": 20,
    "systems": [{"constellation": {"family": "bpsk", "n_t": 1},
                 "channel": {"variant": "rayleigh", "n_r": 1}}],
    "mc": {"channel_draws": 40, "noise_draws": 4, "chunks": 2},
}


@pytest.mark.parametrize("command,doc,field", [
    ("palloc", dict(PALLOC_2SUB, snr_db=4000), "snr_db"),
    ("palloc", dict(PALLOC_2SUB, snr_db=-4000), "snr_db"),
    ("offsets", dict(OFFSETS_DOC, anchor_snr_db=4000), "anchor_snr_db"),
    ("stcode", dict(alamouti_repetition_doc(), confirm_pe={"snr_db": 4000}),
     "confirm_pe.snr_db"),
    ("curve", dict(CURVE_CFG, snr_db={"points": [10, 4000]}), "snr_db.points[1]"),
], ids=["palloc-overflow", "palloc-underflow", "offsets-anchor", "stcode-confirm",
        "curve-points"])
def test_snr_db_out_of_range_is_a_config_error(tmp_path, capsys, command, doc, field):
    """A dB value whose linear SNR is not a positive finite number fails
    validation, before any Monte Carlo runs."""
    out = tmp_path / "o.csv"
    assert run([command, "--config", write_cfg(tmp_path, doc), "--seed", 1, "--out", out]) == 2
    assert capsys.readouterr().err == (f"error: config field '{field}': dB value out of "
                                       "range: its linear SNR is 0 or not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("db", [7.5, 25.0])
def test_snr_db_converts_alike_as_scalar_and_grid(db):
    """A dB value gives the same float as a scalar field, as a listed grid
    point and as a one-point range (NumPy's vectorised pow can differ from
    the scalar pow in the last bit at these values)."""
    scalar = validate_command_config("offsets", dict(OFFSETS_DOC, anchor_snr_db=db),
                                     seed=0)["anchor_snr"]
    grids = [validate_command_config("curve", dict(CURVE_CFG, snr_db=snr_db), seed=0)["grid"]
             for snr_db in ({"points": [db]}, {"start": db, "stop": db, "step": 1})]
    assert [g.points[0].hex() for g in grids] == [float(scalar).hex()] * 2


@pytest.mark.parametrize("snr_db,message", [
    ({"start": 0, "stop": 1e6, "step": 1}, "dB range needs 1 to 1000 points, got 1e+06"),
    ({"start": 0, "stop": 4000, "step": 10}, "SNR values must be positive and finite"),
], ids=["oversized", "overflow"])
def test_snr_grid_range_is_a_config_error(tmp_path, capsys, snr_db, message):
    """An oversized dB range is rejected before its grid is allocated, and
    a range reaching past the largest float is rejected as non-finite."""
    doc = dict(CURVE_CFG, snr_db=snr_db)
    assert run(["curve", "--config", write_cfg(tmp_path, doc), "--seed", 1]) == 2
    assert capsys.readouterr().err == f"error: config field 'snr_db': {message}\n"


def test_stcode_confirm_pe(tmp_path):
    a = 2.0 ** -0.5
    books = []
    for s1 in (a, -a):
        for s2 in (a, -a):
            books.append([[[s1, 0], [-s2, 0]], [[s2, 0], [s1, 0]]])
    doc = {
        "n_r": 1,
        "codebooks": [{"name": "orthogonal", "codewords": books}],
        "confirm_pe": {"snr_db": 10,
                       "mc": {"channel_draws": 2000, "noise_draws": 16, "chunks": 2}},
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "stpe.csv"
    assert run(["stcode", "--config", cfg, "--seed", 6, "--out", out]) == 0
    meta, header, rows = read_csv(out)
    rec = dict(zip(header, rows[0]))
    assert 0.0 < float(rec["pe_mean"]) < 0.5
    assert float(rec["pe_stderr"]) > 0.0
    assert "# samples: channel_draws=2000 noise_draws=16 chunks=2 true_symbols=all" in meta


def test_curve_custom_constellation(tmp_path):
    doc = {
        "kind": "pe",
        "constellation": {"family": "custom", "n_t": 2,
                          "points": [[[1.0, 0.0], [0.0, 0.0]],
                                     [[0.0, 0.0], [1.0, 0.0]]]},
        "channel": {"variant": "rayleigh", "n_r": 2},
        "snr_db": {"points": [10.0]},
        "mc": {"channel_draws": 400, "noise_draws": 8, "chunks": 2},
    }
    cfg = write_cfg(tmp_path, doc)
    assert run(["curve", "--config", cfg, "--seed", 30, "--out", tmp_path / "c.csv"]) == 0


def test_stcode_mismatched_codebooks_config_error(tmp_path, capsys):
    """Codebooks of different shapes are a config mistake: exit 2, naming
    the codebooks."""
    doc = {
        "n_r": 1,
        "codebooks": [
            {"name": "a", "codewords": [[[[0, 0], [0, 0]]], [[[1, 0], [0, 0]]]]},
            {"name": "b", "codewords": [[[[0, 0]], [[0, 0]]], [[[1, 0]], [[1, 0]]]]},
        ],
    }
    cfg = write_cfg(tmp_path, doc)
    assert run(["stcode", "--config", cfg, "--seed", 1]) == 2
    assert capsys.readouterr().err == ("error: config field 'codebooks': codebooks must "
                                       "share (n_t, t, M) to be comparable\n")


def test_stcode_mismatched_codebooks_write_nothing(tmp_path, monkeypatch):
    """Codebooks of different shapes fail before the criteria, the Monte
    Carlo and the CSV."""
    def unreachable(*args, **kwargs):
        raise AssertionError("reached after the shape check")

    monkeypatch.setattr(designs, "st_criteria", unreachable)
    monkeypatch.setattr(fadecap.mc, "avg_all", unreachable)
    doc = {
        "n_r": 1,
        "codebooks": [
            {"name": "a", "codewords": [[[[0, 0], [0, 0]]], [[[1, 0], [0, 0]]]]},
            {"name": "b", "codewords": [[[[0, 0]], [[0, 0]]], [[[1, 0]], [[1, 0]]]]},
        ],
        "confirm_pe": {"snr_db": 10, "mc": {"channel_draws": 100, "noise_draws": 4}},
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "st.csv"
    assert run(["stcode", "--config", cfg, "--seed", 1, "--out", out]) == 2
    assert not out.exists()


def test_stcode_duplicate_codebook_names_config_error(tmp_path, capsys):
    """Rows and confirming error rates are keyed by name, so a name used
    twice is a config error naming the second book."""
    books = [[[[1, 0]]], [[[-1, 0]]]]
    doc = {
        "n_r": 1,
        "codebooks": [{"name": "a", "codewords": books},
                      {"name": "b", "codewords": books},
                      {"name": "a", "codewords": books}],
    }
    cfg = write_cfg(tmp_path, doc)
    assert run(["stcode", "--config", cfg, "--seed", 1]) == 2
    assert "codebooks[2].name" in capsys.readouterr().err


def test_stcode_oversized_codebook_config_error(tmp_path, capsys):
    """More than 4096 codewords is a config error naming the codewords."""
    doc = {"n_r": 1,
           "codebooks": [{"name": "big", "codewords": [[[k]] for k in range(4097)]}]}
    cfg = write_cfg(tmp_path, doc)
    assert run(["stcode", "--config", cfg, "--seed", 1]) == 2
    err = capsys.readouterr().err
    assert "codebooks[0].codewords" in err and "M=4097" in err


def test_missing_config_file():
    assert run(["curve", "--config", "/nonexistent.yaml", "--seed", 1]) == 2


def test_invalid_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("kind: [unclosed")
    assert run(["curve", "--config", path, "--seed", 1]) == 2


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"kind: mi  # \xff\xfe\n")
    assert run(["curve", "--config", path, "--seed", 1]) == 2
    assert "invalid YAML" in capsys.readouterr().err


def test_curve_to_stdout(tmp_path, capsys):
    doc = dict(CURVE_CFG)
    doc["snr_db"] = {"points": [10.0]}
    doc["mc"] = {"channel_draws": 200, "noise_draws": 8, "chunks": 2}
    cfg = write_cfg(tmp_path, doc)
    assert run(["curve", "--config", cfg, "--seed", 4]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# fadecap")
    assert "snr_db,mc_mean" in out


def test_curve_non_finite_estimate_names_snr_point(tmp_path, capsys, monkeypatch):
    from fadecap import mc

    def nan_avg_all(snr, *args, **kwargs):
        return {"mi": mc.Estimate(mean=float("nan"), std_error=0.0)}

    monkeypatch.setattr(mc, "avg_all", nan_avg_all)
    doc = dict(CURVE_CFG)
    doc["snr_db"] = {"points": [10.0]}
    cfg = write_cfg(tmp_path, doc)
    assert run(["curve", "--config", cfg, "--seed", 1]) == 3
    err = capsys.readouterr().err
    assert "snr_db=10" in err
    assert "not finite" in err


@pytest.mark.parametrize("command", ["curve", "offsets", "palloc", "precode"])
def test_readme_config_example_validates(command):
    """The README's example config for each command passes validation, so
    an example left stale by a schema change fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n### {command} -- ", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    validate_command_config(command, yaml.safe_load(block), seed=0)


README_MODULES = ("fc", "mc", "designs", "bounds", "asymptotics", "model", "config")


def test_readme_dotted_names_resolve():
    """Every dotted API name in the README (`fc.avg_all`, `mc._run_chunks`,
    `fc.SnrGrid.from_db`, ...) resolves, so a renamed or removed function
    fails here; `mc.py` and the other file names are skipped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(rf"(?<![\w.])(?:{'|'.join(README_MODULES)})(?:\.[A-Za-z_]\w*)+",
                           readme))
    names = {n for n in names if not n.endswith(".py")}
    assert "fc.avg_all" in names
    for name in sorted(names):
        head, *attrs = name.split(".")
        obj = fadecap if head == "fc" else importlib.import_module(f"fadecap.{head}")
        for attr in attrs:
            assert hasattr(obj, attr), f"README names {name}, which does not resolve"
            obj = getattr(obj, attr)


def test_offsets_channel_column_names_each_variant(tmp_path):
    """The channel column writes the config name of each system's channel."""
    variants = [{"variant": "rayleigh", "n_r": 1},
                {"variant": "correlated", "theta_t": [[1]], "theta_r": [[1, 0.5], [0.5, 1]]},
                {"variant": "ricean", "k_factor": 2.0, "a_t": [1], "a_r": [1]}]
    doc = {"anchor_snr_db": 10, "mc": {"channel_draws": 40, "noise_draws": 4, "chunks": 2},
           "systems": [{"constellation": {"family": "bpsk", "n_t": 1}, "channel": v}
                       for v in variants]}
    out = tmp_path / "offsets.csv"
    assert run(["offsets", "--config", write_cfg(tmp_path, doc), "--seed", 2,
                "--out", out]) in (0, 4)
    _, header, rows = read_csv(out)
    assert [dict(zip(header, r))["channel"] for r in rows] == ["rayleigh", "correlated",
                                                               "ricean"]


CODEBOOK = {"name": "orthogonal", "codewords": [
    [[s1, 0], [-s2, 0]] for s1 in (1, -1) for s2 in (1, -1)]}
MC_BLOCK_DOCS = {      # a config of each command with an mc block, and the block's path
    "curve": ({k: v for k, v in CURVE_CFG.items() if k != "mc"}, ()),
    "offsets": ({"anchor_snr_db": 20, "systems": [
        {"constellation": {"family": "qpsk", "n_t": 1},
         "channel": {"variant": "rayleigh", "n_r": 1}}]}, ()),
    "palloc": ({k: v for k, v in PALLOC_2SUB.items() if k != "mc"}, ()),
    "stcode": ({"n_r": 1, "codebooks": [CODEBOOK], "confirm_pe": {"snr_db": 10}},
               ("confirm_pe",)),
}


@pytest.mark.parametrize("block,expected", [
    ("absent", McConfig(seed=7)), (None, McConfig(seed=7)), ({}, McConfig(seed=7)),
    ({"noise_draws": 6}, McConfig(noise_draws_per_channel=6, seed=7)),
], ids=["absent", "null", "empty", "partial"])
@pytest.mark.parametrize("command", sorted(MC_BLOCK_DOCS))
def test_mc_block_keeps_the_mcconfig_defaults(command, block, expected):
    """An absent, empty or partial mc block gives McConfig's own defaults
    for every key it leaves out."""
    doc, path = MC_BLOCK_DOCS[command]
    doc = yaml.safe_load(yaml.safe_dump(doc))           # a deep copy
    parent = doc[path[0]] if path else doc
    if block != "absent":
        parent["mc"] = block
    cfg = validate_command_config(command, doc, seed=7)
    assert (cfg[path[0]] if path else cfg)["mc"] == expected


def _twelve(x):
    """`x` as the CSV writes it: 12 significant digits."""
    return float(f"{x:.12g}")


def test_palloc_numeric_columns_and_report(tmp_path, capsys):
    """A numeric run writes palloc_numeric's split, and both designs'
    capacities on the shared banks in nats and bits, and reports both."""
    doc = dict(PALLOC_2SUB, numeric=True)
    out = tmp_path / "palloc.csv"
    code = run(["palloc", "--config", write_cfg(tmp_path, doc), "--seed", 4, "--out", out])
    cfg = validate_command_config("palloc", doc, 4)
    subs, snr, mc_cfg = cfg["subchannels"], cfg["snr"], cfg["mc"]
    alloc = designs.palloc_highsnr(subs, cfg["budget"])
    numeric = designs.palloc_numeric(subs, cfg["budget"], snr, mc_cfg)
    cap_high, cap_num = designs.subchannel_capacities(subs, [alloc.p, numeric.p], snr, mc_cfg)
    assert code == (4 if numeric.flagged else 0)
    _, header, rows = read_csv(out)
    for k, row in enumerate(rows):
        rec = {h: float(v) for h, v in zip(header, row)}
        assert rec["p_numeric"] == _twelve(numeric.p[k])
        for name, cap in (("highsnr", cap_high[k]), ("numeric", cap_num[k])):
            assert rec[f"mi_{name}_nats"] == _twelve(cap)
            assert rec[f"mi_{name}_bits"] == _twelve(cap / math.log(2.0))
    report = capsys.readouterr().out
    assert "numeric allocation:" in report and "capacity (numeric design):" in report


def test_palloc_draws_the_banks_once_and_evaluates_each_power_once(tmp_path, monkeypatch):
    """On the benchmark's palloc-2sub config at seed 1, the search, its
    resolution flag and both capacity columns read one draw of the banks,
    and no (subchannel, power) is evaluated twice: 28 bank evaluations,
    where a golden-section search and a second draw for the columns took 48."""
    drawn, evaluated = [], []
    subchannel_banks, bank_mi = designs._subchannel_banks, designs._bank_mi

    def banks_spy(*args):
        drawn.append(args)
        return subchannel_banks(*args)

    def mi_spy(snr, bank, power, *rest):
        evaluated.append((id(bank), power))
        return bank_mi(snr, bank, power, *rest)

    monkeypatch.setattr(designs, "_subchannel_banks", banks_spy)
    monkeypatch.setattr(designs, "_bank_mi", mi_spy)
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "palloc-2sub.yaml"
    assert run(["palloc", "--config", config, "--seed", 1, "--out", tmp_path / "palloc.csv"]) == 0
    assert len(drawn) == 1
    assert len(evaluated) <= 30
    assert len(set(evaluated)) == len(evaluated)


def test_offsets_row_without_a_positive_coefficient_reads_nan(tmp_path, monkeypatch):
    """A measured coefficient that is not positive gives no dB offsets: the
    four delta columns read nan, the row is flagged and the run exits 4."""
    real = fadecap.mc.empirical_epsilon

    def gap_above_limit(grid, channel, inputs, cfg, d, limit, threads=1):
        points = real(grid, channel, inputs, cfg, d, limit, threads=threads)
        points["mi"][0] = fadecap.mc._epsilon_point(
            "mi", fadecap.Estimate(limit + 0.01, 0.001), points["mi"][0].snr, d, limit)
        return points

    monkeypatch.setattr(fadecap.mc, "empirical_epsilon", gap_above_limit)
    doc = dict(MC_BLOCK_DOCS["offsets"][0], mc={"channel_draws": 40, "noise_draws": 4,
                                                "chunks": 2})
    out = tmp_path / "offsets.csv"
    assert run(["offsets", "--config", write_cfg(tmp_path, doc), "--seed", 2,
                "--out", out]) == 4
    _, header, rows = read_csv(out)
    rec = dict(zip(header, rows[0]))
    assert float(rec["eps_prime_hat"]) < 0
    deltas = ("delta_lb_db", "delta_ub_db", "delta_prime_lb_db", "delta_prime_ub_db")
    assert [rec[k] for k in deltas] == ["nan"] * 4
    assert rec["flagged"] == "1"


def test_precode_design_beaten_by_a_probe_is_numeric_failure(tmp_path, capsys, monkeypatch):
    """A design that some random feasible probe beats fails the run with
    exit 3, and no CSV is written."""
    real = designs.optimal_precoder

    def unbeatable_claim(channel, c, p_total, z0=None):
        precoder, report = real(channel, c, p_total, z0=z0)
        return precoder, dataclasses.replace(report, objective=math.inf)

    monkeypatch.setattr(designs, "optimal_precoder", unbeatable_claim)
    doc = {"constellation": {"family": "qpsk", "n_t": 2}, "p_total": 2.0,
           "channel": {"variant": "rayleigh", "n_r": 2}, "probes": 5, "restarts": 0}
    out = tmp_path / "precode.csv"
    assert run(["precode", "--config", write_cfg(tmp_path, doc), "--seed", 1,
                "--out", out]) == 3
    assert capsys.readouterr().err == ("numeric failure: a random feasible probe beat "
                                       "the designed precoder\n")
    assert not out.exists()


RICEAN_1X1 = {"variant": "ricean", "k_factor": 2.0, "a_t": [1], "a_r": [1]}


def _fading_sub(fading):
    return {"family": "qpsk", "fading": fading}


@pytest.mark.parametrize("command,doc,field,message", [
    ("curve", [1, 2], "<root>", "config document must be a mapping"),
    ("curve", dict(CURVE_CFG, constellation="qam16"), "constellation", "expected a mapping"),
    ("curve", {k: v for k, v in CURVE_CFG.items() if k != "snr_db"}, "<root>.snr_db",
     "missing required key"),
    ("palloc", dict(PALLOC_2SUB, budget="two"), "budget", "expected a number"),
    ("palloc", dict(PALLOC_2SUB, budget=0), "budget", "must be positive"),
    ("curve", dict(CURVE_CFG, mc={"channel_draws": 1.5}), "mc.channel_draws",
     "expected an integer"),
    ("curve", dict(CURVE_CFG, mc={"chunks": 0}), "mc.chunks", "must be >= 1"),
    ("palloc", dict(PALLOC_2SUB, subchannels=[_fading_sub(
        {"kind": "ricean", "mean": "x", "variance": 1.0})]), "subchannels[0].fading.mean",
     "expected a real number or [re, im] pair"),
    ("curve", dict(CURVE_CFG, channel=dict(RICEAN_1X1, a_t=[])), "channel.a_t",
     "expected a nonempty list"),
    ("curve", dict(CURVE_CFG, constellation={"family": "custom", "n_t": 1, "points": []}),
     "constellation.points", "expected a nonempty list of rows"),
    ("curve", dict(CURVE_CFG, constellation={"family": "custom", "n_t": 1,
                                             "points": [[1], [2, 3]]}),
     "constellation.points", "rows have inconsistent lengths"),
    ("curve", dict(CURVE_CFG, constellation={"family": 16, "n_t": 1}), "constellation.family",
     "expected a string"),
    ("curve", dict(CURVE_CFG, constellation={"family": "custom", "n_t": 1}),
     "constellation.points", "custom constellation requires points"),
    ("curve", dict(CURVE_CFG, constellation={"family": "qpsk", "n_t": 1, "points": [[1], [-1]]}),
     "constellation.points", "points only apply to the custom family"),
    ("curve", dict(CURVE_CFG, channel={"n_r": 1}), "channel.variant", "missing channel variant"),
    ("curve", dict(CURVE_CFG, channel=dict(RICEAN_1X1, a_t=[1, 1])), "channel.a_t",
     "length does not match constellation n_t"),
    ("curve", dict(CURVE_CFG, channel={"variant": "nakagami", "n_r": 1}), "channel.variant",
     "unknown variant 'nakagami' (rayleigh | correlated | ricean)"),
    ("curve", dict(CURVE_CFG, snr_db=10), "snr_db", "expected a mapping"),
    ("curve", dict(CURVE_CFG, snr_db={"points": []}), "snr_db.points",
     "expected a nonempty list of dB values"),
    ("palloc", dict(PALLOC_2SUB, subchannels=[_fading_sub({"variance": 1.0})]),
     "subchannels[0].fading.kind", "missing fading kind"),
    ("palloc", dict(PALLOC_2SUB, subchannels=[_fading_sub({"kind": "nakagami", "variance": 1.0})]),
     "subchannels[0].fading.kind", "unknown fading kind 'nakagami'"),
    ("stcode", {"n_r": 1, "codebooks": [dict(CODEBOOK, name="")]}, "codebooks[0].name",
     "expected a nonempty string"),
    ("stcode", {"n_r": 1, "codebooks": [dict(CODEBOOK, codewords=CODEBOOK["codewords"][:1])]},
     "codebooks[0].codewords", "expected a list of at least 2 matrices"),
    ("stcode", {"n_r": 1, "codebooks": [dict(CODEBOOK, codewords=[[[1, 0]], [[1], [0]]])]},
     "codebooks[0].codewords", "codewords have inconsistent shapes"),
    ("offsets", dict(MC_BLOCK_DOCS["offsets"][0], systems=[]), "systems",
     "expected a nonempty list"),
    ("palloc", dict(PALLOC_2SUB, subchannels=[]), "subchannels", "expected a nonempty list"),
    ("palloc", dict(PALLOC_2SUB, numeric="yes"), "numeric", "expected a boolean"),
    ("stcode", {"n_r": 1, "codebooks": []}, "codebooks", "expected a nonempty list"),
], ids=["root-not-mapping", "constellation-not-mapping", "missing-key", "not-a-number",
        "not-positive", "not-an-integer", "below-minimum", "bad-complex", "empty-vector",
        "empty-matrix", "ragged-matrix", "family-not-string", "custom-without-points",
        "points-on-builtin", "missing-variant", "ricean-a-t-length", "unknown-variant",
        "snr-not-mapping", "empty-snr-points", "missing-fading-kind", "unknown-fading-kind",
        "empty-codebook-name", "one-codeword", "ragged-codewords", "empty-systems",
        "empty-subchannels", "numeric-not-boolean", "empty-codebooks"])
def test_config_error_names_field_and_writes_nothing(tmp_path, capsys, command, doc, field,
                                                     message):
    out = tmp_path / "o.csv"
    assert run([command, "--config", write_cfg(tmp_path, doc), "--seed", 1, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: config field '{field}': {message}\n"
    assert not out.exists()


def test_unknown_command_is_a_config_error():
    """argparse rejects an unknown command first; the validator names it too."""
    with pytest.raises(ConfigError) as err:
        validate_command_config("plot", {}, 1)
    assert str(err.value) == "config field '<command>': unknown command 'plot'"
