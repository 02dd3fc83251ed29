"""CLI: config validation, CSV schema, determinism, exit codes."""

import numpy as np
import pytest
import scipy
import yaml

from fadecap.cli import main

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
    assert f"# scipy: {scipy.__version__}" in meta
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
    is the same across repeats and --threads."""
    samples = "# samples: channel_draws=80 noise_draws=6 chunks=3"
    mc_doc = {"channel_draws": 80, "noise_draws": 6, "chunks": 3}
    docs = {
        "curve": dict(CURVE_CFG, constellation={"family": "qam16", "n_t": 1},
                      snr_db={"points": [10, 20]}, mc=mc_doc),
        "offsets": {"anchor_snr_db": 20, "mc": mc_doc,
                    "systems": [{"constellation": {"family": "qpsk", "n_t": 1},
                                 "channel": {"variant": "rayleigh", "n_r": 2}}]},
    }
    for command, doc in docs.items():
        cfg = write_cfg(tmp_path, doc, f"{command}.yaml")
        outs = []
        for k, threads in enumerate((1, 1, 2)):
            out = tmp_path / f"{command}{k}.csv"
            assert run([command, "--config", cfg, "--seed", 17, "--threads", threads,
                        "--out", out]) in (0, 4)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2], command
        meta = read_csv(tmp_path / f"{command}0.csv")[0]
        assert [m for m in meta if m.startswith("# samples:")] == [samples], command


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


def test_palloc_mixed_fading_rejected(tmp_path):
    doc = {
        "budget": 1.0,
        "snr_db": 10,
        "numeric": False,
        "subchannels": [
            {"family": "bpsk", "fading": {"kind": "rayleigh", "variance": 1.0}},
            {"family": "bpsk", "fading": {"kind": "ricean", "mean": [1, 1], "variance": 1.0}},
        ],
    }
    cfg = write_cfg(tmp_path, doc)
    assert run(["palloc", "--config", cfg, "--seed", 9]) == 2


def test_precode_canonical_report(tmp_path):
    doc = {
        "constellation": {"family": "qpsk", "n_t": 2},
        "n_r": 2,
        "p_total": 2.0,
        "channel": {"variant": "rayleigh"},
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
        "n_r": 2,
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


def test_precode_degenerate_theta_is_numeric_failure(tmp_path):
    doc = {
        "constellation": {"family": "qpsk", "n_t": 2},
        "n_r": 1,
        "p_total": 2.0,
        "channel": {"variant": "correlated",
                    "theta_t": [[1.0, 1.0], [1.0, 1.0]],
                    "theta_r": [[1.0, 0.0], [0.0, 1.0]]},
    }
    cfg = write_cfg(tmp_path, doc)
    assert run(["precode", "--config", cfg, "--seed", 1]) == 3


def test_stcode_ranking(tmp_path, capsys):
    a = 2.0 ** -0.5
    alamouti = []
    for s1 in (a, -a):
        for s2 in (a, -a):
            alamouti.append([[[s1, 0], [-s2, 0]], [[s2, 0], [s1, 0]]])
    repetition = []
    for v0, v1 in [(a, a), (a, -a), (-a, a), (-a, -a)]:
        w = 2.0 ** -0.5
        repetition.append([[[v0 * w, 0], [v0 * w, 0]], [[v1 * w, 0], [v1 * w, 0]]])
    doc = {
        "n_r": 1,
        "codebooks": [
            {"name": "orthogonal", "codewords": alamouti},
            {"name": "repetition", "codewords": repetition},
        ],
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "stcode.csv"
    assert run(["stcode", "--config", cfg, "--seed", 2, "--out", out]) == 0
    _, header, rows = read_csv(out)
    recs = {r[0]: dict(zip(header, r)) for r in rows}
    assert int(recs["orthogonal"]["r_min"]) == 2
    assert int(recs["repetition"]["r_min"]) == 1
    assert "ranking: orthogonal > repetition" in capsys.readouterr().out


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
    _, header, rows = read_csv(out)
    rec = dict(zip(header, rows[0]))
    assert 0.0 < float(rec["pe_mean"]) < 0.5
    assert float(rec["pe_stderr"]) > 0.0


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


def test_stcode_mismatched_codebooks_numeric_failure(tmp_path):
    doc = {
        "n_r": 1,
        "codebooks": [
            {"name": "a", "codewords": [[[[0, 0], [0, 0]]], [[[1, 0], [0, 0]]]]},
            {"name": "b", "codewords": [[[[0, 0]], [[0, 0]]], [[[1, 0]], [[1, 0]]]]},
        ],
    }
    cfg = write_cfg(tmp_path, doc)
    assert run(["stcode", "--config", cfg, "--seed", 1]) == 3


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
        return {"mi": mc.Estimate(mean=float("nan"), std_error=0.0, n_samples=1)}

    monkeypatch.setattr(mc, "avg_all", nan_avg_all)
    doc = dict(CURVE_CFG)
    doc["snr_db"] = {"points": [10.0]}
    cfg = write_cfg(tmp_path, doc)
    assert run(["curve", "--config", cfg, "--seed", 1]) == 3
    err = capsys.readouterr().err
    assert "snr_db=10" in err
    assert "not finite" in err
