"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import child
import run
from checks import check_output

HERE = os.path.dirname(os.path.abspath(__file__))

CURVE_DOC = {"kind": "mi", "constellation": {"family": "qam16", "n_t": 1},
             "snr_db": {"points": [10, 20]}}
CURVE_CSV = """# fadecap 0.1.0
# command: curve
snr_db,mc_mean,mc_stderr,bound_lb,bound_ub,expansion_lb,expansion_ub,mc_mean_bits,mc_stderr_bits,bound_lb_bits,bound_ub_bits,expansion_lb_bits,expansion_ub_bits
10,2.34863354367,0.0101008414343,0.293937607747,2.76331152162,0.36,2.73,3.38,0.014,0.42,3.98,0.52,3.94
20,2.75944936112,0.00193169265998,2.69901177562,2.77234754254,2.74,2.77,3.98,0.0027,3.89,3.99,3.96,3.99
"""
# [lower, upper] standard errors of the averaged bounds, one pair per row
CURVE_SE = [[0.005, 0.002], [0.001, 0.0005]]
PALLOC_DOC = {"budget": 2.0, "subchannels": [{}, {}]}
PALLOC_CSV = """# fadecap 0.1.0
subchannel,p_highsnr,p_numeric,mi_highsnr_nats,mi_highsnr_bits,mi_numeric_nats,mi_numeric_bits
0,0.5,0.25,1.3,1.9,1.35,1.95
1,1.5,1.75,2.5,3.6,2.6,3.7
"""


def test_valid_outputs_pass():
    assert check_output("curve", CURVE_DOC, 0, CURVE_CSV, CURVE_SE) == []
    assert check_output("curve", CURVE_DOC, 4, CURVE_CSV, CURVE_SE) == []
    assert check_output("palloc", PALLOC_DOC, 0, PALLOC_CSV, []) == []


@pytest.mark.parametrize("code", [1, 2, 3, None, -9])
def test_wrong_exit_code_fails(code):
    assert check_output("curve", CURVE_DOC, code, CURVE_CSV, CURVE_SE)


@pytest.mark.parametrize("old,new", [
    ("10,2.34863354367,", "10,2.86863354367,"),          # mc_mean above bound_ub
    ("20,2.75944936112,", "20,2.60944936112,"),          # mc_mean below bound_lb
    (",0.00193169265998,", ",0,"),                      # zero stderr
    (",0.00193169265998,", ",nan,"),                    # non-finite stderr
])
def test_perturbed_curve_fails(old, new):
    assert old in CURVE_CSV
    assert check_output("curve", CURVE_DOC, 0, CURVE_CSV.replace(old, new), CURVE_SE)


def test_curve_row_count_and_missing_csv_fail():
    truncated = "\n".join(CURVE_CSV.splitlines()[:-1]) + "\n"
    assert check_output("curve", CURVE_DOC, 0, truncated, CURVE_SE[:1])
    assert check_output("curve", CURVE_DOC, 0, None, [])
    assert check_output("curve", CURVE_DOC, 0, "# only metadata\n", [])
    assert check_output("curve", CURVE_DOC, 0, CURVE_CSV, CURVE_SE[:1])


def test_error_rate_outside_unit_interval_fails():
    doc = dict(CURVE_DOC, kind="pe")
    csv = CURVE_CSV.replace("10,2.34863354367,0.0101008414343,0.293937607747,2.76331152162",
                            "10,1.5,0.01,0.2,3.0")
    assert check_output("curve", doc, 0, csv, CURVE_SE)


@pytest.mark.parametrize("ub_se,fails", [(3.16e-9, False), (0.0, True)])
def test_bound_error_counts_in_the_tolerance(ub_se, fails):
    # near saturation (qam16, 30 dB) the averaged upper bound's standard
    # error can be ten times the MC mean's; here the MC mean sits 4.3e-9
    # above the bound, inside 6 combined standard errors but not inside
    # 6 of the MC mean's alone
    doc = dict(CURVE_DOC, snr_db={"points": [30]})
    csv = "\n".join(CURVE_CSV.splitlines()[:3] + [
        "30,2.77258872198,2.41e-10,2.77258568934,2.77258871765,2.7,2.77,4,0,4,4,4,4"])
    assert bool(check_output("curve", doc, 0, csv, [[3e-9, ub_se]])) == fails


@pytest.mark.parametrize("mean,fails", [("2.77258872224", False), ("2.77258872325", True)])
def test_mi_at_log_m_allows_csv_rounding(mean, fails):
    # at 30 dB the MC mean 2.7725887222397585 lies below log 16 =
    # 2.772588722239781 with a standard error of 2.2e-14, yet its 12-digit
    # CSV form 2.77258872224 lies above it; a mean a unit in the 10th digit
    # above log 16 is still an error
    doc = dict(CURVE_DOC, snr_db={"points": [30]})
    csv = "\n".join(CURVE_CSV.splitlines()[:3] + [
        f"30,{mean},2.21761754598e-14,2.77258865936,2.77258872216,2.7,2.77,4,0,4,4,4,4"])
    assert bool(check_output("curve", doc, 0, csv, [[1e-9, 2e-11]])) == fails


@pytest.mark.parametrize("old,new", [
    ("0,0.5,0.25,", "0,0.5,-0.25,"),     # negative power
    ("0,0.5,0.25,", "0,0.6,0.25,"),      # closed form exceeds the budget
    ("1,1.5,1.75,2.5,3.6,2.6", "1,1.5,1.75,2.5,3.6,2.4"),   # numeric design worse
])
def test_perturbed_palloc_fails(old, new):
    assert old in PALLOC_CSV
    assert check_output("palloc", PALLOC_DOC, 0, PALLOC_CSV.replace(old, new), [])


@pytest.mark.parametrize("excess,fails", [(1e-6, False), (1e-3, True)])
def test_closed_form_margin_is_the_search_resolution(excess, fails):
    # the numeric design sums to 3.95 nats; give the closed form 3.95 + excess
    csv = PALLOC_CSV.replace("0,0.5,0.25,1.3,", "0,0.5,0.25,1.35,") \
                    .replace("1,1.5,1.75,2.5,", f"1,1.5,1.75,{2.6 + excess!r},")
    assert bool(check_output("palloc", PALLOC_DOC, 0, csv, [])) == fails


def test_self_time_subtracts_union_of_concurrent_children():
    spans = [
        ["cli.cmd_curve", -1, 0.0, 10.0, 0],
        ["mc.avg_all", 0, 1.0, 9.0, 0],
        ["mc.kernel_stats", 1, 2.0, 6.0, 100],    # two worker threads overlap
        ["mc.kernel_stats", 1, 3.0, 7.0, 100],
        ["bounds.avg_bounds", 0, 9.0, 10.0, 7],
    ]
    m = run.layer_metrics(spans)
    assert m["command_s"] == 10.0
    assert m["mc.kernel_stats.s"] == 5.0          # union of [2, 6] and [3, 7]
    assert m["mc.kernel_stats.calls"] == 2
    assert m["mc.logits"] == 200
    assert m["mc.logits_per_s"] == 40.0
    assert m["mc.avg_all.self_s"] == 3.0          # 8 - 5
    assert m["mc.self_s"] == 11.0                 # 3 + 4 + 4
    assert m["cli.self_s"] == 1.0                 # 10 - 8 - 1
    assert m["bounds.avg_bounds.share"] == 0.1
    assert m["bounds.pairs_per_s"] == 7.0


def _traced_counts(tmp_path, command, config_text):
    config = tmp_path / "tiny.yaml"
    config.write_text(config_text)
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "trace", str(result), run.SRC, "--",
         command, "--config", str(config), "--seed", "5", "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 4), proc.stdout + proc.stderr
    return run.layer_metrics(json.loads(result.read_text())["spans"])


def test_curve_counts_match_hand_computation(tmp_path):
    points, draws, noise, chunks, m = 2, 10, 4, 2, 4
    counts = _traced_counts(tmp_path, "curve", f"""
kind: mi
constellation: {{family: qpsk, n_t: 1}}
channel: {{variant: rayleigh, n_r: 1}}
snr_db: {{points: [5, 10]}}
mc: {{channel_draws: {draws}, noise_draws: {noise}, chunks: {chunks}}}
""")
    assert counts["mc.logits"] == points * draws * noise * m * m              # 1280
    assert counts["mc.kernel_stats.calls"] == points * chunks                 # 4
    assert counts["bounds.pairs"] == points * draws * m * (m - 1)             # 240
    # avg_all and avg_bounds each draw every channel once per SNR point
    assert counts["model.channels_drawn"] == points * 2 * draws               # 40
    for layer in set(child.LAYERS) - {"designs"}:
        assert counts[f"{layer}.self_s"] > 0, layer


def test_palloc_bypasses_kernel_and_bounds(tmp_path):
    counts = _traced_counts(tmp_path, "palloc", """
budget: 2.0
snr_db: 20
subchannels:
  - {family: qpsk, fading: {kind: rayleigh, variance: 4.0}}
  - {family: qpsk, fading: {kind: rayleigh, variance: 1.0}}
mc: {channel_draws: 16, noise_draws: 2, chunks: 2}
""")
    assert counts["mc.logits"] == counts["bounds.pairs"] == 0
    assert counts["designs.palloc_numeric.s"] > 0


def test_every_workload_has_a_config():
    assert set(run.WORKLOADS) == {
        os.path.splitext(name)[0] for name in os.listdir(os.path.join(HERE, "configs"))}


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve-mi-qam16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_failed_invocation_is_counted(tmp_path):
    runner = run.Runner("curve-mi-qam16", 1, str(tmp_path))
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: nonsense\n")
    runner.config = str(bad)
    inv = runner.invoke("plain")
    assert inv.exit_code == 2
    assert inv.problems


def test_differing_csv_fails_determinism(tmp_path):
    runner = run.Runner("curve-mi-qam16", 1, str(tmp_path))
    runner.invocations = [run.Invocation("plain", 1, 1.0, 0, {}, CURVE_CSV, []),
                          run.Invocation("plain", 2, 1.0, 0, {}, CURVE_CSV, []),
                          run.Invocation("trace", 1, 1.0, 0, {}, CURVE_CSV + "\n", [])]
    runner.check_determinism()
    assert [bool(i.problems) for i in runner.invocations] == [False, False, True]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    units = dict(run.PER_LAYER_UNITS, mc_eff="1/s", trace_overhead_frac="fraction")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
