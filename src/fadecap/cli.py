"""Batch command-line front end: YAML experiment configs in, CSV out.

    fadecap curve|offsets|palloc|precode|stcode --config FILE --seed U64
            [--threads N] [--out FILE]

CSV files start with '#'-prefixed metadata (tool version, command, seed,
config digest, NumPy and BLAS versions, and for curve, offsets and
a confirming stcode the sample counts) followed by a fixed header per
command; numbers carry 12 significant digits.  The seed is an integer in [0, 2^64).  Exit codes: 0
success, 2 config error or an --out path that cannot be written (checked
before any work), 3 numeric failure, 4 flagged low-confidence result (output
is still written).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__, asymptotics, bounds, designs, mc
from .config import CHANNEL_NAMES, ConfigError, load_config, validate_command_config
from .model import CanonicalRayleigh, SnrGrid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_FLAGGED = 4

LN2 = math.log(2.0)


class NumericFailure(RuntimeError):
    pass


class OutError(Exception):
    """An --out path that cannot be written."""


def _check_out(path) -> None:
    """Raise OutError unless `path` can be written as a file: it is not a
    directory, and its directory exists and is writable."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise OutError(f"--out {path}: is a directory")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise OutError(f"--out {path}: directory {directory} is missing or not writable")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _blas() -> str:
    """Name and version of the BLAS NumPy was built against, or unknown."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _write_csv(out_path, command, seed, digest, header, rows, meta=()):
    lines = [f"# fadecap {__version__}",
             f"# command: {command}",
             f"# seed: {seed}",
             f"# config_digest: {digest}",
             f"# numpy: {np.__version__}",
             f"# blas: {_blas()}"]
    lines.extend(f"# {m}" for m in meta)
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutError(f"--out {out_path}: {exc.strerror}") from exc


def _samples_line(mc_cfg, inputs) -> str:
    """The sample counts, and for each of `inputs` (constellations or codes,
    in row order) whether a noise draw evaluates all M true symbols or one
    sampled symbol (`mc.sampled_true_symbol`)."""
    symbols = ",".join("one_sampled" if mc.sampled_true_symbol(x) else "all" for x in inputs)
    return (f"samples: channel_draws={mc_cfg.channel_draws} "
            f"noise_draws={mc_cfg.noise_draws_per_channel} chunks={mc_cfg.parallel_chunks} "
            f"true_symbols={symbols}")


def _report(out_path, text):
    stream = sys.stderr if out_path is None else sys.stdout
    stream.write(text + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

CURVE_HEADER = ["snr_db", "mc_mean", "mc_stderr", "bound_lb", "bound_ub",
                "expansion_lb", "expansion_ub",
                "mc_mean_bits", "mc_stderr_bits", "bound_lb_bits", "bound_ub_bits",
                "expansion_lb_bits", "expansion_ub_bits"]


def cmd_curve(cfg, seed, digest, out_path, threads):
    kind = cfg["kind"]
    c = cfg["constellation"]
    channel = cfg["channel"]
    grid: SnrGrid = cfg["grid"]
    mc_cfg = cfg["mc"]
    dd = asymptotics.distance_dist(channel, c)
    eb = asymptotics.epsilon_bounds(dd, c.m)
    curves = asymptotics.evaluate_expansion(eb, grid)
    rows = []
    flagged = False
    for idx, snr in enumerate(grid):
        snr_db = f"{10.0 * math.log10(snr):.12g}"
        try:
            est = mc.avg_all(snr, channel, c, mc_cfg, threads=threads, kinds=(kind,))[kind]
            pair = bounds.avg_bounds(kind, snr, channel, c, mc_cfg)
        except ValueError as exc:
            raise NumericFailure(f"snr_db={snr_db}: {exc}") from exc
        exp_lb = curves[f"{kind}_lb"][idx]
        exp_ub = curves[f"{kind}_ub"][idx]
        nats = [est.mean, est.std_error, pair.lower.mean, pair.upper.mean, exp_lb, exp_ub]
        if kind == "mi":
            bits = [v / LN2 for v in nats]
            gap_measured = eb.log_m_limit - est.mean
            gap_predicted = eb.mi.lower / snr ** eb.d
            if gap_predicted > 10.0 * max(gap_measured, 0.0):
                flagged = True
        else:
            bits = [math.nan] * 6
        rows.append([snr_db] + nats + bits)
    meta = [_samples_line(mc_cfg, [c])]
    if flagged:
        meta.append("flagged: expansion-predicted gap exceeds measured gap by >10x; "
                    "the leading term is not descriptive at these SNRs")
    _write_csv(out_path, "curve", seed, digest, CURVE_HEADER, rows, meta)
    return EXIT_FLAGGED if flagged else EXIT_OK


OFFSETS_HEADER = ["family", "n_t", "n_r", "channel", "m", "d",
                  "eps_hat", "eps_prime_hat",
                  "delta_lb_db", "delta_ub_db", "delta_prime_lb_db", "delta_prime_ub_db",
                  "spread_mmse_db", "spread_mi_db", "flagged"]


def cmd_offsets(cfg, seed, digest, out_path, threads):
    anchor = SnrGrid(points=[cfg["anchor_snr"]])
    mc_cfg = cfg["mc"]
    rows = []
    any_flag = False
    for system in cfg["systems"]:
        c = system["constellation"]
        channel = system["channel"]
        dd = asymptotics.distance_dist(channel, c)
        eb = asymptotics.epsilon_bounds(dd, c.m)
        points = mc.empirical_epsilon(anchor, channel, c, mc_cfg, eb.d, eb.log_m_limit,
                                      threads=threads)
        eps, eps_p = points["mmse"][0], points["mi"][0]
        flag = eps.flagged or eps_p.flagged
        any_flag = any_flag or flag
        if eps.value > 0 and eps_p.value > 0:
            d_lb, d_ub, dp_lb, dp_ub = asymptotics.snr_offsets(eb, eps.value, eps_p.value)
        else:
            d_lb = d_ub = dp_lb = dp_ub = math.nan
        spread_mmse, spread_mi = asymptotics.analytic_spreads(eb.d, c.m)
        rows.append([c.family, c.n_t, channel.n_r, CHANNEL_NAMES[type(channel)], c.m, eb.d,
                     eps.value, eps_p.value, d_lb, d_ub, dp_lb, dp_ub,
                     spread_mmse, spread_mi, flag])
    _write_csv(out_path, "offsets", seed, digest, OFFSETS_HEADER, rows,
               [_samples_line(mc_cfg, [s["constellation"] for s in cfg["systems"]])])
    return EXIT_FLAGGED if any_flag else EXIT_OK


PALLOC_HEADER = ["subchannel", "p_highsnr", "p_numeric",
                 "mi_highsnr_nats", "mi_highsnr_bits",
                 "mi_numeric_nats", "mi_numeric_bits"]


def cmd_palloc(cfg, seed, digest, out_path, threads):
    subs = cfg["subchannels"]
    budget = cfg["budget"]
    snr = cfg["snr"]
    mc_cfg = cfg["mc"]
    alloc = designs.palloc_highsnr(subs, budget)
    banks = designs._Banks(subs, snr, mc_cfg)       # one draw for the search and both columns
    numeric = designs.palloc_numeric(subs, budget, snr, mc_cfg, banks) if cfg["numeric"] else None
    if numeric is None:
        (cap_high,) = designs.subchannel_capacities(subs, [alloc.p], snr, mc_cfg, banks)
        p_num = cap_num = [math.nan] * len(subs)     # placeholders: the columns read nan
    else:
        p_num = numeric.p
        cap_high, cap_num = designs.subchannel_capacities(subs, [alloc.p, p_num], snr, mc_cfg,
                                                          banks)
    rows = [[k, alloc.p[k], p_num[k], cap_high[k], cap_high[k] / LN2, cap_num[k], cap_num[k] / LN2]
            for k in range(len(subs))]
    flagged = bool(numeric is not None and numeric.flagged)
    meta = ["flagged: MC noise is comparable to the objective differences"] if flagged else []
    _write_csv(out_path, "palloc", seed, digest, PALLOC_HEADER, rows, meta)
    lines = [f"high-snr allocation: {np.array2string(alloc.p, precision=6)}"]
    if numeric is not None:
        lines.append(f"numeric allocation:  {np.array2string(numeric.p, precision=6)}")
    lines.append(f"capacity (high-snr design): {sum(cap_high):.6f} nats "
                 f"= {sum(cap_high) / LN2:.6f} bits")
    if numeric is not None:
        lines.append(f"capacity (numeric design):  {sum(cap_num):.6f} nats "
                     f"= {sum(cap_num) / LN2:.6f} bits")
    _report(out_path, "\n".join(lines))
    return EXIT_FLAGGED if flagged else EXIT_OK


PRECODE_HEADER = ["method", "objective", "iterations", "stationarity_residual",
                  "probes_tested", "probes_worse", "best_probe_objective",
                  "restarts", "restart_spread", "max_angle_rad"]


def cmd_precode(cfg, seed, digest, out_path, threads):
    c = cfg["constellation"]
    channel = cfg["channel"]
    p_total = cfg["p_total"]
    rng = np.random.default_rng(seed)
    precoder, report = designs.optimal_precoder(channel, c, p_total)
    objectives = [report.objective]
    for _ in range(cfg["restarts"]):
        z0 = _random_feasible_gram(rng, c.n_t, p_total)
        prec_k, rep_k = designs.optimal_precoder(channel, c, p_total, z0=z0)
        objectives.append(rep_k.objective)
        if rep_k.objective < report.objective:
            precoder, report = prec_k, rep_k
    spread = max(objectives) - min(objectives)
    probes = [designs.precoder_objective(_random_feasible_gram(rng, c.n_t, p_total), channel, c)
              for _ in range(cfg["probes"])]
    worse = sum(val >= report.objective - 1e-12 for val in probes)
    if worse != len(probes):
        raise NumericFailure("a random feasible probe beat the designed precoder")
    angles = report.principal_angles
    max_angle = math.nan if angles is None else float(np.max(angles))
    row = [report.method, report.objective, report.iterations, report.stationarity_residual,
           len(probes), worse, min(probes, default=math.nan), cfg["restarts"], spread, max_angle]
    text = (f"precoder:\n{np.array2string(precoder.matrix, precision=6)}\n"
            f"objective {report.objective:.12g}; restart spread {spread:.3e}; "
            f"{worse}/{len(probes)} random feasible probes are no better")
    if angles is not None:
        text += f"; max alignment angle {max_angle:.3e} rad"
    _write_csv(out_path, "precode", seed, digest, PRECODE_HEADER, [row])
    _report(out_path, text)
    return EXIT_OK


def _random_feasible_gram(rng, n, budget):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z = g @ g.conj().T
    return z * (budget / np.trace(z).real)


STCODE_HEADER = ["name", "r_min", "criterion", "d", "certified", "pe_mean", "pe_stderr"]


def cmd_stcode(cfg, seed, digest, out_path, threads):
    n_r = cfg["n_r"]
    names, codes = zip(*cfg["codebooks"])
    reports = [designs.st_criteria(code, n_r) for code in codes]
    confirm = cfg["confirm_pe"]
    pe = [None] * len(codes)
    meta = []
    if confirm is not None:
        pe = [mc.avg_all(confirm["snr"], CanonicalRayleigh(code.n_t, n_r), code, confirm["mc"],
                         threads=threads, kinds=("pe",))["pe"]
              for code in codes]
        meta.append(_samples_line(confirm["mc"], codes))
    rows = [[name, rep.r_min, rep.criterion, rep.d, rep.certified,
             est.mean if est else math.nan, est.std_error if est else math.nan]
            for name, rep, est in zip(names, reports, pe)]
    _write_csv(out_path, "stcode", seed, digest, STCODE_HEADER, rows, meta)
    # best first; sorted is stable, so tied books keep their config order
    order = sorted(range(len(codes)), key=functools.cmp_to_key(
        lambda i, k: -designs._st_rank(reports[i], reports[k])))
    parts = [names[order[0]]]
    for prev, cur in zip(order, order[1:]):
        tied = designs._st_rank(reports[prev], reports[cur]) == 0
        parts.append(("= " if tied else "> ") + names[cur])
    _report(out_path, "ranking: " + " ".join(parts))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "curve": cmd_curve,
    "offsets": cmd_offsets,
    "palloc": cmd_palloc,
    "precode": cmd_precode,
    "stcode": cmd_stcode,
}


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _seed(text: str) -> int:
    value = _integer(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(f"{value} is outside [0, 2^64)")
    return value


def _threads(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(prog="fadecap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", required=True, type=_seed,
                       help="MC seed, an integer in [0, 2^64) (required)")
        p.add_argument("--threads", type=_threads, default=1,
                       help="worker cap, a positive integer; does not change results")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.out is not None:
            _check_out(args.out)
        doc, digest = load_config(args.config)
        cfg = validate_command_config(args.command, doc, args.seed)
        return _COMMANDS[args.command](cfg, args.seed, digest, args.out, args.threads)
    except (ConfigError, OutError) as exc:      # ahead of ValueError: a ConfigError is one
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except (NumericFailure, designs.PrecoderConvergenceError, ValueError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
