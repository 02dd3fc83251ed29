"""fadecap benchmark: CLI workloads end to end, and per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  Each workload is one ``fadecap <command> --config <committed
config> --seed N`` invocation, started as a fresh child process
(``perfbench/child.py``) with BLAS pinned to one thread and ``--threads 1``,
so each timed child uses one core.  Children run one at a time, and each is
repeated until S seconds have passed; every figure is a median over the
repeats.

--trace 0  prints the end-to-end metrics: wall_ref and cpu_ref (the
           invocation's wall and CPU time in units of a fixed reference
           workload timed between invocations, see Reference), peak_rss_mb,
           and setup_s (seconds from process start to the first compute
           call; sampled on every invocation and on a few set-up-only
           probes).  Raw wall and CPU seconds are printed above the result.
--trace 1  alternates untraced and traced invocations.  In a traced child
           every public module-level function of the layers config, model,
           mc, bounds, asymptotics, designs and cli is wrapped at run time
           and records a span; the package itself is not edited.  Prints
           the per-layer metrics, the MC efficiency and the tracing
           overhead.

Every invocation's exit code and CSV are checked (checks.py); the CSVs of
one seed must be byte-identical across repeats, across traced and untraced
runs and, on the curve workloads, across --threads 1 and 2.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy  # noqa: E402  (after pinning BLAS threads)
import yaml  # noqa: E402

from checks import check_output, parse_csv  # noqa: E402
from child import LAYERS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-out")

# name -> fadecap command.  Why each was chosen is in BENCHMARK.json.  Every
# timed invocation runs with --threads 1; the curve workloads are rerun once
# with --threads 2 for the determinism check only.
WORKLOADS = {
    "curve-mi-qam16": "curve",
    "curve-pe-m256": "curve",
    "palloc-2sub": "palloc",
}

SETUP_PROBES = 3         # set-up-only invocations per untraced run
MIN_REPEATS = 3          # timed invocations (pairs when traced) per run
RUN_LIMIT_S = 150.0      # start no invocation after this; the run must end by 180 s


@dataclass
class Invocation:
    """One finished child process and what it reported."""

    mode: str
    threads: int
    wall_s: float
    exit_code: int
    result: dict
    csv_text: str | None
    problems: list[str]

    @property
    def setup_s(self):
        return self.result.get("setup_s")


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.command = WORKLOADS[workload]
        self.config = os.path.join(HERE, "configs", f"{workload}.yaml")
        with open(self.config, encoding="utf-8") as fh:
            self.doc = yaml.safe_load(fh)
        self.seed = seed
        self.workdir = workdir
        self.started = time.monotonic()
        self.invocations: list[Invocation] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def invoke(self, mode: str, threads: int = 1) -> Invocation:
        tag = f"{len(self.invocations):03d}"
        result_path = os.path.join(self.workdir, f"{tag}.json")
        csv_path = os.path.join(self.workdir, f"{tag}.csv")
        log_path = os.path.join(self.workdir, f"{tag}.log")
        argv = [sys.executable, os.path.join(HERE, "child.py"), mode, result_path, SRC, "--",
                self.command, "--config", self.config, "--seed", str(self.seed),
                "--threads", str(threads), "--out", csv_path]
        timeout = max(5.0, 175.0 - self.elapsed())
        with open(log_path, "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                exit_code = proc.wait()
            finally:
                killer.cancel()
                killer.join()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.monotonic() - start
        result, csv_text, problems = {}, None, []
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
            if result["first_compute"] is not None:
                result["setup_s"] = result["first_compute"] - start
        if result.get("exit") != exit_code:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                problems.append(f"child failed (exit {exit_code}): {fh.read()[-2000:]}")
        elif mode == "probe":
            if exit_code != 0 or result.get("setup_s") is None:
                problems.append(f"set-up probe failed with exit {exit_code}")
        else:
            if os.path.exists(csv_path):
                with open(csv_path, encoding="utf-8") as fh:
                    csv_text = fh.read()
            problems += check_output(self.command, self.doc, exit_code, csv_text,
                                     result.get("bound_stderr", []))
        inv = Invocation(mode, threads, wall, exit_code, result, csv_text, problems)
        self.invocations.append(inv)
        return inv

    def keep_going(self, seconds: float, done: int) -> bool:
        if self.elapsed() >= RUN_LIMIT_S or any(i.problems for i in self.invocations):
            return False
        return done < MIN_REPEATS or self.elapsed() < seconds

    def check_determinism(self) -> None:
        """CSVs of one seed must be byte-identical; a mismatch fails the
        invocation that differs from the first."""
        outputs = [i for i in self.invocations if i.mode != "probe" and i.csv_text is not None]
        for inv in outputs[1:]:
            if inv.csv_text != outputs[0].csv_text:
                inv.problems.append(f"CSV differs from the first run "
                                    f"(mode {inv.mode}, --threads {inv.threads})")


def median(values):
    return statistics.median(values) if values else 0.0


def union_length(intervals) -> float:
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    spans are [name, parent index, start, end, count] with names
    ``<layer>.<function>``.  Busy time (``.s``) is the union of a function's
    or layer's span intervals, so concurrent worker-thread calls are not
    double counted; self time is a span's duration minus the union of its
    direct children's intervals.  Shares are against the command's time
    after set-up (the ``cli.cmd_*`` span).
    """
    children: dict[int, list] = {}
    for name, parent, lo, hi, _ in spans:
        children.setdefault(parent, []).append((lo, hi))
    self_time = {layer: 0.0 for layer in LAYERS}
    self_by_name: dict[str, float] = {}
    by_name: dict[str, list] = {}
    by_layer: dict[str, list] = {}
    counts: dict[str, int] = {}
    calls: dict[str, int] = {}
    for index, (name, _, lo, hi, count) in enumerate(spans):
        layer = name.split(".", 1)[0]
        kids = [(max(a, lo), min(b, hi)) for a, b in children.get(index, ()) if b > lo and a < hi]
        own = (hi - lo) - union_length(kids)
        self_time[layer] += own
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        by_name.setdefault(name, []).append((lo, hi))
        by_layer.setdefault(layer, []).append((lo, hi))
        counts[name] = counts.get(name, 0) + count
        calls[name] = calls.get(name, 0) + 1

    def busy(name):
        return union_length(by_name.get(name, ()))

    command_s = union_length([iv for name, ivs in by_name.items()
                              if name.startswith("cli.cmd_") for iv in ivs])
    kernel_s = busy("mc.kernel_stats")
    bounds_s = busy("bounds.avg_bounds")
    palloc_s = busy("designs.palloc_numeric")
    logits = counts.get("mc.kernel_stats", 0)
    pairs = counts.get("bounds.avg_bounds", 0)
    metrics = {
        "command_s": command_s,
        "config.s": union_length(by_layer.get("config", ())),
        "model.sample_channels.s": busy("model.sample_channels"),
        "model.channels_drawn": counts.get("model.sample_channels", 0),
        "mc.kernel_stats.s": kernel_s,
        "mc.kernel_stats.calls": calls.get("mc.kernel_stats", 0),
        "mc.kernel_stats.share": kernel_s / command_s,
        "mc.logits": logits,
        "mc.logits_per_s": logits / kernel_s if kernel_s > 0 else 0.0,
        "mc.avg_all.self_s": self_by_name.get("mc.avg_all", 0.0),
        "bounds.avg_bounds.s": bounds_s,
        "bounds.avg_bounds.share": bounds_s / command_s,
        "bounds.pairs": pairs,
        "bounds.pairs_per_s": pairs / bounds_s if bounds_s > 0 else 0.0,
        "asymptotics.s": union_length(by_layer.get("asymptotics", ())),
        "designs.palloc_numeric.s": palloc_s,
        "designs.palloc_numeric.share": palloc_s / command_s,
        "designs.subchannel_capacities.s": busy("designs.subchannel_capacities"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    return metrics


PER_LAYER_UNITS = {
    "config.s": "s", "model.sample_channels.s": "s", "model.channels_drawn": "count",
    "mc.kernel_stats.s": "s", "mc.kernel_stats.calls": "count",
    "mc.kernel_stats.share": "fraction", "mc.logits": "count", "mc.logits_per_s": "1/s",
    "mc.avg_all.self_s": "s", "bounds.avg_bounds.s": "s", "bounds.avg_bounds.share": "fraction",
    "bounds.pairs": "count", "bounds.pairs_per_s": "1/s", "asymptotics.s": "s",
    "designs.palloc_numeric.s": "s", "designs.palloc_numeric.share": "fraction",
    "designs.subchannel_capacities.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def mc_efficiency(csv_text: str, wall_s: float) -> float:
    """1 / (sum over SNR points of mc_stderr^2 * wall_s); 0 without an MC curve."""
    rows = parse_csv(csv_text)
    if not rows or "mc_stderr" not in rows[0]:
        return 0.0
    return 1.0 / (sum(row["mc_stderr"] ** 2 for row in rows) * wall_s)


def environment() -> dict:
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg": os.getloadavg(),
        "commit": commit,
    }


class Reference:
    """A fixed NumPy workload timed in this process between invocations.

    It never calls fadecap, so a change to the package cannot move it; it
    only tracks how fast this machine runs at the moment.  On a shared host
    that speed drifts by tens of percent over minutes, and wall and CPU time
    are reported in units of this reference to cancel the drift.  It is
    shaped like the MC kernel's per-hypothesis loop (broadcast subtract,
    max-shift, exp, sum, log, small matmul) on one channel batch.
    """

    def __init__(self):
        rng = numpy.random.default_rng(0)
        self.g = rng.standard_normal((100, 100, 16))
        self.nsq = rng.random((100, 16, 16))
        self.points = rng.standard_normal((100, 16, 2))

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(12):
            for i in range(self.g.shape[2]):
                a = -self.nsq[:, i, None, :] - 2.0 * (self.g[:, :, i:i + 1] - self.g)
                a -= a.max(axis=2, keepdims=True)
                numpy.exp(a, out=a)
                numpy.log(a.sum(axis=2))
                a @ self.points
        return time.perf_counter() - start


def run_untraced(runner: Runner, seconds: float) -> dict:
    for _ in range(SETUP_PROBES):
        runner.invoke("probe")
    reference = Reference()
    refs = [reference.seconds()]
    timed = []
    while runner.keep_going(seconds, len(timed)):
        timed.append(runner.invoke("plain"))
        refs.append(reference.seconds())
    if runner.command == "curve" and not any(i.problems for i in runner.invocations):
        runner.invoke("plain", threads=2)
    wall = [i.wall_s for i in timed]
    cpu = [i.result.get("cpu_s", 0.0) for i in timed]
    # each invocation against the mean of the reference runs on either side
    local = [(a + b) / 2.0 for a, b in zip(refs, refs[1:])]
    setups = [i.setup_s for i in runner.invocations if i.setup_s is not None]
    print(f"raw medians: wall_s={median(wall):.4f} cpu_s={median(cpu):.4f} "
          f"reference_s={median(refs):.4f} over {len(timed)} invocations")
    return {
        "wall_ref": (median([w / r for w, r in zip(wall, local)]), "ref"),
        "cpu_ref": (median([c / r for c, r in zip(cpu, local)]), "ref"),
        "peak_rss_mb": (median([i.result.get("peak_rss_kb", 0) / 1024.0 for i in timed]), "MB"),
        "setup_s": (median(setups), "s"),
    }


def run_traced(runner: Runner, seconds: float) -> dict:
    runner.invoke("probe")      # warm the bytecode and file caches
    plain, traced = [], []
    while runner.keep_going(seconds, len(traced)):
        plain.append(runner.invoke("plain"))
        traced.append(runner.invoke("trace"))
    per_run = [layer_metrics(i.result["spans"]) for i in traced if "spans" in i.result]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [m[name] for m in per_run if name in m]
        metrics[name] = (median(values), unit)
    plain_wall = median([i.wall_s for i in plain])
    metrics["trace_overhead_frac"] = (median([i.wall_s for i in traced]) / plain_wall - 1.0
                                      if plain_wall else 0.0, "fraction")
    text = next((i.csv_text for i in plain if i.csv_text), None)
    metrics["mc_eff"] = (mc_efficiency(text, plain_wall) if text and plain_wall else 0.0, "1/s")
    if per_run:
        command = median([m["command_s"] for m in per_run])
        print(f"traced command time after set-up: {command:.4f} s; "
              f"traced process wall: {median([i.wall_s for i in traced]):.4f} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind through Runner.invoke, which kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "fadecap", "cli.py")):
        sys.stderr.write(f"error: no fadecap sources under {SRC}; "
                         "run from the root of a fadecap checkout\n")
        return 2

    print("env: " + json.dumps(environment()))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        metrics = (run_traced if args.trace else run_untraced)(runner, args.seconds)
        runner.check_determinism()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:     # another run still uses it
            pass

    for inv in runner.invocations:
        print(f"{inv.mode:5s} threads={inv.threads} exit={inv.exit_code} "
              f"wall={inv.wall_s:.4f}s setup={inv.setup_s or float('nan'):.4f}s"
              + (f"  FAILED: {'; '.join(inv.problems)}" if inv.problems else ""))
    attempted = len(runner.invocations)
    failed = sum(1 for inv in runner.invocations if inv.problems)
    print(f"workload={args.workload} seed={args.seed} failed_frac={failed / attempted:.4f} "
          f"({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
