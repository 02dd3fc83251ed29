"""One fadecap CLI invocation, run by the benchmark in a fresh process.

    python3 perfbench/child.py MODE RESULT_JSON SRC_DIR -- <fadecap CLI arguments>

MODE is one of
  plain  run the command as the ``fadecap`` console script would;
  trace  the same, with every public module-level function of the package
         wrapped at run time so each call records a span in memory;
  probe  stop at the first compute call, to sample set-up time only.

The package is imported from SRC_DIR and is not edited.  Before exiting the
child writes RESULT_JSON: the CLI exit code, the CLOCK_MONOTONIC time of the
first compute call (the command function), its own CPU seconds and peak
RSS, the standard errors of the averaged bounds (which the CSV does not
carry, and which the output checks need), and in trace mode the recorded
spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import threading
import time

LAYERS = ("config", "model", "mc", "bounds", "asymptotics", "designs", "cli")

# Work counts derived from argument shapes only, so they repeat exactly.
# Each lambda takes the wrapped function's own parameter names.
COUNTERS = {
    "mc.kernel_stats": lambda received, noise, snr:
        received.shape[0] * noise.shape[1] * received.shape[1] ** 2,
    "bounds.avg_bounds": lambda kind, snr, model, c, cfg:
        cfg.channel_draws * c.m * (c.m - 1),
    "model.sample_channels": lambda model, n, rng: n,
}


class Tracer:
    """Keeps spans as [name, parent index, start, end, count] in memory.

    A call made on a worker thread with no open span of its own is parented
    to the innermost open span of the main thread, which is the call that
    submitted the work (``mc.avg_all`` for ``--threads`` > 1).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            count = counter(*args, **kwargs) if counter else 0
            span = [name, parent, time.perf_counter(), None, count]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced


def install_tracer(tracer: Tracer) -> None:
    """Wrap each public function defined in a layer module and rebind every
    reference to it held by a fadecap module, directly or as a dict value."""
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"fadecap.{layer}"]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "fadecap" and not mod_name.startswith("fadecap."):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]


def main(argv: list[str]) -> int:
    mode, result_path, src_dir = argv[0], argv[1], argv[2]
    if argv[3] != "--" or mode not in ("plain", "trace", "probe"):
        raise SystemExit("usage: child.py plain|trace|probe RESULT SRC -- ARGS...")
    cli_args = argv[4:]
    sys.path.insert(0, src_dir)
    import fadecap.cli as cli

    expected = os.path.join(os.path.abspath(src_dir), "fadecap")
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        raise SystemExit(f"imported fadecap from {cli.__file__}, not {expected}")

    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        install_tracer(tracer)
    started = []

    def mark_first_compute(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            started.append(time.monotonic())
            return 0 if mode == "probe" else fn(*args, **kwargs)
        return marked

    for command, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = mark_first_compute(fn)

    bounds = sys.modules["fadecap.bounds"]
    avg_bounds = bounds.avg_bounds
    bound_stderr = []

    @functools.wraps(avg_bounds)
    def recording_avg_bounds(*args, **kwargs):
        pair = avg_bounds(*args, **kwargs)
        bound_stderr.append([pair.lower.std_error, pair.upper.std_error])
        return pair

    bounds.avg_bounds = recording_avg_bounds

    code = cli.main(cli_args)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit": code,
        "first_compute": started[0] if started else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_kb": usage.ru_maxrss,
        "bound_stderr": bound_stderr,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
