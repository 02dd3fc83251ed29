"""Output checks that hold for any seed.

Each check returns a list of problems; an empty list means the invocation
passed.  A failed check counts the invocation as failed.
"""

from __future__ import annotations

import csv
import io
import math

OK_EXIT_CODES = (0, 4)       # success, or a flagged low-confidence result
STDERR_Z = 6.0               # MC tolerance, in units of the combined standard error
SUM_TOL = 1e-9               # relative; the CSV keeps 12 significant digits
# A value printed with 12 significant digits is off by up to half a unit in
# its 12th digit, so a comparison of CSV values with each other or with an
# exact limit such as log M allows one unit (relative) on each side.
CSV_REL = 1e-11
# The numeric design's golden-section search stops once its bracket is
# narrower than SEARCH_TOL * budget, so it lands within half of that of the
# optimum on its own draw banks, and a closed-form split that falls closer
# to the optimum can beat it by up to 1/2 * K * (SEARCH_TOL * budget / 2)^2.
# K bounds |d^2 J / d delta^2| of the summed bank capacity along a power
# transfer near the optimum; on the palloc workload's subchannels it
# measures below 1 nat per unit power squared (seeds 1-3), and K_MAX leaves
# a wide margin over that.
SEARCH_TOL = 1e-3            # designs._coordinate_search default, fraction of the budget
K_MAX = 50.0                 # nats per unit power squared

FAMILY_SIZE = {"bpsk": 2, "qpsk": 4, "qam16": 16, "qam64": 64, "qam256": 256}


def parse_csv(text: str) -> list[dict[str, float]]:
    """Data rows of a fadecap CSV (``#`` metadata dropped) as floats."""
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return [{k: float(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(body))]


def check_exit(code: int | None) -> list[str]:
    if code not in OK_EXIT_CODES:
        return [f"exit code {code} not in {OK_EXIT_CODES}"]
    return []


def check_curve(rows: list[dict[str, float]], kind: str, m: int, points: int,
                bound_stderr: list[list[float]]) -> list[str]:
    """Bounds contain the MC mean within the combined MC error; the stderr
    is finite and positive; MI stays below log M and error rates are
    probabilities.  ``bound_stderr`` holds the [lower, upper] standard
    errors of the averaged bounds, one pair per row."""
    problems = []
    if len(rows) != points:
        problems.append(f"{len(rows)} rows, expected {points}")
    if len(bound_stderr) != len(rows):
        return problems + [f"{len(bound_stderr)} bound standard errors for {len(rows)} rows"]
    for row, (lb_se, ub_se) in zip(rows, bound_stderr):
        at = f"snr_db={row['snr_db']:g}"
        mean, se = row["mc_mean"], row["mc_stderr"]
        if not (math.isfinite(mean) and math.isfinite(se) and se > 0):
            problems.append(f"{at}: mc_mean {mean} / mc_stderr {se} not finite and positive")
            continue
        lo_tol = STDERR_Z * math.hypot(se, lb_se) + CSV_REL * (abs(mean) + abs(row["bound_lb"]))
        hi_tol = STDERR_Z * math.hypot(se, ub_se) + CSV_REL * (abs(mean) + abs(row["bound_ub"]))
        if not row["bound_lb"] - lo_tol <= mean <= row["bound_ub"] + hi_tol:
            problems.append(f"{at}: mc_mean {mean} outside [{row['bound_lb']}, "
                            f"{row['bound_ub']}] by more than {lo_tol:.3g} / {hi_tol:.3g}")
        if kind == "mi" and mean > math.log(m) + STDERR_Z * se + CSV_REL * abs(mean):
            problems.append(f"{at}: mi {mean} above log M = {math.log(m)}")
        if kind == "pe" and not 0.0 <= mean <= 1.0:
            problems.append(f"{at}: pe {mean} outside [0, 1]")
    return problems


def capacity_tol(budget: float) -> float:
    """How far (nats) the closed-form design's summed capacity may exceed
    the numeric design's before the search counts as having failed."""
    return 0.5 * K_MAX * (SEARCH_TOL * budget / 2.0) ** 2


def check_palloc(rows: list[dict[str, float]], budget: float, subchannels: int) -> list[str]:
    """Allocations are non-negative and use the budget; the numeric design
    is no worse than the closed form on the same draw banks."""
    problems = []
    if len(rows) != subchannels:
        problems.append(f"{len(rows)} rows, expected {subchannels}")
    for column in ("p_highsnr", "p_numeric"):
        p = [row[column] for row in rows]
        if any(not v >= 0.0 for v in p):
            problems.append(f"{column} has a negative or NaN entry: {p}")
        if abs(sum(p) - budget) > SUM_TOL * budget:
            problems.append(f"{column} sums to {sum(p)!r}, budget {budget!r}")
    high = sum(row["mi_highsnr_nats"] for row in rows)
    numeric = sum(row["mi_numeric_nats"] for row in rows)
    if not numeric >= high - capacity_tol(budget):
        problems.append(f"numeric design capacity {numeric!r} below closed form {high!r}")
    return problems


def check_output(command: str, doc: dict, code: int | None, text: str | None,
                 bound_stderr: list[list[float]]) -> list[str]:
    """All checks for one invocation; ``doc`` is the workload's parsed
    config and ``bound_stderr`` the child's record of the averaged bounds'
    standard errors."""
    problems = check_exit(code)
    if problems:
        return problems
    if text is None:
        return ["no CSV written"]
    try:
        return _check_rows(command, doc, parse_csv(text), bound_stderr)
    except (ValueError, KeyError) as exc:
        return [f"unparseable CSV: {exc!r}"]


def _check_rows(command: str, doc: dict, rows: list[dict[str, float]],
                bound_stderr: list[list[float]]) -> list[str]:
    if command == "curve":
        const = doc["constellation"]
        m = FAMILY_SIZE[const["family"]] ** const["n_t"]
        grid = doc["snr_db"]
        points = len(grid["points"]) if "points" in grid else \
            int(round((grid["stop"] - grid["start"]) / grid["step"])) + 1
        return check_curve(rows, doc["kind"], m, points, bound_stderr)
    if command == "palloc":
        return check_palloc(rows, float(doc["budget"]), len(doc["subchannels"]))
    return [f"no output check for command {command!r}"]
