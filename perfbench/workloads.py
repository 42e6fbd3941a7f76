"""The benchmark's workloads: the CLI invocations of one pass, the work
they represent, and the checks on their outputs.

Every check uses the tolerances of the acceptance scorecard
(tests/test_acceptance.py); the reference values below are copied from
it so that the benchmark keeps judging later versions of the program by
the same numbers.  A check returns one list of failure messages per
invocation of the pass; an empty list means the invocation passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re

# scorecard references (tests/test_acceptance.py): PRICE_REFERENCE for
# the asian option at N = 2^15, the standard errors of the five pricing
# columns (mc, sobol&std, sobol&pca, sphere&std, sphere&pca), and
# TRIAL_REFERENCE, the error magnitudes of the S^15 trial integral with
# the inverse-beta map
PRICE_REFERENCE = [4.2e-2, 1.4e-2, 5.8e-3, 1.5e-2, 5.6e-3]
TRIAL_REFERENCE = {
    1024: 1.95e-2, 4096: 5.67e-3, 16384: 3.82e-3,
    65536: 8.89e-4, 262144: 1.25e-4,
}
MAGNITUDE_RATIO = 5.0      # criteria 7 and 9c
SLOPE_TARGET = -4.0 / 3.0  # criterion 8
SLOPE_TOL = 0.15
Z_MAX = 3.0                # empirical mean vs formula, in standard errors

PRICE_N = 32768
PRICE_REPS = 128           # the CLI's fixed replicate count for `table`
PRICE_COLUMNS = ["mc", "sobol_standard", "sobol_pca", "sphere_standard",
                 "sphere_pca"]
TRIAL_GENS = ("inverse_beta", "inverse_normal")
WCE_SIZES = (2**11, 2**12, 2**13)
KERNEL = ["--mu", "1.5", "--A", "1.5", "--B", "3"]
STRATA_M = (64, 256, 1024, 4096)
STRATA_DRAW_M = (16, 64)
STRATA_DRAWS = 200
_SLOPE_LINE = re.compile(r"log-log slope of formula vs N:\s*(\S+)")


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def _finite_positive(value):
    return math.isfinite(value) and value > 0.0


class Workload:
    name = ""
    default_seed = 0
    work_unit = ""   # what `work` counts, named as the throughput
    work = 0         # units of work in one pass
    replicates = None

    def commands(self, seed, workdir):
        """The argv lists of one pass, in order."""
        raise NotImplementedError

    def check(self, outputs):
        """Failure messages per invocation; outputs are
        (argv, exit code, stdout, stderr) in command order."""
        raise NotImplementedError


class PriceTable(Workload):
    name = "price-table"
    default_seed = 21
    work_unit = "paths_per_s"
    work = len(PRICE_COLUMNS) * PRICE_N
    replicates = PRICE_REPS

    def commands(self, seed, workdir):
        return [["table", "--kind", "asian", "--n-list", str(PRICE_N),
                 "--seed", str(seed)]]

    def check(self, outputs):
        return [check_price(outputs[0][2])]


def check_price(stdout):
    header, rows = _csv_rows(stdout)
    if header != ["N"] + PRICE_COLUMNS or [len(r) for r in rows] != [6]:
        return [f"unexpected table layout {header!r}, {rows!r}"]
    row = [float(v) for v in rows[0]]
    if row[0] != PRICE_N:
        return [f"row N={row[0]}, want {PRICE_N}"]
    se = row[1:]
    fails = []
    for col, value, ref in zip(PRICE_COLUMNS, se, PRICE_REFERENCE):
        if not _finite_positive(value):
            fails.append(f"{col}: standard error {value}")
        elif max(value / ref, ref / value) > MAGNITUDE_RATIO:
            fails.append(f"{col}: standard error {value:.3g} not within "
                         f"{MAGNITUDE_RATIO}x of {ref:.3g}")
    if not se[2] < se[1] < se[0]:
        fails.append("want sobol_pca < sobol_standard < mc, got "
                     f"{se[2]:.3g}, {se[1]:.3g}, {se[0]:.3g}")
    return fails


class TrialS15(Workload):
    name = "trial-s15"
    default_seed = 11
    work_unit = "sphere_points_per_s"
    work = len(TRIAL_GENS) * sum(TRIAL_REFERENCE)

    def commands(self, seed, workdir):
        return [["trial-integral", "--dim", "16", "--n-list",
                 ",".join(map(str, TRIAL_REFERENCE)),
                 "--gen", ",".join(TRIAL_GENS), "--seed", str(seed)]]

    def check(self, outputs):
        return [check_trial(outputs[0][2])]


def check_trial(stdout):
    header, rows = _csv_rows(stdout)
    if header != ["generator", "N", "abs_error"]:
        return [f"unexpected trial-integral header {header!r}"]
    errors = {(gen, int(n)): float(e) for gen, n, e in rows}
    fails = []
    for gen in TRIAL_GENS:
        for n, ref in TRIAL_REFERENCE.items():
            err = errors.get((gen, n))
            if err is None or not math.isfinite(err) or err < 0.0:
                fails.append(f"{gen} N={n}: error {err}")
            elif gen == "inverse_beta" and err > MAGNITUDE_RATIO * ref:
                fails.append(f"inverse_beta N={n}: error {err:.3g} above "
                             f"{MAGNITUDE_RATIO}x reference {ref:.3g}")
    return fails


class WceLarge(Workload):
    name = "wce-large"
    default_seed = 1
    work_unit = "kernel_pairs_per_s"
    work = sum(n * n for n in WCE_SIZES)

    def commands(self, seed, workdir):
        cmds = []
        for n in WCE_SIZES:
            path = os.path.join(workdir, f"points-{n}.csv")
            cmds.append(["points", "--dim", "3", "--n", str(n), "--gen",
                         "sphere", "--scramble", "--seed", str(seed),
                         "--output", path])
            cmds.append(["wce", "--input", path, *KERNEL])
        cmds.append(["rms-wce", *KERNEL, "--N", str(WCE_SIZES[-1]),
                     "--input", path])
        return cmds

    def check(self, outputs):
        fails = [[] for _ in outputs]
        iid = None
        try:
            iid = float(json.loads(outputs[-1][2])["iid_constant"])
            fixed = float(json.loads(outputs[-1][2])
                          ["fixed_directions_expected_wce_sq"])
            if not (_finite_positive(iid) and _finite_positive(fixed)):
                fails[-1].append(f"rms-wce: constants {iid}, {fixed}")
                iid = None
        except (ValueError, KeyError, TypeError) as exc:
            fails[-1].append(f"rms-wce: unreadable output ({exc})")
        for i, n in enumerate(WCE_SIZES):
            fails[2 * i + 1] = check_wce(outputs[2 * i + 1][2], n, iid)
        return fails


def check_wce(stdout, n, iid_constant):
    try:
        rep = json.loads(stdout)
        wce = float(rep["wce"])
        raw = float(rep["double_sum_term"]) - float(rep["single_sum_term"])
        n_points = int(rep["n_points"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"wce N={n}: unreadable output ({exc})"]
    fails = []
    if n_points != n:
        fails.append(f"wce N={n}: n_points {n_points}")
    if not raw >= 0.0:
        fails.append(f"wce N={n}: raw wce^2 {raw} is negative")
    if iid_constant is None:
        fails.append(f"wce N={n}: no i.i.d. constant to compare with")
    elif not (math.isfinite(wce) and wce < math.sqrt(iid_constant / n)):
        fails.append(f"wce N={n}: wce {wce} not below the i.i.d. rms "
                     f"{math.sqrt(iid_constant / n):.3g}")
    return fails


class Strata(Workload):
    name = "strata"
    default_seed = 3
    work_unit = "draws_per_s"
    work = len(STRATA_DRAW_M) * STRATA_DRAWS
    replicates = STRATA_DRAWS

    def commands(self, seed, workdir):
        base = ["strata", *KERNEL, "--seed", str(seed)]
        return [base + ["--M-list", ",".join(map(str, STRATA_M)),
                        "--draws", "0"],
                base + ["--M-list", ",".join(map(str, STRATA_DRAW_M)),
                        "--draws", str(STRATA_DRAWS)]]

    def check(self, outputs):
        return [check_strata_slope(outputs[0][2], outputs[0][3]),
                check_strata_draws(outputs[1][2])]


def _strata_rows(stdout, want_m, columns):
    header, rows = _csv_rows(stdout)
    if header != columns:
        return None, [f"unexpected strata header {header!r}"]
    table = [dict(zip(header, map(float, row))) for row in rows]
    if [int(r["M"]) for r in table] != list(want_m):
        return None, [f"strata rows for M={[r['M'] for r in table]}"]
    return table, []


def check_strata_slope(stdout, stderr):
    table, fails = _strata_rows(stdout, STRATA_M, ["M", "K", "N", "formula"])
    if table is None:
        return fails
    fails = [f"M={int(r['M'])}: formula {r['formula']}"
             for r in table if not _finite_positive(r["formula"])]
    match = _SLOPE_LINE.search(stderr)
    if match is None:
        return fails + ["no slope line on stderr"]
    slope = float(match.group(1))
    if not abs(slope - SLOPE_TARGET) <= SLOPE_TOL:
        fails.append(f"slope {slope} not within {SLOPE_TARGET:.4f} "
                     f"+- {SLOPE_TOL}")
    return fails


def check_strata_draws(stdout):
    table, fails = _strata_rows(
        stdout, STRATA_DRAW_M,
        ["M", "K", "N", "formula", "empirical", "empirical_se"])
    if table is None:
        return fails
    for r in table:
        if not _finite_positive(r["empirical_se"]):
            fails.append(f"M={int(r['M'])}: standard error "
                         f"{r['empirical_se']}")
            continue
        z = abs(r["empirical"] - r["formula"]) / r["empirical_se"]
        if not z <= Z_MAX:
            fails.append(f"M={int(r['M'])}: empirical mean "
                         f"{r['empirical']:.4g} is {z:.2f} SE from the "
                         f"formula {r['formula']:.4g}")
    return fails


WORKLOADS = {w.name: w for w in (PriceTable(), TrialS15(), WceLarge(),
                                 Strata())}
