"""Benchmark of the spherecone command line.

Runs one workload through `spherecone.cli.main(argv)` in this process,
one invocation at a time (a closed loop of one caller), checks every
output, and prints as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it is
a JSON report with the per-pass times, the failures and the provenance
of the run.

    python3 perfbench/run.py --workload price-table [--seed N]
                             [--seconds S] [--trace 0|1]

With --trace 0 the metrics are the end-to-end ones: the median wall
time of one pass, the set-up time (median of fresh processes that import
the program and load the direction-number table), the peak RSS of this
process and the work done per second.  With --trace 1 the run makes a
traced pass between two untraced ones and reports the per-layer metrics
of spans.PER_LAYER.  Run from any directory; the program is imported from
the `src` directory next to this one, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import resources
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "import spherecone.cli, spherecone.lds; "
         "spherecone.lds.SobolStream(1); print('ready', flush=True)")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "items_per_s": "1/s"}
# commands whose standard output is a CSV table unless --output is given
CSV_STDOUT = {"table", "trial-integral", "strata", "points"}


class BenchError(Exception):
    pass


def load_program():
    if not (SRC / "spherecone" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import spherecone
    import spherecone.cli
    import spherecone.lds
    if SRC.resolve() not in Path(spherecone.__file__).resolve().parents:
        raise BenchError(f"spherecone imported from {spherecone.__file__}")
    spherecone.lds.SobolStream(1)  # load the direction table, as PROBE does
    return spherecone


def setup_time():
    """Seconds from starting a fresh interpreter to the program ready."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise BenchError("set-up probe did not exit") from None
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    return ready - start


def csv_bytes(argv, stdout):
    size = sum(os.path.getsize(argv[argv.index(flag) + 1])
               for flag in ("--input", "--output") if flag in argv)
    if argv[0] in CSV_STDOUT and "--output" not in argv:
        size += len(stdout.encode())
    return size


def invoke(cli, argv, tracer=None):
    """One CLI call: (argv, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    idx = tracer.open(f"cli.{argv[0]}") if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv) or 0
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        if tracer:
            tracer.close(idx)
    if tracer:
        tracer.counts[f"cli.csv_bytes.{argv[0]}"] += csv_bytes(
            argv, out.getvalue())
    return argv, code, out.getvalue(), err.getvalue()


def run_pass(cli, workload, seed, workdir, tracer=None):
    outputs = []
    start = time.perf_counter()
    for argv in workload.commands(seed, workdir):
        if tracer:
            tracer.invocation += 1
        outputs.append(invoke(cli, argv, tracer))
    return time.perf_counter() - start, outputs


def judge(workload, outputs):
    """Failure messages of the failed invocations of one pass."""
    try:
        checks = workload.check(outputs)
    except (ValueError, KeyError, IndexError) as exc:
        checks = [[f"unreadable output ({exc!r})"] for _ in outputs]
    failed = []
    for (argv, code, _, err), msgs in zip(outputs, checks):
        if code != 0:
            msgs = [f"exit code {code}: {err.strip()[-300:]}"] + msgs
        if msgs:
            failed.append({"command": " ".join(argv), "failures": msgs})
    return failed


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def provenance(spherecone, workload, seed):
    import numpy
    import scipy
    dirfile = os.environ.get("SPHERECONE_DIRFILE")
    try:
        data = (Path(dirfile).read_bytes() if dirfile else
                resources.files("spherecone.data")
                .joinpath("direction-numbers.txt").read_bytes())
        digest = hashlib.sha256(data).hexdigest()
    except (OSError, ImportError) as exc:
        digest = f"unreadable ({exc})"
    return {"spherecone": getattr(spherecone, "__version__", "unknown"),
            "commit": git_commit(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "workload": workload.name, "seed": seed,
            "default_seed": workload.default_seed,
            "replicates": workload.replicates,
            "SPHERECONE_DIRFILE": dirfile,
            "dirtable_sha256": digest}


def measure(cli, workload, seed, work, seconds):
    """Untraced passes for about `seconds` (at least one): the pass
    times and every invocation's outputs."""
    walls, outputs = [], []
    start = time.perf_counter()
    while True:
        wall, outs = run_pass(cli, workload, seed, work)
        walls.append(wall)
        outputs.append(outs)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, outputs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the scorecard's seed)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure passes for about this long (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    try:
        spherecone = load_program()
        setup = [] if args.trace else [setup_time()
                                       for _ in range(SETUP_PROBES)]
    except (BenchError, ImportError, SyntaxError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report = {"workload": workload.name, "seed": seed, "trace": args.trace}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        if args.trace:
            # the traced pass sits between two untraced ones, so that the
            # first pass of the process, often the slowest, is not charged
            # to either side of the overhead
            first, before = run_pass(spherecone.cli, workload, seed, work)
            tracer = spans.Tracer()
            with spans.installed(tracer) as absent:
                traced, outs = run_pass(spherecone.cli, workload, seed, work,
                                        tracer)
            last, after = run_pass(spherecone.cli, workload, seed, work)
            walls, outputs = [first, traced, last], [before, outs, after]
            overhead = traced - (first + last) / 2
            values, shares = tracer.metrics(traced, overhead, absent)
            units = {name: spec[0] for name, spec in spans.PER_LAYER.items()}
            report.update(layer_self_share=shares, absent=absent,
                          unreadable_counters=sorted(tracer.unreadable))
        else:
            walls, outputs = measure(spherecone.cli, workload, seed, work,
                                     args.seconds)
            wall = statistics.median(walls)
            values = {
                "wall_s": wall,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "items_per_s": workload.work / wall,
            }
            units = END_TO_END
            report.update(setup_s_samples=setup)
            report[workload.work_unit] = values["items_per_s"]
    failed = [f for outs in outputs for f in judge(workload, outs)]
    attempted = sum(len(outs) for outs in outputs)
    report.update(pass_wall_s=walls, failed_frac=len(failed) / attempted,
                  failures=failed[:10],
                  provenance=provenance(spherecone, workload, seed))
    for item in failed[:10]:
        print(f"perfbench: FAILED {item['command']}: {item['failures']}",
              file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed),
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
