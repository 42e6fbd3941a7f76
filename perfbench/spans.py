"""Spans and counters for the traced benchmark run.

The program has no tracing of its own, so the traced run wraps the public
names of each module at the boundary where a calling module looks them
up: every reference to the function in a loaded `spherecone` module is
replaced for the duration of the pass, and methods are replaced on their
class.  Each call records a span (name, start, end, parent span,
invocation) in memory; counters are taken from the call's arguments and
result.  A name that no longer exists is reported as absent, and so is
a counter that can no longer read its call; neither stops the run.

`PER_LAYER` lists every per-layer metric with the end-to-end metric and
workload it should move, so that later changes can cite them by name.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# the program's quantile clamps: spheremap._U_CAP caps the chi-radius
# input, finance._U_FLOOR floors the inverse-normal input
SAT_HIGH = 1.0 - 2.0**-32
SAT_LOW = 2.0**-33

CLI_COMMANDS = ("table", "trial-integral", "points", "wce", "rms-wce",
                "strata")
GENERATORS = ("mc", "sobol_inverse_normal", "sphere_normal")

# name: (unit, better, the end-to-end metric and workload it should move);
# items_per_s is paths/s on price-table, sphere points/s on trial-s15,
# kernel pairs/s on wce-large and draws/s on strata
_PRICE = "wall_s and items_per_s on price-table"
PER_LAYER = {
    "lds.init_s": ("s", "lower", _PRICE + "; nothing on trial-s15 or "
                   "wce-large"),
    "lds.init_count": ("count", "lower", _PRICE),
    "lds.init_unique_frac": ("ratio", "higher", _PRICE),
    "lds.take_s": ("s", "lower", "wall_s on trial-s15 and price-table"),
    "lds.take_points": ("count", "lower", "wall_s on trial-s15 and "
                        "price-table"),
    "specfun.betaincinv_s": ("s", "lower", "items_per_s on trial-s15, and "
                             "on price-table through the sphere columns"),
    "specfun.betaincinv_values": ("count", "lower", "items_per_s on "
                                  "trial-s15"),
    "specfun.chi_quantile_s": ("s", "lower", _PRICE),
    "specfun.ndtri_s": ("s", "lower", _PRICE),
    "specfun.gamma_s": ("s", "lower", "wall_s on strata"),
    "specfun.betainc_s": ("s", "lower", "wall_s on strata"),
    "specfun.values_per_call": ("count", "higher", "items_per_s on strata"),
    "specfun.saturated_values": ("count", "lower", "numeric health"),
    "spheremap.map_self_s": ("s", "lower", "wall_s on trial-s15, and on "
                             "price-table through the sphere columns"),
    "spheremap.map_coords": ("count", "lower", "wall_s on trial-s15 and "
                             "price-table"),
    "spheremap.lift_self_s": ("s", "lower", _PRICE),
    "spheremap.sample_s": ("s", "lower", "wall_s on strata"),
    "spheremap.sample_points": ("count", "lower", "wall_s on strata"),
    "spheremap.partition_s": ("s", "lower", "wall_s on strata"),
    **{f"wce.nakagami_{k}": (u, "lower", "items_per_s on wce-large, and "
                             "on strata through the call count")
       for k, u in (("s", "s"), ("calls", "count"), ("pairs", "count"))},
    "wce.pdist_s": ("s", "lower", "wall_s on wce-large"),
    "wce.fixed_dirs_s": ("s", "lower", "wall_s on wce-large"),
    "wce.peak_alloc_mb": ("MB", "lower", "peak_rss_mb on wce-large"),
    "wce.formula_s": ("s", "lower", "wall_s on strata"),
    "wce.cancel_ratio": ("ratio", "lower", "numeric health, guarding "
                         "failed invocations on wce-large"),
    "wce.clamps": ("count", "lower", "numeric health, guarding failed "
                   "invocations on wce-large"),
    **{f"finance.normal_vectors_s.{g}": ("s", "lower", _PRICE)
       for g in GENERATORS},
    "finance.normal_vectors_unique_frac": ("ratio", "higher", _PRICE),
    "finance.payoff_self_s": ("s", "lower", _PRICE),
    "finance.transform_s": ("s", "lower", _PRICE),
    "finance.z_peak_mb": ("MB", "lower", "peak_rss_mb on price-table"),
    **{f"cli.self_s.{c}": ("s", "lower", "wall_s on every workload, most "
                           "on wce-large") for c in CLI_COMMANDS},
    **{f"cli.csv_bytes.{c}": ("B", "lower", "wall_s on every workload, "
                              "most on wce-large") for c in CLI_COMMANDS},
    "trace.overhead_s": ("s", "lower", "none: traced pass minus the mean "
                         "of the untraced ones"),
    "trace.cover_frac": ("ratio", "higher", "none: share of the traced "
                         "pass inside non-cli layer spans"),
    "trace.absent_names": ("count", "lower", "none: wrapped names missing "
                           "from the program or whose counters cannot "
                           "read the call"),
}


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, invocation]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.keys = defaultdict(set)
        self.unreadable = set()    # spans whose counters failed
        self.invocation = 0
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.invocation])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        return self.spans[idx][2] - self.spans[idx][1]

    def wrap(self, name, fn, count=None, memory=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            own_tracemalloc = memory and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.close(idx)
                if own_tracemalloc:
                    peak = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                    tracer.peak("wce.peak_alloc_mb", peak)
            if count is not None:
                try:
                    count(tracer, _Call(fn, args, kwargs), result, dur)
                except (AttributeError, KeyError, TypeError, ValueError):
                    # the program changed the call's signature or result
                    tracer.unreadable.add(name)
            return result
        return wrapper

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def metrics(self, wall, overhead, absent):
        n = len(self.spans)
        child = [0.0] * n
        busy = defaultdict(float)
        own = defaultdict(float)
        covered = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - child[i]
            layer = name.split(".")[0]
            if layer != "cli" and (parent is None or self.spans[parent][0]
                                   .startswith("cli.")):
                covered += end - start
        c, mx = self.counts, self.maxima

        def frac(num, den):
            return num / den if den else 0.0

        out = {
            "lds.init_s": busy["lds.init"],
            "lds.init_count": c["lds.init_count"],
            "lds.init_unique_frac": frac(len(self.keys["lds.init"]),
                                         c["lds.init_count"]),
            "lds.take_s": busy["lds.take"],
            "lds.take_points": c["lds.take_points"],
            "specfun.betaincinv_s": busy["specfun.betaincinv"],
            "specfun.betaincinv_values": c["specfun.betaincinv_values"],
            "specfun.chi_quantile_s": busy["specfun.chi_quantile"],
            "specfun.ndtri_s": busy["specfun.ndtri"],
            "specfun.gamma_s": busy["specfun.gamma"],
            "specfun.betainc_s": busy["specfun.betainc"],
            "specfun.values_per_call": frac(c["specfun.values"],
                                            c["specfun.calls"]),
            "specfun.saturated_values": c["specfun.saturated_values"],
            "spheremap.map_self_s": own["spheremap.map"],
            "spheremap.map_coords": c["spheremap.map_coords"],
            "spheremap.lift_self_s": own["spheremap.lift"],
            "spheremap.sample_s": busy["spheremap.sample"],
            "spheremap.sample_points": c["spheremap.sample_points"],
            "spheremap.partition_s": busy["spheremap.partition"],
            "wce.nakagami_s": busy["wce.nakagami"],
            "wce.nakagami_calls": c["wce.nakagami_calls"],
            "wce.nakagami_pairs": c["wce.nakagami_pairs"],
            "wce.pdist_s": busy["wce.pdist"],
            "wce.fixed_dirs_s": busy["wce.fixed_dirs"],
            "wce.peak_alloc_mb": mx["wce.peak_alloc_mb"],
            "wce.formula_s": busy["wce.formula"],
            "wce.cancel_ratio": mx["wce.cancel_ratio"],
            "wce.clamps": c["wce.clamps"],
            "finance.normal_vectors_unique_frac": frac(
                len(self.keys["finance.normal_vectors"]),
                c["finance.normal_vectors_count"]),
            "finance.payoff_self_s": own["finance.payoff"],
            "finance.transform_s": busy["finance.transform"],
            "finance.z_peak_mb": mx["finance.z_peak_mb"],
            "trace.overhead_s": overhead,
            "trace.cover_frac": frac(covered, wall),
            "trace.absent_names": float(len(absent) + len(self.unreadable)),
        }
        for g in GENERATORS:
            out[f"finance.normal_vectors_s.{g}"] = c[f"finance.nv_s.{g}"]
        for cmd in CLI_COMMANDS:
            out[f"cli.self_s.{cmd}"] = own[f"cli.{cmd}"]
            out[f"cli.csv_bytes.{cmd}"] = c[f"cli.csv_bytes.{cmd}"]
        shares = defaultdict(float)
        for name, value in own.items():
            shares[name.split(".")[0]] += value / wall if wall else 0.0
        return out, dict(shares)


class _Call:
    """Arguments of one wrapped call, looked up by parameter name."""

    def __init__(self, fn, args, kwargs):
        self.fn, self.args, self.kwargs = fn, args, kwargs

    def __getitem__(self, name):
        bound = inspect.signature(self.fn).bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments[name]


def _specfun(values_key=None, saturated=None):
    def count(t, call, result, dur):
        size = int(np.size(result))
        t.counts["specfun.calls"] += 1
        t.counts["specfun.values"] += size
        if values_key:
            t.counts[values_key] += size
        if saturated is not None:
            t.counts["specfun.saturated_values"] += saturated(
                np.asarray(call["u"]))
    return count


def _sat_chi(u):
    return int(np.count_nonzero(u >= SAT_HIGH))


def _sat_normal(u):
    return int(np.count_nonzero((u <= SAT_LOW) | (u >= 1.0 - SAT_LOW)))


def _count_init(t, call, result, dur):
    t.counts["lds.init_count"] += 1
    table = call["table"]
    t.keys["lds.init"].add((int(call["dimension"]),
                            None if table is None else id(table)))


def _count_take(t, call, result, dur):
    t.counts["lds.take_points"] += np.shape(result)[0]


def _count_map(t, call, result, dur):
    t.counts["spheremap.map_coords"] += np.size(call["x"])


def _count_sample(t, call, result, dur):
    t.counts["spheremap.sample_points"] += len(result)


def _count_nakagami(t, call, result, dur):
    t.counts["wce.nakagami_calls"] += 1
    t.counts["wce.nakagami_pairs"] += float(result.n_points) ** 2
    raw = result.double_sum_term - result.single_sum_term
    if raw < 0.0:
        t.counts["wce.clamps"] += 1
    if raw != 0.0:
        t.peak("wce.cancel_ratio", abs(result.W_K / raw))


def _count_normal_vectors(t, call, result, dur):
    gen = call["generator"]
    t.counts["finance.normal_vectors_count"] += 1
    t.counts[f"finance.nv_s.{gen}"] += dur
    t.keys["finance.normal_vectors"].add(
        (gen, call["d"], call["n_points"], call["n_replicates"],
         call["seed"]))
    t.peak("finance.z_peak_mb", result.nbytes / 1e6)


# (module, attribute, span name, counter, track memory)
TARGETS = [
    ("lds", "SobolStream.__init__", "lds.init", _count_init, False),
    ("lds", "SobolStream.take", "lds.take", _count_take, False),
    ("specfun", "inv_reg_beta_symmetric", "specfun.betaincinv",
     _specfun("specfun.betaincinv_values"), False),
    ("specfun", "chi_quantile", "specfun.chi_quantile",
     _specfun(saturated=_sat_chi), False),
    ("specfun", "inv_normal_cdf", "specfun.ndtri",
     _specfun(saturated=_sat_normal), False),
    ("specfun", "reg_gamma_p", "specfun.gamma", _specfun(), False),
    ("specfun", "reg_gamma_q", "specfun.gamma", _specfun(), False),
    ("specfun", "inv_reg_gamma_p", "specfun.gamma", _specfun(), False),
    ("specfun", "inv_reg_gamma_q", "specfun.gamma", _specfun(), False),
    ("specfun", "reg_beta_i", "specfun.betainc", _specfun(), False),
    ("spheremap", "map_to_sphere", "spheremap.map", _count_map, False),
    ("spheremap", "lift_to_space", "spheremap.lift", None, False),
    ("spheremap", "stratified_sample", "spheremap.sample", _count_sample,
     False),
    ("spheremap", "equal_area_partition_s2", "spheremap.partition", None,
     False),
    ("spheremap", "radial_shells", "spheremap.partition", None, False),
    ("wce", "wce_nakagami", "wce.nakagami", _count_nakagami, True),
    ("wce", "pdist", "wce.pdist", None, False),
    ("wce", "rms_wce_fixed_directions", "wce.fixed_dirs", None, True),
    ("wce", "stratified_expected_wce_sq", "wce.formula", None, True),
    ("finance", "normal_vectors", "finance.normal_vectors",
     _count_normal_vectors, False),
    ("finance", "_discounted_payoffs", "finance.payoff", None, False),
    ("finance", "brownian_transform", "finance.transform", None, False),
    ("finance", "price_option", "finance.price", None, False),
    ("finance", "experiment_table", "finance.table", None, False),
]


@contextlib.contextmanager
def installed(tracer, targets=TARGETS, package="spherecone"):
    """Wrap every target for the duration of the block; yields the list
    of targets that do not exist in the loaded program."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package
                                     or name.startswith(package + "."))]
    patches, absent = [], []
    try:
        for module, attr, name, count, memory in targets:
            owner = sys.modules.get(f"{package}.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if path and isinstance(owner, type):
                orig = vars(owner).get(leaf)
                holders = [owner]
            else:
                orig = getattr(owner, leaf, None) if not path else None
                holders = [m for m in modules
                           if any(v is orig for v in vars(m).values())]
            if not callable(orig):
                absent.append(f"{module}.{attr}")
                continue
            wrapper = tracer.wrap(name, orig, count, memory)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        patches.append((holder, key, value))
                        setattr(holder, key, wrapper)
        yield absent
    finally:
        for holder, key, value in reversed(patches):
            setattr(holder, key, value)
