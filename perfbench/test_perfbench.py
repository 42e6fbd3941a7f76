"""Tests of the benchmark itself: every output check rejects a corrupted
output, the tracer survives a missing name, and BENCHMARK.json matches
the metrics the benchmark emits.

    python3 -m pytest perfbench
"""

import json
import sys
import types
from pathlib import Path

import pytest

import run
import spans
import workloads as wl

PRICE_HEADER = "N,mc,sobol_standard,sobol_pca,sphere_standard,sphere_pca\r\n"
PRICE_OK = "32768,0.0508,0.0101,0.00195,0.0132,0.0104\r\n"
TRIAL_OK = ("generator,N,abs_error\r\n"
            + "".join(f"{g},{n},{e}\r\n" for g in wl.TRIAL_GENS
                      for n, e in zip(wl.TRIAL_REFERENCE,
                                      (6.2e-3, 1.8e-3, 1.8e-5, 1.6e-4,
                                       5.9e-5))))
WCE_OK = {2048: (0.00195, -0.00033285, -0.00033665),
          4096: (0.00117, -6.836e-05, -6.972e-05),
          8192: (0.000686, 2.3095e-06, 1.8383e-06)}
RMS_OK = json.dumps({"iid_constant": 0.3136,
                     "iid_expected_wce_sq": 3.83e-05,
                     "fixed_directions_expected_wce_sq": 1.82e-05})
STRATA_SLOPE_OK = ("M,K,N,formula\r\n64,8,512,1.099e-4\r\n"
                   "256,16,4096,6.978e-6\r\n1024,32,32768,4.396e-7\r\n"
                   "4096,64,262144,2.759e-8\r\n",
                   "# log-log slope of formula vs N: -1.328923\n")
STRATA_DRAWS_OK = ("M,K,N,formula,empirical,empirical_se\r\n"
                   "16,4,64,0.0017125,0.0016740,2.187e-05\r\n"
                   "64,8,512,0.00010990,0.00011034,8.745e-07\r\n")


def _out(stdout, stderr=""):
    return (["cmd"], 0, stdout, stderr)


def _wce_json(n, wce, double, single, n_points=None):
    return json.dumps({"wce": wce, "double_sum_term": double,
                       "single_sum_term": single, "W_K": 0.3328,
                       "n_points": n if n_points is None else n_points})


def _wce_outputs(replace=None):
    """Outputs of a wce-large pass; `replace` maps invocation index
    (points/wce pairs, then rms-wce last) to another stdout."""
    outs = []
    for n, terms in WCE_OK.items():
        outs += [_out(""), _out(_wce_json(n, *terms))]
    outs.append(_out(RMS_OK))
    for i, text in (replace or {}).items():
        outs[i] = _out(text)
    return outs


def _failed(checks):
    return [i for i, msgs in enumerate(checks) if msgs]


def test_price_checks():
    w = wl.WORKLOADS["price-table"]
    assert _failed(w.check([_out(PRICE_HEADER + PRICE_OK)])) == []
    inflated = PRICE_OK.replace("0.0132", "0.132")
    # ordering: sobol_pca must beat sobol_standard, which must beat mc
    swapped = PRICE_OK.replace("0.0101,0.00195", "0.00195,0.0101")
    for bad in (inflated, swapped, "32768,0.05,0.01\r\n"):
        assert bad != PRICE_OK
        assert _failed(w.check([_out(PRICE_HEADER + bad)])) == [0]
    assert _failed(w.check([_out("")])) == [0]


def test_trial_checks():
    w = wl.WORKLOADS["trial-s15"]
    assert _failed(w.check([_out(TRIAL_OK)])) == []
    bad = TRIAL_OK.replace("inverse_beta,262144,5.9e-05",
                           "inverse_beta,262144,0.0009")
    assert bad != TRIAL_OK
    assert _failed(w.check([_out(bad)])) == [0]
    missing = TRIAL_OK.replace("inverse_normal,1024,0.0062\r\n", "")
    assert missing != TRIAL_OK
    assert _failed(w.check([_out(missing)])) == [0]


def test_wce_checks():
    w = wl.WORKLOADS["wce-large"]
    assert _failed(w.check(_wce_outputs())) == []
    wrong_n = _wce_json(4096, *WCE_OK[4096], n_points=4095)
    assert _failed(w.check(_wce_outputs({3: wrong_n}))) == [3]
    too_big = _wce_json(8192, 0.01, *WCE_OK[8192][1:])
    assert _failed(w.check(_wce_outputs({5: too_big}))) == [5]
    negative = _wce_json(2048, 0.0, 1.0e-6, 2.0e-6)
    assert _failed(w.check(_wce_outputs({1: negative}))) == [1]
    # without the i.i.d. constant no wce can be judged
    assert _failed(w.check(_wce_outputs({6: "{}"}))) == [1, 3, 5, 6]


def test_strata_checks():
    w = wl.WORKLOADS["strata"]
    good = [_out(*STRATA_SLOPE_OK), _out(STRATA_DRAWS_OK)]
    assert _failed(w.check(good)) == []
    flat = (STRATA_SLOPE_OK[0],
            "# log-log slope of formula vs N: -1.000000\n")
    assert _failed(w.check([_out(*flat), good[1]])) == [0]
    assert _failed(w.check([_out(STRATA_SLOPE_OK[0]), good[1]])) == [0]
    # 0.0016125 is 4.6 standard errors below the formula
    off = STRATA_DRAWS_OK.replace("0.0016740", "0.0016125")
    assert _failed(w.check([good[0], _out(off)])) == [1]


def test_judge_counts_exit_codes():
    w = wl.WORKLOADS["trial-s15"]
    assert run.judge(w, [(["trial-integral"], 0, TRIAL_OK, "")]) == []
    failed = run.judge(w, [(["trial-integral"], 2, TRIAL_OK, "error")])
    assert len(failed) == 1 and "exit code 2" in failed[0]["failures"][0]


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def double(x):
        return 2 * x

    class Stream:
        def take(self, n):
            return list(range(n))

    mod.double, mod.Stream = double, Stream
    user.double = double  # `from .mod import double`
    for m in (pkg, mod, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return mod, user


def test_tracer_wraps_restores_and_survives_refactors(fake_package):
    mod, user = fake_package
    orig = mod.double

    def count(t, call, result, dur):
        t.counts["doubled"] += call["y"]  # no such parameter

    targets = [("mod", "double", "mod.double", count, False),
               ("mod", "Stream.take", "mod.take", None, False),
               ("mod", "gone", "mod.gone", None, False),
               ("mod", "Gone.take", "mod.gone_take", None, False)]
    tracer = spans.Tracer()
    with spans.installed(tracer, targets, package="fakepkg") as absent:
        assert user.double(3) == 6 and mod.double(1) == 2
        assert mod.Stream().take(2) == [0, 1]
    assert absent == ["mod.gone", "mod.Gone.take"]
    assert tracer.unreadable == {"mod.double"}
    assert mod.double is orig and user.double is orig
    assert [s[0] for s in tracer.spans] == ["mod.double", "mod.double",
                                            "mod.take"]


def test_tracer_self_time_and_cover():
    tracer = spans.Tracer()
    outer = tracer.open("cli.wce")
    inner = tracer.open("wce.nakagami")
    leaf = tracer.open("specfun.gamma")
    tracer.close(leaf)
    tracer.close(inner)
    tracer.close(outer)
    wall = tracer.spans[outer][2] - tracer.spans[outer][1]
    values, shares = tracer.metrics(wall, 0.0, [])
    nakagami = tracer.spans[inner][2] - tracer.spans[inner][1]
    assert values["wce.nakagami_s"] == pytest.approx(nakagami)
    assert values["trace.cover_frac"] == pytest.approx(nakagami / wall)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert set(values) == set(spans.PER_LAYER)


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {k: v[:2] for k, v in spans.PER_LAYER.items()}
