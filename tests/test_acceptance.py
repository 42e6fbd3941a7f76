"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (outside pytest's capture) so a
plain run shows the scorecard, then asserts.  Numbered to match the
project's acceptance list:

1. special functions against quadrature/bisection oracles
2. the cube-to-sphere map preserves cap measure
3. closed-form squared wce equals the sampled cone discrepancy
4. the single-origin-point wce closed case
5. expected-value laws against sampling / exhaustive permutation
6. Lambda_K residual decays faster than K^-2
7. trial-integral errors reproduce the reference magnitudes
8. stratified scaling slope -4/3 and the iid baseline slope -1
9. option-pricing columns: degenerate case, reference agreement,
   variance ordering and magnitudes
10. lifted scrambled Sobol' points: mean wce^2 slope -(1 + 1/d) and
    below the i.i.d. law
11. lifted scrambled Sobol' points: mean wce^2 below that of the
    inverse normal cdf of the same points
"""

import math

import numpy as np
import pytest
from scipy import integrate

from spherecone import finance, spheremap, wce
from spherecone.finance import OptionSpec, mc_reference_price
from spherecone.lds import SobolStream
from spherecone.specfun import (_U_FLOOR, inv_normal_cdf, inv_reg_gamma_p,
                                inv_reg_gamma_q, normal_cdf, reg_beta_i,
                                reg_gamma_p, reg_gamma_q, sphere_height)
from spherecone.spheremap import (SpacePoints, cap_measure,
                                  equal_area_partition_s2, lift_to_space,
                                  map_to_sphere, radial_shells,
                                  stratified_sample)
from spherecone.wce import (KernelParams, expected_wce_sq_permutation,
                            lambda_k, mc_cone_discrepancy_oracle,
                            rms_wce_fixed_directions, rms_wce_iid,
                            sphere_constants, stratified_expected_wce_sq,
                            w_kernel, wce_nakagami)

PARAM_SETS = [KernelParams(mu=1.5, A=1.5, B=3.0, d=2),
              KernelParams(mu=1.0, A=0.5, B=2.0, d=2),
              KernelParams(mu=3.0, A=2.0, B=2.5, d=2)]

# reference error magnitudes of the trial integral on S^15 with the
# inverse-beta construction, N = 2^10 .. 2^20
TRIAL_REFERENCE = {
    1024: 1.95e-2, 4096: 5.67e-3, 16384: 3.82e-3,
    65536: 8.89e-4, 262144: 1.25e-4, 1048576: 6.08e-5,
}

# reference standard errors of the five pricing columns
# (mc, sobol&std, sobol&pca, sphere&std, sphere&pca)
PRICE_REFERENCE = {
    "asian": {
        32768: [4.2e-2, 1.4e-2, 5.8e-3, 1.5e-2, 5.6e-3],
        524288: [1.3e-2, 2.1e-3, 3.8e-4, 1.7e-3, 3.1e-4],
    },
    "barrier": {
        32768: [2.0e-2, 1.8e-2, 1.2e-2, 2.1e-2, 1.1e-2],
        524288: [5.1e-3, 4.4e-3, 2.4e-3, 4.1e-3, 2.2e-3],
    },
    "digital": {
        32768: [3.0e-3, 1.5e-3, 6.1e-4, 1.5e-3, 6.1e-4],
        524288: [6.6e-4, 3.5e-4, 1.3e-4, 3.4e-4, 1.0e-4],
    },
}

OPTION_SPECS = {
    "asian": OptionSpec(100.0, 100.0, 1.0, 0.2, 0.05, 30),
    "barrier": OptionSpec(100.0, 100.0, 1.0, 0.2, 0.05, 30, kind="barrier",
                          barrier_b=130.0),
    "digital": OptionSpec(100.0, 100.0, 1.0, 0.2, 0.05, 30, kind="digital"),
}


def _report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"acceptance {num} [{name}]: {status}  {detail}")
    assert ok, f"acceptance {num} [{name}] failed: {detail}"


def _gamma_p_oracle(a, x):
    """P(a, x) by quadrature after t = x v^{1/a}, which removes the
    power-law endpoint so QUADPACK reaches full relative accuracy."""
    if x == 0.0:
        return 0.0
    val, _ = integrate.quad(lambda v: math.exp(-x * v**(1.0 / a)), 0.0, 1.0,
                            limit=200, epsabs=0.0, epsrel=1e-13)
    return x**a * val / (a * math.gamma(a))


def _beta_i_oracle(x, a, b):
    if x == 0.0:
        return 0.0
    val, _ = integrate.quad(
        lambda v: (1.0 - x * v**(1.0 / a))**(b - 1.0), 0.0, 1.0,
        limit=200, epsabs=0.0, epsrel=1e-13)
    lbeta = (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    return math.exp(a * math.log(x) - lbeta) * val / a


def _bisect(f, lo, hi, iters=120):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_special_functions(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    # 70 gamma points: P and Q against the quadrature oracle
    for _ in range(70):
        a = rng.uniform(0.4, 12.0)
        x = rng.uniform(0.0, 4.0) * a
        ref = _gamma_p_oracle(a, x)
        worst = max(worst, abs(reg_gamma_p(a, x) - ref) / max(ref, 1e-300))
        if x > 0:
            refq, _ = integrate.quad(
                lambda t: t**(a - 1.0) * math.exp(-t), x, np.inf,
                limit=200, epsabs=0.0, epsrel=1e-13)
            refq /= math.gamma(a)
            worst = max(worst, abs(reg_gamma_q(a, x) - refq) / refq)
    # 70 beta points against the quadrature oracle
    for _ in range(70):
        a = rng.uniform(0.5, 10.0)
        b = rng.uniform(0.5, 10.0)
        x = rng.uniform(0.01, 0.99)
        ref = _beta_i_oracle(x, a, b)
        worst = max(worst, abs(reg_beta_i(x, a, b) - ref) / max(ref, 1e-300))
    # 60 inverse points: bisection oracles plus round trips
    worst_rt = 0.0
    for _ in range(20):
        a = rng.uniform(0.4, 12.0)
        q = rng.uniform(1e-5, 1.0 - 1e-5)
        z = inv_reg_gamma_q(a, q)
        z_ref = _bisect(lambda t: q - reg_gamma_q(a, t), 0.0, 50.0 * a + 50)
        worst = max(worst, abs(z - z_ref) / max(abs(z_ref), 1e-12))
        worst_rt = max(worst_rt, abs(reg_gamma_q(a, z) - q) / q)
        p = rng.uniform(1e-5, 1.0 - 1e-5)
        zp = inv_reg_gamma_p(a, p)
        worst_rt = max(worst_rt, abs(reg_gamma_p(a, zp) - p) / p)
    for _ in range(20):
        a = rng.uniform(0.5, 10.0)
        y = rng.uniform(1e-5, 1.0 - 1e-5)
        # the root x of I_x(a, a) = y from the height t = 1 - 2x, taken
        # as scale^2 / (2 (1 + t)) for t >= 0 so that small x keeps its
        # relative accuracy
        t, scale = sphere_height(y, a)
        xinv = scale**2 / (2.0 * (1.0 + t)) if t >= 0 else (1.0 - t) / 2.0
        x_ref = _bisect(lambda t: reg_beta_i(t, a, a) - y, 0.0, 1.0)
        worst = max(worst, abs(xinv - x_ref) / max(abs(x_ref), 1e-12))
        worst_rt = max(worst_rt, abs(reg_beta_i(xinv, a, a) - y) / y)
    for _ in range(20):
        u = rng.uniform(1e-5, 1.0 - 1e-5)
        z = inv_normal_cdf(u)
        z_ref = _bisect(lambda t: normal_cdf(t) - u, -15.0, 15.0)
        worst = max(worst, abs(z - z_ref) / max(abs(z_ref), 1e-10))
        worst_rt = max(worst_rt, abs(normal_cdf(z) - u) / u)
    ok = worst < 1e-10 and worst_rt < 1e-10
    _report(capsys, 1, "special functions vs oracles", ok,
            f"worst oracle rel err {worst:.2e}, "
            f"worst round trip {worst_rt:.2e}")


def test_criterion_2_cap_measure_preserved(capsys):
    rng = np.random.default_rng(202)
    n = 1_000_000
    worst_ratio = 0.0
    ok = True
    for s in (2, 3, 15):
        y = map_to_sphere(rng.random((n, s)))
        for _ in range(50):
            z = rng.standard_normal(s + 1)
            z /= np.linalg.norm(z)
            t = rng.uniform(-1.0, 1.0)
            p = cap_measure(s, t)
            tol = 4.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)
            err = abs(float(np.mean(y @ z >= t)) - p)
            worst_ratio = max(worst_ratio, err / tol)
            ok = ok and err <= tol
    _report(capsys, 2, "cap measure preservation", ok,
            f"worst error/tolerance ratio {worst_ratio:.2f} "
            f"over 150 caps on S^2, S^3, S^15")


def test_criterion_3_cone_discrepancy_identity(capsys):
    rng = np.random.default_rng(303)
    worst_z = 0.0
    ok = True
    base = [(1.5, 1.5, 3.0), (1.0, 0.5, 2.0), (3.0, 2.0, 2.5)]
    for i in range(20):
        mu, A, B = base[i % 3]
        d = 1 + (i % 2)
        p = KernelParams(mu=mu, A=A, B=B, d=d)
        n = int(rng.integers(1, 65))
        dirs = rng.standard_normal((n, d + 1))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = np.sqrt((B / mu) * rng.gamma(mu, size=n))
        pts = SpacePoints(dirs, radii)
        closed = wce_nakagami(p, pts).wce**2
        est, se = mc_cone_discrepancy_oracle(p, pts, 1_000_000,
                                             seed=1000 + i)
        z = abs(est - closed) / se
        worst_z = max(worst_z, z)
        ok = ok and z <= 3.0
    _report(capsys, 3, "closed form equals cone discrepancy", ok,
            f"worst |z| {worst_z:.2f} over 20 configurations, 10^6 samples")


def test_criterion_4_origin_anchor(capsys):
    worst = 0.0
    for p in PARAM_SETS:
        got = wce_nakagami(p, np.zeros((1, p.d + 1))).wce
        expect = math.sqrt(w_kernel(p))
        worst = max(worst, abs(got - expect))
    _report(capsys, 4, "single origin point closed case", worst < 1e-12,
            f"worst abs err {worst:.2e}")


def test_criterion_5_expected_value_laws(capsys):
    p = PARAM_SETS[0]
    rng = np.random.default_rng(505)
    details = []
    ok = True

    def draw_points(n):
        dirs = rng.standard_normal((n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = np.sqrt((p.B / p.mu) * rng.gamma(p.mu, size=n))
        return SpacePoints(dirs, radii)

    # iid law
    n = 16
    vals = np.array([wce_nakagami(p, draw_points(n)).wce**2
                     for _ in range(500)])
    se = vals.std(ddof=1) / math.sqrt(500)
    z = abs(vals.mean() - rms_wce_iid(p) / n) / se
    details.append(f"iid z={z:.2f}")
    ok = ok and z <= 3.0

    # fixed directions law
    Y = rng.standard_normal((8, 3))
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    expect = rms_wce_fixed_directions(p, Y)
    vals = np.empty(500)
    for i in range(500):
        radii = np.sqrt((p.B / p.mu) * rng.gamma(p.mu, size=8))
        vals[i] = wce_nakagami(p, SpacePoints(Y, radii)).wce**2
    se = vals.std(ddof=1) / math.sqrt(500)
    z = abs(vals.mean() - expect) / se
    details.append(f"fixed-dirs z={z:.2f}")
    ok = ok and z <= 3.0

    # stratified law
    part = equal_area_partition_s2(16)
    shells = radial_shells(p.mu, p.B, 4)
    pred = stratified_expected_wce_sq(p, part, shells)
    vals = np.array([
        wce_nakagami(p, stratified_sample(part, shells, 9000 + i)).wce**2
        for i in range(500)])
    se = vals.std(ddof=1) / math.sqrt(500)
    z = abs(vals.mean() - pred.value) / se
    details.append(f"stratified z={z:.2f}")
    ok = ok and z <= 3.0

    # permutation law, exhaustively at N = 3
    from itertools import permutations
    Y3 = rng.standard_normal((3, 3))
    Y3 /= np.linalg.norm(Y3, axis=1, keepdims=True)
    radii3 = np.array([0.5, 1.2, 2.1])
    exact = float(np.mean([
        wce_nakagami(p, SpacePoints(Y3, radii3[list(perm)])).wce**2
        for perm in permutations(range(3))]))
    err = abs(expected_wce_sq_permutation(p, Y3, radii3) - exact)
    details.append(f"permutation err={err:.1e}")
    ok = ok and err <= 1e-10

    _report(capsys, 5, "expected-value laws", ok, ", ".join(details))


def test_criterion_6_lambda_asymptotics(capsys):
    ok = True
    details = []
    for mu, c in ((1.0, 2.0), (1.5, 3.0), (3.0, 1.5)):
        lim = float(reg_beta_i(1.0 / (1.0 + c), mu, mu))

        def residual(K):
            return lambda_k(mu, c, K) - lim - 1.0 / (2 * K) \
                - c**mu / (12.0 * K**2)

        r_lo, r_hi = residual(1024), residual(8192)
        # a residual already at roundoff scale is decay beyond any
        # power law; otherwise require the K^-2-or-faster ratio
        if abs(r_hi) < 1e-14:
            good = True
            details.append(f"(mu={mu},c={c}) residual {abs(r_hi):.1e}")
        else:
            ratio = abs(r_hi) / abs(r_lo)
            good = ratio < (1024.0 / 8192.0)**2 * 2.0
            details.append(f"(mu={mu},c={c}) ratio {ratio:.2e}")
        ok = ok and good
    _report(capsys, 6, "Lambda_K residual decay", ok, ", ".join(details))


def test_criterion_7_trial_integral(capsys):
    n_list = sorted(TRIAL_REFERENCE)
    errs = spheremap.trial_integral_errors(16, n_list, "inverse_beta",
                                         seed=11)
    ok = True
    worst = 0.0
    for n, e in zip(n_list, errs):
        ratio = e / TRIAL_REFERENCE[n]
        worst = max(worst, ratio)
        ok = ok and ratio <= 5.0
    _report(capsys, 7, "trial integral magnitudes", ok,
            f"worst error ratio {worst:.2f} over N=2^10..2^20 "
            f"(allowed 5.0)")


def test_criterion_8_stratified_scaling(capsys):
    p = PARAM_SETS[0]
    rows, slope = wce.strata_scaling(p, [64, 256, 1024, 4096], seed=3)
    ok = abs(slope - (-4.0 / 3.0)) <= 0.15

    # iid baseline: empirical slope of the mean squared wce
    rng = np.random.default_rng(808)
    n_list = [16, 32, 64, 128]
    means = []
    for n in n_list:
        vals = []
        for _ in range(200):
            dirs = rng.standard_normal((n, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = np.sqrt((p.B / p.mu) * rng.gamma(p.mu, size=n))
            vals.append(wce_nakagami(p, SpacePoints(dirs, radii)).wce**2)
        means.append(np.mean(vals))
    iid_slope = float(np.polyfit(np.log(n_list), np.log(means), 1)[0])
    ok = ok and abs(iid_slope - (-1.0)) <= 0.1
    _report(capsys, 8, "stratified scaling", ok,
            f"stratified slope {slope:.3f} (want -1.333 +- 0.15), "
            f"iid slope {iid_slope:.3f} (want -1 +- 0.1)")


def test_criterion_10_lifted_sobol_wce(capsys):
    # the paper's construction: 8 scrambled Sobol' replicates lifted to
    # R^(d+1) with a chi(d + 1) radius, scored with psi = chi(d + 1)
    # (mu = A = (d + 1)/2, B = d + 1); the mean wce^2 decays like
    # N^-(1 + 1/d), the order of Beck's spherical-cap bound, and stays
    # below the i.i.d. law c/N
    n_list = [2**m for m in range(6, 13)]
    ok = True
    slopes, worst = [], 0.0
    for d in (2, 3):
        p = KernelParams(mu=(d + 1) / 2.0, A=(d + 1) / 2.0, B=d + 1.0, d=d)
        mean_sq = np.zeros(len(n_list))
        for r in range(8):
            x = SobolStream(d + 1, seed=10, scramble=True,
                            replicate=r).take(n_list[-1])
            for i, n in enumerate(n_list):
                mean_sq[i] += wce_nakagami(p, lift_to_space(x[:n])).wce**2 / 8
        slope = float(np.polyfit(np.log(n_list), np.log(mean_sq), 1)[0])
        ratio = mean_sq * np.array(n_list) / rms_wce_iid(p)
        slopes.append(slope)
        worst = max(worst, float(ratio.max()))
        ok = ok and abs(slope + 1.0 + 1.0 / d) <= 0.1 and ratio.max() < 1.0
    _report(capsys, 10, "lifted Sobol' wce", ok,
            f"slope {slopes[0]:.3f} at d=2 (want -1.5 +- 0.1), "
            f"{slopes[1]:.3f} at d=3 (want -1.333 +- 0.1), "
            f"worst mean wce^2 / iid law {worst:.2f} (want < 1)")


def test_criterion_11_lift_beats_inverse_normal(capsys):
    # the paper's comparison with the traditional construction, in its
    # own norm: on criterion 10's streams and psi = chi(d + 1), the
    # lifted points have a smaller mean wce^2 than the inverse normal
    # cdf of the same cube points, at every N
    n_list = [2**m for m in range(6, 13)]
    ok = True
    details, worst = [], 0.0
    for d in (2, 3):
        p = KernelParams(mu=(d + 1) / 2.0, A=(d + 1) / 2.0, B=d + 1.0, d=d)
        lifted, normal = np.zeros(len(n_list)), np.zeros(len(n_list))
        for r in range(8):
            x = SobolStream(d + 1, seed=10, scramble=True,
                            replicate=r).take(n_list[-1])
            z = inv_normal_cdf(np.maximum(x, _U_FLOOR))
            for i, n in enumerate(n_list):
                lifted[i] += wce_nakagami(p, lift_to_space(x[:n])).wce**2 / 8
                normal[i] += wce_nakagami(p, z[:n]).wce**2 / 8
        lifted_slope, normal_slope = (
            float(np.polyfit(np.log(n_list), np.log(m), 1)[0])
            for m in (lifted, normal))
        ratio = float((lifted / normal).max())
        worst = max(worst, ratio)
        ok = ok and ratio < 1.0
        details.append(f"slopes at d={d}: {lifted_slope:.3f} lifted, "
                       f"{normal_slope:.3f} inverse normal")
    _report(capsys, 11, "lift beats inverse normal", ok,
            "; ".join(details) + f"; worst lifted / inverse-normal mean "
            f"wce^2 {worst:.2f} (want < 1)")


@pytest.fixture(scope="module")
def pricing_runs():
    """Column estimates at N = 2^15 and 2^19 for all kinds, shared by
    the pricing criteria; the kinds of one N are priced from one draw."""
    runs = {}
    for n_total in (2**15, 2**19):
        ests = finance._price_columns(OPTION_SPECS.values(),
                                      finance.TABLE_COLUMNS,
                                      n_total // 128, 128, seed=21)
        runs.update(((kind, n_total), kind_ests)
                    for kind, kind_ests in zip(OPTION_SPECS, ests))
    return runs


def test_criterion_9a_degenerate_prices(capsys):
    worst = 0.0
    specs = [OptionSpec(base.S0, base.K_strike, base.T, 0.0, base.r,
                        base.d_steps, kind=base.kind,
                        barrier_b=base.barrier_b)
             for base in OPTION_SPECS.values()]
    ests = finance._price_columns(specs, finance.TABLE_COLUMNS, 32, 2,
                                  seed=1)
    for spec, spec_ests in zip(specs, ests):
        t = np.arange(1, 31) / 30.0
        s_mean = float(np.mean(spec.S0 * np.exp(spec.r * t)))
        disc = math.exp(-spec.r * spec.T)
        if spec.kind == "digital":
            expect = disc * float(s_mean > spec.K_strike)
        else:
            expect = disc * max(s_mean - spec.K_strike, 0.0)
        for est in spec_ests:
            worst = max(worst, abs(est.mean - expect))
    _report(capsys, "9a", "degenerate sigma=0 prices", worst < 1e-12,
            f"worst abs err {worst:.2e} over 15 kind/method combinations")


def test_criterion_9b_reference_agreement(capsys, pricing_runs):
    ok = True
    worst_z = 0.0
    # the kinds' references come from one stream of 2^24 paths
    refs = mc_reference_price(OPTION_SPECS.values(), n_paths=2**24, seed=5)
    for kind, (ref, ref_se) in zip(OPTION_SPECS, refs):
        for est in pricing_runs[kind, 2**15]:
            z = abs(est.mean - ref) / math.hypot(est.std_error, ref_se)
            worst_z = max(worst_z, z)
            ok = ok and z <= 3.0
    _report(capsys, "9b", "agreement with 2^24-path reference", ok,
            f"worst |z| {worst_z:.2f} over 15 kind/method combinations")


def test_criterion_9c_variance_ordering_and_magnitude(capsys,
                                                      pricing_runs):
    ok = True
    details = []
    for n_total in (2**15, 2**19):
        ests = pricing_runs["asian", n_total]
        se = [e.std_error for e in ests]
        # columns: mc, sobol&std, sobol&pca, sphere&std, sphere&pca
        ordered = se[2] < se[1] < se[0]
        details.append(f"N=2^{int(math.log2(n_total))} ordering "
                       f"{'ok' if ordered else 'violated'}")
        ok = ok and ordered
    worst = 0.0
    for (kind, n_total), ests in pricing_runs.items():
        refs = PRICE_REFERENCE[kind][n_total]
        for est, ref in zip(ests, refs):
            ratio = max(est.std_error / ref, ref / est.std_error)
            worst = max(worst, ratio)
            ok = ok and ratio <= 5.0
    details.append(f"worst magnitude ratio {worst:.2f} (allowed 5.0)")
    _report(capsys, "9c", "variance ordering and magnitudes", ok,
            ", ".join(details))
