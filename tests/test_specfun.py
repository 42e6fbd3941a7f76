import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy import special as sp

from spherecone import specfun
from spherecone.errors import (DomainError, InfiniteResultError,
                               NumericError)
from spherecone.finance import OptionSpec
from spherecone.spheremap import (cap_measure, equal_area_partition_s2,
                                  radial_shells)
from spherecone.wce import KernelParams, lambda_k, phi_cdf, sphere_constants
from oracles import (chi_cdf, kernel_psi_integral, normal_cdf,
                     phi_psi_integral, sphere_height_tail_mpmath)


def gamma_p_quadrature(a, x):
    """Independent oracle: adaptive quadrature of the gamma integrand."""
    val, _ = integrate.quad(lambda t: t**(a - 1) * math.exp(-t), 0.0, x,
                            limit=200, epsabs=1e-13, epsrel=1e-12)
    return val / math.gamma(a)


def beta_i_quadrature(x, a, b):
    val, _ = integrate.quad(lambda t: t**(a - 1) * (1 - t)**(b - 1), 0.0, x,
                            limit=200, epsabs=1e-13, epsrel=1e-12)
    return val / (math.gamma(a) * math.gamma(b) / math.gamma(a + b))


def bisect(f, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestRegGamma:
    def test_p_known_values(self):
        assert specfun.reg_gamma_p(1.0, math.log(2.0)) == pytest.approx(
            0.5, abs=1e-14)
        assert specfun.reg_gamma_p(0.5, 0.0) == 0.0

    def test_q_known_values(self):
        assert specfun.reg_gamma_q(3.0, 0.0) == 1.0
        assert specfun.reg_gamma_q(1.0, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-14)

    def test_p_matches_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            a = rng.uniform(0.1, 20.0)
            x = rng.uniform(0.0, 30.0)
            assert specfun.reg_gamma_p(a, x) == pytest.approx(
                gamma_p_quadrature(a, x), rel=1e-10, abs=1e-13)

    def test_q_value_from_quadrature(self):
        # (a=0.7, x=2) against the quadrature oracle
        assert specfun.reg_gamma_q(0.7, 2.0) == pytest.approx(
            1.0 - gamma_p_quadrature(0.7, 2.0), rel=1e-12)

    def test_derived_cross_check(self):
        assert specfun.reg_gamma_p(2.5, 3.1) == pytest.approx(
            gamma_p_quadrature(2.5, 3.1), rel=1e-11)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.reg_gamma_p(-1.0, 2.0)
        with pytest.raises(DomainError):
            specfun.reg_gamma_p(1.0, -0.5)
        with pytest.raises(DomainError):
            specfun.reg_gamma_q(1.0, float("nan"))

    @given(st.floats(0.05, 30.0), st.floats(0.0, 60.0))
    @settings(max_examples=200, deadline=None)
    def test_p_plus_q_is_one(self, a, x):
        assert specfun.reg_gamma_p(a, x) + specfun.reg_gamma_q(a, x) == \
            pytest.approx(1.0, abs=1e-14)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 50.0, 400)
        vals = specfun.reg_gamma_p(2.3, xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(np.diff(vals[1:][xs[1:] < 20]) > 0.0)


class TestInvRegGamma:
    def test_known_values(self):
        assert specfun.inv_reg_gamma_q(1.0, 0.5) == pytest.approx(
            math.log(2.0), rel=1e-13)
        assert specfun.inv_reg_gamma_q(1.0, 1.0) == 0.0

    def test_scipy_nan_raises(self):
        # scipy's inverses return NaN at a = 5e-324, which would reach the
        # caller as a quantile
        with pytest.raises(NumericError):
            specfun.inv_reg_gamma_q(5e-324, np.array([0.25, 0.5]))
        with pytest.raises(NumericError):
            specfun.inv_reg_gamma_p(5e-324, 0.5)

    def test_bisection_oracle(self):
        z = specfun.inv_reg_gamma_q(2.5, 0.3)
        z_ref = bisect(lambda t: 0.3 - specfun.reg_gamma_q(2.5, t), 0.0, 100.0)
        assert z == pytest.approx(z_ref, rel=1e-10)
        assert specfun.reg_gamma_q(2.5, z) == pytest.approx(0.3, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.uniform(0.2, 15.0)
            q = rng.uniform(1e-6, 1.0 - 1e-6)
            x = specfun.inv_reg_gamma_q(a, q)
            assert specfun.reg_gamma_q(a, x) == pytest.approx(q, rel=1e-10)

    def test_infinite_result(self):
        with pytest.raises(InfiniteResultError):
            specfun.inv_reg_gamma_q(1.0, 0.0)
        with pytest.raises(InfiniteResultError):
            specfun.inv_reg_gamma_p(1.0, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.inv_reg_gamma_q(1.0, 1.5)
        with pytest.raises(DomainError):
            specfun.inv_reg_gamma_q(1.0, -0.1)

    def test_tail_saturates_instead_of_erroring(self):
        z = specfun.inv_reg_gamma_q(1.0, 1e-310)
        assert math.isfinite(z) and z > 600.0


# the shapes with 2a an integer up to the cap take the closed forms
GRID_N = range(1, int(2 * specfun._GRID_CAP) + 1)
NORMAL_MIN = np.finfo(float).tiny
# x from far below 1 to the far tail, past x = 745 where e^-x underflows
GRID_X = [0.0, 1e-300, 1e-100, 1e-20, 1e-8, 1e-3, 0.05, 0.2, 0.5, 0.9, 1.3,
          2.0, 3.5, 6.0, 10.0, 17.0, 25.0, 40.0, 70.0, 150.0, 400.0, 700.0,
          760.0, 900.0]
GRID_V = [1e-300, 1e-200, 1e-100, 1e-30, 1e-10, 2.0**-32, 1e-3, 0.1, 0.3,
          0.5, 0.7, 0.9, 1.0 - 1e-3, 1.0 - 2.0**-32]


def gamma_mpmath(a, x, upper):
    """P(a, x), or Q(a, x) if upper, at 50 digits; Q as 1 - P below x = a,
    where mpmath's Q is slow and 1 - P loses none of the 50 digits."""
    with mpmath.workdps(50):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        if upper and x >= a:
            return mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        p = mpmath.gammainc(a, 0, x, regularized=True)
        return 1 - p if upper else p


def gamma_root_mpmath(a, v, upper, x):
    """The root of P(a, .) = v, or of Q(a, .) = v if upper, by Newton's
    method at 50 digits from x > 0."""
    with mpmath.workdps(50):
        root, v = mpmath.mpf(x), mpmath.mpf(v)
        for _ in range(20):
            density = (root**(mpmath.mpf(a) - 1) * mpmath.exp(-root)
                       / mpmath.gamma(mpmath.mpf(a)))
            step = (gamma_mpmath(a, root, upper) - v) / density
            root -= -step if upper else step
            if abs(step) <= root * mpmath.mpf(10)**-30:
                return root
    raise AssertionError(f"no convergence at a={a}, v={v}")


def assert_near(got, ref, what):
    """got within 1e-14 of ref where ref is a normal double, else within
    the smallest normal double (both underflow)."""
    if ref >= NORMAL_MIN:
        assert abs(got - ref) <= 1e-14 * ref, (what, got, float(ref))
    else:
        assert abs(got - ref) <= NORMAL_MIN, (what, got, float(ref))


class TestGammaGrid:
    @pytest.mark.parametrize("n", GRID_N)
    def test_forward_against_mpmath(self, n):
        a = n / 2.0
        switch = a - 1.0 / 3.0  # where P leaves its series for 1 - Q
        x = np.array(GRID_X + [np.nextafter(switch, 0.0), switch, a])
        p, q = specfun.reg_gamma_p(a, x), specfun.reg_gamma_q(a, x)
        for xi, pi, qi in zip(x, p, q):
            assert_near(pi, gamma_mpmath(a, xi, False), ("P", a, xi))
            assert_near(qi, gamma_mpmath(a, xi, True), ("Q", a, xi))

    @pytest.mark.parametrize("n", GRID_N)
    def test_inverses_against_mpmath(self, n):
        a = n / 2.0
        v = np.array(GRID_V)
        for upper, x in ((False, specfun.inv_reg_gamma_p(a, v)),
                         (True, specfun.inv_reg_gamma_q(a, v))):
            for vi, xi in zip(v, x):
                if xi < NORMAL_MIN:
                    # the root must lie below the normal doubles too
                    at_min = gamma_mpmath(a, NORMAL_MIN, upper)
                    assert at_min <= vi if upper else at_min >= vi
                    continue
                assert_near(xi, gamma_root_mpmath(a, vi, upper, xi),
                             ("Q^-1" if upper else "P^-1", a, vi))

    def test_edges(self):
        for n in (1, 2, 3, int(2 * specfun._GRID_CAP)):
            a = n / 2.0
            assert specfun.inv_reg_gamma_p(a, 0.0) == 0.0
            assert specfun.inv_reg_gamma_q(a, 1.0) == 0.0
            assert specfun.reg_gamma_p(a, 0.0) == 0.0
            assert specfun.reg_gamma_q(a, 0.0) == 1.0
            assert specfun.reg_gamma_q(a, 1e300) == 0.0
            assert specfun.reg_gamma_p(a, 1e300) == 1.0
            with pytest.raises(InfiniteResultError):
                specfun.inv_reg_gamma_p(a, 1.0)
            # s below 1e-300 saturates to the s = 1e-300 quantile
            assert specfun.inv_reg_gamma_q(a, 1e-310) == \
                specfun.inv_reg_gamma_q(a, 1e-300)

    @pytest.mark.parametrize("a", [0.7, 2.3, specfun._GRID_CAP + 0.5, 97.0,
                                   120.5, 150.0, np.full(4, 1.5)])
    def test_off_grid_is_scipy(self, a):
        # shapes off the grid or above the cap, and arrays of shapes,
        # keep scipy's values bitwise
        x = np.array([0.01, 0.7, 3.0, 40.0])
        v = np.array([1e-250, 0.3, 0.6, 1.0 - 1e-9])
        assert np.array_equal(specfun.reg_gamma_p(a, x), sp.gammainc(a, x))
        assert np.array_equal(specfun.reg_gamma_q(a, x), sp.gammaincc(a, x))
        assert np.array_equal(specfun.inv_reg_gamma_p(a, v),
                              sp.gammaincinv(a, v))
        assert np.array_equal(specfun.inv_reg_gamma_q(a, v),
                              sp.gammainccinv(a, v))
        for dof in (193, 200, 255):
            assert specfun.chi_quantile(dof, 0.3) == math.sqrt(
                2.0 * sp.gammaincinv(dof / 2.0, 0.3))


# the chi lift's inputs: scrambled Sobol' coordinates j 2^-32, capped at
# _U_CAP, with some j drawn once
CHI_U = np.array(
    [0.0, 2.0**-32, 2.0**-31, 3 * 2.0**-32, 2.0**-20, 2.0**-8, 0.25, 0.5,
     0.75, 1.0 - 2.0**-8, 1.0 - 2.0**-20, specfun._U_CAP]
    + list(np.random.default_rng(3).integers(1, 2**32, 4) * 2.0**-32))


@pytest.mark.parametrize("k", range(2, int(2 * specfun._GRID_CAP) + 1))
def test_chi_quantile_on_lift_grid(k):
    a = k / 2.0
    x = specfun.chi_quantile(k, CHI_U)
    assert x[0] == 0.0
    half_sq = x * x / 2.0
    p, q = specfun.reg_gamma_p(a, half_sq), specfun.reg_gamma_q(a, half_sq)
    for u, xi, hi, pi, qi in zip(CHI_U[1:], x[1:], half_sq[1:], p[1:],
                                 q[1:]):
        with mpmath.workdps(50):
            root = mpmath.sqrt(2 * gamma_root_mpmath(
                a, u, False, mpmath.mpf(xi)**2 / 2))
        assert abs(xi - root) <= 1e-14 * root, (k, u, xi, float(root))
        # the round trip, 1e-14 per unit of the CDF's elasticity in x^2/2:
        # at most a for P below the median, at most x^2/2 for Q above
        if u <= 0.5:
            assert abs(pi - u) <= 1e-14 * a * u, (k, u, pi)
        else:
            assert abs(qi - (1.0 - u)) <= 1e-14 * max(1.0, hi) * (1.0 - u), \
                (k, u, qi)


class TestRegBeta:
    def test_known_values(self):
        for mu in (0.5, 1.0, 3.7):
            assert specfun.reg_beta_i(0.5, mu, mu) == pytest.approx(
                0.5, abs=1e-14)
        assert specfun.reg_beta_i(0.3, 1.0, 1.0) == pytest.approx(0.3)
        assert specfun.reg_beta_i(2.0 / 3.0, 1.0, 1.0) == pytest.approx(
            2.0 / 3.0, rel=1e-14)
        assert specfun.reg_beta_i(0.0, 2.0, 3.0) == 0.0
        assert specfun.reg_beta_i(1.0, 2.0, 3.0) == 1.0

    def test_matches_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a = rng.uniform(0.2, 10.0)
            b = rng.uniform(0.2, 10.0)
            x = rng.uniform(0.0, 1.0)
            assert specfun.reg_beta_i(x, a, b) == pytest.approx(
                beta_i_quadrature(x, a, b), rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("n", list(range(1, 31)) + [31, 40, 61, 95, 96,
                                                        101, 150, 191, 192])
    def test_grid_against_mpmath(self, n):
        # I_x(a, a) with 2a = n on the grid, a positive series, within
        # 2e-15 of 40-digit mpmath (scipy's betainc: 1.1e-12 at n = 192,
        # x = 0.1), from the far lower tail to 1 - x of 1e-9
        a = n / 2.0
        x = np.concatenate([
            [0.0, 1e-300, 1e-100, 1e-20, 1e-8, 1e-3, 0.05, 0.1, 0.2, 0.3,
             0.4, 0.45, 0.49, 0.5, 0.51, 0.6, 0.75, 0.9, 0.99, 1.0 - 1e-9,
             1.0], np.random.default_rng(n).random(20)])
        got = specfun.reg_beta_i(x, a, a)
        with mpmath.workdps(40):
            for xi, gi in zip(x, got):
                ref = mpmath.betainc(a, a, 0, xi, regularized=True)
                if ref < NORMAL_MIN:
                    assert gi <= NORMAL_MIN, (n, xi, gi)
                else:
                    assert abs(gi - ref) <= 2e-15 * ref, (n, xi, gi,
                                                          float(ref))

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.0, 15.0, 96.0])
    def test_grid_scalar_is_its_array_element(self, a):
        # a single value sums its polynomials in Python floats, which must
        # round as the array path does
        x = np.array([1e-3, 0.3, 0.5, 0.8])
        for fn in (lambda v: specfun.reg_beta_i(v, a, a),
                   lambda v: specfun.reg_gamma_q(a, 2.0 * a * v),
                   lambda v: specfun.reg_gamma_p(a, 2.0 * a * v)):
            batch = fn(x)
            for xi, bi in zip(x, batch):
                assert fn(xi) == bi and fn(x[[0]] * 0 + xi)[0] == bi

    def test_off_grid_and_asymmetric_are_scipy(self):
        # shapes off the grid, above its cap, of arrays, or a != b keep
        # scipy's betainc bitwise
        x = np.array([1e-5, 0.3, 0.5, 0.97])
        for a, b in ((1.482, 1.482), (96.5, 96.5), (1.5, 2.0),
                     (np.full(4, 1.5), 1.5)):
            assert np.array_equal(specfun.reg_beta_i(x, a, b),
                                  sp.betainc(a, b, x))

    @given(st.floats(1e-4, 1.0 - 1e-4), st.floats(0.5, 10.0),
           st.floats(0.5, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_reflection_symmetry(self, x, a, b):
        # parameters kept away from the endpoints where the reflected
        # argument 1 - x itself amplifies representation error
        assert specfun.reg_beta_i(x, a, b) == pytest.approx(
            1.0 - specfun.reg_beta_i(1.0 - x, b, a), abs=1e-11)


def sphere_height_mpmath(u, a, dps=50):
    """Independent oracle: height 1 - 2x and scale 2 sqrt(x (1 - x)) of
    the solution x of I_x(a, a) = u, by Newton's method at `dps` digits
    from the double-precision betaincinv start."""
    with mpmath.workdps(dps):
        u, a = mpmath.mpf(u), mpmath.mpf(a)
        beta = mpmath.beta(a, a)
        x = mpmath.mpf(float(sp.betaincinv(float(a), float(a), float(u))))
        for _ in range(50):
            f = mpmath.betainc(a, a, 0, x, regularized=True) - u
            dx = f * beta / (x * (1 - x)) ** (a - 1)
            x -= dx
            if abs(dx) <= abs(x) * mpmath.mpf(10) ** (5 - dps):
                break
        else:
            raise AssertionError(f"no convergence at u={u}, a={a}")
        return 1 - 2 * x, 2 * mpmath.sqrt(x * (1 - x))


# the half-width of the band around the median whose edges HEIGHT_U holds
BAND = 2.0**-4
HEIGHT_U = np.array(
    [0.5 + sign * 2.0**-k for k in range(2, 53) for sign in (1, -1)]
    + [edge for mid in (0.5 - BAND, 0.5 + BAND)
       for edge in (np.nextafter(mid, 0.0), mid, np.nextafter(mid, 1.0))]
    + [2.0**-32, 1e-9, 1.0 - 2.0**-32]
    + list(np.random.default_rng(11).random(40)))


def height_root(u, a):
    """The solution x of I_x(a, a) = u from sphere_height's t = 1 - 2x,
    taken as scale^2 / (2 (1 + t)) for t >= 0 so that small x keeps its
    relative accuracy (1 - t cancels there)."""
    t, scale = specfun.sphere_height(u, a)
    return np.where(t >= 0, scale**2 / (2.0 * (1.0 + t)), (1.0 - t) / 2.0)


class TestSphereHeight:
    def test_symmetry_point_exact(self):
        assert height_root(0.5, 1.5) == 0.5
        assert height_root(0.0, 2.0) == 0.0

    def test_round_trip_oracle(self):
        x = height_root(0.25, 1.5)
        x_ref = bisect(lambda t: specfun.reg_beta_i(t, 1.5, 1.5) - 0.25,
                       0.0, 1.0)
        assert x == pytest.approx(x_ref, abs=1e-12)
        assert specfun.reg_beta_i(x, 1.5, 1.5) == pytest.approx(
            0.25, abs=1e-12)

    def test_round_trip_many(self):
        # shapes off the half-integer grid the sphere map uses
        rng = np.random.default_rng(3)
        a = rng.uniform(0.3, 20.0, 50)
        y = rng.uniform(0.0, 1.0, 50)
        back = specfun.reg_beta_i(height_root(y, a), a, a)
        np.testing.assert_allclose(back, y, atol=1e-12)

    def test_round_trip_on_grid(self):
        # every 2a = 1 ... 60 on the Sobol' grid k/2^32, where 1 - u is
        # exact and the height antisymmetric
        u = np.random.default_rng(4).integers(0, 2**32, 200) * 2.0**-32
        a = np.arange(1, 61) / 2.0
        back = specfun.reg_beta_i(height_root(u[:, None], a), a, a)
        np.testing.assert_allclose(back, np.broadcast_to(u[:, None],
                                                         back.shape),
                                   atol=1e-12)
        t = specfun.sphere_height(u[:, None], a)[0]
        np.testing.assert_array_equal(
            specfun.sphere_height(1.0 - u[:, None], a)[0], -t)

    @pytest.mark.parametrize("q", range(3, 30))
    def test_against_mpmath(self, q):
        # both sides of the median band and its edges, the Sobol' grid's
        # extreme cells and random u, for every height of a 29-cube
        t, scale = specfun.sphere_height(HEIGHT_U, q / 2.0)
        for i, u in enumerate(HEIGHT_U):
            t_ref, scale_ref = sphere_height_mpmath(u, q / 2.0)
            assert abs(t[i] - t_ref) <= 2e-15, u
            assert abs(scale[i] - scale_ref) <= 2e-15 * scale_ref, u

    @pytest.mark.parametrize("q", [30, 31, 60, 101, 191])
    def test_beyond_29_against_mpmath(self, q):
        # the heights of `points --dim 192` reach q = 191; both sides of
        # the median and the Sobol' grid's extreme cells
        u = HEIGHT_U[np.r_[0:102:6, 108:111]]
        t, scale = specfun.sphere_height(u, q / 2.0)
        for i, ui in enumerate(u):
            t_ref, scale_ref = sphere_height_mpmath(ui, q / 2.0)
            assert abs(t[i] - t_ref) <= 2e-15, ui
            assert abs(scale[i] - scale_ref) <= 2e-15 * scale_ref, ui

    def test_off_grid_shapes_against_mpmath(self):
        # 2a not an integer: a draw of acceptance criterion 1 that stdtrit
        # alone put 1.2e-13 off, then random shapes and u; below a = 1 the
        # root is worse conditioned (betaincinv is 1.6e-15 off at a = 0.3)
        rng = np.random.default_rng(3)
        a = np.concatenate([[1.482], rng.uniform(1.0, 20.0, 40)])
        u = np.concatenate([[0.803], rng.uniform(0.0, 1.0, 40)])
        x = height_root(u, a)
        for i in range(len(a)):
            x_ref = (1 - sphere_height_mpmath(u[i], a[i], dps=40)[0]) / 2
            assert abs(x[i] / x_ref - 1) <= 1e-15, (u[i], a[i])
        # below a = 1, first two draws where a Cornish-Fisher start leaves
        # both Halley steps 2e-14 (a = 0.3) and 6e-15 (a = 0.304) off;
        # below a = 0.3 the root is worse conditioned near the median,
        # where F is flat in t (slope 1/B(1/2, a), 0.03 at a = 0.05), and
        # that start gives NaN there below a = 0.12.  The oracle runs at
        # v = min(u, 1 - u), as its double start rounds roots x within
        # 1e-16 of 1 to 1
        a_low = np.concatenate([[0.3, 0.3036857131959023],
                                rng.uniform(0.3, 1.0, 40)])
        u_low = np.concatenate([[0.243, 0.30391802901193854],
                                rng.uniform(0.0, 1.0, 40)])
        a_small, u_small = rng.uniform(0.05, 0.3, 40), rng.random(40)
        for a, u, bound in ((a_low, u_low, 2e-15),
                            (a_small, u_small, 1e-14)):
            t, scale = specfun.sphere_height(u, a)
            for i in range(len(a)):
                t_ref, scale_ref = sphere_height_mpmath(
                    min(u[i], 1.0 - u[i]), a[i], dps=40)
                t_ref = t_ref if u[i] <= 0.5 else -t_ref
                assert abs(t[i] - t_ref) <= bound, (u[i], a[i])
                assert abs(scale[i] - scale_ref) <= bound * scale_ref, (
                    u[i], a[i])

    def test_off_grid_near_median_against_mpmath(self):
        # near the median F comes from 1/2 - I_{c^2}(1/2, a)/2, not from
        # betainc(a, a, x), whose ulps of 1/2 put t 1.3e-15 off at the
        # first, recorded draw; then random shapes off the grid
        rng = np.random.default_rng(8)
        a = np.concatenate([[32.961439323205624], rng.uniform(0.3, 40.0, 40)])
        a[2 * a % 1 == 0] += 1e-3
        u = np.concatenate([[0.5743780480979319], rng.uniform(0.3, 0.7, 40)])
        t = specfun.sphere_height(u, a)[0]
        for i in range(len(a)):
            t_ref = sphere_height_mpmath(min(u[i], 1.0 - u[i]), a[i],
                                         dps=40)[0]
            t_ref = t_ref if u[i] <= 0.5 else -t_ref
            assert abs(t[i] - t_ref) <= 1e-15, (u[i], a[i])

    @pytest.mark.parametrize("a", [1.5, 2.0, 3.0, 14.5])
    def test_poles_and_median(self, a):
        # stdtrit gives +inf at u = 0: the pole must still be t = +1
        assert specfun.sphere_height(0.0, a) == (1.0, 0.0)
        assert specfun.sphere_height(1.0, a) == (-1.0, 0.0)
        t, scale = specfun.sphere_height(0.5, a)
        assert t == 0.0 and math.copysign(1.0, t) == 1.0
        assert scale == 1.0

    def test_far_lower_tail(self):
        # below about 2^-787 stdtrit(3, u) is +inf, and at a = 0.75 the
        # Newton step's pdf underflows: the height is still the pole's,
        # with the small positive scale of the small-x term (1.4e-60 at
        # a = 2.5, u = 1e-300, where stdtrit gave 0)
        for a, u in ((1.5, 1e-300), (2.0, 1e-300), (2.5, 1e-300),
                     (0.75, 1e-230), (0.75, 1e-300)):
            t, scale = specfun.sphere_height(u, a)
            assert t == 1.0 and 0.0 < scale < 1e-50
        # below a = 1/2 the scale itself underflows there: the pole
        assert specfun.sphere_height(1e-300, 0.4) == (1.0, 0.0)

    @pytest.mark.parametrize("a", [0.75, 1.5, 2.0, 5.0, 14.5, 30.0])
    def test_far_lower_tail_against_mpmath(self, a):
        # stdtrit put the scale 2x off at a = 1.5 for u <= 1e-170 and at
        # a = 5 for u = 1e-300, and 6e45x off at a = 0.75, u = 1e-300;
        # at a = 30 it was 1.1e-2 off at u = 1e-310 and fully off at
        # u = 1e-320, where the root x is above 1e-20
        for u in (1e-100, 1e-170, 1e-230, 1e-300, 1e-310, 1e-320):
            t, scale = specfun.sphere_height(u, a)
            t_ref, scale_ref = sphere_height_tail_mpmath(u, a)
            assert abs(t - t_ref) <= 2e-15, u
            assert abs(scale / scale_ref - 1) <= 1e-14, u

    def test_half_ratio_series_coefficients(self):
        # log(Gamma(a + 1/2) / (Gamma(a) sqrt(a))) = sum_{k >= 2} (-1)^k
        # (B_k(1/2) - B_k) / (k (k - 1) a^(k - 1)) (DLMF 5.11.8), with
        # B_k(1/2) = (2^(1 - k) - 1) B_k, exponentiated term by term in
        # exact fractions: each coefficient is bitwise its exact value
        n = specfun._HALF_RATIO.size

        def bernoulli(k):
            num, den = mpmath.bernfrac(k)
            return Fraction(int(num), int(den))

        log_coef = [Fraction(0)] * n
        for k in range(2, n + 1):
            log_coef[k - 1] = ((-1)**k * (Fraction(2)**(1 - k) - 2)
                               * bernoulli(k) / (k * (k - 1)))
        coef = [Fraction(1)]
        for j in range(1, n):
            coef.append(sum(i * log_coef[i] * coef[j - i]
                            for i in range(1, j + 1)) / j)
        assert [Fraction(c) for c in specfun._HALF_RATIO[::-1]] == coef

    @pytest.mark.parametrize("a", [150.0, 150.3, 233.2, 1e4 + 0.3])
    def test_half_beta_from_series_above_150(self, monkeypatch, a):
        # S_n(pi) = B(1/2, a) off the grid: scipy's beta up to a = 150,
        # the series above, within 2.2e-16 of mpmath either way
        beta = sp.beta
        seen = []

        def spy(x, y):
            seen.append(y)
            return beta(x, y)

        monkeypatch.setattr(sp, "beta", spy)
        big_s = specfun._wallis_columns(np.array([2.0 * a])).big_s[0]
        assert (seen != []) == (a <= 150.0)
        with mpmath.workdps(40):
            want = mpmath.beta(0.5, a)
        assert abs(big_s - want) <= 2.2e-16 * want

    @pytest.mark.parametrize("a", [1.5, 14.5, 30.0])
    def test_far_tail_roots_skip_betainc(self, monkeypatch, a):
        # every root below its column's cut takes F from the series, in
        # log space where v lies below _SERIES_V, so that no tail root
        # calls betainc, on the grid or off it; off the grid a root
        # above its cut calls only betainc(1/2, a, c^2), the form of F
        # on the median's side
        betainc = sp.betainc
        seen = []

        def spy(p, q, x):
            seen.append(np.unique(p).tolist())
            return betainc(p, q, x)

        monkeypatch.setattr(sp, "betainc", spy)
        for shape in (a, a + 0.01):
            specfun.sphere_height([1e-300, 1e-200, 1e-9, 1e-3], shape)
        assert seen == []
        specfun.sphere_height([0.4, 0.6], a + 0.01)
        assert seen and all(p == [0.5] for p in seen)

    def test_series_table_is_its_term_loop(self):
        # one table over shapes on the grid, off it, below q = 1 and far
        # above the grid, each column bitwise the scalar recurrence in
        # w = 2x to its cap, with no coefficient overflowing
        q = np.array([0.14, 0.6, 1.0, 3.0, 3.02, 60.0, 193.0, 600.6, 2e4])
        x_cap = np.array([0.5, 0.5, 0.146, 0.146, 0.2, 0.3, 0.45, 0.47, 0.5])
        table = specfun._series_table(q, x_cap)
        assert np.isfinite(table).all()
        for j, (qj, cap) in enumerate(zip(q.tolist(), x_cap.tolist())):
            coef, term, k = [1.0], 1.0, 0
            while True:
                f = (qj + k) / (0.5 * qj + 1.0 + k)
                if term < 2.0**-54 * (1.0 - cap * max(1.0, f)):
                    break
                coef.append(coef[-1] * (0.5 * f))
                term *= cap * f
                k += 1
            column = table[:, j]
            assert column[:-len(coef)].tolist() == [0.0] * (
                table.shape[0] - len(coef))
            assert column[-len(coef):].tolist() == coef[::-1]

    @pytest.mark.parametrize("a", [0.07, 0.3, 1.482, 5.3, 12.7, 20.3, 40.3,
                                   60.7, 80.3, 96.5, 100.0, 125.0, 150.0,
                                   233.2, 300.3, 1000.7])
    def test_off_grid_against_log_space_mpmath(self, a):
        # off the grid (2a not an integer, or above its cap) the series
        # serves each column below its cut as on the grid; betainc(a, a,
        # x) there gave NaN at a = 60.7, u = 9.3e-18, and put t 1.6e-7
        # off at a = 96.5, u = 2^-53 and 9.8e-14 off at a = 12.7; scipy's
        # beta(1/2, a) put t 4.7e-15 off at a = 233.2 and 300.3 and
        # 5.5e-15 at 1000.7, where S_n(pi) takes its series.  u from
        # 1e-20 to 1/2, and the roots at cos^2 phi around the median
        # side's edge, but for those below the double range (cos^2 phi =
        # 0.6 at a = 1000.7), where u = 0 is the pole
        with mpmath.workdps(40):
            at_c2 = [float(mpmath.betainc(
                a, a, 0, (1 - mpmath.sqrt(c2)) / 2, regularized=True))
                for c2 in (0.3, 0.45, 0.49, 0.499, 0.6)]
        at_c2 = [v for v in at_c2 if v > 0.0]
        u = np.array([1e-20, 9.3e-18, 2.0**-53, 1e-12, 1e-9, 2.0**-32, 1e-6,
                      1e-3, 0.01, 0.1, 0.25, 0.4, 0.49, 0.5] + at_c2)
        t, scale = specfun.sphere_height(u, a)
        for i, ui in enumerate(u):
            t_ref, scale_ref = sphere_height_tail_mpmath(ui, a)
            assert abs(t[i] - t_ref) <= 2e-15, ui
            assert abs(scale[i] / scale_ref - 1) <= 2e-15, ui

    def test_antisymmetric(self):
        # on the Sobol' grid k/2^32, 1 - u is exact
        u = np.random.default_rng(12).integers(0, 2**32, 500) * 2.0**-32
        a = np.arange(3, 30) / 2.0
        t, scale = specfun.sphere_height(u[:, None], a)
        t_ref, scale_ref = specfun.sphere_height(1.0 - u[:, None], a)
        np.testing.assert_array_equal(t, -t_ref)
        np.testing.assert_array_equal(scale, scale_ref)

    def test_columns_broadcast(self):
        # one call over a block equals one call per column, on the grid
        # and with shapes off it among the columns
        u = np.random.default_rng(13).random((64, 5))
        for a in ([1.5, 2.0, 3.0, 3.5, 9.0], [1.5, 1.482, 2.0, 0.7, 9.0]):
            t, scale = specfun.sphere_height(u, np.array(a))
            for j in range(5):
                t_j, scale_j = specfun.sphere_height(u[:, j], a[j])
                np.testing.assert_array_equal(t[:, j], t_j)
                np.testing.assert_array_equal(scale[:, j], scale_j)
        # and empty blocks keep their shape
        for shape in ((0, 5), (4, 0)):
            t, scale = specfun.sphere_height(np.empty(shape),
                                             np.ones(shape[1]))
            assert t.shape == scale.shape == shape

    def test_elementwise_shapes(self):
        # an a of two or more dimensions takes one shape per element: on
        # and off the grid, repeated, and in the far tail, each element
        # bitwise its own call's
        u = np.array([[0.3, 1e-300, 0.5], [0.9, 0.01, 1e-260],
                      [0.0, 0.7, 1.0 - 2.0**-32], [0.25, 2.0**-32, 0.6]])
        a = np.array([[1.5, 1.482, 7.0], [0.3, 1.5, 30.0],
                      [2.5, 0.75, 14.5], [1.482, 40.0, 1.5]])
        t, scale = specfun.sphere_height(u, a)
        assert t.shape == scale.shape == (4, 3)
        for i, j in np.ndindex(4, 3):
            assert (t[i, j], scale[i, j]) == specfun.sphere_height(u[i, j],
                                                                   a[i, j])
        # a one-element a of two dimensions is the scalar call
        t, scale = specfun.sphere_height(0.3, [[1.5]])
        assert t.shape == (1, 1)
        assert (t[0, 0], scale[0, 0]) == specfun.sphere_height(0.3, 1.5)

    def test_many_shapes_bounded(self):
        # one solve takes _BLOCK shapes at most, so 4x the shapes over the
        # same elements add little to the peak (the per-column constants
        # of 4 _BLOCK shapes peaked at 4x before): a row of _BLOCK shapes
        # over 4 rows against 4 _BLOCK elementwise shapes; elements across
        # the blocks stay bitwise their own calls
        rng = np.random.default_rng(28)
        n = specfun._BLOCK
        u = rng.random((4, n))
        u[:, ::5] = 10.0**rng.uniform(-300, -5, u[:, ::5].shape)
        peaks = []
        for a in (rng.integers(1, 81, n) / 2.0,
                  rng.integers(1, 81, (4, n)) / 2.0):
            a[..., ::14] += 0.123
            tracemalloc.start()
            try:
                t, scale = specfun.sphere_height(u, a)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0]
        # each block's first and last elements, and 40 more at random
        rows = np.r_[0, 0, 1, 1, 2, 2, 3, 3, rng.integers(0, 4, 40)]
        cols = np.r_[[0, n - 1] * 4, rng.integers(0, n, 40)]
        for i, j in zip(rows, cols):
            assert (t[i, j], scale[i, j]) == specfun.sphere_height(u[i, j],
                                                                   a[i, j])

    def test_many_shapes_peak_near_one_shape(self):
        # the forward form's Horner steps read one coefficient per run of
        # columns, so a solve of _BLOCK elementwise shapes up to a = 40
        # peaks near one of 90,000 values under one shape; every height is
        # that of the call of its shape alone
        rng = np.random.default_rng(29)
        a = rng.integers(1, 81, specfun._BLOCK) / 2.0
        u = rng.random(a.size)
        peaks = []
        for args in ((u, a), (rng.random(90000), 40.0)):
            tracemalloc.start()
            try:
                t, scale = specfun.sphere_height(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        t, scale = specfun.sphere_height(u, a)
        assert peaks[0] < 1.5 * peaks[1]
        for shape in np.unique(a):
            at = a == shape
            t_ref, scale_ref = specfun.sphere_height(u[at], shape)
            assert np.array_equal(t[at], t_ref)
            assert np.array_equal(scale[at], scale_ref)

    def test_domain(self):
        for bad in (-0.1, 1.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                specfun.sphere_height(bad, 1.5)
        for bad_a in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                specfun.sphere_height(0.3, bad_a)


class TestChi:
    def test_quantile_known(self):
        assert specfun.chi_quantile(2, 1.0 - math.exp(-0.5)) == \
            pytest.approx(1.0, rel=1e-13)
        assert specfun.chi_quantile(2, 0.0) == 0.0

    def test_round_trip_dof30(self):
        x = specfun.chi_quantile(30, 0.9)
        x_ref = bisect(lambda t: chi_cdf(30, t) - 0.9, 0.0, 50.0)
        assert x == pytest.approx(x_ref, rel=1e-10)
        assert chi_cdf(30, x) == pytest.approx(0.9, abs=1e-12)

    def test_u_one_is_infinite(self):
        with pytest.raises(InfiniteResultError):
            specfun.chi_quantile(3, 1.0)

    def test_bad_dof(self):
        with pytest.raises(DomainError):
            specfun.chi_quantile(0, 0.5)
        with pytest.raises(DomainError):
            chi_cdf(2.5, 0.5)


class TestNormal:
    def test_known(self):
        assert specfun.inv_normal_cdf(0.5) == 0.0
        assert specfun.inv_normal_cdf(0.975) == pytest.approx(
            1.959964, abs=1e-6)

    def test_bisection_oracle(self):
        for u in (0.01, 0.3, 0.8, 0.999):
            z = specfun.inv_normal_cdf(u)
            z_ref = bisect(lambda t: normal_cdf(t) - u, -10.0, 10.0)
            assert z == pytest.approx(z_ref, abs=1e-9)
            assert normal_cdf(z) == pytest.approx(u, abs=1e-9)

    @given(st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry(self, u):
        assert specfun.inv_normal_cdf(u) == pytest.approx(
            -specfun.inv_normal_cdf(1.0 - u), abs=1e-10)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(DomainError):
                specfun.inv_normal_cdf(bad)

    def test_against_mpmath(self):
        # AS241 within 1e-15 relative on (1e-300, 1 - 2^-53]: uniform,
        # log-uniform in both tails, the Sobol' grid k/2^32, the ends and
        # both sides of each region's edge (scipy's ndtri: 6.7e-16)
        rng = np.random.default_rng(41)
        edges = [0.075, 0.925, 0.5 - 2.0**-53, 0.5 + 2.0**-53]
        for r in (1.6, 5.0):
            edges += [math.exp(-r * r) * f for f in (1 - 1e-15, 1 + 1e-15)]
        tail = 10.0**rng.uniform(-300, -0.5, 600)
        u = np.concatenate([
            rng.random(600), tail, 1.0 - tail[tail > 1e-15],
            rng.integers(1, 2**32, 600) * 2.0**-32, edges,
            [1.0000001e-300, 2.0**-33, 1.0 - 2.0**-53, 0.5]])
        z = specfun.inv_normal_cdf(u)
        with mpmath.workdps(40):
            for ui, zi in zip(u, z):
                ref = mpmath.mpf(zi)
                for _ in range(3):
                    # Newton on the smaller tail of the normal CDF
                    if ui < 0.5:
                        res = mpmath.ncdf(ref) - ui
                    else:
                        res = (1 - ui) - mpmath.ncdf(-ref)
                    ref -= res / mpmath.npdf(ref)
                assert abs(zi - ref) <= 1e-15 * abs(ref), (ui, zi)

    def test_as241_hash_sums(self):
        # each region's coefficients, as Wichura published them, have
        # leading digits summing to his hash sum (the denominators' unit
        # constant term left out)
        for coef, hash_sum in (
                (specfun._AS241_CENTRAL, 55.88319_28806_14901_4439),
                (specfun._AS241_NEAR, 49.33206_50330_16102_89036),
                (specfun._AS241_FAR, 47.52583_31754_92896_71629)):
            assert coef.shape == (2, 8) and coef[1, -1] == 1.0
            digits = sum(c / 10.0**math.floor(math.log10(c))
                         for c in coef.ravel())
            assert abs(digits - 1.0 - hash_sum) < 1e-13


def erfcx_power(points, piece):
    """The power-basis coefficients, highest power first, of the
    interpolant of erfcx(x) in t = x - 1 on [0, 2] (piece "near"), or of
    x sqrt(pi) erfcx(x) in t = 4/x - 1 on [2, inf) (piece "far"), at
    `points` Chebyshev points of 40-digit mpmath values: the Chebyshev
    coefficients c_0 / 2, c_1, ... taken to the power basis by
    T_(k+1) = 2t T_k - T_(k-1) in mpmath, each rounded once."""
    with mpmath.workdps(40):
        theta = [mpmath.pi * (j + mpmath.mpf(1) / 2) / points
                 for j in range(points)]
        values = []
        for th in theta:
            t = mpmath.cos(th)
            x = t + 1 if piece == "near" else 4 / (t + 1)
            f = mpmath.exp(x * x) * mpmath.erfc(x)
            values.append(f if piece == "near"
                          else x * mpmath.sqrt(mpmath.pi) * f)
        cheb = [2 * mpmath.fsum(v * mpmath.cos(k * th)
                                for v, th in zip(values, theta)) / points
                for k in range(points)]
        cheb[0] /= 2
        # T_(k-1) and T_k as integer coefficients, lowest power first
        power = [mpmath.mpf(0)] * points
        lower, basis = [], [1]
        for k, c in enumerate(cheb):
            for j, b in enumerate(basis):
                power[j] += c * b
            upper = [0] + [(2 if k else 1) * b for b in basis]
            for j, b in enumerate(lower):
                upper[j] -= b
            lower, basis = basis, upper
        return tuple(float(c) for c in power[::-1])


class TestErfcx:
    def test_coefficients_regenerate(self):
        # the committed coefficients are the interpolants, bit for bit
        assert tuple(specfun._ERFCX_NEAR) == erfcx_power(24, "near")
        assert tuple(specfun._ERFCX_FAR) == erfcx_power(27, "far")

    def test_against_mpmath(self):
        # within 1e-15 relative on [0, 1e8] (scipy's erfcx: 8.9e-16),
        # both sides of the pieces' joint at 2 included
        rng = np.random.default_rng(42)
        x = np.concatenate([
            [0.0, 1e-300, 2.0, np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0),
             1e8], rng.uniform(0.0, 2.0, 400), rng.uniform(2.0, 12.0, 400),
            10.0**rng.uniform(-12, 8, 400)])
        got = specfun._erfcx(x)
        with mpmath.workdps(40):
            for xi, gi in zip(x, got):
                xm = mpmath.mpf(xi)
                ref = mpmath.exp(xm * xm) * mpmath.erfc(xm)
                assert abs(gi - ref) <= 1e-15 * ref, (xi, gi)


P232 = KernelParams(mu=1.5, A=1.5, B=3.0, d=2)
SCALAR_RULE = {
    "inv_reg_gamma_q": lambda v: specfun.inv_reg_gamma_q(1.5, v),
    "inv_reg_gamma_p": lambda v: specfun.inv_reg_gamma_p(1.5, v),
    "sphere_height.t": lambda v: specfun.sphere_height(v, 2.5)[0],
    "sphere_height.scale": lambda v: specfun.sphere_height(v, 2.5)[1],
    "chi_quantile": lambda v: specfun.chi_quantile(3, v),
    "inv_normal_cdf": specfun.inv_normal_cdf,
    "cap_measure": lambda v: cap_measure(2, v),
    "phi_cdf": lambda v: phi_cdf(P232, v),
    "phi_psi_integral": lambda v: phi_psi_integral(P232, v),
    "kernel_psi_integral": lambda v: kernel_psi_integral(P232, v),
}


@pytest.mark.parametrize("name", SCALAR_RULE)
def test_scalar_in_float_out(name):
    # any 0-dimensional input gives a Python float, array input an array
    # of the same shape
    fn = SCALAR_RULE[name]
    values = np.array([[0.1, 0.25, 0.4], [0.5, 0.6, 0.8]])
    batch = fn(values)
    assert isinstance(batch, np.ndarray) and batch.shape == values.shape
    for scalar in (0.25, np.float64(0.25), np.array(0.25)):
        out = fn(scalar)
        assert type(out) is float
        assert out == batch[0, 1]


# name: (f(x, shape), a valid x, a valid shape or None, whether a negative
# x lies outside the domain)
CHECKED = {
    "reg_gamma_p": (lambda x, a: specfun.reg_gamma_p(a, x), 0.5, 1.5, True),
    "reg_gamma_q": (lambda x, a: specfun.reg_gamma_q(a, x), 0.5, 1.5, True),
    "inv_reg_gamma_q": (lambda s, a: specfun.inv_reg_gamma_q(a, s), 0.5, 1.5,
                        True),
    "inv_reg_gamma_p": (lambda p, a: specfun.inv_reg_gamma_p(a, p), 0.5, 1.5,
                        True),
    "reg_beta_i.a": (lambda x, a: specfun.reg_beta_i(x, a, 2.0), 0.5, 1.5,
                     True),
    "reg_beta_i.b": (lambda x, b: specfun.reg_beta_i(x, 2.0, b), 0.5, 1.5,
                     True),
    "sphere_height": (specfun.sphere_height, 0.5, 1.5, True),
    "chi_cdf": (lambda x, k: chi_cdf(k, x), 0.5, 3.0, False),
    "chi_quantile": (lambda u, k: specfun.chi_quantile(k, u), 0.5, 3.0,
                     True),
    "normal_cdf": (lambda x, _: normal_cdf(x), 0.5, None, False),
    "inv_normal_cdf": (lambda u, _: specfun.inv_normal_cdf(u), 0.5, None,
                       True),
}


def value_forms(value, good, array=True):
    """value as a Python float, a numpy float64 and a 0-d array, and
    beside a valid entry in a 1-d array."""
    forms = [float(value), np.float64(value), np.array(value)]
    return forms + [np.array([good, value])] if array else forms


@pytest.mark.parametrize("name", CHECKED)
def test_checks_raise_for_scalar_and_array_input(name):
    fn, x, a, negative_bad = CHECKED[name]
    for form in value_forms(x, x):
        fn(form, a)
    bad = [math.nan, math.inf, -math.inf] + ([-0.5] if negative_bad else [])
    for v in bad:
        for form in value_forms(v, x):
            with pytest.raises(DomainError):
                fn(form, a)
    if a is None:
        return
    for v in (0.0, -1.5):
        # the chi dof is one integer, not an array
        for form in value_forms(v, a, array=not name.startswith("chi")):
            with pytest.raises(DomainError):
                fn(x, form)


# every argument that must be a positive integer, as f(value)
POSITIVE_INT = {
    "chi_cdf": lambda k: chi_cdf(k, 0.5),
    "chi_quantile": lambda k: specfun.chi_quantile(k, 0.5),
    "cap_measure": lambda m: cap_measure(m, 0.5),
    "radial_shells": lambda K: radial_shells(1.5, 3.0, K),
    "equal_area_partition_s2": equal_area_partition_s2,
    "sphere_constants": sphere_constants,
    "KernelParams.d": lambda d: KernelParams(1.5, 1.5, 3.0, d),
    "lambda_k": lambda K: lambda_k(1.5, 2.0, K),
    "OptionSpec.d_steps": lambda n: OptionSpec(100.0, 100.0, 1.0, 0.2,
                                               0.05, n),
}


@pytest.mark.parametrize("name", POSITIVE_INT)
def test_positive_int_checks(name):
    # NaN and inf raise the typed error too, not ValueError/OverflowError
    fn = POSITIVE_INT[name]
    for form in [3] + value_forms(3.0, None, array=False):
        fn(form)
    for v in (math.nan, math.inf, -math.inf, 0.0, -2.0, 2.5):
        for form in value_forms(v, None, array=False):
            with pytest.raises(DomainError, match="positive integer"):
                fn(form)
