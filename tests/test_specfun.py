import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from spherecone import specfun
from spherecone.errors import DomainError, InfiniteResultError
from spherecone.spheremap import cap_measure
from spherecone.wce import (KernelParams, kernel_psi_integral, phi_cdf,
                            phi_psi_integral)


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

    @given(st.floats(1e-4, 1.0 - 1e-4), st.floats(0.5, 10.0),
           st.floats(0.5, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_reflection_symmetry(self, x, a, b):
        # parameters kept away from the endpoints where the reflected
        # argument 1 - x itself amplifies representation error
        assert specfun.reg_beta_i(x, a, b) == pytest.approx(
            1.0 - specfun.reg_beta_i(1.0 - x, b, a), abs=1e-11)


class TestInvRegBetaSymmetric:
    def test_symmetry_point_exact(self):
        assert specfun.inv_reg_beta_symmetric(0.5, 1.5) == 0.5
        assert specfun.inv_reg_beta_symmetric(0.0, 2.0) == 0.0

    def test_round_trip_oracle(self):
        x = specfun.inv_reg_beta_symmetric(0.25, 1.5)
        x_ref = bisect(lambda t: specfun.reg_beta_i(t, 1.5, 1.5) - 0.25,
                       0.0, 1.0)
        assert x == pytest.approx(x_ref, abs=1e-12)
        assert specfun.reg_beta_i(x, 1.5, 1.5) == pytest.approx(
            0.25, abs=1e-12)

    def test_round_trip_many(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.3, 20.0, 50)
        y = rng.uniform(0.0, 1.0, 50)
        x = np.array([specfun.inv_reg_beta_symmetric(yy, aa)
                      for yy, aa in zip(y, a)])
        back = np.array([specfun.reg_beta_i(xx, aa, aa)
                         for xx, aa in zip(x, a)])
        np.testing.assert_allclose(back, y, atol=1e-12)


class TestChi:
    def test_quantile_known(self):
        assert specfun.chi_quantile(2, 1.0 - math.exp(-0.5)) == \
            pytest.approx(1.0, rel=1e-13)
        assert specfun.chi_quantile(2, 0.0) == 0.0

    def test_round_trip_dof30(self):
        x = specfun.chi_quantile(30, 0.9)
        x_ref = bisect(lambda t: specfun.chi_cdf(30, t) - 0.9, 0.0, 50.0)
        assert x == pytest.approx(x_ref, rel=1e-10)
        assert specfun.chi_cdf(30, x) == pytest.approx(0.9, abs=1e-12)

    def test_u_one_is_infinite(self):
        with pytest.raises(InfiniteResultError):
            specfun.chi_quantile(3, 1.0)

    def test_bad_dof(self):
        with pytest.raises(DomainError):
            specfun.chi_quantile(0, 0.5)
        with pytest.raises(DomainError):
            specfun.chi_cdf(2.5, 0.5)


class TestNormal:
    def test_known(self):
        assert specfun.inv_normal_cdf(0.5) == 0.0
        assert specfun.inv_normal_cdf(0.975) == pytest.approx(
            1.959964, abs=1e-6)

    def test_bisection_oracle(self):
        for u in (0.01, 0.3, 0.8, 0.999):
            z = specfun.inv_normal_cdf(u)
            z_ref = bisect(lambda t: specfun.normal_cdf(t) - u, -10.0, 10.0)
            assert z == pytest.approx(z_ref, abs=1e-9)
            assert specfun.normal_cdf(z) == pytest.approx(u, abs=1e-9)

    @given(st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry(self, u):
        assert specfun.inv_normal_cdf(u) == pytest.approx(
            -specfun.inv_normal_cdf(1.0 - u), abs=1e-10)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(DomainError):
                specfun.inv_normal_cdf(bad)


P232 = KernelParams(mu=1.5, A=1.5, B=3.0, d=2)
SCALAR_RULE = {
    "inv_reg_gamma_q": lambda v: specfun.inv_reg_gamma_q(1.5, v),
    "inv_reg_gamma_p": lambda v: specfun.inv_reg_gamma_p(1.5, v),
    "inv_reg_beta_symmetric": lambda v: specfun.inv_reg_beta_symmetric(
        v, 2.5),
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
