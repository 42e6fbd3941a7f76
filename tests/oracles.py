"""Test oracles: the scalar kernel, the single radial integrals, the
worst-case error by adaptive quadrature and the other cross-checks that
judge the library's closed forms.  No command of the package calls
them; they reuse its private cores (the wce report core, the radial
closed forms, the direction checks), so that only the route under test
differs."""

import math

import mpmath
import numpy as np
from scipy import integrate, special

from spherecone.errors import ConfigurationError, DomainError
from spherecone.specfun import (_check_finite, _check_positive_int,
                                _like_input, reg_gamma_p, reg_gamma_q)
from spherecone.wce import (_as_polar, _directions, _kernel_sum,
                            _kr_psi_integral, _mean_distance, _wce_reports,
                            phi_cdf, sphere_constants, w_kr_psi)


def psi_density(p, r):
    """Nakagami radial density with shape mu and spread B."""
    r = np.asarray(r, dtype=float)
    c = p.mu / p.B
    return (2.0 / math.gamma(p.mu)) * c**p.mu * r**(2 * p.mu - 1) * np.exp(
        -c * r**2)


def phi_psi_integral(p, rho):
    """int_0^rho Phi(r) psi(r) dr
    = P(mu, (mu/B) rho^2) - (A/B)^mu P(mu, (mu/A) rho^2)."""
    rho = np.asarray(rho, dtype=float)
    out = (reg_gamma_p(p.mu, (p.mu / p.B) * rho**2)
           - (p.A / p.B)**p.mu * reg_gamma_p(p.mu, (p.mu / p.A) * rho**2))
    return _like_input(rho, out)


def kernel_K(p, x, y):
    """Kernel value Phi(min{||x||, ||y||}) (1 - C_d ||x* - y*||).

    Anchored at the origin: K(0, y) = 0.
    """
    rx, dx = _as_polar(x, p.d)
    ry, dy = _as_polar(y, p.d)
    r = min(rx[0], ry[0])
    if r == 0.0:
        return 0.0
    c_d = sphere_constants(p.d).C_d
    return float(phi_cdf(p, r) * (1.0 - c_d * np.linalg.norm(dx[0] - dy[0])))


def kernel_psi_integral(p, rho):
    """int K(x, rho y*) psi(x) dlambda(x), independent of y*:
    W(K_S) int_0^inf K_R(r, rho) psi(r) dr."""
    rho = np.asarray(rho, dtype=float)
    w_ks = sphere_constants(p.d).W_KS
    return _like_input(rho, w_ks * _kr_psi_integral(p, rho,
                                                    phi_cdf(p, rho)))


def wce_isotropic_general(Phi, psidens, d, X, psi_tail_fn=None,
                          phi_psi_integral_fn=None, w_kr=None):
    """Worst-case error for a user-supplied radial cdf Phi and density
    psidens, radial integrals by adaptive quadrature unless closed-form
    callables are given.

    Phi must be a cdf anchored at 0 and psidens a probability density on
    [0, inf); both are validated numerically.
    """
    if abs(Phi(0.0)) > 1e-8 or abs(Phi(1e8) - 1.0) > 1e-6:
        raise ConfigurationError("Phi must satisfy Phi(0)=0 and Phi(inf)=1")
    total, _ = integrate.quad(psidens, 0.0, np.inf, limit=200)
    if abs(total - 1.0) > 1e-8:
        raise ConfigurationError(
            f"psidens must integrate to 1, got {total}")
    if psi_tail_fn is None:
        def psi_tail_fn(rho):
            val, _ = integrate.quad(psidens, rho, np.inf, limit=200)
            return val
    if phi_psi_integral_fn is None:
        def phi_psi_integral_fn(rho):
            val, _ = integrate.quad(lambda r: Phi(r) * psidens(r), 0.0, rho,
                                    limit=200)
            return val
    if w_kr is None:
        w_kr, _ = integrate.quad(
            lambda r: 2.0 * Phi(r) * psidens(r) * psi_tail_fn(r),
            0.0, np.inf, limit=200, epsabs=1e-10)

    radii, dirs = _as_polar(X, d)
    phi = np.array([Phi(r) for r in radii])
    single = np.array([f * psi_tail_fn(r) + phi_psi_integral_fn(r)
                       for f, r in zip(phi, radii)])
    return _wce_reports(d, w_kr, radii[None], phi[None], single[None],
                        dirs[None])[0]


def wce_sphere_cap(d, Y):
    """Worst-case error on the sphere alone:
    sqrt(C_d [W(S^d) - mean pairwise distance]), the spherical-cap L2
    discrepancy of the directions Y."""
    Y = _directions(Y, d)
    consts = sphere_constants(d)
    return math.sqrt(max(consts.C_d * (consts.W_Sd - _mean_distance(Y)),
                         0.0))


def radial_discrepancy(p, radii):
    """L2 discrepancy of the radii against the radial density: the wce
    of the one-dimensional rule with kernel K_R(r, rho) = Phi(min)."""
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.shape[0] == 0:
        raise DomainError("need a nonempty list of radii")
    if np.any(radii < 0):
        raise DomainError("radii must be nonnegative")
    w_kr = w_kr_psi(p)
    phi = phi_cdf(p, radii)
    kr_mean = _kernel_sum(radii[None], phi[None])[0] / len(radii)**2
    single = _kr_psi_integral(p, radii, phi)
    sq = kr_mean + w_kr - 2.0 * float(np.mean(single))
    return math.sqrt(max(sq, 0.0))


def shell_mass(shells, k):
    """Mass of shell k (1-based) of RadialShells under the density;
    should be 1/K."""
    lo = 0.0 if k == 1 else shells.boundaries[k - 2]
    c = shells.mu / shells.B
    upper = (reg_gamma_q(shells.mu, c * shells.boundaries[k - 1] ** 2)
             if k < shells.K else 0.0)
    return reg_gamma_q(shells.mu, c * lo**2) - upper


def cell_area(partition, i):
    """Normalized area of cell i of a SpherePartition."""
    t0, t1, p0, p1 = partition.cells[i]
    return (np.cos(t0) - np.cos(t1)) * (p1 - p0) / (4.0 * np.pi)


def min_matrix_eigenvalues(d, dt):
    """Analytic spectrum of the dt*min(i,j) matrix, sorted descending:
    lambda_k = (dt/4) / sin^2((2k-1) pi / (2(2d+1)))."""
    k = np.arange(1, d + 1)
    return (dt / 4.0) / np.sin((2 * k - 1) * np.pi / (2.0 * (2 * d + 1)))**2


def chi_cdf(dof, x):
    """CDF of the chi distribution with `dof` degrees of freedom."""
    _check_positive_int("dof", dof)
    return reg_gamma_p(dof / 2.0, np.square(x) / 2.0)


def normal_cdf(x):
    """Standard normal CDF via erf: the oracle of inv_normal_cdf."""
    _check_finite("x", x)
    return 0.5 * (1.0 + special.erf(np.asarray(x, dtype=float)
                                    / np.sqrt(2.0)))


def sphere_height_tail_mpmath(u, a, dps=40):
    """Independent oracle of sphere_height for u up to 1/2, also where x
    lies below the double range: Newton's method at `dps` digits on
    log I_x(a, a) = log u in y = log x, from the leading small-x term
    x^a / (a B(a, a)) = u, or from x = 1/2 where that lies above.
    Returns the height 1 - 2x and the scale 2 sqrt(x (1 - x))."""
    with mpmath.workdps(dps):
        u, a = mpmath.mpf(u), mpmath.mpf(a)
        beta = mpmath.beta(a, a)
        y = min(mpmath.log(u * a * beta) / a, -mpmath.log(2))
        for _ in range(50):
            x = mpmath.exp(y)
            ix = mpmath.betainc(a, a, 0, x, regularized=True)
            dy = ((mpmath.log(ix) - mpmath.log(u))
                  * beta * ix / (x**a * (1 - x)**(a - 1)))
            y -= dy
            if abs(dy) <= mpmath.mpf(10) ** (5 - dps):
                break
        else:
            raise AssertionError(f"no convergence at u={u}, a={a}")
        x = mpmath.exp(y)
        return 1 - 2 * x, 2 * mpmath.sqrt(x * (1 - x))
