"""Scalar special functions used throughout the package.

Regularized incomplete gamma/beta functions, their inverses, the chi
quantile and the inverse normal CDF.  All functions are pure, accept
floats or numpy arrays, and raise :class:`DomainError` on invalid input.
Evaluation is delegated to scipy.special (cephes); the test suite checks
every function against independent adaptive-quadrature and bisection
oracles.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp

from .errors import DomainError, InfiniteResultError

__all__ = [
    "reg_gamma_p",
    "reg_gamma_q",
    "inv_reg_gamma_p",
    "inv_reg_gamma_q",
    "reg_beta_i",
    "inv_reg_beta_symmetric",
    "chi_cdf",
    "chi_quantile",
    "normal_cdf",
    "inv_normal_cdf",
]

# Probabilities below this are treated as exact 0 in the inverse routines
# (saturation instead of error in the extreme tail).
_TINY = 1e-300


def _like_input(x, out):
    """out as a Python float when the input x is 0-dimensional (a Python
    or numpy scalar, or a 0-d array), else as the array it is."""
    return out if np.ndim(x) else float(out)


def _check_finite(name, value):
    if not np.all(np.isfinite(value)):
        raise DomainError(f"{name} must be finite, got {value!r}")


def _check_shape(a):
    _check_finite("shape parameter", a)
    if np.any(np.asarray(a) <= 0.0):
        raise DomainError(f"shape parameter must be > 0, got {a!r}")


def reg_gamma_p(a, x):
    """Lower regularized incomplete gamma function P(a, x)."""
    _check_shape(a)
    _check_finite("x", x)
    if np.any(np.asarray(x) < 0.0):
        raise DomainError(f"x must be >= 0, got {x!r}")
    return sp.gammainc(a, x)


def reg_gamma_q(a, x):
    """Upper regularized incomplete gamma function Q(a, x) = 1 - P(a, x)."""
    _check_shape(a)
    _check_finite("x", x)
    if np.any(np.asarray(x) < 0.0):
        raise DomainError(f"x must be >= 0, got {x!r}")
    return sp.gammaincc(a, x)


def inv_reg_gamma_q(a, s):
    """Solve Q(a, z) = s for z.

    s must lie in (0, 1]; s = 1 gives z = 0 and s = 0 would require
    z = +inf, which raises :class:`InfiniteResultError`.  Values of s
    below 1e-300 saturate to the s = 1e-300 quantile.
    """
    _check_shape(a)
    _check_finite("s", s)
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr == 0.0):
        raise InfiniteResultError("inverse of Q(a, .) at s = 0 is infinite")
    if np.any(s_arr < 0.0) or np.any(s_arr > 1.0):
        raise DomainError(f"s must be in (0, 1], got {s!r}")
    return _like_input(s, sp.gammainccinv(a, np.maximum(s_arr, _TINY)))


def inv_reg_gamma_p(a, p):
    """Solve P(a, z) = p for z; p in [0, 1), p -> 1 is infinite."""
    _check_shape(a)
    _check_finite("p", p)
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr == 1.0):
        raise InfiniteResultError("inverse of P(a, .) at p = 1 is infinite")
    if np.any(p_arr < 0.0) or np.any(p_arr > 1.0):
        raise DomainError(f"p must be in [0, 1), got {p!r}")
    return _like_input(p, sp.gammaincinv(a, p_arr))


def reg_beta_i(x, a, b):
    """Regularized incomplete beta function I_x(a, b)."""
    _check_shape(a)
    _check_shape(b)
    _check_finite("x", x)
    if np.any(np.asarray(x) < 0.0) or np.any(np.asarray(x) > 1.0):
        raise DomainError(f"x must be in [0, 1], got {x!r}")
    return sp.betainc(a, b, x)


def inv_reg_beta_symmetric(y, a):
    """Inverse of x -> I_x(a, a) on [0, 1].

    Used for the area-preserving sphere map, where h_q(x) = I_x(q/2, q/2).
    The symmetry point y = 1/2 maps to exactly 1/2.
    """
    _check_shape(a)
    _check_finite("y", y)
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < 0.0) or np.any(y_arr > 1.0):
        raise DomainError(f"y must be in [0, 1], got {y!r}")
    out = sp.betaincinv(a, a, y_arr)
    out = np.where(y_arr == 0.5, 0.5, out)
    return _like_input(y, out)


def chi_cdf(dof, x):
    """CDF of the chi distribution with `dof` degrees of freedom."""
    if dof < 1 or int(dof) != dof:
        raise DomainError(f"dof must be a positive integer, got {dof!r}")
    return reg_gamma_p(dof / 2.0, np.square(x) / 2.0)


def chi_quantile(dof, u):
    """Quantile of the chi distribution: x with P(dof/2, x^2/2) = u.

    u must lie in [0, 1); u = 1 raises :class:`InfiniteResultError`.
    """
    if dof < 1 or int(dof) != dof:
        raise DomainError(f"dof must be a positive integer, got {dof!r}")
    _check_finite("u", u)
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr == 1.0):
        raise InfiniteResultError("chi quantile at u = 1 is infinite")
    if np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise DomainError(f"u must be in [0, 1), got {u!r}")
    return _like_input(u, np.sqrt(2.0 * sp.gammaincinv(dof / 2.0, u_arr)))


def normal_cdf(x):
    """Standard normal CDF via erf."""
    _check_finite("x", x)
    return 0.5 * (1.0 + sp.erf(np.asarray(x, dtype=float) / np.sqrt(2.0)))


def inv_normal_cdf(u):
    """Inverse standard normal CDF; u must lie strictly in (0, 1)."""
    _check_finite("u", u)
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise DomainError(f"u must be in (0, 1), got {u!r}")
    return _like_input(u, sp.ndtri(u_arr))
