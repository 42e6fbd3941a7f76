"""Scalar special functions used throughout the package.

Regularized incomplete gamma/beta functions, the gamma inverses, the
sphere map's height inverse, the chi quantile and the inverse normal CDF.
All functions are pure, accept floats or numpy arrays, and raise
:class:`DomainError` on invalid input.  Evaluation is delegated to
scipy.special (cephes); the test suite checks every function against
independent adaptive-quadrature and bisection oracles, and the sphere
height against mpmath.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .errors import DomainError, InfiniteResultError

__all__ = [
    "reg_gamma_p",
    "reg_gamma_q",
    "inv_reg_gamma_p",
    "inv_reg_gamma_q",
    "reg_beta_i",
    "sphere_height",
    "chi_cdf",
    "chi_quantile",
    "normal_cdf",
    "inv_normal_cdf",
]

# Probabilities below this are treated as exact 0 in the inverse routines
# (saturation instead of error in the extreme tail).
_TINY = 1e-300

# Quantile clamps for scrambled Sobol' coordinates, which lie on the grid
# k/2^32: the chi radius takes min(u, _U_CAP) so that it stays finite,
# and the inverse normal takes max(u, _U_FLOOR) so that a zero
# coordinate does not give -inf.
_U_CAP = 1.0 - 2.0**-32
_U_FLOOR = 2.0**-33

# sphere_height takes one Newton step on stdtr where |u - 1/2| is below
# _NEWTON_BAND, and everywhere at _NEWTON_DOF or non-integer degrees of
# freedom: stdtrit's closed forms for 4 and 6 degrees of freedom lose
# absolute accuracy near the median (1e-8 in T at |u - 1/2| = 2^-28), the
# one for 6 also in the tails (5e-15 relative for u in 4e-4..0.05), and
# off the integers it is 1e-13 off (x at a = 1.482, u = 0.803).
_NEWTON_BAND = 2.0**-4
_NEWTON_DOF = 6.0

# below _TAIL_V, sphere_height takes the leading small-x term of
# I_x(a, a) where it puts the root x below _TAIL_X; stdtrit stays
# elsewhere, within 3e-16 at a = 29/2 for u = 1e-100 ... 1e-230
_TAIL_V = 1e-100
_TAIL_X = 1e-20


def _like_input(x, out):
    """out as a Python float when the input x is 0-dimensional (a Python
    or numpy scalar, or a 0-d array), else as the array it is."""
    return out if np.ndim(x) else float(out)


def _any(mask):
    """mask.any(); for the 0-d mask of a scalar input bool(mask), which
    skips the several microseconds of numpy's reduction machinery."""
    return mask.any() if mask.ndim else bool(mask)


def _check_finite(name, value):
    if _any(~np.isfinite(value)):
        raise DomainError(f"{name} must be finite, got {value!r}")


def _check_positive_int(name, value):
    """Raise DomainError unless the scalar value is a positive integer,
    of any int or float type; NaN and inf are not."""
    if not (math.isfinite(value) and value >= 1 and int(value) == value):
        raise DomainError(f"{name} must be a positive integer, got {value!r}")


def _check_shape(a):
    _check_finite("shape parameter", a)
    if _any(np.asarray(a) <= 0.0):
        raise DomainError(f"shape parameter must be > 0, got {a!r}")


def reg_gamma_p(a, x):
    """Lower regularized incomplete gamma function P(a, x)."""
    _check_shape(a)
    _check_finite("x", x)
    if _any(np.asarray(x) < 0.0):
        raise DomainError(f"x must be >= 0, got {x!r}")
    return sp.gammainc(a, x)


def reg_gamma_q(a, x):
    """Upper regularized incomplete gamma function Q(a, x) = 1 - P(a, x)."""
    _check_shape(a)
    _check_finite("x", x)
    if _any(np.asarray(x) < 0.0):
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
    if _any(s_arr == 0.0):
        raise InfiniteResultError("inverse of Q(a, .) at s = 0 is infinite")
    if _any(s_arr < 0.0) or _any(s_arr > 1.0):
        raise DomainError(f"s must be in (0, 1], got {s!r}")
    return _like_input(s, sp.gammainccinv(a, np.maximum(s_arr, _TINY)))


def inv_reg_gamma_p(a, p):
    """Solve P(a, z) = p for z; p in [0, 1), p -> 1 is infinite."""
    _check_shape(a)
    _check_finite("p", p)
    p_arr = np.asarray(p, dtype=float)
    if _any(p_arr == 1.0):
        raise InfiniteResultError("inverse of P(a, .) at p = 1 is infinite")
    if _any(p_arr < 0.0) or _any(p_arr > 1.0):
        raise DomainError(f"p must be in [0, 1), got {p!r}")
    return _like_input(p, sp.gammaincinv(a, p_arr))


def reg_beta_i(x, a, b):
    """Regularized incomplete beta function I_x(a, b)."""
    _check_shape(a)
    _check_shape(b)
    _check_finite("x", x)
    if _any(np.asarray(x) < 0.0) or _any(np.asarray(x) > 1.0):
        raise DomainError(f"x must be in [0, 1], got {x!r}")
    return sp.betainc(a, b, x)


def sphere_height(u, a):
    """Height t = 1 - 2x of the solution x of I_x(a, a) = u, and its
    scale sqrt(1 - t^2).

    The sphere map's height inverse, computed through the Student-t
    identity I_x(a, a) = F_t(T; 2a) with x = (1 + T/r)/2 and
    r = sqrt(2a + T^2): t = -T/r, and the scale is sqrt(2a)/r, taken
    directly so that it keeps its relative accuracy near the poles.
    Below min(u, 1 - u) = _TAIL_V, where the leading small-x term
    x^a / (a B(a, a)) puts x below _TAIL_X, t is +-1 and the scale
    2 sqrt(x) comes from that term instead.
    a broadcasts against u (one shape per column of a batch).  u lies in
    [0, 1]; u = 0 gives the pole (1, 0), u = 1 gives (-1, 0) and u = 1/2
    gives (+0.0, 1).  Returns the pair (t, scale).
    """
    _check_shape(a)
    _check_finite("u", u)
    u_arr = np.asarray(u, dtype=float)
    if _any(~((u_arr >= 0.0) & (u_arr <= 1.0))):
        raise DomainError(f"u must be in [0, 1], got {u!r}")
    nu = 2.0 * np.asarray(a, dtype=float)
    # |T| from the lower tail, so that t(1 - u) = -t(u) exactly; stdtrit
    # gives +inf rather than -inf at 0 (and below about 2^-787), so only
    # its magnitude is used
    v = np.minimum(u_arr, 1.0 - u_arr)
    m = np.asarray(np.abs(sp.stdtrit(nu, v)))
    step = (v > 0.5 - _NEWTON_BAND) | (nu == _NEWTON_DOF) | (nu % 1 != 0)
    if step.any():
        nu_s = np.broadcast_to(nu, m.shape)[step]
        m_s = m[step]
        with np.errstate(all="ignore"):
            pdf = ((1.0 + m_s * m_s / nu_s) ** (-0.5 * (nu_s + 1.0))
                   / (np.sqrt(nu_s) * sp.beta(0.5 * nu_s, 0.5)))
            new = m_s + (sp.stdtr(nu_s, -m_s)
                         - np.broadcast_to(v, m.shape)[step]) / pdf
        # stdtrit's value stands at the poles and where the pdf underflows
        m[step] = np.where(np.isfinite(new), new, m_s)
    root = np.sqrt(nu)
    r = np.hypot(root, m)
    with np.errstate(invalid="ignore"):  # inf / inf at the poles
        height = np.where(np.isinf(m), 1.0, m / r)
    scale = np.asarray(root / r)
    # far in the tails stdtrit is wrong (by a factor 2 in the scale at
    # a = 3/2, u <= 1e-170), and below x = _TAIL_X the leading term is
    # exact to double precision
    tail = np.broadcast_to(v, m.shape) < _TAIL_V
    if tail.any():
        tail_scale = _tail_scale(np.broadcast_to(v, m.shape)[tail],
                                 np.broadcast_to(0.5 * nu, m.shape)[tail])
        small = tail_scale < 2.0 * math.sqrt(_TAIL_X)
        height[tail] = np.where(small, 1.0, height[tail])
        scale[tail] = np.where(small, tail_scale, scale[tail])
    # the sign of 1/2 - u, which is +0.0 at u = 1/2
    t = np.copysign(height, 0.5 - u_arr)
    return _like_input(t, t), _like_input(t, scale)


def _tail_scale(v, a):
    """The scale 2 sqrt(x) of the root x ~ (v a B(a, a))^(1/a) of the
    leading small-x term I_x(a, a) ~ x^a / (a B(a, a)) = v, formed
    without x, which underflows (at a = 3/4, v = 1e-300).

    v = f 2^k splits exactly, and 2^(k / 2a) = 2^j 2^(r / 2a) with
    r = fmod(k, 2a) exact and j an integer, so that no exponent of
    magnitude ~ 1000 is rounded: the plain power (v a B)^fl(1/2a) is
    2.5e-14 off at a = 3/4, v = 1e-300, and 1.3e-14 at a = 3/2.  B(a, a)
    enters through its logarithm, as it underflows from a ~ 540.
    """
    q = 2.0 * a
    f, k = np.frexp(v)
    r = np.fmod(k, q)
    j = np.rint((k - r) / q).astype(int)
    return np.ldexp(2.0 * (f * a)**(1.0 / q) * np.exp(sp.betaln(a, a) / q)
                    * np.exp2(r / q), j)


def chi_cdf(dof, x):
    """CDF of the chi distribution with `dof` degrees of freedom."""
    _check_positive_int("dof", dof)
    return reg_gamma_p(dof / 2.0, np.square(x) / 2.0)


def chi_quantile(dof, u):
    """Quantile of the chi distribution: x with P(dof/2, x^2/2) = u.

    u must lie in [0, 1); u = 1 raises :class:`InfiniteResultError`.
    """
    _check_positive_int("dof", dof)
    _check_finite("u", u)
    u_arr = np.asarray(u, dtype=float)
    if _any(u_arr == 1.0):
        raise InfiniteResultError("chi quantile at u = 1 is infinite")
    if _any(u_arr < 0.0) or _any(u_arr > 1.0):
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
    if _any(u_arr <= 0.0) or _any(u_arr >= 1.0):
        raise DomainError(f"u must be in (0, 1), got {u!r}")
    return _like_input(u, sp.ndtri(u_arr))
