"""Scalar special functions used throughout the package.

Regularized incomplete gamma/beta functions, the gamma inverses, the
sphere map's height inverse, the chi quantile and the inverse normal CDF.
All functions are pure, accept floats or numpy arrays, and raise
:class:`DomainError` on invalid input.  Two families are solved here on
the half-integer grid, the shapes a with 2a an integer, and delegated to
scipy.special off it:
- the incomplete gamma functions of one scalar shape up to _GRID_CAP
  (the chi lift's dof/2, the Nakagami mu of the wce kernel) take P and Q
  in closed form, and their inverses and the chi quantile two Halley
  steps on those forms; other shapes take scipy's gammainc, gammaincc
  and their generic inverses;
- the sphere height takes Halley steps on the closed-form Wallis CDF,
  and off the grid (and in every lower tail) on scipy's betainc.
The beta function and the normal CDF and its inverse are scipy's.  The
test suite checks every function against independent adaptive-quadrature
and bisection oracles, and the grid forms against mpmath.
"""

from __future__ import annotations

import functools
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

# The incomplete gamma functions of a scalar shape a with 2a an integer
# up to _GRID_CAP (DiDonato and Morris, ACM TOMS 12, 1986), see _grid_q
# and _grid_p.  Their inverses cost about a third of scipy's time per
# value but a fixed 0.15-0.24 ms per call (some 200 numpy calls), so
# they gain from a few hundred values per call on.  chi_quantile of 512
# values, price-table's call size for its a = 15, measured on 2 vCPUs
# against scipy's time: 0.71-0.97 at the half-integer a up to 15/2,
# 0.99-1.03 at the integer a from 2 to 7 (1.21 at a = 1), 1.03-1.08
# from a = 8 on; 0.25-0.40 over 8192 values for every a up to 15, and
# 3.5-5.7 over 64 values.
_GRID_CAP = 7.5
_SQRT_PI = math.sqrt(math.pi)
# h = e^(-x/2) is 0 from x = 1491 on
_X_FLAT = 1500.0
# The inverse (_gamma_halley) starts from the small-x leading term where
# that lies below _LEAD_X a, in the upper tail from the large-x
# asymptotic root where that lies above _ASYM_X[0] a + _ASYM_X[1], and
# from Wilson-Hilferty elsewhere.  On the grid these starts lie within
# 5 % of the root, from where _GAMMA_STEPS Halley steps reach it to
# rounding: within 1.5e-15 of six steps over 2.2e5 random targets per
# shape and tail (3.3e-15 at a = 1/2 near the median, where the steps
# stall at the rounding of P and Q).  In the lower tail the starts and
# first steps stayed below 0.99 a, inside the range of P's series.
_LEAD_X = 0.2
_ASYM_X = (4.65, 2.0)
_GAMMA_STEPS = 2

# sphere_height solves F(phi) = v for the colatitude phi (see
# _wallis_height):
# - on the half-integer grid (2a = q an integer), the forward Wallis
#   form of F serves roots above sin^2 phi = _FORWARD_S2 where its
#   rounding, about (1 + m/9) _EPS_HALF in F, moves the height by less
#   than _FORWARD_DT;
# - scipy's betainc serves the rest, and every root off the grid, from
#   the first Halley step off the grid and where v < _FORWARD_V (there
#   the forward form's rounding exceeds 1e-6 of F), else from the last;
# - where the v, or the root x, lies below _SERIES_V, betainc loses
#   digits to underflow (1e-7 of F at a = 30, v = 1e-290), and the
#   positive series gives the far tail's residual in the same Halley
#   steps; _SERIES_TERMS terms reach 2^-56 of its first at sin^2 phi = 1/2.
# Halley steps start from the leading small-phi term where that term
# puts sin^2 phi below _LEAD_S2, and from a Cornish-Fisher t-quantile
# elsewhere; below q = 1 (off the grid), where that series in 1/q fails,
# from the leading term below _LEAD_S2_SMALL and from the median's
# Taylor series F ~ 1/2 - (d - n d^3/6) / S_n(pi), d = pi/2 - phi, above.
_FORWARD_S2 = 0.5
_FORWARD_DT = 1e-15
_EPS_HALF = 2.0**-53
_FORWARD_V = 1e-9
_SERIES_V = 1e-250
_SERIES_TERMS = 56
_LEAD_S2 = 0.2
_LEAD_S2_SMALL = 0.5
# off the grid, roots with cos^2 phi below _MEDIAN_C2 take F as
# (1 - I_{c^2}(1/2, a)) / 2, whose absolute error near the median is a
# few ulps of the small I, where betainc(a, a, x) is a few ulps of 1/2
_MEDIAN_C2 = 0.5
# elements per block of the on-grid solve, which bounds its temporaries
_BLOCK = 2**15
# T / z = sum_j w^j sum_l _CORNISH_FISHER[j, l] / q^l with w = z^2 for
# the t-quantile T of q degrees of freedom at the normal quantile z
# (Abramowitz and Stegun 26.7.5)
_CORNISH_FISHER = np.array([
    [1.0, 1 / 4, 3 / 96, -15 / 384, -945 / 92160],
    [0.0, 1 / 4, 16 / 96, 17 / 384, -1920 / 92160],
    [0.0, 0.0, 5 / 96, 19 / 384, 1482 / 92160],
    [0.0, 0.0, 0.0, 3 / 384, 776 / 92160],
    [0.0, 0.0, 0.0, 0.0, 79 / 92160]])


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


def _on_grid(a):
    """Whether the checked shape a is one scalar with 2a an integer, up
    to _GRID_CAP, so that the gamma functions take the closed forms."""
    return np.ndim(a) == 0 and a <= _GRID_CAP and (2.0 * a) % 1 == 0


def reg_gamma_p(a, x):
    """Lower regularized incomplete gamma function P(a, x)."""
    return _reg_gamma(a, x, upper=False)


def reg_gamma_q(a, x):
    """Upper regularized incomplete gamma function Q(a, x) = 1 - P(a, x)."""
    return _reg_gamma(a, x, upper=True)


def _reg_gamma(a, x, upper):
    """Q(a, x) if upper, else P(a, x); on the grid in x's shape, and a
    numpy float for 0-dimensional x, as scipy's ufuncs return."""
    _check_shape(a)
    _check_finite("x", x)
    if _any(np.asarray(x) < 0.0):
        raise DomainError(f"x must be >= 0, got {x!r}")
    if not _on_grid(a):
        return (sp.gammaincc if upper else sp.gammainc)(a, x)
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    if upper:
        out = _grid_q(float(a), flat, np.exp(-0.5 * flat))
    else:
        out = _grid_p(float(a), flat)
    return out.reshape(x.shape)[()]


def inv_reg_gamma_q(a, s):
    """Solve Q(a, z) = s for z.

    s must lie in (0, 1]; s = 1 gives z = 0 and s = 0 would require
    z = +inf, which raises :class:`InfiniteResultError`.  Values of s
    below 1e-300 saturate to the s = 1e-300 quantile.
    """
    _check_shape(a)
    s_arr = _check_probability("s", s, 0.0,
                               "inverse of Q(a, .) at s = 0 is infinite")
    return _like_input(s, _gamma_inverse(a, np.maximum(s_arr, _TINY),
                                         upper=True))


def inv_reg_gamma_p(a, p):
    """Solve P(a, z) = p for z; p in [0, 1), p -> 1 is infinite."""
    _check_shape(a)
    p_arr = _check_probability("p", p, 1.0,
                               "inverse of P(a, .) at p = 1 is infinite")
    return _like_input(p, _gamma_inverse(a, p_arr, upper=False))


def _check_probability(name, value, infinite_at, message):
    """value as a float array, checked to be finite and in [0, 1] but
    for infinite_at, the end (0 or 1) where the inverse is infinite."""
    _check_finite(name, value)
    arr = np.asarray(value, dtype=float)
    if _any(arr == infinite_at):
        raise InfiniteResultError(message)
    if _any(arr < 0.0) or _any(arr > 1.0):
        interval = "(0, 1]" if infinite_at == 0.0 else "[0, 1)"
        raise DomainError(f"{name} must be in {interval}, got {value!r}")
    return arr


def _gamma_inverse(a, v, upper):
    """x with Q(a, x) = v if upper, else P(a, x) = v, for the checked
    shape a and probabilities v: _gamma_root on the grid, else scipy's
    gammainccinv or gammaincinv."""
    if not _on_grid(a):
        return (sp.gammainccinv if upper else sp.gammaincinv)(a, v)
    p, q = (1.0 - v, v) if upper else (v, 1.0 - v)
    return _gamma_root(float(a), p, q)


def _grid_q(a, x, h):
    """Q(a, x) for a on the grid, x (n,) and h = e^(-x/2).

    Q = e^-x sum_{k<a} x^k / k! for integer a, and e^-x (erfcx(sqrt x) +
    sqrt x sum_{k<a-1/2} x^k / Gamma(k + 3/2)) otherwise, sums of positive
    terms; the erfc term enters through erfcx, as scipy's erfc(sqrt x)
    takes exp(-y^2) of the rounded y = sqrt x, 5e-14 off at x = 640.
    e^-x enters as the two factors h, so that Q stays normal where e^-x
    underflows; the sum takes x up to _X_FLAT, where h is already 0, so
    that it stays finite.
    """
    s = _horner(_grid_constants(int(2.0 * a))[0], np.minimum(x, _X_FLAT))
    if a % 1:
        y = np.sqrt(x)
        s = s * y + sp.erfcx(y)
    return h * (h * s)


def _grid_p(a, x):
    """P(a, x) for a on the grid and x (n,): below x = a - 1/3, where
    P < 1/2, the positive series of _series_p; above, 1 - Q with
    Q < 0.57, which cancels no more than one bit."""
    low = x < a - 1.0 / 3.0
    p = np.empty_like(x)
    x_low, x_high = x[low], x[~low]
    p[low] = _series_p(a, x_low, np.exp(-0.5 * x_low))[0]
    p[~low] = 1.0 - _grid_q(a, x_high, np.exp(-0.5 * x_high))
    return p


def _series_p(a, x, h):
    """P(a, x) = e^-x x^a / Gamma(a + 1) sum_k x^k / ((a + 1) ... (a + k))
    and the sum, for a on the grid, x (n,) up to a and h = e^(-x/2)."""
    series = _horner(_grid_constants(int(2.0 * a))[1], x)
    return _head(a, x, h) * series, series


def _head(a, x, h):
    """e^-x x^a / Gamma(a + 1) for a on the grid, x (n,) below 1416 and
    h = e^(-x/2), which is normal there."""
    return np.power(x, a) * h * (h * _grid_constants(int(2.0 * a))[2])


def _horner(coef, x):
    """The polynomial with coefficients coef, highest power first, at x."""
    acc = np.full(x.shape, coef[0])
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def _inv_gamma(b):
    """1 / Gamma(b) for b >= 1 an integer or half-integer: 1 / (b - 1)!,
    or 2^(k+1) / (1 3 ... (2k + 1)) / sqrt(pi) for b = k + 3/2, the
    ratio of exact integers rounded once."""
    if b % 1:
        k = int(b - 1.5)
        return 2**(k + 1) / math.prod(range(1, 2 * k + 2, 2)) / _SQRT_PI
    return 1 / math.factorial(int(b) - 1)


@functools.cache
def _grid_constants(n):
    """For the grid shape a = n / 2, the Horner coefficients, highest
    power first, of Q's finite sum (see _grid_q; a zero for a = 1/2) and
    of P's series (see _series_p), and 1 / Gamma(a + 1).  The series runs
    to the first term below 2^-54 of its leading 1 at x = a, above every
    x it serves: below a - 1/3 in _grid_p, and below the median, which
    lies under a, in the lower tail of the inverse."""
    a = n / 2.0
    if a % 1:
        finite = [_inv_gamma(k + 1.5) for k in range(int(a))] or [0.0]
    else:
        finite = [_inv_gamma(k + 1.0) for k in range(int(a))]
    series, term = [1.0], 1.0
    while term >= 2.0**-54:
        k = len(series)
        series.append(series[-1] / (a + k))
        term *= a / (a + k)
    return (np.array(finite[::-1]), np.array(series[::-1]),
            _inv_gamma(a + 1.0))


def _gamma_root(a, p, q):
    """x with P(a, x) = p where p <= q, else with Q(a, x) = q, for a on
    the grid and q = 1 - p; of each pair the smaller value must be exact,
    as the solver takes that one.  p and q are arrays of one shape."""
    shape = np.shape(p)
    p, q = p.reshape(-1), q.reshape(-1)
    upper = q < p
    x = np.empty(p.shape)
    for side, v in ((False, p), (True, q)):
        at = upper == side
        if at.any():
            x[at] = _gamma_halley(a, v[at], side)
    return x.reshape(shape)


def _gamma_halley(a, v, upper):
    """x with Q(a, x) = v if upper, else P(a, x) = v, for v (n,) in
    [0, 1/2] and a on the grid: _GAMMA_STEPS Halley steps on
    g = log(F / v), F = P or Q, from the start of _LEAD_X and _ASYM_X.

    With the density f = x^(a-1) e^-x / Gamma(a), F' = f for P and -f for
    Q, and F'' = F' ((a - 1) / x - 1), so that with w = F / F' the step
    g / (g' - g g'' / 2g') is g w / (1 - g (((a - 1) / x - 1) w - 1) / 2).
    Roots below the smallest normal number keep the leading term, which
    is exact there.
    """
    z = sp.ndtri(v)
    if upper:
        z = -z
    with np.errstate(all="ignore"):
        x = a * (1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a)))**3
        if upper:
            # the root of log Q = (a - 1) log x - x - log Gamma(a)
            # + log(x / (x - a + 1)), Q's leading terms at large x
            top = -np.log(v) - math.lgamma(a)
            asym = top
            for _ in range(3):
                asym = top + (a - 1.0) * np.log(asym) - np.log1p(
                    (1.0 - a) / asym)
            x = np.where(asym > _ASYM_X[0] * a + _ASYM_X[1], asym, x)
        else:
            # P ~ x^a (1 - a x / (a + 1)) / Gamma(a + 1) at small x
            lead = (v * math.gamma(a + 1.0))**(1.0 / a)
            lead *= 1.0 + lead / (a + 1.0)
            x = np.where(lead < _LEAD_X * a, lead, x)
        for _ in range(_GAMMA_STEPS):
            h = np.exp(-0.5 * x)
            if upper:
                value = _grid_q(a, x, h)
                w = -value / (_head(a, x, h) * (a / x))
            else:
                # P's roots lie below the median, under a, where its
                # series serves alone; w = F / f = x sum / a
                value, series = _series_p(a, x, h)
                w = series * (x / a)
            g = np.log(value / v)
            x = x - g * w / (1.0 - 0.5 * g * (((a - 1.0) / x - 1.0) * w
                                               - 1.0))
    if upper:
        return x
    return np.where(lead < np.finfo(float).tiny, lead, x)


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

    With x = sin^2(phi / 2) the height is cos phi and the scale sin phi,
    and I_x(a, a) = F(phi) = S_n(phi) / S_n(pi) with n = 2a - 1 and
    S_n(phi) = int_0^phi sin^n.  Two Halley steps on log F solve for phi
    directly (_wallis_height), so that the scale keeps its relative
    accuracy near the poles; F comes in closed form when 2a is an integer
    (every shape the sphere map uses), and from betainc otherwise.
    a broadcasts against u (one shape per column of a batch).  u lies in
    [0, 1]; u = 0 gives the pole (1, 0), u = 1 gives (-1, 0) and u = 1/2
    gives (+0.0, 1).  Returns the pair (t, scale).
    """
    _check_shape(a)
    _check_finite("u", u)
    u_arr = np.asarray(u, dtype=float)
    if _any(~((u_arr >= 0.0) & (u_arr <= 1.0))):
        raise DomainError(f"u must be in [0, 1], got {u!r}")
    q = 2.0 * np.asarray(a, dtype=float)
    # the solver works from the lower tail, so that t(1 - u) = -t(u)
    # exactly, on a 2-D view with one shape per column: the last axis
    # when a is a scalar or a row, else one column per element
    v = np.minimum(u_arr, 1.0 - u_arr)
    shape = np.broadcast_shapes(v.shape, q.shape)
    if 0 in shape:
        return np.empty(shape), np.empty(shape)
    if q.ndim <= 1:
        v2, q2 = np.broadcast_to(v, shape).reshape(-1, q.size), q.reshape(-1)
    else:
        v2 = np.broadcast_to(v, shape).reshape(1, -1)
        q2 = np.broadcast_to(q, shape).reshape(-1)
    height, scale = _wallis_height(v2, q2)
    # the sign of 1/2 - u, which is +0.0 at u = 1/2
    t = np.copysign(height.reshape(shape), 0.5 - u_arr)
    return _like_input(t, t), _like_input(t, scale.reshape(shape))


def _wallis_height(v, q):
    """cos phi and sin phi of the root phi in [0, pi/2] of F(phi) = v for
    the lower tail v (rows, k) <= 1/2 and shapes q = 2a > 0 (k,).

    For integers q the Wallis recursion S_n = ((n-1)/n) S_{n-2} -
    sin^(n-1) cos / n gives F in closed form: phi/pi - c s P(s^2) for
    even n and (1 - c)/2 - c s^2 P(s^2) for odd n, with s = sin phi,
    c = cos phi and P a polynomial of degree floor(n/2) - 1 whose
    coefficients depend only on the parity of n.  This forward form
    cancels where F is small, so each column's lower tail, below v_sub,
    takes F from betainc, as does every column off the grid (v_sub = 1).
    F' = s^n / S_n(pi) and F'' = n s^(n-1) c / S_n(pi) for any real n,
    so each Halley step on log F costs one evaluation of F.

    Where v or the root's x underflows, below _SERIES_V, betainc loses
    digits, and the same Halley steps take the residual from the series
    F = s^q Sigma(s) / S_n(pi), Sigma = sum_k C(2k, k) 4^-k s^(2k) /
    (q + 2k) of int_0^s w^n dw / sqrt(1 - w^2), as log(F / v) =
    q log(s / lead) + log(q Sigma), since lead^q = q S_n(pi) v
    (_tail_scale forms lead without v^(1/q), which loses the subnormal
    v's digits).  lead = 0, at v = 0 or where lead underflows (below
    q = 1), gives the pole (1, 0).
    """
    # the columns in the order of the number m of coefficients of P (none
    # off the grid), then of q
    off = q % 1 != 0
    m = np.where(off, 0.0, np.floor((q - 1.0) / 2.0))
    order = np.lexsort((q, m))
    q, m, off = q[order], m[order], off[order]
    n = q - 1.0
    big_s = sp.beta(0.5, 0.5 * q)  # S_n(pi)
    beta = _central_binomials(int(m.max()) + 1)[1:]
    i = np.arange(beta.size)
    coef = np.where(i[:, None] < m,
                    np.where(n % 2 == 0,
                             1.0 / (np.pi * beta * (2 * i + 2))[:, None],
                             0.5 * beta[:, None]), 0.0)[:, :, None]
    # Horner step i needs only the columns whose P has degree >= i: the
    # rows from start[i] on of a block laid out one column per row
    start = np.searchsorted(m, i, side="right")
    # the forward form's rounding error in F, below (1 + m/9) eps/2 for
    # q up to 191 against mpmath, moves the height by that over the
    # slope s^(n-1) / S_n(pi) of F in t; v_sub is F where the move
    # reaches _FORWARD_DT, or F at sin^2 phi = _FORWARD_S2 if higher
    with np.errstate(divide="ignore", over="ignore"):
        s_fwd = np.where(n > 1.0, (
            big_s * (1.0 + np.floor(n / 2.0) / 9.0) * _EPS_HALF
            / _FORWARD_DT) ** (1.0 / (n - 1.0)), 0.0)
    # x = (1 - cos phi) / 2 at that sin^2 phi
    x_sub = 0.5 * (1.0 - np.sqrt(1.0 - np.clip(s_fwd * s_fwd, _FORWARD_S2,
                                                1.0)))
    v_sub = np.where(off, 1.0, sp.betainc(0.5 * q, 0.5 * q, x_sub))[:, None]
    even, n_col, s_col, q_col = ((n % 2 == 0)[:, None], n[:, None],
                                 big_s[:, None], q[:, None])
    base = np.where(even, 1.0 / np.pi, 0.5)  # phi/pi or (1 - c)/2

    def residual(phi, s, c, last):
        z = s * s
        acc = np.zeros_like(z)
        for j in range(i.size - 1, -1, -1):
            part = acc[start[j]:]
            part *= z[start[j]:]
            part += coef[j, start[j]:]
        # in place where it can be, as these blocks are the solve's
        # working memory
        acc *= np.where(even, s, z)
        acc *= c
        f = np.where(even, phi, 1.0 - c)
        f *= base
        f -= acc
        g = np.log(np.divide(f, vb, out=acc), out=acc)
        slope = s**q_col
        slope /= s_col
        slope /= f
        at, v_at, a_at = final if last else first
        if v_at.size:
            s_at, c_at = s[at], c[at]
            f = sp.betainc(a_at, a_at, s_at * s_at / (2.0 * (1.0 + c_at)))
            mid = off[at[0]] & (c_at * c_at < _MEDIAN_C2)
            if mid.any():
                f[mid] = 0.5 * (1.0 - sp.betainc(0.5, a_at[mid],
                                                 c_at[mid] * c_at[mid]))
            g[at] = np.log(f / v_at)
            slope[at] = s_at**(2.0 * a_at) / (big_s[at[0]] * f)
        if q_far.size:
            sigma = _wallis_series(s[far], q_far)
            g[far] = q_far * np.log(s[far] / lead_far) + np.log(q_far * sigma)
            slope[far] = 1.0 / sigma
        return g, slope

    height, scale = np.empty(v.shape), np.empty(v.shape)
    rows = max(1, _BLOCK // v.shape[1])
    for r in range(0, v.shape[0], rows):
        vb = v[r:r + rows].T[order]
        tail = np.nonzero(vb < v_sub)
        v_tail, a_tail = vb[tail], 0.5 * q[tail[0]]
        # the forward form fails in the tails, where betainc replaces it
        # but below _SERIES_V, where the series does
        with np.errstate(all="ignore"):
            s, c = _cornish_fisher(vb, q_col)
            phi = np.arctan2(s, c)
            lead = _tail_scale(v_tail, a_tail)
            small = a_tail < 0.5
            deep = lead * lead < np.where(small, _LEAD_S2_SMALL, _LEAD_S2)
            own = deep | small
            if own.any():
                a_d, s_d = a_tail[own], lead[own]
                d = (0.5 - v_tail[own]) * big_s[tail[0][own]]
                # the leading term with the series' second term folded
                # in, or the median's Taylor series in pi/2 - phi
                phi_d = np.where(deep[own], np.arcsin(
                    s_d * (1.0 + a_d * s_d * s_d / (2.0 * a_d + 2.0))
                    ** (-0.5 / a_d)),
                    0.5 * np.pi - d - (2.0 * a_d - 1.0) * d**3 / 6.0)
                phi[tail[0][own], tail[1][own]] = phi_d
            # where the root's v or x ~ lead^2 / 4 underflows
            series = np.minimum(v_tail, lead * lead) < _SERIES_V
            far = tail[0][series], tail[1][series]
            q_far, lead_far = q[far[0]], lead[series]
            # betainc's roots on the first step and on the last
            low = ~series & ((v_tail < _FORWARD_V) | off[tail[0]])
            first, final = [((tail[0][k], tail[1][k]), v_tail[k], a_tail[k])
                            for k in (low, ~series)]
            # these start from sin and cos of phi, which may differ by an
            # ulp from the Cornish-Fisher pair
            reset = tail[0][own | series], tail[1][own | series]
            s[reset], c[reset] = np.sin(phi[reset]), np.cos(phi[reset])
            c, s = _halley(phi, s, c, n_col, residual)
        pole = tail[0][lead == 0.0], tail[1][lead == 0.0]
        c[pole], s[pole] = 1.0, 0.0
        median = vb == 0.5
        c[median], s[median] = 0.0, 1.0
        height[r:r + rows, order], scale[r:r + rows, order] = c.T, s.T
    return height, scale


def _halley(phi, s, c, n, residual):
    """cos phi and sin phi after two Halley steps on g = log F - log v
    from phi, where s = sin phi and c = cos phi, all three updated in
    place; residual(phi, s, c, last) gives g and the slope
    h = s g' = s F'/F, the last step flagged, and g'' = h (n c - h) / s^2
    follows from F'' = F' n c / s.  The step g / (g' - g g'' / 2g') is
    taken as g s / (h - g (n c - h) / 2), which stays finite for
    subnormal s."""
    for last in (False, True):
        g, slope = residual(phi, s, c, last)
        step = n * c
        step -= slope
        step *= -0.5 * g
        step += slope
        g *= s
        g /= step
        phi -= g
        np.sin(phi, out=s)
        np.cos(phi, out=c)
    return c, s


def _cornish_fisher(v, q):
    """sin phi and cos phi of the Cornish-Fisher start for F(phi) = v
    <= 1/2: the t-quantile T of q degrees of freedom to 1/q^4, with
    cos phi = -T / r and sin phi = sqrt(q) / r, r = sqrt(q + T^2)."""
    z = sp.ndtri(v)
    w = z * z
    coef = np.power.outer(1.0 / q, np.arange(5.0)) @ _CORNISH_FISHER.T
    t = coef[..., 4]
    for j in range(3, -1, -1):
        t = t * w + coef[..., j]
    t *= z
    r = np.sqrt(q + t * t)
    return np.sqrt(q) / r, -t / r


def _wallis_series(s, q):
    """sum_k C(2k, k) 4^-k s^(2k) / (q + 2k) over k < _SERIES_TERMS, each
    element's terms summed along one row, so that an element's sum does
    not depend on the others."""
    k = np.arange(_SERIES_TERMS)
    powers = np.empty((s.size, _SERIES_TERMS))
    powers[:, 0] = 1.0
    powers[:, 1:] = (s * s)[:, None]
    np.cumprod(powers, axis=1, out=powers)
    powers *= _central_binomials(_SERIES_TERMS)
    powers /= q[:, None] + 2.0 * k
    return powers.sum(axis=1)


def _central_binomials(m):
    """C(2k, k) / 4^k for k = 0 ... m - 1."""
    return np.cumprod(np.concatenate(
        [[1.0], (2.0 * np.arange(1, m) - 1.0) / (2.0 * np.arange(1, m))]))


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


def chi_quantile(dof, u):
    """Quantile of the chi distribution: x with P(dof/2, x^2/2) = u.

    u must lie in [0, 1); u = 1 raises :class:`InfiniteResultError`.
    """
    _check_positive_int("dof", dof)
    u_arr = _check_probability("u", u, 1.0,
                               "chi quantile at u = 1 is infinite")
    half_sq = _gamma_inverse(dof / 2.0, u_arr, upper=False)
    return _like_input(u, np.sqrt(2.0 * half_sq))


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
