"""Scalar special functions used throughout the package.

Regularized incomplete gamma/beta functions, the gamma inverses, the
sphere map's height inverse, the chi quantile and the inverse normal CDF.
All functions are pure, accept floats or numpy arrays, and raise
:class:`DomainError` on invalid input.  Every function that a command
reaches with its default shapes is computed here, so that no default
command imports scipy.special (0.25-0.34 s and 26 MB of RSS at start-up
on 2 vCPUs with scipy 1.17); _special imports it on first use, for the
rest.  The half-integer grid is the shapes a with 2a an integer up to
_GRID_CAP (every chi lift of the embedded direction-number table, and
every height of its sphere map):
- the inverse normal CDF is Wichura's AS241 everywhere (_ndtri);
- the incomplete gamma functions of one scalar shape on the grid (the
  chi lift's dof/2, the Nakagami mu of the wce kernel) take P and Q in
  closed form, with erfcx from two polynomials (_erfcx), and their
  inverses and the chi quantile two Halley steps on those forms; other
  shapes take scipy's gammainc, gammaincc and their generic inverses;
- I_x(a, a) of one scalar shape on the grid takes a positive series
  (_series_table); other shapes and every asymmetric I_x(a, b) take
  scipy's betainc;
- the sphere height takes Halley steps on that series below each
  column's cut, and above it on the Wallis form on the grid and on
  scipy's betainc(1/2, a, .) off it; off the grid, S_n(pi) = B(1/2, a)
  comes from scipy's beta up to a = 150 and from an asymptotic series
  above.
The test suite checks every function against
independent adaptive-quadrature and bisection oracles, and the grid
forms, _ndtri and _erfcx against mpmath.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InfiniteResultError, NumericError

__all__ = [
    "reg_gamma_p",
    "reg_gamma_q",
    "inv_reg_gamma_p",
    "inv_reg_gamma_q",
    "reg_beta_i",
    "sphere_height",
    "chi_quantile",
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

# The half-integer grid: a scalar shape a with 2a an integer up to
# _GRID_CAP, the chi(192) lift of a point of the embedded table's 192
# dimensions.  On it the incomplete gamma functions take closed forms
# (DiDonato and Morris, ACM TOMS 12, 1986), see _grid_q and _grid_p.
# Their inverses cost about a third of scipy's time per value but a
# fixed 0.15-0.24 ms per call (some 200 numpy calls), so they gain from
# a few hundred values per call on; chi_quantile of 512 values at
# a = 15, price-table's call, takes about scipy's time (2 vCPUs).
_GRID_CAP = 96.0
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
# _wallis_height), every column q = 2a by one rule:
# - each column's cut lies at sin^2 phi = _FORWARD_S2, or higher where
#   the forward Wallis form's rounding, about (1 + m/9) _EPS_HALF in F,
#   m = floor((q - 1)/2), would move the height by more than
#   _FORWARD_DT (for real q off the grid too); below q = 1 at the median;
#   the cut's v_sub is the column's series there, on the grid and off it;
# - roots below the cut take F from the positive series of
#   _series_table; on the grid (2a an integer up to 2 _GRID_CAP) from
#   the first Halley step where v < _FORWARD_V (there the forward
#   form's rounding exceeds 1e-6 of F), else from the last, and off it
#   on both steps;
# - roots above it take F from the median's side: on the grid the
#   forward form, off it 1/2 - sign(c) I_{c^2}(1/2, a) / 2 from scipy's
#   betainc, whose absolute error is a few ulps of the small I;
# - where the v, or the root x, lies below _SERIES_V, the series gives
#   the residual in log space, as F underflows there.
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
_LEAD_S2 = 0.2
_LEAD_S2_SMALL = 0.5
# the series of _series_table runs to the first term below _SERIES_TOL
# of its leading 1 at x = 1/2 in reg_beta_i and at the column's cut in
# sphere_height
_SERIES_TOL = 2.0**-54
# r(a) = Gamma(a + 1/2) / Gamma(a) = sqrt(a) sum_j _HALF_RATIO[j] a^(j - 6),
# highest power first, its asymptotic series in 1/a (DLMF 5.11.13), each
# coefficient an exact binary fraction; an off-grid column above a =
# _HALF_RATIO_A takes S_n(pi) = B(1/2, a) = sqrt(pi) / r(a) from it,
# within 2.2e-16 of 40-digit mpmath from a = 150.3 to 10^6 + 0.3 (scipy's
# beta, which serves the columns below, is 1.9e-13 off at a = 233.2 and
# 4.7e-13 at 1000.7)
_HALF_RATIO = np.array([869 / 4194304, -399 / 262144, -21 / 32768,
                        5 / 1024, 1 / 128, -1 / 8, 1.0])
_HALF_RATIO_A = 150.0
# columns per solve, and elements per block of one, which bounds the
# temporaries of a call with many shapes or many rows
_BLOCK = 2**15
# a solve over at most this many shapes keeps their constants for the
# next solve over the same shapes, as each pricing task solves the same
# 27 or so
_CACHED_COLUMNS = 64
# T / z = sum_j w^j sum_l _CORNISH_FISHER[j, l] / q^l with w = z^2 for
# the t-quantile T of q degrees of freedom at the normal quantile z
# (Abramowitz and Stegun 26.7.5)
_CORNISH_FISHER = np.array([
    [1.0, 1 / 4, 3 / 96, -15 / 384, -945 / 92160],
    [0.0, 1 / 4, 16 / 96, 17 / 384, -1920 / 92160],
    [0.0, 0.0, 5 / 96, 19 / 384, 1482 / 92160],
    [0.0, 0.0, 0.0, 3 / 384, 776 / 92160],
    [0.0, 0.0, 0.0, 0.0, 79 / 92160]])

# Wichura's AS241 (PPND16, Applied Statistics 37, 1988): the normal
# quantile as a ratio of two degree-7 polynomials, numerator above
# denominator, highest power first; in r = 0.180625 - q^2 times q for
# |q| <= 0.425, q = p - 1/2, else in r - 1.6 for r = sqrt(-log min(p,
# 1 - p)) up to 5 and in r - 5 above, with the sign of q.  Each pair's
# leading digits sum to Wichura's published hash sum (tests check it).
_AS241_CENTRAL = np.array([
    [2.5090809287301226727e+3, 3.3430575583588128105e+4,
     6.7265770927008700853e+4, 4.5921953931549871457e+4,
     1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0],
    [5.2264952788528545610e+3, 2.8729085735721942674e+4,
     3.9307895800092710610e+4, 2.1213794301586595867e+4,
     5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0]])
_AS241_NEAR = np.array([
    [7.7454501427834140764e-4, 2.2723844989269184583e-2,
     2.4178072517745061177e-1, 1.2704582524523683826e+0,
     3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0],
    [1.05075007164441684324e-9, 5.4759380849953449460e-4,
     1.5198666563616457197e-2, 1.4810397642748007459e-1,
     6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0]])
_AS241_FAR = np.array([
    [2.01033439929228813265e-7, 2.71155556874348757815e-5,
     1.24266094738807843860e-3, 2.65321895265761230930e-2,
     2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0],
    [2.04426310338993978564e-15, 1.42151175831644588870e-7,
     1.84631831751005468180e-5, 7.86869131145613259100e-4,
     1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0]])

# erfcx(x) = e^(x^2) erfc(x) as two polynomials, highest power first:
# erfcx(x) in t = x - 1 on [0, 2], and x sqrt(pi) erfcx(x) in t = 4/x - 1
# above 2 (1 at x = inf).  Each is the interpolant at 24 and 27 Chebyshev
# points of 40-digit mpmath values, taken to the power basis in mpmath
# and each coefficient rounded once (the tests regenerate them); the
# relative error is within 3e-16 on [0, 1e8].
_ERFCX_NEAR = np.array([
    -1.7733587450660754e-11, 7.131042359485654e-11, -1.7537424078575673e-10,
    6.655075760047144e-10, -2.7519864789888906e-09, 1.0108303180958757e-08,
    -3.590842539856099e-08, 1.259329923541457e-07, -4.314587205214283e-07,
    1.439728868761518e-06, -4.675492704912898e-06, 1.4753150124744093e-05,
    -4.51439205786341e-05, 0.0001336629815467615, -0.0003819545277091378,
    0.001050269398508838, -0.0027690647758762074, 0.006970142375090882,
    -0.016661869090412656, 0.037572296215283754, -0.07922696894132679,
    0.15437156137190858, -0.27321201478389856, 0.427583576155807])
_ERFCX_FAR = np.array([
    2.613827817878797e-11, -5.6446213172356614e-11, -1.1886984592608803e-10,
    4.282204749855169e-10, -1.8813489265871133e-10, -7.7446859558668e-10,
    1.8875984901530376e-09, -2.822065804940862e-09, 1.4296530987846455e-09,
    8.61087325576067e-09, -3.181045881190381e-08, 5.1755081848436096e-08,
    2.7120687250442176e-10, -2.5237805611217647e-07, 7.34531272922041e-07,
    -8.122487218355137e-07, -1.7247879400611821e-06, 9.998776224592827e-06,
    -1.9152019197580275e-05, -1.0590783857882367e-05, 0.000177894876831483,
    -0.0004721298412913321, -0.0001944591858463083, 0.006079322930622236,
    -0.01858707988910755, -0.05292854361494005, 0.9713008649580285])


@functools.cache
def _special():
    """scipy.special, imported on its first use: by a shape off the
    grid or an asymmetric incomplete beta function.  A
    forked pool worker whose parent has not imported it pays the import
    once, in its own process."""
    from scipy import special
    return special


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
    to _GRID_CAP, so that it takes the closed forms."""
    return np.ndim(a) == 0 and a <= _GRID_CAP and (2.0 * a) % 1 == 0


def _ratio(coef, x):
    """coef[0](x) / coef[1](x) for the polynomials of the rows of coef,
    highest power first, at x (n,), both in one Horner scheme."""
    num, den = _horner(coef.T[:, :, None], x)
    num /= den
    return num


def _ndtri(p):
    """The standard normal quantile of the probabilities p (an array) by
    AS241: within 1e-15 relative of 40-digit mpmath from p = 1e-300 to
    1 - 2^-53 (scipy's ndtri: 6.7e-16); p = 0 and 1 give -inf and +inf."""
    shape = np.shape(p)
    p = p.reshape(-1)
    q = p - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    z = _ratio(_AS241_CENTRAL, r)
    z *= q
    tail = np.nonzero(np.abs(q) > 0.425)[0]
    if tail.size:
        q_t, p_t = q[tail], p[tail]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt(-np.log(np.where(q_t < 0.0, p_t, 1.0 - p_t)))
            z_t = _ratio(_AS241_NEAR, r - 1.6)
            far = np.nonzero(r > 5.0)[0]
            if far.size:
                r_far = r[far]
                z_t[far] = np.where(r_far == np.inf, np.inf,
                                    _ratio(_AS241_FAR, r_far - 5.0))
        z[tail] = np.copysign(z_t, q_t)
    return z.reshape(shape)


def _erfcx(x):
    """e^(x^2) erfc(x) for x (n,) >= 0, from _ERFCX_NEAR and _ERFCX_FAR."""
    out = np.empty(x.shape)
    near = np.flatnonzero(x <= 2.0)
    far = np.flatnonzero(x > 2.0)
    if near.size:
        out[near] = _horner(_ERFCX_NEAR, x[near] - 1.0)
    if far.size:
        x_far = x[far]
        g = _horner(_ERFCX_FAR, 4.0 / x_far - 1.0)
        g /= x_far * _SQRT_PI
        out[far] = g
    return out


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
        return (_special().gammaincc if upper else _special().gammainc)(a, x)
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
    gammainccinv or gammaincinv, whose NaN (at a = 5e-324) raises."""
    if not _on_grid(a):
        x = (_special().gammainccinv if upper
             else _special().gammaincinv)(a, v)
        if _any(np.isnan(x)):
            raise NumericError(f"scipy's gamma inverse failed at a = {a!r}")
        return x
    p, q = (1.0 - v, v) if upper else (v, 1.0 - v)
    return _gamma_root(float(a), p, q)


def _grid_q(a, x, h):
    """Q(a, x) for a on the grid, x (n,) and h = e^(-x/2).

    Q = e^-x sum_{k<a} x^k / k! for integer a, and e^-x (erfcx(sqrt x) +
    sqrt x sum_{k<a-1/2} x^k / Gamma(k + 3/2)) otherwise, sums of positive
    terms; the erfc term enters through erfcx, as erfc(sqrt x) would take
    exp(-y^2) of the rounded y = sqrt x, 5e-14 off at x = 640.  e^-x
    enters as the two factors h, so that Q stays normal where e^-x
    underflows; the sum takes x up to _X_FLAT, where h is already 0, so
    that it stays finite.
    """
    s = _horner(_grid_constants(int(2.0 * a))[0], np.minimum(x, _X_FLAT))
    if a % 1:
        y = np.sqrt(x)
        s = s * y + _erfcx(y)
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
    and the sum, for a on the grid, x (n,) up to a and h = e^(-x/2).

    The sum's 16 to 97 terms take one Horner scheme in y = x^4 for the
    four polynomials c_i(y) of the terms k = 4j + i, stacked, and then
    ((c_3 x + c_2) x + c_1) x + c_0, a third of the numpy calls of one
    scheme in x; every term is positive, and the rounding of y moves the
    sum by its elasticity in y, E[k] / 4, about 2 at x = a = 96.
    """
    x2 = x * x
    series = _horner(_horner(_grid_constants(int(2.0 * a))[1], x2 * x2), x)
    return _head(a, x, h) * series, series


def _head(a, x, h):
    """e^-x x^a / Gamma(a + 1) for a on the grid, x (n,) below 1416 and
    h = e^(-x/2), which is normal there; x^a h h stays normal before it
    meets 1 / Gamma(a + 1), whose product with h underflows at a = 96."""
    return np.power(x, a) * h * h * _grid_constants(int(2.0 * a))[2]


def _horner(coef, x):
    """The polynomial with coefficients coef, highest power first, at x:
    coef is an array or an iterable of coefficient rows, each of which
    broadcasts against x.  One value with 1-D coefficients takes Python
    floats, which round as numpy's float64 does, without numpy's cost per
    call: the 59 terms of a scalar I_x(3/2, 3/2) take 5 us instead of
    0.1 ms."""
    if x.size == 1 and np.ndim(coef) == 1:
        terms = coef.tolist()
        acc, y = terms[0], x.item()
        for c in terms[1:]:
            acc = acc * y + c
        return np.full(x.shape, acc)
    rows = iter(coef)
    acc = next(rows) + np.zeros(x.shape)
    for c in rows:
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
    of P's series, padded with leading zeros to whole rows of four (see
    _series_p), and 1 / Gamma(a + 1).  The series runs
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
    lanes = np.concatenate([np.zeros(-len(series) % 4), series[::-1]])
    return (np.array(finite[::-1]), lanes.reshape(-1, 4)[:, :, None],
            _inv_gamma(a + 1.0))


def _gamma_root(a, p, q):
    """x with P(a, x) = p where p <= q, else with Q(a, x) = q, for a on
    the grid and q = 1 - p; of each pair the smaller value must be exact,
    as the solver takes that one.  p and q are arrays of one shape."""
    shape = np.shape(p)
    p, q = p.reshape(-1), q.reshape(-1)
    upper = q < p
    v = np.where(upper, q, p)
    z = _ndtri(v)
    x = np.empty(p.shape)
    for side in (False, True):
        at = upper == side
        if at.any():
            x[at] = _gamma_halley(a, v[at], z[at], side)
    return x.reshape(shape)


def _gamma_halley(a, v, z, upper):
    """x with Q(a, x) = v if upper, else P(a, x) = v, for v (n,) in
    [0, 1/2], its normal quantile z and a on the grid: _GAMMA_STEPS
    Halley steps on g = log(F / v), F = P or Q, from the start of _LEAD_X
    and _ASYM_X.

    With the density f = x^(a-1) e^-x / Gamma(a), F' = f for P and -f for
    Q, and F'' = F' ((a - 1) / x - 1), so that with w = F / F' the step
    g / (g' - g g'' / 2g') is g w / (1 - g (((a - 1) / x - 1) w - 1) / 2).
    Roots below the smallest normal number keep the leading term, which
    is exact there.
    """
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
    if not (_on_grid(a) and np.ndim(b) == 0 and a == b):
        return _special().betainc(a, b, x)
    x = np.asarray(x, dtype=float)
    return _grid_beta(x.reshape(-1), int(2.0 * a)).reshape(x.shape)[()]


def _grid_beta(x, q):
    """I_x(a, a) for a = q/2 on the grid and x (n,) in [0, 1]: the
    positive series of _series_table at y = min(x, 1 - x), within 6e-16 of
    40-digit mpmath up to y = 1/2 (the forward Wallis form, which cancels
    in the lower tail, is 2.6e-15 off at q = 101, I = 0.28), and
    I_x = 1 - I_{1-x} above x = 1/2.

    The series' factor s^q = (2y)^a 2^a (1 - y)^a takes 1 - y = hi + lo
    split exactly, as s^q, and (1 - y)^a, would take a times the rounding
    of s and of 1 - y.
    """
    y = np.minimum(x, 1.0 - x)
    a = 0.5 * q
    hi = 1.0 - y
    lo = (1.0 - hi) - y
    f = ((2.0 * y)**a * np.exp2(a) * hi**a * np.exp(a * np.log1p(lo / hi))
         * _horner(_beta_series(q), 2.0 * y) / (q * _wallis_total(q)))
    return np.where(x > 0.5, 1.0 - f, f)


@functools.cache
def _beta_series(q):
    """The series of _series_table for the grid shape q to x = 1/2."""
    return _series_table(np.array([float(q)]), np.array([0.5]))[:, 0]


def _series_table(q, x_cap):
    """The Horner coefficients, highest power first, of the series
    Sigma = sum_k (q)_k / (a + 1)_k x^k, a = q/2, a sum of positive
    terms, for the shapes q (U,), each to its cap x_cap (U,) <= 1/2, as
    the columns of one table, each padded with leading zeros to the
    longest (see _series_sum).  I_x(a, a) = x^a (1 - x)^a / (a B(a, a))
    Sigma (Abramowitz and Stegun 26.5.4), that is s^q Sigma / (q S_n(pi))
    with s = sin phi (see _wallis_height).

    The series is kept in w = 2x: coefficient k is (q)_k / ((q + 2) (q +
    4) ... (q + 2k)), 2^-k times that of x^k, so that the sum keeps the
    bits of the one in x but no coefficient overflows (above 2^1000 for
    q of some thousands).  Term k + 1 is term k times x f_k, f_k = (q +
    k) / (a + 1 + k), which falls to 1 from above for a > 1 and rises to
    it below; a column runs to the first term t_k with t_k / (1 - x
    max(1, f_k)) below _SERIES_TOL at x = x_cap, which bounds the rest of
    the sum for every x up to x_cap.
    """
    a1 = 0.5 * q + 1.0
    coef, term, live, k = [np.ones(q.size)], np.ones(q.size), True, 0
    while True:
        f = (q + k) / (a1 + k)
        live &= term >= _SERIES_TOL * (1.0 - x_cap * np.maximum(1.0, f))
        if not np.any(live):
            return np.array(coef[::-1])
        coef.append(coef[-1] * (0.5 * f) * live)
        term *= x_cap * f
        k += 1


def _series_sum(table, cols, w):
    """The series of the columns cols (n,) of a _series_table at w = 2x
    (n,): one Horner scheme over the table's rows, whose leading zeros
    add nothing, so that an element's sum does not depend on the
    others."""
    return _horner((row[cols] for row in table), w)


def sphere_height(u, a):
    """Height t = 1 - 2x of the solution x of I_x(a, a) = u, and its
    scale sqrt(1 - t^2).

    With x = sin^2(phi / 2) the height is cos phi and the scale sin phi,
    and I_x(a, a) = F(phi) = S_n(phi) / S_n(pi) with n = 2a - 1 and
    S_n(phi) = int_0^phi sin^n.  Two Halley steps on log F solve for phi
    directly (_wallis_height), so that the scale keeps its relative
    accuracy near the poles; F comes from a positive series below each
    shape's cut, and above it in closed form on the grid (every height
    of a map up to 192 dimensions) and from betainc(1/2, a, .) off it.
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

    Every column follows one rule.  Below its cut v_sub it takes F from
    the positive series F = s^q Sigma(x) / (q S_n(pi)) of _series_table,
    x = s^2 / (2 (1 + c)), for any real q.  Above it, F takes the form
    of the median's side: for integers q the Wallis recursion S_n =
    ((n-1)/n) S_{n-2} - sin^(n-1) cos / n gives F in closed form
    (_wallis_forward), which cancels where F is small, and off the grid
    F = 1/2 - sign(c) I_{c^2}(1/2, a) / 2, which cancels near the pole.
    F' = s^n / S_n(pi) and F'' = n s^(n-1) c / S_n(pi) for any real n,
    so each Halley step on log F costs one evaluation of F.

    Where v or the root's x underflows, below _SERIES_V, the same Halley
    steps take the residual from that series in log space, as log(F / v)
    = q log(s / lead) + log(Sigma), since lead^q = q S_n(pi) v
    (_tail_scale forms lead without v^(1/q), which loses the subnormal
    v's digits).  lead = 0, at v = 0 or where lead underflows (below
    q = 1), gives the pole (1, 0).
    """
    height, scale = np.empty(v.shape), np.empty(v.shape)
    for k in range(0, q.size, _BLOCK):
        cols = slice(k, k + _BLOCK)
        _wallis_block(v[:, cols], q[cols], height[:, cols], scale[:, cols])
    return height, scale


def _wallis_forward(phi, s, c, runs):
    """F(phi) for phi, s = sin phi and c = cos phi (k, rows) of the grid
    columns of _wallis_runs, k at least their number, in the Wallis
    forward form: phi/pi - c s P(s^2) for even n = q - 1 and (1 - c)/2 -
    c s^2 P(s^2) for odd n, where P is a polynomial of degree
    floor(n/2) - 1 whose coefficients depend only on the parity of n.
    The rows of further columns are left unset."""
    z = s * s
    f = np.empty_like(s)
    for lo, hi, even, starts, coef in runs:
        acc = np.zeros((hi - lo,) + s.shape[1:])
        for j in range(coef.size - 1, -1, -1):
            part = acc[starts[j] - lo:]
            part *= z[starts[j]:hi]
            part += coef[j]
        # in place where it can be, as these blocks are the solve's
        # working memory
        acc *= (s if even else z)[lo:hi]
        acc *= c[lo:hi]
        run = f[lo:hi]
        if even:
            np.multiply(phi[lo:hi], 1.0 / np.pi, out=run)
        else:
            np.subtract(1.0, c[lo:hi], out=run)
            run *= 0.5
        run -= acc
    return f


def _wallis_runs(q):
    """The forward form's Horner runs over the grid columns q (k,), laid
    out as the columns of even n = q - 1, then those of odd n, each in
    the order of the degree m = floor(n/2) of its P: (lo, hi, even,
    starts, coef) per run, where coef[j] multiplies z^j and Horner step j
    reads the columns from starts[j] on, whose P has degree >= j."""
    split = int(np.count_nonzero(q % 2 == 1))
    runs = []
    for lo, hi, even in ((0, split, True), (split, q.size, False)):
        m = np.floor((q[lo:hi] - 1.0) / 2.0)
        degree = int(m[-1]) if hi > lo else 0
        beta = _central_binomials(degree + 1)[1:]
        j = np.arange(degree)
        coef = 1.0 / (np.pi * beta * (2 * j + 2)) if even else 0.5 * beta
        runs.append((lo, hi, even, lo + np.searchsorted(m, j, side="right"),
                     coef))
    return runs


@functools.cache
def _wallis_total(q):
    """S_n(pi) = B(1/2, q/2), n = q - 1, for an integer q >= 1:
    2^m (m - 1)! / (2m - 1)!! for q = 2m and pi (2m - 1)!! / (2^m m!)
    for q = 2m + 1, the ratio of exact integers rounded once."""
    m = q // 2
    odd = math.prod(range(1, 2 * m, 2))
    if q % 2:
        return odd / (2**m * math.factorial(m)) * math.pi
    return 2**m * math.factorial(m - 1) / odd


class _Columns(NamedTuple):
    """The constants of a solve's columns (see _wallis_columns)."""
    order: np.ndarray
    q: np.ndarray
    grid: int
    runs: list
    big_s: np.ndarray
    v_sub: np.ndarray
    shape_index: np.ndarray
    cornish_fisher: np.ndarray
    near_series: np.ndarray


def _wallis_columns(q):
    """The constants of a solve over the shapes q (k,): the order that
    lays out the grid columns as _wallis_runs wants them, in the order
    of q within a degree, then the columns off the grid; in that layout
    q, the number of grid columns, the runs, S_n(pi), the cut v_sub
    (k, 1), the series at the cut, below which a column takes F from
    that series, and each column's index among the distinct shapes; for
    those the Cornish-Fisher coefficients and the series table to the
    cut."""
    off = (q % 1 != 0) | (q > 2.0 * _GRID_CAP)
    order = np.lexsort((q, np.floor((q - 1.0) / 2.0), q % 2 == 0, off))
    q = q[order]
    grid = q.size - int(np.count_nonzero(off))
    values, shape_index = np.unique(q, return_inverse=True)
    on = (values % 1 == 0) & (values <= 2.0 * _GRID_CAP)
    big_s = np.empty(values.size)  # S_n(pi)
    big_s[on] = [_wallis_total(int(w)) for w in values[on]]
    off = np.flatnonzero(~on)
    far = off[values[off] > 2.0 * _HALF_RATIO_A]
    a_far = 0.5 * values[far]
    big_s[far] = _SQRT_PI / (np.sqrt(a_far) * _horner(_HALF_RATIO,
                                                      1.0 / a_far))
    near = off[values[off] <= 2.0 * _HALF_RATIO_A]
    if near.size:
        big_s[near] = _special().beta(0.5, 0.5 * values[near])
    # the forward form's rounding error in F, below (1 + m/9) eps/2 for
    # q up to 191 against mpmath, moves the height by that over the
    # slope s^(n-1) / S_n(pi) of F in t; the cut is F where the move
    # reaches _FORWARD_DT, or F at sin^2 phi = _FORWARD_S2 if higher,
    # and the median below q = 1
    n = values - 1.0
    with np.errstate(divide="ignore", over="ignore"):
        s_fwd = np.where(n > 1.0, (
            big_s * (1.0 + np.floor(n / 2.0) / 9.0) * _EPS_HALF
            / _FORWARD_DT) ** (1.0 / (n - 1.0)), 0.0)
    s2_sub = np.where(n < 0.0, 1.0, np.clip(s_fwd * s_fwd, _FORWARD_S2, 1.0))
    s_sub, c_sub = np.sqrt(s2_sub), np.sqrt(1.0 - s2_sub)
    # the series runs to x = (1 - cos phi) / 2 at the cut, and gives v_sub
    # there: its final Halley steps lie below, and a first step a little
    # above leaves a relative error of about (x / x_sub)^k _SERIES_TOL
    x_sub = 0.5 * s2_sub / (1.0 + c_sub)
    near_series = _series_table(values, x_sub)
    v_sub = s_sub**values * _series_sum(
        near_series, np.arange(values.size), 2.0 * x_sub) / (values * big_s)
    # one (1, 5) product per shape, so that a shape's coefficients do not
    # depend on the others
    cornish_fisher = (np.power.outer(1.0 / values, np.arange(5.0))[:, None]
                      @ _CORNISH_FISHER.T)[:, 0]
    return _Columns(order, q, grid, _wallis_runs(q[:grid]), big_s[shape_index],
                    v_sub[shape_index, None], shape_index, cornish_fisher,
                    near_series)


@functools.lru_cache(maxsize=8)
def _cached_columns(key):
    """_wallis_columns of the shapes whose bytes are key, read-only, as
    every solve over those shapes shares them."""
    columns = _wallis_columns(np.frombuffer(key))
    for field in columns:
        if isinstance(field, np.ndarray):
            field.flags.writeable = False
    return columns


def _wallis_block(v, q, height, scale):
    """_wallis_height of v (rows, k) and q (k,), k <= _BLOCK, written to
    height and scale."""
    columns = (_cached_columns(q.tobytes()) if q.size <= _CACHED_COLUMNS
               else _wallis_columns(q))
    order, q, grid, runs = columns.order, columns.q, columns.grid, columns.runs
    big_s, v_sub = columns.big_s, columns.v_sub
    table, shape_index = columns.near_series, columns.shape_index
    n = q - 1.0
    n_col, s_col, q_col = n[:, None], big_s[:, None], q[:, None]

    def residual(phi, s, c, last):
        # the median side: the forward form on the grid, and off it
        # F = 1/2 - sign(c) I_{c^2}(1/2, a) / 2 on its rows above the cut
        f = _wallis_forward(phi, s, c, runs)
        if upper[0].size:
            c_u = c[grid:][upper]
            f[grid:][upper] = 0.5 - np.copysign(
                0.5 * _special().betainc(0.5, a_upper, c_u * c_u), c_u)
        slope = s**q_col
        slope /= s_col
        slope /= f
        g = np.log(np.divide(f, vb, out=f), out=f)
        # the near tail's roots of this step take the series at w = 2x
        # = s^2 / (1 + c), with slope = s F' / F = q / Sigma
        at = steps[last]
        cols, rows = near[0][at], near[1][at]
        if cols.size:
            s_n, q_n = s[cols, rows], q_near[at]
            sigma = _series_sum(table, shape_index[cols],
                                s_n * s_n / (1.0 + c[cols, rows]))
            g[cols, rows] = np.log(s_n**q_n * sigma / (q_n * big_s[cols])
                                   / v_near[at])
            slope[cols, rows] = q_n / sigma
        if far[0].size:
            s_f = s[far]
            sigma = _series_sum(table, shape_index[far[0]],
                                s_f * s_f / (1.0 + c[far]))
            g[far] = q_far * np.log(s_f / lead_far) + np.log(sigma)
            slope[far] = q_far / sigma
        return g, slope

    rows = max(1, _BLOCK // v.shape[1])
    for r in range(0, v.shape[0], rows):
        vb = v[r:r + rows].T[order]
        tail = np.nonzero(vb < v_sub)
        upper = np.nonzero(vb[grid:] >= v_sub[grid:])
        a_upper = 0.5 * q[grid:][upper[0]]
        v_tail, q_tail = vb[tail], q[tail[0]]
        a_tail = 0.5 * q_tail
        with np.errstate(all="ignore"):
            s, c = _cornish_fisher(vb, q_col, columns.cornish_fisher[
                shape_index])
            phi = np.arctan2(s, c)
            lead = _tail_scale(v_tail, q_tail, big_s[tail[0]])
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
            q_far, lead_far = q_tail[series], lead[series]
            near = tail[0][~series], tail[1][~series]
            v_near, q_near = v_tail[~series], q_tail[~series]
            # the near tail's roots of each Halley step: on the first those
            # below _FORWARD_V and those off the grid, on the last all
            final = np.arange(v_near.size)
            steps = (np.flatnonzero((v_near < _FORWARD_V)
                                    | (near[0] >= grid)), final)
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


def _halley(phi, s, c, n, residual):
    """cos phi and sin phi after two Halley steps on g = log F - log v
    from phi, where s = sin phi and c = cos phi, all three updated in
    place; residual(phi, s, c, last) gives g and the slope h = s g' =
    s F'/F, the last step flagged, and g'' = h (n c - h) / s^2 follows
    from F'' = F' n c / s.  The step
    g / (g' - g g'' / 2g') is taken as g s / (h - g (n c - h) / 2), which
    stays finite for subnormal s."""
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


def _cornish_fisher(v, q, coef):
    """sin phi and cos phi of the Cornish-Fisher start for F(phi) = v
    <= 1/2 (k, rows) of the columns' shapes q (k, 1): the t-quantile T
    of q degrees of freedom to 1/q^4, with cos phi = -T / r and
    sin phi = sqrt(q) / r, r = sqrt(q + T^2); coef (k, 5) holds each
    column's sum_l _CORNISH_FISHER[j, l] / q^l."""
    z = _ndtri(v)
    t = _horner(coef.T[::-1, :, None], z * z)
    t *= z
    r = np.sqrt(q + t * t)
    return np.sqrt(q) / r, -t / r


def _central_binomials(m):
    """C(2k, k) / 4^k for k = 0 ... m - 1."""
    return np.cumprod(np.concatenate(
        [[1.0], (2.0 * np.arange(1, m) - 1.0) / (2.0 * np.arange(1, m))]))


def _tail_scale(v, q, big_s):
    """The scale lead = (q S_n(pi) v)^(1/q), S_n(pi) = big_s, of the
    leading small-phi term F ~ s^q / (q S_n(pi)) = v, formed without
    v^(1/q), which loses the digits of a subnormal v (at q = 3/2,
    v = 1e-300), and without the root x, which underflows.

    v = f 2^k splits exactly, and 2^(k/q) = 2^j 2^(r/q) with
    r = fmod(k, q) exact and j an integer, so that no exponent of
    magnitude ~ 1000 is rounded: the plain power (q S v)^fl(1/q) is
    2.5e-14 off at a = 3/4, v = 1e-300, and 1.3e-14 at a = 3/2.
    """
    f, k = np.frexp(v)
    r = np.fmod(k, q)
    j = np.rint((k - r) / q).astype(int)
    return np.ldexp((f * q * big_s)**(1.0 / q) * np.exp2(r / q), j)


def chi_quantile(dof, u):
    """Quantile of the chi distribution: x with P(dof/2, x^2/2) = u.

    u must lie in [0, 1); u = 1 raises :class:`InfiniteResultError`.
    """
    _check_positive_int("dof", dof)
    u_arr = _check_probability("u", u, 1.0,
                               "chi quantile at u = 1 is infinite")
    half_sq = _gamma_inverse(dof / 2.0, u_arr, upper=False)
    return _like_input(u, np.sqrt(2.0 * half_sq))


def inv_normal_cdf(u):
    """Inverse standard normal CDF; u must lie strictly in (0, 1)."""
    _check_finite("u", u)
    u_arr = np.asarray(u, dtype=float)
    if _any(u_arr <= 0.0) or _any(u_arr >= 1.0):
        raise DomainError(f"u must be in (0, 1), got {u!r}")
    return _like_input(u, _ndtri(u_arr))
