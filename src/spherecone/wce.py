"""Worst-case integration errors for normally-weighted integration on
R^{d+1} with the spherical-cone kernel, plus their expected-value laws
(deterministic: closed forms and fixed quadrature rules) and a
brute-force Monte Carlo oracle.

The kernel factors into a radial part K_R(r, rho) = Phi(min{r, rho}) and
a sphere part K_S(x*, y*) = 1 - C_d ||x* - y*||.  Throughout, Phi is the
cdf Phi(rho) = 1 - exp(-mu (1/A - 1/B) rho^2) paired with the Nakagami
radial density psi(r) = (2/Gamma(mu)) (mu/B)^mu r^{2 mu - 1}
exp(-(mu/B) r^2), the combination for which every radial integral has a
closed form in regularized incomplete gamma/beta functions.

The squared worst-case error of the equal-weight rule on nodes X is

    (1/N^2) sum_ij Kmod(x_i, x_j)
        - (2/N) sum_j int Kmod(x, x_j) psi(x) dlambda(x),

with Kmod = K - W(K), and it coincides with the spherical-cone L2
discrepancy (an average of squared local discrepancies over all
truncated cones), which is what the MC oracle here samples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
# loaded with this module, as for np.random in lds
from numpy.polynomial.legendre import leggauss

from ._pool import _pool_map
from .errors import ConfigurationError, DomainError, NumericError
from .lds import _rng
from .specfun import (_check_finite, _check_positive_int, _like_input,
                      inv_reg_gamma_q, reg_beta_i, reg_gamma_p, reg_gamma_q)
from .spheremap import (SpacePoints, _check_unit, _stratified_draws,
                        cap_measure, equal_area_partition_s2, radial_shells)

__all__ = [
    "KernelParams",
    "SphereConstants",
    "WceReport",
    "StratifiedWcePrediction",
    "sphere_constants",
    "phi_cdf",
    "w_kr_psi",
    "w_kernel",
    "wce_nakagami",
    "mc_cone_discrepancy_oracle",
    "rms_wce_iid",
    "rms_wce_fixed_directions",
    "expected_wce_sq_permutation",
    "stratified_expected_wce_sq",
    "strata_scaling",
    "lambda_k",
]

# squared-wce values below this trigger a loud diagnostic before clamping
_CANCEL_TOL = -1e-9

# values held at once by the cone oracle's membership tests, the chord
# rule and a kernel-sum tile (its sets' distances together): 1 MB of
# doubles stays in cache
_TILE_ELEMS = 2**17

# values of one elementwise pass of the chord rule, at most: temporaries
# below glibc's default mmap threshold (128 KiB, less room for a chunk
# header) come from the heap, where larger ones are mapped and
# page-faulted in anew on every call
_HEAP_ELEMS = 2**14 - 64

# multiply-adds of one gemm of the kernel sums, at most: OpenBLAS runs a
# gemm of more than 4 * 65536 on threads of its own, in every worker
# process of the pool, which would then compete for the same CPUs (a
# block of 2^17 distances at 512 points was one); a stacked matmul makes
# one gemm per set, so this bounds one set of a tile, and _TILE_ELEMS the
# tile
_GEMM_SIZE = 2**18

# rows of one row block of the kernel sums, at most: a block computes the
# whole square of its diagonal block and discards its lower half, about
# rows / n of a set's n^2 / 2 distances (6 % at 512 points in 32 rows, 17 %
# in the 102 rows that _GEMM_SIZE allows there).  On 2 vCPUs 32 rows took
# a strata batch of 16 sets of 512 points from 6.7 to 5.8 ms and one of 128
# sets of 64 from 2.0 to 1.6 ms, where 64 rows took 6.3 and 2.0 ms; sets of
# 2048 points or more keep the fewer rows of _GEMM_SIZE
_BLOCK_ROWS = 32

# points of the stratified draws one strata_scaling pool task samples and
# scores at once: stacks of a few hundred kB share the per-call costs of
# the sampler and the wce core, where one stack per M took the peak RSS of
# the benchmark's strata pass from 66 MB to 86 MB; each worker holds one
# batch at a time, about 1.8 MB at 512 points per draw
_STRATA_BATCH_POINTS = 2**13

# cones drawn at once by mc_cone_discrepancy_oracle
_ORACLE_CHUNK = 100_000

_FLOAT_MAX = np.finfo(float).max
_FLOAT_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class KernelParams:
    """Radial kernel parameters: cdf Phi and Nakagami density with shape
    mu, requiring 0 < A < B; d is the sphere dimension (ambient d+1)."""

    mu: float
    A: float
    B: float
    d: int

    def __post_init__(self):
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise DomainError(f"mu must be positive and finite, got {self.mu}")
        if not (0 < self.A < self.B) or not math.isfinite(self.B):
            raise DomainError(
                f"need 0 < A < B, got A={self.A}, B={self.B}")
        # the radial rates: mu (1/A - 1/B) of Phi, and mu/A, the larger
        # of the two of the Nakagami laws (see _kr_psi_integral)
        rate = self.mu * (1.0 / self.A - 1.0 / self.B)
        if not (math.isfinite(rate) and math.isfinite(self.mu / self.A)):
            raise DomainError(
                f"the radial rates mu (1/A - 1/B) and mu/A must be finite, "
                f"got mu={self.mu}, A={self.A}, B={self.B}")
        _check_positive_int("d", self.d)


@dataclass(frozen=True)
class SphereConstants:
    C_d: float
    W_Sd: float
    W_KS: float


@dataclass(frozen=True)
class WceReport:
    wce: float
    double_sum_term: float
    single_sum_term: float
    W_K: float
    n_points: int
    wce_sq_raw: float


def sphere_constants(d):
    """C_d, the mean pairwise distance W(S^d), and W_KS = 1 - C_d W(S^d)."""
    _check_positive_int("d", d)
    c_d = (1.0 / d) * math.gamma((d + 1) / 2.0) / (
        math.sqrt(math.pi) * math.gamma(d / 2.0))
    w_sd = 2.0**d * math.gamma((d + 1) / 2.0)**2 / (
        math.sqrt(math.pi) * math.gamma(d + 0.5))
    return SphereConstants(C_d=c_d, W_Sd=w_sd, W_KS=1.0 - c_d * w_sd)


def _scaled_square(c, rho):
    """c rho^2 for c > 0, held at the largest float where it overflows:
    Phi, P and Q reach their limits 1, 1 and 0 at that argument already,
    so that a finite radius of any size takes its exact value."""
    with np.errstate(over="ignore"):
        return np.minimum(c * np.asarray(rho, dtype=float)**2, _FLOAT_MAX)


def phi_cdf(p, rho):
    """The radial cdf Phi(rho) = 1 - exp(-mu (1/A - 1/B) rho^2)."""
    out = -np.expm1(-_scaled_square(p.mu * (1.0 / p.A - 1.0 / p.B), rho))
    return _like_input(rho, out)


def psi_tail(p, rho):
    """Tail mass of the radial density: Q(mu, (mu/B) rho^2)."""
    return reg_gamma_q(p.mu, _scaled_square(p.mu / p.B, rho))


def _mean_probability(name, value):
    """value, a mean of probabilities, checked to lie in [0, 1] but for
    rounding: a closed form that fails there (NaN, or scipy's
    betainc(1e-308, 1e-308, 0.6) = 1, which puts W(K_R, psi) at -1)
    raises NumericError."""
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise NumericError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def w_kr_psi(p):
    """Double radial integral W(K_R, psi) = int int Phi(min{r, rho})
    psi(r) psi(rho) dr drho = 1 - 2 (A/B)^mu I_{B/(A+B)}(mu, mu)."""
    x = p.B / (p.A + p.B)
    return _mean_probability("W(K_R, psi)", 1.0 - 2.0 * (p.A / p.B)**p.mu
                             * float(reg_beta_i(x, p.mu, p.mu)))


def w_kernel(p):
    """The kernel mean W(K) = W(K_R, psi) W(K_S)."""
    return w_kr_psi(p) * sphere_constants(p.d).W_KS


def _directions(Y, d):
    """Directions on S^d as an (N, d+1) float array of unit rows; every
    direction input of this module is checked here."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[1] != d + 1:
        raise ConfigurationError(
            f"points have ambient dimension {Y.shape[1]}, expected {d + 1}")
    _check_unit(Y)
    return Y


def _as_polar(X, d):
    """(radii, directions) of SpacePoints or of a Cartesian (N, d+1) array."""
    if not isinstance(X, SpacePoints):
        X = SpacePoints.from_cartesian(X)
    if len(X) == 0:
        raise DomainError("point set must not be empty")
    return X.radii, _directions(X.directions, d)


def _kr_psi_integral(p, rho, phi):
    """int_0^inf K_R(r, rho) psi(r) dr from phi = Phi(rho):
    1 - (1 - Phi(rho)) Q(mu, (mu/B) rho^2) - (A/B)^mu P(mu, (mu/A) rho^2)."""
    return (1.0
            - (1.0 - phi) * psi_tail(p, rho)
            - (p.A / p.B)**p.mu * reg_gamma_p(p.mu,
                                              _scaled_square(p.mu / p.A, rho)))


def _row_block_sums(left, right, a, b, cols, lower, clamp):
    """Row sums of the upper distance triangle over the rows a:b of each
    set of the stacks left (S, n, k) and right (S, k, n): the column
    blocks of cols from the diagonal on, each block's sums added in
    column order.  The squares go to sqrt as the matmul gives them, a
    rounded negative one taking NaN into its row's sum; with clamp, they
    are held at 0 first."""
    n = right.shape[-1]
    for c in range(a, n, cols):
        d = np.matmul(left[:, a:b], right[:, :, c:c + cols])
        if clamp:
            np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        if c == a:
            np.copyto(d[..., :b - a], 0.0, where=lower[:b - a, :b - a])
            sums = d.sum(axis=-1)
        else:
            sums += d.sum(axis=-1)
    return sums


def _upper_distance_row_sums(X):
    """s_bi = sum_{j > i} ||x_bi - x_bj|| over the rows of each set of the
    stack X (B, n, D), in O(B n) memory.

    Each set's squared distances ||x||^2 + ||y||^2 - 2 x.y are matmuls of
    the rows [-2x, 1, ||x||^2] with the columns [y, ||y||^2, 1], both
    built once per call; the rows' own norms are used because directions
    may be off unit length by up to spheremap._UNIT_TOL.  One set's gemm
    takes rows <= cols of its rows against cols of its columns, with
    rows cols (D + 2) <= _GEMM_SIZE so that it stays below OpenBLAS's
    threading size: whole rows (cols = n) while one row fits, else
    column blocks of _GEMM_SIZE // (D + 2).  A tile stacks the same
    block of as many sets as _TILE_ELEMS distances hold, one gemm per
    set.  A row block meets the column blocks from its diagonal on, the
    first holding its diagonal block, whose lower triangle and diagonal
    are computed and then set to 0, so rows is also at most _BLOCK_ROWS:
    fewer rows per block waste fewer distances, and the tile takes more
    sets instead.  rows and cols depend on n and D only; they fix each
    row's segments and so numpy's summation order, and with it every bit
    of the sums, whatever the stack.  The squares are not clamped at 0:
    the rare row whose sum comes out NaN (a rounded negative square of a
    coincident or near-coincident pair) has its row block computed again
    with the squares clamped, which gives the clamped loop's bits for
    every row.
    """
    B, n, D = X.shape
    k = D + 2
    cols = min(n, _GEMM_SIZE // k)
    rows = min(cols, _GEMM_SIZE // (cols * k), _BLOCK_ROWS)
    sets = max(1, _TILE_ELEMS // (rows * cols))
    lower = np.tri(rows, dtype=bool)
    sq = np.einsum("bij,bij->bi", X, X)
    left = np.empty((B, n, k))
    np.multiply(X, -2.0, out=left[..., :D])
    left[..., D] = 1.0
    left[..., D + 1] = sq
    right = np.empty((B, k, n))
    right[:, :D] = X.transpose(0, 2, 1)
    right[:, D] = sq
    right[:, D + 1] = 1.0
    out = np.empty((B, n))
    with np.errstate(invalid="ignore"):
        for s in range(0, B, sets):
            t = slice(s, s + sets)
            for a in range(0, n, rows):
                b = min(a + rows, n)
                out[t, a:b] = _row_block_sums(left[t], right[t], a, b, cols,
                                              lower, clamp=False)
    nan_sets, nan_rows = np.nonzero(np.isnan(out))
    for s, a in set(zip(nan_sets, nan_rows - nan_rows % rows)):
        b = min(a + rows, n)
        t = slice(s, s + 1)
        out[t, a:b] = _row_block_sums(left[t], right[t], a, b, cols, lower,
                                      clamp=True)
    return out


def _mean_distance(Y):
    """Mean of ||y_i - y_j|| over all N^2 ordered pairs, diagonal included."""
    return 2.0 * math.fsum(
        _upper_distance_row_sums(Y[None])[0].tolist()) / len(Y)**2


def _kernel_sum(radii, phi, dirs=None, c_d=0.0):
    """sum_ij Phi(min{r_i, r_j}) (1 - c_d ||x_i - x_j||) for each set of
    the stacks radii (B, n), phi = Phi(radii) and dirs (B, n, D), each
    rounded once by math.fsum; without directions, the radial sum alone.
    Returns a list of B floats.

    Sorted by radius, every pair i < j takes the smaller point's value
    phi_(i), so the radial part is sum_k (2(N-1-k)+1) phi_(k) and the
    distance part needs only the row sums of the upper distance triangle.
    """
    order = np.argsort(radii, axis=-1, kind="stable")
    w = np.take_along_axis(phi, order, axis=-1)
    n = w.shape[-1]
    terms = [(2.0 * (n - 1 - np.arange(n)) + 1.0) * w]
    if dirs is not None:
        sorted_dirs = np.take_along_axis(dirs, order[..., None], axis=1)
        terms.append((-2.0 * c_d) * w
                     * _upper_distance_row_sums(sorted_dirs))
    return [math.fsum(t.tolist()) for t in np.concatenate(terms, axis=-1)]


def _wce_reports(d, w_kr, radii, phi, single, dirs):
    """One WceReport per set of the stacks radii (B, n), unit directions
    dirs (B, n, d+1) on S^d, and the radial values phi = Phi(radii) and
    single = int_0^inf K_R(r, radii) psi(r) dr, with w_kr = W(K_R, psi).
    A squared wce below _CANCEL_TOL warns before it is clamped to 0; the
    report keeps the raw square."""
    n = radii.shape[-1]
    consts = sphere_constants(d)
    w_k = w_kr * consts.W_KS
    sums = _kernel_sum(radii, phi, dirs, consts.C_d)
    brackets = np.mean(single - w_kr, axis=-1)
    reports = []
    for s, bracket in zip(sums, brackets):
        double_sum = s / n**2 - w_k
        single_sum = 2.0 * consts.W_KS * float(bracket)
        sq = double_sum - single_sum
        if not math.isfinite(sq):
            raise NumericError(
                f"squared wce is not finite: double sum {double_sum!r}, "
                f"single sum {single_sum!r}")
        if sq < _CANCEL_TOL:
            warnings.warn(f"squared wce {sq} below cancellation tolerance; "
                          "clamping to 0", RuntimeWarning)
        reports.append(WceReport(
            wce=math.sqrt(max(sq, 0.0)), double_sum_term=double_sum,
            single_sum_term=single_sum, W_K=w_k, n_points=n, wce_sq_raw=sq))
    return reports


def _nakagami_reports(p, radii, dirs):
    """_wce_reports with every radial integral in closed form."""
    phi = phi_cdf(p, radii)
    return _wce_reports(p.d, w_kr_psi(p), radii, phi,
                        _kr_psi_integral(p, radii, phi), dirs)


def wce_nakagami(p, X):
    """Worst-case error of the equal-weight rule on X, all radial
    integrals in closed form.  O(N^2) time, O(N) memory."""
    radii, dirs = _as_polar(X, p.d)
    return _nakagami_reports(p, radii[None], dirs[None])[0]


def mc_cone_discrepancy_oracle(p, X, n_samples, seed):
    """Monte Carlo estimate of the squared spherical-cone L2 discrepancy.

    Samples cones C(z*, t; R) with z* uniform on S^d, t uniform on
    [-1, 1] (the t-integral carries total mass 2, hence the factor 2),
    and R distributed with density Phi'.  Returns (estimate, std_error).
    """
    if n_samples < 10_000:
        raise ConfigurationError("need at least 10^4 samples")
    radii, dirs = _as_polar(X, p.d)
    n = len(radii)
    # cone-membership tests held at once: N x cols, at most _TILE_ELEMS
    cols = max(1, _TILE_ELEMS // n)
    rng = _rng(seed)
    scale = p.mu * (1.0 / p.A - 1.0 / p.B)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(_ORACLE_CHUNK, n_samples - done)
        z = rng.standard_normal((m, p.d + 1))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        t = rng.uniform(-1.0, 1.0, size=m)
        u = rng.random(m)
        R = np.sqrt(-np.log1p(-u) / scale)
        counts = np.empty(m)
        for a in range(0, m, cols):
            s = slice(a, a + cols)
            inside = (dirs @ z[s].T >= t[s]) & (radii[:, None] >= R[s])
            counts[s] = inside.sum(axis=0)
        counts /= n
        true_mass = psi_tail(p, R) * cap_measure(p.d, t)
        dsq = (counts - true_mass)**2
        total += float(dsq.sum())
        total_sq += float((dsq**2).sum())
        done += m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean**2, 0.0)
    est = 2.0 * mean
    se = 2.0 * math.sqrt(var / n_samples)
    return est, se


def rms_wce_iid(p):
    """The N-independent constant c with E[wce^2] = c / N for N i.i.d.
    psi-distributed points: 1 - (A/B)^mu - W(K)."""
    c = 1.0 - (p.A / p.B)**p.mu - w_kernel(p)
    if not c > 0.0:
        raise NumericError(f"i.i.d. wce constant must be positive, got {c!r}")
    return c


def rms_wce_fixed_directions(p, Y):
    """E[wce^2] for fixed directions Y with i.i.d. psi-distributed radii:
    (1/N)(A/B)^mu [2 I_{B/(A+B)}(mu, mu) - 1]
        + W(K_R, psi) C_d [W(S^d) - mean pairwise distance]."""
    Y = _directions(Y, p.d)
    n = Y.shape[0]
    consts = sphere_constants(p.d)
    ibeta = float(reg_beta_i(p.B / (p.A + p.B), p.mu, p.mu))
    first = (1.0 / n) * (p.A / p.B)**p.mu * (2.0 * ibeta - 1.0)
    second = w_kr_psi(p) * consts.C_d * (consts.W_Sd - _mean_distance(Y))
    return first + second


def expected_wce_sq_permutation(p, Y, radii):
    """E[wce^2] when the given radii are assigned to the given directions
    by a uniformly random permutation (selection without replacement).

    Three nonnegative parts: the sphere-only discrepancy weighted by the
    off-diagonal radial kernel mean, a diagonal-vs-off-diagonal radial
    comparison at rate 1/N, and a radial discrepancy weighted by W(K_S).
    Radii and directions must be pairwise distinct.
    """
    Y = _directions(Y, p.d)
    radii = np.asarray(radii, dtype=float)
    n = Y.shape[0]
    if radii.shape[0] != n:
        raise ConfigurationError("need equally many radii and directions")
    if np.any(radii <= 0):
        raise DomainError("radii must be positive")
    if len(np.unique(radii)) != n:
        raise DomainError("radii must be pairwise distinct")
    if len(np.unique(Y, axis=0)) != n:
        raise DomainError("directions must be pairwise distinct")
    consts = sphere_constants(p.d)
    w_kr = w_kr_psi(p)
    phi = phi_cdf(p, radii)
    kr_sum = _kernel_sum(radii[None], phi[None])[0]
    trace = float(phi.sum())
    diag_mean = trace / n
    # at n = 1 the off-diagonal weights C_d W(S^d) and -(1 - W(K_S))
    # cancel, so any off_mean gives the point's wce^2
    off_mean = (kr_sum - trace) / max(n * (n - 1), 1)
    term1 = off_mean * consts.C_d * (consts.W_Sd - _mean_distance(Y))
    term2 = (1.0 / n) * (diag_mean - off_mean) * (1.0 - consts.W_KS)
    single = _kr_psi_integral(p, radii, phi)
    term3 = (kr_sum / n**2 + w_kr - 2.0 * float(np.mean(single))
             ) * consts.W_KS
    return term1 + term2 + term3


@dataclass(frozen=True)
class StratifiedWcePrediction:
    """Exact expected squared wce of one-point-per-cell stratified
    sampling, its radial and angular parts, and the cell-averaged mean
    chord the angular part is built on."""

    value: float
    radial_term: float
    angular_term: float
    mean_cell_distance: float
    M: int
    K: int


# Gauss-Legendre nodes per axis of the band mean-chord rule
_CHORD_NODES = 16


def _chord_rule(n):
    """The pieces (u, v, tau, weights) of a rule for int_[0,1]^3 f du dv
    dtau, f smooth but for |(u, v)| on the line u = v = 0 and, where
    tau = 0 or tau = 1, for |(u, tau)| or |(u, 1 - tau)| at u = 0.

    The square (u, v) splits along its diagonal into two triangles, each
    Duffy-mapped onto [0, 1]^2 with radius s.  In the triangle u < v,
    u = s t, and (t, tau) splits again into halves tau < 1/2 and
    tau > 1/2, each Duffy-mapped about its corner at t = 0.  Each piece
    is a tensor Gauss-Legendre rule of n nodes per axis, its arrays
    broadcasting to (n, n, n) from the axes they depend on.
    """
    x, w = leggauss(n)
    x, w = 0.5 * x + 0.5, 0.5 * w
    s, y, z = x[:, None, None], x[None, :, None], x[None, None, :]
    wt = w[:, None, None] * w[None, :, None] * w[None, None, :]
    pieces = [(s, s * y, z, s * wt)]
    for t, tau_half in ((y, y * z), (y * z, y)):
        for tau in (0.5 * tau_half, 1.0 - 0.5 * tau_half):
            pieces.append((s * t, s, tau, 0.5 * s * y * wt))
    return pieces


def _band_mean_chords(bands):
    """E||x - y|| for x, y independent uniform on one cell of each band
    (t0, t1, m): colatitudes [t0, t1], azimuth width w = 2 pi / m.

    With h = |theta_x - theta_y| >= 0, c the smaller colatitude and dphi
    the azimuth difference, the chord is
    ||x - y|| = 2 sqrt(sin^2(h/2) + sin c sin(c + h) sin^2(dphi/2)),
    free of cancellation in thin bands, and with H = t1 - t0 and cell
    area Z = (cos t0 - cos t1) w = 2 sin((t0 + t1)/2) sin(H/2) w,

        E = (4 / Z^2) int_0^H dh int_t0^{t1-h} dc int_0^D ddphi
                ||x - y|| sin c sin(c + h) omega(dphi),

    where D = w, omega = w - dphi for a sector, and a full circle folds
    its even, 2 pi-periodic dphi-integrand onto D = pi with omega = 2 pi.
    The chord is singular on h = dphi = 0 and, in a cap, at the pole
    h = sin c = 0; _chord_rule takes h = H u, dphi = D v and
    c = t0 + (H - h) tau, so its Duffy maps smooth both.  The weight
    is sin^2(c + h/2) - sin^2(h/2), one sine per node.  Bands are
    summed together, at most _TILE_ELEMS nodes of the rule at a time,
    and their integrand is evaluated at most _HEAP_ELEMS values at a time.
    """
    pieces = _chord_rule(_CHORD_NODES)
    t0, t1, m = (np.array(c, dtype=float)[:, None, None, None]
                 for c in zip(*bands))
    height = t1 - t0
    width = 2.0 * np.pi / m
    full = m == 1
    dphi_max = np.where(full, np.pi, width)
    out = np.zeros(len(m))
    nodes = _CHORD_NODES**3
    rows = max(1, _TILE_ELEMS // (len(pieces) * nodes))
    # the integrand of a tile's bands, filled a few bands at a time
    chord = np.empty((min(rows, len(m)), nodes))
    step = max(1, _HEAP_ELEMS // nodes)
    for a in range(0, len(m), rows):
        tile = slice(a, min(a + rows, len(m)))
        for u, v, tau, jac in pieces:
            for c in range(tile.start, tile.stop, step):
                b = slice(c, min(c + step, tile.stop))
                h = height[b] * u
                sin_h = np.sin(0.5 * h)**2
                dphi = dphi_max[b] * v
                omega = np.where(full[b], 2.0 * np.pi, width[b] - dphi)
                span = height[b] - h
                weight = np.sin(t0[b] + span * tau + 0.5 * h)**2 - sin_h
                f = np.sqrt(sin_h + weight * np.sin(0.5 * dphi)**2)
                f *= weight * omega * span
                chord[c - a:b.stop - a] = f.reshape(len(f), -1)
            out[tile] += chord[:tile.stop - a] @ jac.ravel()
    area = (2.0 * np.sin(0.5 * (t0 + t1)) * np.sin(0.5 * height)
            * width).ravel()
    return 8.0 * height.ravel() * dphi_max.ravel() / area**2 * out


def stratified_expected_wce_sq(p, partition, shells):
    """Exact E[wce^2] for stratified sampling: one psi-conditioned point
    in each product cell (sphere cell) x (radial shell) of S^2 (p.d == 2).

    The shells enter through their means only, which sum in closed form:
    with g = Lambda_K - I_{A/(A+B)}(mu, mu), Lambda_K = lambda_k(mu, B/A, K),
    radial = (A/B)^mu (2 g - 1/K) / M and angular = C_2 (1 - 2 K (A/B)^mu g)
    chord / (M K), chord the cells' mean chord by a fixed Gauss-Legendre
    rule in Duffy coordinates (_band_mean_chords).  A band and its mirror
    image in the equator, found from the cell counts alone (see
    SpherePartition), share one integration.
    """
    if p.d != 2:
        raise ConfigurationError("stratified prediction implemented for d=2")
    if abs(shells.mu - p.mu) > 1e-12 or abs(shells.B - p.B) > 1e-12:
        raise ConfigurationError("shells must use the kernel's (mu, B)")
    M, K = partition.M, shells.K
    abmu = (p.A / p.B)**p.mu
    g = (lambda_k(p.mu, p.B / p.A, K)
         - float(reg_beta_i(p.A / (p.A + p.B), p.mu, p.mu)))
    # band i holds the cells lo_i to hi_i, and every boundary lies at
    # arccos(1 - 2c/M) for an integer c, so band j mirrors band i in the
    # equator exactly when lo_j = M - hi_i and m_j = m_i; the mean chord
    # is the same under theta -> pi - theta, so each pair, keyed by
    # (min(lo, M - hi), m), is integrated once, from its northern member
    counts = [m for _, _, m in partition.bands]
    keys = [(min(hi - m, M - hi), m)
            for hi, m in zip(np.cumsum(counts).tolist(), counts)]
    northern = {}
    for key, band in zip(keys, partition.bands):
        northern.setdefault(key, band)
    chords = dict(zip(northern, _band_mean_chords(list(northern.values()))))
    mean_dist = float(np.average([chords[key] for key in keys],
                                 weights=counts))
    radial = abmu * (2.0 * g - 1.0 / K) / M
    angular = (sphere_constants(2).C_d * (1.0 - 2.0 * K * abmu * g)
               * mean_dist / (M * K))
    if not math.isfinite(radial + angular):
        raise NumericError(f"stratified E[wce^2] is not finite at M={M}, "
                           f"K={K}: radial {radial!r}, angular {angular!r}")
    return StratifiedWcePrediction(
        value=radial + angular, radial_term=radial, angular_term=angular,
        mean_cell_distance=mean_dist, M=M, K=K)


def strata_scaling(p, M_list, seed, draws=0):
    """Exact-formula E[wce^2] at K = round(sqrt(M)) per M, optional
    empirical means over stratified draws, and the log-log slope of the
    formula against N = M K (None for a single M).

    M_list must be nonempty with distinct values; draws is 0 (formula
    only) or at least 2, so that the empirical standard error exists.
    seed >= 0 seeds the draws only (draw i of each M from seed + 1000 + i);
    the formula is deterministic.  The draws of every M are sampled and
    scored in batches of max(1, _STRATA_BATCH_POINTS // (M K)) through
    _stratified_draws and _nakagami_reports.  Each M's formula and each
    batch is one task of one worker pool, the formulas first and largest
    M first, and the batches are combined in batch order: bitwise the
    same for any worker count, and as one stratified_sample and one
    wce_nakagami call per draw.  Rows keep the order of M_list.
    """
    if not M_list:
        raise ConfigurationError("need at least one M")
    if len(set(M_list)) != len(M_list):
        raise ConfigurationError(f"M values must be distinct, got {M_list}")
    if draws != 0 and draws < 2:
        raise ConfigurationError(
            f"draws must be 0 or at least 2, got {draws}")
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    shapes = []  # (M, K, partition, shells) per M
    batches = []  # (partition, shells, seeds) per draw batch, in M order
    for M in M_list:
        part = equal_area_partition_s2(M)
        K = max(1, int(round(math.sqrt(M))))
        shells = radial_shells(p.mu, p.B, K)
        shapes.append((M, K, part, shells))
        if draws:
            seeds = range(seed + 1000, seed + 1000 + draws)
            step = max(1, _STRATA_BATCH_POINTS // (M * K))
            batches += [(part, shells, seeds[a:a + step])
                        for a in range(0, draws, step)]

    # the pool hands tasks out in index order, and a formula's cost grows
    # with M
    by_size = sorted(range(len(shapes)), key=lambda i: -shapes[i][0])

    def task(i):
        if i < len(shapes):
            return stratified_expected_wce_sq(
                p, *shapes[by_size[i]][2:]).value
        part, shells, batch_seeds = batches[i - len(shapes)]
        dirs, radii = _stratified_draws(part, shells, batch_seeds)
        return [r.wce**2 for r in _nakagami_reports(p, radii, dirs)]

    results = _pool_map(task, len(shapes) + len(batches))
    vals = [v for batch in results[len(shapes):] for v in batch]
    formulas = dict(zip(by_size, results))
    rows = [{"M": M, "K": K, "N": M * K, "formula": formulas[i]}
            for i, (M, K, _, _) in enumerate(shapes)]
    if draws:
        for i, row in enumerate(rows):
            v = vals[i * draws:(i + 1) * draws]
            row["empirical"] = float(np.mean(v))
            row["empirical_se"] = float(np.std(v, ddof=1) / math.sqrt(draws))
    logs_n = np.log([r["N"] for r in rows])
    logs_f = np.log([r["formula"] for r in rows])
    slope = float(np.polyfit(logs_n, logs_f, 1)[0]) if len(rows) > 1 else None
    return rows, slope


def lambda_k(mu, c, K):
    """The finite mean Lambda_K = (1/K) sum_k Q(mu, c Q^{-1}(mu, k/K)),
    which approaches I_{1/(1+c)}(mu, mu) + 1/(2K) + O(K^{-2}); at c = B/A
    it sums the K radial shells of stratified_expected_wce_sq.  c Q^{-1}
    is held at the largest float where it overflows, as in
    _scaled_square, where Q is 0 already.

    For small mu the root x = Q^{-1}(mu, k/K) falls below the smallest
    normal float, or to 0, while c x need not.  There log x comes from
    the leading term x^mu / Gamma(mu + 1) = 1 - k/K, whose next term is
    x mu / (mu + 1) of it; c x is exp(log c + log x), and where that too
    lies below the smallest normal float, Q(mu, c x) = 1 - c^mu (1 - k/K)
    by the same term."""
    _check_finite("mu", mu)
    _check_finite("c", c)
    if mu <= 0:
        raise DomainError("mu must be positive")
    if c <= 1:
        raise DomainError("c must exceed 1")
    _check_positive_int("K", K)
    ks = np.arange(1, K + 1) / K
    root = inv_reg_gamma_q(mu, ks)
    with np.errstate(over="ignore"):
        x = np.minimum(c * root, _FLOAT_MAX)
    low = np.flatnonzero((root < _FLOAT_TINY) & (ks < 1.0))
    if low.size:
        # only here, as lgamma(mu + 1) overflows from mu = 3e305 on; log x
        # over mu of about 1e-308 overflows to -inf, where c x is 0
        with np.errstate(over="ignore"):
            x[low] = np.exp(math.log(c) + (np.log1p(-ks[low])
                                           + math.lgamma(mu + 1.0)) / mu)
    q = reg_gamma_q(mu, x)
    under = low[x[low] < _FLOAT_TINY]
    q[under] = -np.expm1(np.log1p(-ks[under]) + mu * math.log(c))
    return _mean_probability("Lambda_K", float(np.mean(q)))
