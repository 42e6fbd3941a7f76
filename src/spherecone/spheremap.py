"""Area-preserving cube-to-sphere map, chi-radial lift, equal-area
partitions of S^2 and stratified samplers.

The map T sends [0,1)^s onto S^s by building the point up one height
coordinate at a time: the first coordinate gives an angle on the circle,
each later coordinate q gives a height t_q = 1 - 2 h_q^{-1}(x_q) with
h_q(x) = I_x(q/2, q/2), and the earlier coordinates are shrunk by
sqrt(1 - t_q^2).  Uniform cube input gives uniform sphere output.
h_2 is the identity; the heights t_3..t_s and their scales come from one
`specfun.sphere_height` call over the whole block, which solves for each
colatitude phi with t_q = cos phi by Halley steps on the closed-form
Wallis CDF of the half-integer shape q/2, and each output column is its
base value times a reverse cumulative product of the later scales.

The lift appends a chi-distributed radius via the chi quantile of the
last cube coordinate, so uniform cube points map to standard normal
vectors.  The sphere trial integral of (sum_i y_i)^2, whose mean is 1,
measures how evenly a generator's points cover the sphere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .lds import _cube_points, _rng
from .specfun import (_U_CAP, _U_FLOOR, _check_positive_int, _like_input,
                      chi_quantile, inv_normal_cdf, reg_beta_i,
                      inv_reg_gamma_q, inv_reg_gamma_p, sphere_height)

__all__ = [
    "SpacePoints",
    "RadialShells",
    "SpherePartition",
    "map_to_sphere",
    "lift_to_space",
    "cap_measure",
    "radial_shells",
    "equal_area_partition_s2",
    "stratified_sample",
    "trial_integral_errors",
]

# directions may be off unit length by this much: the rounding of a
# normalization or of a 17-digit CSV round trip
_UNIT_TOL = 1e-10


def _check_unit(directions):
    """Raise DomainError unless every row of directions has unit length."""
    # written as "not within" so that a NaN row is rejected too
    if np.any(~(np.abs(np.linalg.norm(directions, axis=1) - 1.0)
                <= _UNIT_TOL)):
        raise DomainError("directions must be unit vectors")


class SpacePoints:
    """Points of R^{m+1} in polar form: unit directions (N, m+1) and
    radii (N,).  A single direction and radius make a one-row set."""

    def __init__(self, directions, radii):
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if directions.shape[0] != radii.shape[0]:
            raise ConfigurationError("directions and radii length mismatch")
        _check_unit(directions)
        if not np.isfinite(radii).all():
            raise DomainError("radii must be finite")
        if np.any(radii < 0):
            raise DomainError("radii must be nonnegative")
        self.directions = directions
        self.radii = radii

    def __len__(self):
        return self.radii.shape[0]

    def __getitem__(self, i):
        return SpacePoints(self.directions[i], self.radii[i])

    @property
    def cartesian(self):
        return self.directions * self.radii[:, None]

    @classmethod
    def from_cartesian(cls, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if xs.size == 0:
            raise DomainError("point set must not be empty")
        if not np.isfinite(xs).all():
            raise DomainError("point coordinates must be finite")
        with np.errstate(over="ignore"):
            r = np.linalg.norm(xs, axis=1)
        # rows whose sum of squares overflows, with finite coordinates:
        # their norm is taken of the row scaled by its largest coordinate
        big = np.isinf(r)
        if big.any():
            scale = np.abs(xs[big]).max(axis=1)
            r[big] = scale * np.linalg.norm(xs[big] / scale[:, None], axis=1)
        dirs = np.empty_like(xs)
        zero = r == 0.0
        # the origin has no direction; use the first basis vector, the
        # radius 0 makes the choice irrelevant
        dirs[zero] = 0.0
        dirs[zero, 0] = 1.0
        nz = ~zero
        dirs[nz] = xs[nz] / r[nz, None]
        return cls(dirs, r)


def map_to_sphere(x):
    """Map points of [0,1)^s onto S^s (ambient dimension s+1).

    Accepts a single vector (s,) or a batch (n, s); returns the matching
    shape with one more column.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    n, s = x2.shape
    if s < 1:
        raise DomainError("need at least one coordinate")
    if np.any(~((x2 >= 0.0) & (x2 < 1.0))):
        raise DomainError("coordinates must lie in [0, 1)")
    y = np.empty((n, s + 1))
    ang = 2.0 * np.pi * x2[:, 0]
    y[:, 0] = np.cos(ang)
    y[:, 1] = np.sin(ang)
    if s >= 2:
        # heights t_2..t_s in columns 2..s, scales sqrt(1 - t_q^2) in
        # scales[:, q - 2]; h_2 is the identity, and its scale is taken
        # as 2 sqrt(x (1 - x)), exact near the poles where 1 - t^2 is not
        scales = np.empty((n, s - 1))
        y[:, 2] = 1.0 - 2.0 * x2[:, 1]
        scales[:, 0] = 2.0 * np.sqrt(x2[:, 1] * (1.0 - x2[:, 1]))
        if s >= 3:
            y[:, 3:], scales[:, 1:] = sphere_height(
                x2[:, 2:], np.arange(3, s + 1) / 2.0)
        # column j < s is shrunk by the scales of every later height
        later = np.cumprod(scales[:, ::-1], axis=1)[:, ::-1]
        y[:, :2] *= later[:, :1]
        y[:, 2:s] *= later[:, 1:]
    return y[0] if single else y


def lift_to_space(x):
    """Lift [0,1)^d points to R^d: sphere map for the first d-1 coords,
    chi(d) quantile of the last coordinate as the radius.

    Returns SpacePoints; a single vector gives a one-row set.  Uniform
    input yields standard normal output.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] < 2:
        raise DomainError("need dimension >= 2 to split direction and radius")
    u = np.minimum(x[:, -1], _U_CAP)
    return SpacePoints(map_to_sphere(x[:, :-1]), chi_quantile(x.shape[1], u))


def _trial_points(gen, dim, n, seed, table):
    """n points on S^{dim-1} from the generator gen of the trial integral."""
    if gen == "inverse_normal":
        cube = _cube_points(n, dim, seed, scramble=True, table=table)
        z = inv_normal_cdf(np.maximum(cube, _U_FLOOR))
        return z / np.linalg.norm(z, axis=1, keepdims=True)
    if gen not in ("inverse_beta", "random"):
        raise ConfigurationError(f"unknown generator {gen!r}")
    return map_to_sphere(_cube_points(n, dim - 1, seed, gen == "random",
                                      scramble=True, table=table))


def trial_integral_errors(dim, N_list, gen, seed, table=None):
    """|1 - (1/N) sum_n (sum_i y_ni)^2| on S^{dim-1} for each N of N_list;
    the integrand (sum_i y_i)^2 has mean 1 on the sphere.

    gen is "inverse_beta" (scrambled Sobol' points through the sphere
    map), "inverse_normal" (scrambled Sobol' points through the inverse
    normal cdf, normalized) or "random" (Philox uniforms through the
    sphere map).  Each N takes the first N of one draw of max(N_list) points.
    """
    if dim < 2:
        raise ConfigurationError(
            f"trial integral needs dim >= 2, got {dim}")
    if min(N_list, default=1) < 1:
        raise ConfigurationError(f"N must be at least 1, got {min(N_list)}")
    f = _trial_points(gen, dim, max(N_list, default=0), seed,
                      table).sum(axis=1)**2
    return [abs(1.0 - float(np.mean(f[:n]))) for n in N_list]


def cap_measure(m, t):
    """Normalized surface area of the spherical cap {y in S^m : y.z >= t}.

    Equals I_{(1-t)/2}(m/2, m/2), independent of the cap center.
    """
    _check_positive_int("sphere dimension", m)
    t = np.asarray(t, dtype=float)
    if np.any(t < -1.0) or np.any(t > 1.0):
        raise DomainError("cap height must lie in [-1, 1]")
    return _like_input(t, reg_beta_i((1.0 - t) / 2.0, m / 2.0, m / 2.0))


@dataclass(frozen=True)
class RadialShells:
    """Equal-mass radial shells of the Nakagami density with shape mu
    and spread B: the shell (rho_{k-1}, rho_k] has mass 1/K."""

    mu: float
    B: float
    K: int

    @functools.cached_property
    def boundaries(self):
        """The interior boundaries rho_1 < ... < rho_{K-1}, with
        integral_0^{rho_k} psi = k/K."""
        ks = np.arange(1, self.K)
        return np.sqrt((self.B / self.mu)
                       * inv_reg_gamma_q(self.mu, 1.0 - ks / self.K))

    def sample_radius(self, k, u):
        """Radius at conditional quantile u within shell k (1-based)."""
        p = (k - 1 + np.asarray(u, dtype=float)) / self.K
        return np.sqrt((self.B / self.mu) * inv_reg_gamma_p(self.mu, p))


def radial_shells(mu, B, K):
    """The K equal-mass shells of the Nakagami density (mu, B)."""
    if not (0 < mu < np.inf and 0 < B < np.inf):
        raise DomainError("mu and B must be positive and finite")
    _check_positive_int("K", K)
    return RadialShells(float(mu), float(B), int(K))


@dataclass(frozen=True)
class SpherePartition:
    """Equal-area partition of S^2 into zonal bands of congruent cells.

    Each entry of bands is (theta0, theta1, n_sectors), in colatitude
    order: the band between colatitudes theta0 and theta1 splits into
    n_sectors cells of equal azimuth width, and the polar caps are bands
    of one cell.
    """

    bands: list
    M: int

    @functools.cached_property
    def cells(self):
        """The (M, 4) array of (theta0, theta1, phi0, phi1) per cell in
        colatitude/azimuth, band by band; a band's sector j spans the
        azimuths j w to (j + 1) w, w = 2 pi / n_sectors."""
        t0, t1, m = (np.array(c) for c in zip(*self.bands))
        width = np.repeat(2.0 * np.pi / m, m)
        j = np.arange(self.M) - np.repeat(np.cumsum(m) - m, m)
        return np.column_stack([np.repeat(t0, m), np.repeat(t1, m),
                                j * width, (j + 1) * width])


def equal_area_partition_s2(M):
    """Zonal equal-area partition of S^2: polar caps plus collars of
    equal-azimuth sectors, every cell of normalized area 1/M."""
    _check_positive_int("M", M)
    M = int(M)
    if M == 1:
        return SpherePartition([(0.0, np.pi, 1)], 1)
    if M == 2:
        return SpherePartition([(0.0, np.pi / 2, 1), (np.pi / 2, np.pi, 1)],
                               2)
    # polar caps of area 1/M each
    theta_c = np.arccos(1.0 - 2.0 / M)
    n_collar_cells = M - 2
    delta_ideal = np.sqrt(4.0 * np.pi / M)
    n_collars = max(1, int(round((np.pi - 2.0 * theta_c) / delta_ideal)))
    delta_fit = (np.pi - 2.0 * theta_c) / n_collars
    # ideal cell counts per collar, rounded with running correction so
    # the total is exactly M - 2
    counts = []
    acc = 0.0
    for i in range(n_collars):
        lo = theta_c + i * delta_fit
        hi = theta_c + (i + 1) * delta_fit
        ideal = M * (np.cos(lo) - np.cos(hi)) / 2.0
        m_i = max(1, int(round(ideal + acc)))
        acc += ideal - m_i
        counts.append(m_i)
    counts[-1] += n_collar_cells - sum(counts)
    if counts[-1] < 1:
        raise ConfigurationError("collar rounding failed")
    # collar boundaries chosen so each collar holds exactly its share
    cum = np.concatenate([[1], 1 + np.cumsum(counts)])
    thetas = np.arccos(np.clip(1.0 - 2.0 * cum / M, -1.0, 1.0))
    bands = [(0.0, theta_c, 1)]
    bands += [(thetas[i], thetas[i + 1], m_i) for i, m_i in enumerate(counts)]
    bands.append((np.arccos(-(1.0 - 2.0 / M)), np.pi, 1))
    return SpherePartition(bands, M)


def stratified_sample(partition, shells, rng_seed):
    """One point per (cell, shell) stratum: direction uniform on the
    cell, radius from the shell's conditional distribution.

    Returns SpacePoints of length M * K, ordered cell-major; the draw
    of rng_seed in _stratified_draws."""
    dirs, radii = _stratified_draws(partition, shells, [rng_seed])
    return SpacePoints(dirs[0], radii[0])


def _stratified_draws(partition, shells, seeds):
    """One stratified draw per seed, stacked: directions (B, M K, 3) and
    radii (B, M K) for B = len(seeds), each draw cell-major.

    Each seed's stream gives one (M, 3K) block of uniforms: per cell, K
    (cos-theta, phi) pairs, then one radius quantile per shell.  Every
    step after the draws is one vectorized pass over the whole stack,
    the radii one inv_reg_gamma_p call."""
    M, K = partition.M, shells.K
    u = np.empty((len(seeds), M, 3 * K))
    for block, seed in zip(u, seeds):
        _rng(seed).random(out=block)
    uc = u[..., :2 * K].reshape(len(seeds), M, K, 2)
    t0, t1, p0, p1 = (partition.cells[:, i, None] for i in range(4))
    # cos(theta) uniform on the band gives uniform area
    ct = np.cos(t0) + uc[..., 0] * (np.cos(t1) - np.cos(t0))
    st = np.sqrt(np.maximum(0.0, 1.0 - ct**2))
    phi = p0 + uc[..., 1] * (p1 - p0)
    dirs = np.stack([st * np.cos(phi), st * np.sin(phi), ct],
                    axis=-1).reshape(len(seeds), M * K, 3)
    radii = shells.sample_radius(np.arange(1, K + 1),
                                 u[..., 2 * K:]).reshape(len(seeds), M * K)
    return dirs, radii
