"""Option-pricing experiments under geometric Brownian motion.

Paths are built from standard normal vectors via a matrix A with
A A^T = Sigma, Sigma(i, j) = dt * min(i, j) (the covariance of the
Brownian path at the monitoring dates).  The "standard" construction is
the cumulative random walk (lower-triangular A of sqrt(dt) entries); the
"pca" construction uses the eigendecomposition of Sigma with eigenvalues
sorted descending, which concentrates path variance in the leading
coordinates and tends to help low-discrepancy point sets.

Normal vectors come from one of three generators: pseudo-random ("mc"),
inverse normal cdf of scrambled Sobol' points ("sobol_inverse_normal"),
or the sphere-lift construction ("sphere_normal", a chi radius times a
uniformly mapped direction).

Error estimation follows the replicate protocol: the point set is split
into n_replicates independently scrambled (or independently seeded)
replicates, the price of each replicate is its mean discounted payoff,
and the reported estimate is the mean of replicate prices with their
spread as the uncertainty.

Replicates are drawn and priced on the worker processes of `_pool`, one
pool per call, in tasks of consecutive replicates.  A task draws its
replicates' normals once for every generator: the pseudo-random
normals, and one scrambled Sobol' stream per replicate that feeds both
the inverse normal and the sphere lift.  It draws them in tiles of a
bounded number of paths, builds the path matrix of a tile once per
(generator, construction) and takes the payoff of every option spec of
the call from it, so specs priced together must share S0, T, sigma, r
and d_steps.  Each replicate is a pure function of (seed, replicate),
and a task returns only its replicates' prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._pool import _pool_map
from .errors import ConfigurationError, DomainError
from .lds import DirectionNumberTable, SobolStream, _rng
from .specfun import _U_FLOOR, _check_positive_int, inv_normal_cdf
from .spheremap import lift_to_space

__all__ = [
    "OptionSpec",
    "PriceEstimate",
    "brownian_transform",
    "price_option",
    "mc_reference_price",
    "experiment_table",
    "GENERATORS",
    "CONSTRUCTIONS",
]

GENERATORS = ("mc", "sobol_inverse_normal", "sphere_normal")
CONSTRUCTIONS = ("standard", "pca")

# paths summed at once by mc_reference_price
_REFERENCE_CHUNK = 2**19
# paths drawn and priced at once, at most, by mc_reference_price and by a
# pricing task: a tile of 30 steps holds some 16 MB per array
_PATH_TILE = 2**16


@dataclass(frozen=True)
class OptionSpec:
    """Contract parameters for an arithmetic-Asian style payoff."""

    S0: float
    K_strike: float
    T: float
    sigma: float
    r: float
    d_steps: int
    kind: str = "asian"
    barrier_b: Optional[float] = None

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("S0", "K_strike", "T"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise DomainError(
                    f"{name} must be positive and finite, got {value}")
        for name in ("sigma", "r"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise DomainError(
                    f"{name} must be nonnegative and finite, got {value}")
        _check_positive_int("d_steps", self.d_steps)
        if self.kind not in ("asian", "barrier", "digital"):
            raise ConfigurationError(f"unknown payoff kind {self.kind!r}")
        b = self.barrier_b
        if self.kind == "barrier" and not (
                b is not None and b > self.S0 and math.isfinite(b)):
            raise DomainError(
                f"barrier option needs a finite barrier_b > S0, got {b}")


@dataclass(frozen=True)
class PriceEstimate:
    mean: float
    std_dev_across_replicates: float
    n_points: int  # points per replicate
    n_replicates: int
    construction: str
    generator: str

    @property
    def std_error(self):
        """Standard error of the mean of replicate prices."""
        return self.std_dev_across_replicates / math.sqrt(self.n_replicates)


def brownian_transform(d_steps, T, kind):
    """The d_steps x d_steps matrix A with A A^T = Sigma for the
    construction kind."""
    if d_steps < 1:
        raise DomainError("d_steps must be >= 1")
    if kind not in CONSTRUCTIONS:
        raise ConfigurationError(f"unknown construction {kind!r}")
    dt = T / d_steps
    if kind == "standard":
        return math.sqrt(dt) * np.tril(np.ones((d_steps, d_steps)))
    idx = np.arange(1, d_steps + 1)
    sigma = dt * np.minimum.outer(idx, idx)
    vals, vecs = np.linalg.eigh(sigma)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    return vecs * np.sqrt(np.maximum(vals, 0.0))


# replicates of a pricing task: _TASK_ROWS // n_points of them (at least
# one), so that short replicates share a task's per-call costs; what a
# task holds at once is bounded by _PATH_TILE (2^10 rows per task raised
# price-table's peak RSS by 8-10 %)
_TASK_ROWS = 2**9


def _path_specs(specs):
    """specs as a tuple, checked to be nonempty and to share their paths
    (equal S0, T, sigma, r and d_steps), so that one path matrix serves
    every payoff."""
    specs = tuple(specs)
    if not specs:
        raise ConfigurationError("need at least one option spec")
    paths = {(s.S0, s.T, s.sigma, s.r, s.d_steps) for s in specs}
    if len(paths) > 1:
        raise ConfigurationError(
            "option specs priced together need equal S0, T, sigma, r and "
            f"d_steps, got {sorted(paths)}")
    return specs


def _check_draw(generators, n_points, n_replicates):
    """Validate a draw's generators and sizes; return the direction table
    every replicate stream of the QMC generators uses (None for "mc"
    alone)."""
    for generator in generators:
        if generator not in GENERATORS:
            raise ConfigurationError(f"unknown generator {generator!r}")
    if n_points < 1 or n_replicates < 1:
        raise ConfigurationError("need n_points >= 1 and n_replicates >= 1")
    if set(generators) <= {"mc"}:
        return None
    if n_points & (n_points - 1):
        raise ConfigurationError(
            f"QMC generators need a power-of-two n_points, got {n_points}")
    return DirectionNumberTable.default()


def _replicate_draws(generators, d, seed, reps, table):
    """draw(rows) -> {generator: (len(reps) * rows, d) standard normal
    vectors} for each of generators: the next rows of every replicate of
    reps (a range), stacked in replicate order.  The streams are opened
    once: a Philox generator per replicate for "mc", and one scrambled
    Sobol' stream per replicate, whose points both QMC generators take."""
    rngs, sobols = [], []
    if "mc" in generators:
        rngs = [_rng(seed, rep) for rep in reps]
    if set(generators) - {"mc"}:
        sobols = [SobolStream(d, seed=seed, scramble=True, table=table,
                              replicate=rep) for rep in reps]

    def draw(rows):
        normals = {}
        if rngs:
            normals["mc"] = np.concatenate(
                [rng.standard_normal((rows, d)) for rng in rngs])
        if sobols:
            u = np.concatenate([stream.take(rows) for stream in sobols])
            if "sobol_inverse_normal" in generators:
                normals["sobol_inverse_normal"] = inv_normal_cdf(
                    np.maximum(u, _U_FLOOR))
            if "sphere_normal" in generators:
                normals["sphere_normal"] = lift_to_space(u).cartesian
        return normals
    return draw


def _paths(spec, Z, A):
    """Price paths S (n, d) at the monitoring dates from the normal draws
    Z (n, d) under the construction A; any spec of a set that shares its
    paths gives the same S."""
    dt = spec.T / spec.d_steps
    t = dt * np.arange(1, spec.d_steps + 1)
    return spec.S0 * np.exp((spec.r - spec.sigma**2 / 2.0) * t
                            + spec.sigma * (Z @ A.T))


def _discounted_payoffs(specs, S):
    """Discounted payoffs (len(specs), n) of specs, which share their
    paths, on each path of S (n, d)."""
    s_mean = S.mean(axis=1)
    if any(spec.kind == "barrier" for spec in specs):
        s_max = S.max(axis=1)
    out = np.empty((len(specs), len(S)))
    for spec, row in zip(specs, out):
        disc = math.exp(-spec.r * spec.T)
        if spec.kind == "asian":
            row[:] = disc * np.maximum(s_mean - spec.K_strike, 0.0)
        elif spec.kind == "barrier":
            row[:] = (disc * (s_max < spec.barrier_b)
                      * np.maximum(s_mean - spec.K_strike, 0.0))
        else:
            row[:] = disc * (s_mean > spec.K_strike)
    return out


def price_option(spec, construction, generator, n_points, n_replicates,
                 seed):
    """Price estimate from n_replicates replicates of n_points paths.

    The estimate is the mean of replicate prices; the spread field is
    the sample standard deviation of the replicate prices.
    """
    return _price_columns([spec], [(generator, construction)], n_points,
                          n_replicates, seed)[0][0]


def _price_columns(specs, columns, n_points, n_replicates, seed):
    """price_option for each of specs and each (generator, construction)
    column: one list of estimates per spec, in the orders given.

    The specs must share their paths (equal S0, T, sigma, r and d_steps).
    The replicates run on one worker pool, in tasks of _TASK_ROWS //
    n_points consecutive replicates (at least one).  A task opens its
    replicates' streams once and draws them in tiles of at most
    _PATH_TILE rows, the next rows of every replicate stacked, and
    builds one path matrix of the stack per column for every spec's
    payoffs.  It holds one tile and its payoffs (columns, specs,
    replicates, n_points), 8 bytes per path per (column, spec), and
    returns their means over the points, its replicate prices.
    """
    specs = _path_specs(specs)
    spec = specs[0]
    generators = list(dict.fromkeys(g for g, _ in columns))
    table = _check_draw(generators, n_points, n_replicates)
    transforms = {c: brownian_transform(spec.d_steps, spec.T, c)
                  for c in dict.fromkeys(c for _, c in columns)}
    per_task = max(1, _TASK_ROWS // n_points)
    starts = range(0, n_replicates, per_task)

    def task_prices(i):
        reps = range(starts[i], min(starts[i] + per_task, n_replicates))
        draw = _replicate_draws(generators, spec.d_steps, seed, reps, table)
        payoffs = np.empty((len(columns), len(specs), len(reps), n_points))
        step = max(1, _PATH_TILE // len(reps))
        for a in range(0, n_points, step):
            rows = min(step, n_points - a)
            Z = draw(rows)
            for (g, c), column in zip(columns, payoffs):
                S = _paths(spec, Z[g], transforms[c])
                column[..., a:a + rows] = _discounted_payoffs(
                    specs, S).reshape(len(specs), len(reps), rows)
            # so that the next tile's draw does not meet this one's
            Z = S = None
        return payoffs.mean(axis=-1)

    prices = np.concatenate(_pool_map(task_prices, len(starts)), axis=-1)
    means = prices.mean(axis=-1)
    sds = (prices.std(axis=-1, ddof=1) if n_replicates > 1
           else np.zeros_like(means))
    return [[PriceEstimate(
        mean=float(mean), std_dev_across_replicates=float(sd),
        n_points=n_points, n_replicates=n_replicates,
        construction=construction, generator=generator)
        for (generator, construction), mean, sd in zip(columns, spec_means,
                                                       spec_sds)]
        for spec_means, spec_sds in zip(means.T, sds.T)]


def mc_reference_price(specs, n_paths=2**24, seed=0):
    """Plain Monte Carlo reference price and its standard error, one
    (mean, se) per spec of specs, from one stream of paths.

    The specs must share their paths (equal S0, T, sigma, r and d_steps).
    The paths are drawn in chunks of _REFERENCE_CHUNK; each chunk is
    drawn and priced in tiles of _PATH_TILE paths, so that its
    normals and paths are never held whole, and each spec's payoffs are
    summed over the chunk.
    """
    specs = _path_specs(specs)
    _check_positive_int("n_paths", n_paths)
    spec = specs[0]
    A = brownian_transform(spec.d_steps, spec.T, "standard")
    rng = _rng(seed)
    total, total_sq = np.zeros((2, len(specs)))
    pay = np.empty((len(specs), min(_REFERENCE_CHUNK, n_paths)))
    for done in range(0, n_paths, _REFERENCE_CHUNK):
        m = min(_REFERENCE_CHUNK, n_paths - done)
        for a in range(0, m, _PATH_TILE):
            b = min(a + _PATH_TILE, m)
            S = _paths(spec, rng.standard_normal((b - a, spec.d_steps)), A)
            pay[:, a:b] = _discounted_payoffs(specs, S)
        total += pay[:, :m].sum(axis=1)
        total_sq += (pay[:, :m]**2).sum(axis=1)
    mean = total / n_paths
    se = np.sqrt(np.maximum(total_sq / n_paths - mean**2, 0.0) / n_paths)
    return list(zip(mean.tolist(), se.tolist()))


# the five method columns of the experiment tables
TABLE_COLUMNS = (
    ("mc", "standard"),
    ("sobol_inverse_normal", "standard"),
    ("sobol_inverse_normal", "pca"),
    ("sphere_normal", "standard"),
    ("sphere_normal", "pca"),
)


def experiment_table(spec, N_list, seed, n_replicates=128):
    """One row per total point count N: the per-column uncertainty of the
    replicate-mean price (standard error over n_replicates replicates of
    N / n_replicates points each).  Each replicate's draw serves every
    column.

    Returns (header, rows) where each row is
    [N, se_mc, se_sobol_std, se_sobol_pca, se_sphere_std, se_sphere_pca].
    """
    header = ["N", "mc", "sobol_standard", "sobol_pca",
              "sphere_standard", "sphere_pca"]
    if not N_list:
        raise ConfigurationError("need at least one N")
    for N in N_list:
        if N < 1:
            raise ConfigurationError(f"N must be at least 1, got {N}")
        if N % n_replicates:
            raise ConfigurationError(
                f"N={N} not divisible by {n_replicates} replicates")
    rows = []
    for N in N_list:
        [ests] = _price_columns([spec], TABLE_COLUMNS, N // n_replicates,
                                n_replicates, seed)
        rows.append([float(N)] + [est.std_error for est in ests])
    return header, rows
