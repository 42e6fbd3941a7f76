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
the inverse normal and the sphere lift.  It builds the path matrix once
per (generator, construction) and takes the payoff of every option spec
of the call from it, so specs priced together must share S0, T, sigma,
r and d_steps.  Each replicate is a pure function of (seed, replicate),
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
    "PathConstruction",
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

# paths summed at once by mc_reference_price, and the tiles in which it
# draws and prices them
_REFERENCE_CHUNK = 2**19
_REFERENCE_TILE = 2**16


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
        if self.S0 <= 0 or self.K_strike <= 0 or self.T <= 0:
            raise DomainError("S0, strike and maturity must be positive")
        if self.sigma < 0 or self.r < 0:
            raise DomainError("sigma and r must be nonnegative")
        _check_positive_int("d_steps", self.d_steps)
        if self.kind not in ("asian", "barrier", "digital"):
            raise ConfigurationError(f"unknown payoff kind {self.kind!r}")
        if self.kind == "barrier":
            if self.barrier_b is None or self.barrier_b <= self.S0:
                raise DomainError("barrier option needs barrier_b > S0")


@dataclass(frozen=True)
class PathConstruction:
    kind: str
    transform: np.ndarray  # d x d, transform @ transform.T == Sigma


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
    """Matrix A with A A^T = Sigma for the requested construction."""
    if d_steps < 1:
        raise DomainError("d_steps must be >= 1")
    if kind not in CONSTRUCTIONS:
        raise ConfigurationError(f"unknown construction {kind!r}")
    dt = T / d_steps
    if kind == "standard":
        A = math.sqrt(dt) * np.tril(np.ones((d_steps, d_steps)))
    else:
        idx = np.arange(1, d_steps + 1)
        sigma = dt * np.minimum.outer(idx, idx)
        vals, vecs = np.linalg.eigh(sigma)
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        A = vecs * np.sqrt(np.maximum(vals, 0.0))
    return PathConstruction(kind=kind, transform=A)


# rows of the draw of one replicate task: each worker holds one task's
# draws and its paths at a time, so this bounds the workers' memory
# (2^10 rows raised price-table's peak RSS by 8-10 %)
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


def _replicate_normals(generators, d, n_points, seed, reps, table):
    """{generator: (len(reps) * n_points, d) standard normal vectors of
    the replicates reps (a range), stacked in replicate order} for each
    of generators.  The QMC generators take the same scrambled Sobol'
    points, so each replicate's stream is built and taken once for
    both."""
    normals = {}
    if "mc" in generators:
        normals["mc"] = np.concatenate(
            [_rng(seed, rep).standard_normal((n_points, d)) for rep in reps])
    if set(generators) - {"mc"}:
        u = np.concatenate([SobolStream(d, seed=seed, scramble=True,
                                        table=table, replicate=rep)
                            .take(n_points) for rep in reps])
        if "sobol_inverse_normal" in generators:
            normals["sobol_inverse_normal"] = inv_normal_cdf(
                np.maximum(u, _U_FLOOR))
        if "sphere_normal" in generators:
            normals["sphere_normal"] = lift_to_space(u).cartesian
    return normals


def _paths(spec, Z, A):
    """Price paths S (n, d) at the monitoring dates from the normal draws
    Z (n, d) under the construction A; any spec of a set that shares its
    paths gives the same S."""
    dt = spec.T / spec.d_steps
    t = dt * np.arange(1, spec.d_steps + 1)
    return spec.S0 * np.exp((spec.r - spec.sigma**2 / 2.0) * t
                            + spec.sigma * (Z @ A.T))


def _discounted_payoffs(spec, S):
    """Discounted payoff of spec's kind on each path of S (n, d)."""
    s_mean = S.mean(axis=1)
    disc = math.exp(-spec.r * spec.T)
    if spec.kind == "asian":
        return disc * np.maximum(s_mean - spec.K_strike, 0.0)
    if spec.kind == "barrier":
        alive = S.max(axis=1) < spec.barrier_b
        return disc * alive * np.maximum(s_mean - spec.K_strike, 0.0)
    return disc * (s_mean > spec.K_strike).astype(float)


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
    n_points consecutive replicates (at least one).  A task draws its
    replicates' normals once for every generator of the columns, builds
    each replicate's paths once per column and takes every spec's payoff
    from them, and returns the replicate prices; so no more than one
    task's draws per worker are held at a time.
    """
    specs = _path_specs(specs)
    spec = specs[0]
    generators = list(dict.fromkeys(g for g, _ in columns))
    table = _check_draw(generators, n_points, n_replicates)
    transforms = {c: brownian_transform(spec.d_steps, spec.T, c).transform
                  for c in dict.fromkeys(c for _, c in columns)}
    unique = list(dict.fromkeys(columns))
    per_task = max(1, _TASK_ROWS // n_points)
    starts = range(0, n_replicates, per_task)

    def task_prices(i):
        reps = range(starts[i], min(starts[i] + per_task, n_replicates))
        Z = _replicate_normals(generators, spec.d_steps, n_points, seed,
                               reps, table)
        prices = []  # [replicate][column][spec]
        for k in range(len(reps)):
            at = slice(k * n_points, (k + 1) * n_points)
            prices.append([])
            for g, c in unique:
                S = _paths(spec, Z[g][at], transforms[c])
                prices[-1].append([float(_discounted_payoffs(s, S).mean())
                                   for s in specs])
        return prices

    results = _pool_map(task_prices, len(starts))
    # prices[s, j]: spec s's replicate prices under column j, in
    # replicate order
    prices = np.array([rep for task in results for rep in task]).T
    estimates = []
    for spec_prices in prices:
        own = {}
        for (generator, construction), rep_means in zip(unique, spec_prices):
            sd = float(rep_means.std(ddof=1)) if n_replicates > 1 else 0.0
            own[generator, construction] = PriceEstimate(
                mean=float(rep_means.mean()), std_dev_across_replicates=sd,
                n_points=n_points, n_replicates=n_replicates,
                construction=construction, generator=generator)
        estimates.append([own[column] for column in columns])
    return estimates


def mc_reference_price(specs, n_paths=2**24, seed=0):
    """Plain Monte Carlo reference price and its standard error, one
    (mean, se) per spec of specs, from one stream of paths.

    The specs must share their paths (equal S0, T, sigma, r and d_steps).
    The paths are drawn in chunks of _REFERENCE_CHUNK; each chunk is
    drawn and priced in tiles of _REFERENCE_TILE paths, so that its
    normals and paths are never held whole, and each spec's payoffs are
    summed over the chunk.
    """
    specs = _path_specs(specs)
    _check_positive_int("n_paths", n_paths)
    spec = specs[0]
    A = brownian_transform(spec.d_steps, spec.T, "standard").transform
    rng = _rng(seed)
    total = [0.0] * len(specs)
    total_sq = [0.0] * len(specs)
    pay = np.empty((len(specs), min(_REFERENCE_CHUNK, n_paths)))
    for done in range(0, n_paths, _REFERENCE_CHUNK):
        m = min(_REFERENCE_CHUNK, n_paths - done)
        for a in range(0, m, _REFERENCE_TILE):
            b = min(a + _REFERENCE_TILE, m)
            S = _paths(spec, rng.standard_normal((b - a, spec.d_steps)), A)
            for row, s in zip(pay, specs):
                row[a:b] = _discounted_payoffs(s, S)
        for k, row in enumerate(pay[:, :m]):
            total[k] += float(row.sum())
            total_sq[k] += float((row**2).sum())
    results = []
    for k in range(len(specs)):
        mean = total[k] / n_paths
        var = max(total_sq[k] / n_paths - mean**2, 0.0)
        results.append((mean, math.sqrt(var / n_paths)))
    return results


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
