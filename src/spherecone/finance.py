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
pool per call for the replicates of every generator, in tasks of
consecutive replicates of one generator whose draws are stacked; each
replicate is a pure function of (seed, replicate), and a task returns
only its replicates' prices.
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

# paths drawn and priced at once by mc_reference_price
_REFERENCE_CHUNK = 2**19


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
# draw and its paths at a time, so this bounds the workers' memory
# (2^10 rows raised price-table's peak RSS by 8-10 %)
_TASK_ROWS = 2**9


def _check_draw(generator, n_points, n_replicates):
    """Validate a draw's generator and sizes; return the direction table
    every replicate stream of a QMC generator uses (None for "mc")."""
    if generator not in GENERATORS:
        raise ConfigurationError(f"unknown generator {generator!r}")
    if n_points < 1 or n_replicates < 1:
        raise ConfigurationError("need n_points >= 1 and n_replicates >= 1")
    if generator == "mc":
        return None
    if n_points & (n_points - 1):
        raise ConfigurationError(
            f"QMC generators need a power-of-two n_points, got {n_points}")
    return DirectionNumberTable.default()


def _replicate_normals(generator, d, n_points, seed, reps, table):
    """(len(reps) * n_points, d) standard normal vectors of the
    replicates reps (a range), stacked in replicate order."""
    if generator == "mc":
        return np.concatenate([_rng(seed, rep).standard_normal((n_points, d))
                               for rep in reps])
    u = np.concatenate([SobolStream(d, seed=seed, scramble=True, table=table,
                                    replicate=rep).take(n_points)
                        for rep in reps])
    if generator == "sobol_inverse_normal":
        return inv_normal_cdf(np.maximum(u, _U_FLOOR))
    return lift_to_space(u).cartesian


def _discounted_payoffs(spec, Z, A):
    """Discounted payoff of each path given normal draws Z (n, d)."""
    dt = spec.T / spec.d_steps
    t = dt * np.arange(1, spec.d_steps + 1)
    B = Z @ A.T
    S = spec.S0 * np.exp((spec.r - spec.sigma**2 / 2.0) * t
                         + spec.sigma * B)
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
    return _price_columns(spec, [(generator, construction)], n_points,
                          n_replicates, seed)[0]


def _price_columns(spec, columns, n_points, n_replicates, seed):
    """price_option for each (generator, construction) column, in the
    order given.

    The replicates of every generator run on one worker pool: a task
    draws the normals of _TASK_ROWS // n_points consecutive replicates
    (at least one) of one generator in one stack, prices each replicate
    under every construction of that generator's columns and returns
    the prices, so each draw serves all of its generator's columns and
    no more than one task's draw per worker is held at a time.
    """
    generators = dict.fromkeys(g for g, _ in columns)
    tables = {g: _check_draw(g, n_points, n_replicates) for g in generators}
    pcs = {g: [brownian_transform(spec.d_steps, spec.T, c)
               for c in dict.fromkeys(c for h, c in columns if h == g)]
           for g in generators}
    per_task = max(1, _TASK_ROWS // n_points)
    starts = range(0, n_replicates, per_task)
    tasks = [(g, start) for g in generators for start in starts]

    def task_means(i):
        generator, start = tasks[i]
        reps = range(start, min(start + per_task, n_replicates))
        Z = _replicate_normals(generator, spec.d_steps, n_points, seed,
                               reps, tables[generator])
        return [[float(_discounted_payoffs(
            spec, Z[k * n_points:(k + 1) * n_points], pc.transform).mean())
            for pc in pcs[generator]] for k in range(len(reps))]

    results = _pool_map(task_means, len(tasks))
    estimates = {}
    for j, generator in enumerate(generators):
        own = results[j * len(starts):(j + 1) * len(starts)]
        # row i: construction i's replicate prices, in replicate order
        means = np.array([rep for task in own for rep in task]).T
        for pc, rep_means in zip(pcs[generator], means):
            sd = float(rep_means.std(ddof=1)) if n_replicates > 1 else 0.0
            estimates[generator, pc.kind] = PriceEstimate(
                mean=float(rep_means.mean()), std_dev_across_replicates=sd,
                n_points=n_points, n_replicates=n_replicates,
                construction=pc.kind, generator=generator)
    return [estimates[column] for column in columns]


def mc_reference_price(spec, n_paths=2**24, seed=0):
    """Plain Monte Carlo reference price and its standard error."""
    pc = brownian_transform(spec.d_steps, spec.T, "standard")
    rng = _rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_paths:
        m = min(_REFERENCE_CHUNK, n_paths - done)
        pay = _discounted_payoffs(
            spec, rng.standard_normal((m, spec.d_steps)), pc.transform)
        total += float(pay.sum())
        total_sq += float((pay**2).sum())
        done += m
    mean = total / n_paths
    var = max(total_sq / n_paths - mean**2, 0.0)
    return mean, math.sqrt(var / n_paths)


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
    N / n_replicates points each).  Each generator draws its normals once
    for all of its columns.

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
        ests = _price_columns(spec, TABLE_COLUMNS, N // n_replicates,
                              n_replicates, seed)
        rows.append([float(N)] + [est.std_error for est in ests])
    return header, rows
