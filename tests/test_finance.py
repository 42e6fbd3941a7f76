import dataclasses
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from spherecone import _pool, finance
from spherecone.errors import ConfigurationError, DomainError
from spherecone.finance import (CONSTRUCTIONS, GENERATORS, TABLE_COLUMNS,
                                OptionSpec, brownian_transform,
                                experiment_table, mc_reference_price,
                                price_option)
from oracles import min_matrix_eigenvalues

SPEC = OptionSpec(S0=100.0, K_strike=100.0, T=1.0, sigma=0.2, r=0.05,
                  d_steps=30)
BARRIER = OptionSpec(S0=100.0, K_strike=100.0, T=1.0, sigma=0.2, r=0.05,
                     d_steps=30, kind="barrier", barrier_b=130.0)
DIGITAL = OptionSpec(S0=100.0, K_strike=100.0, T=1.0, sigma=0.2, r=0.05,
                     d_steps=30, kind="digital")


def assert_no_child_left():
    # every child process the call started has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def covariance(d, dt):
    idx = np.arange(1, d + 1)
    return dt * np.minimum.outer(idx, idx)


class TestTransforms:
    @pytest.mark.parametrize("d", [1, 3, 30])
    @pytest.mark.parametrize("kind", CONSTRUCTIONS)
    def test_factorization(self, d, kind):
        A = brownian_transform(d, 1.0, kind)
        np.testing.assert_allclose(A @ A.T, covariance(d, 1.0 / d),
                                   atol=1e-12)

    def test_standard_is_cumulative_walk(self):
        A = brownian_transform(4, 1.0, "standard")
        z = np.array([1.0, -2.0, 0.5, 3.0])
        np.testing.assert_allclose(A @ z, 0.5 * np.cumsum(z))

    def test_pca_matches_analytic_spectrum(self):
        d, dt = 30, 1.0 / 30
        A = brownian_transform(d, 1.0, "pca")
        col_norms_sq = (A**2).sum(axis=0)
        np.testing.assert_allclose(col_norms_sq,
                                   min_matrix_eigenvalues(d, dt), rtol=1e-10)
        # descending: the first coordinate carries the most variance
        assert np.all(np.diff(col_norms_sq) < 0)

    def test_bad_args(self):
        with pytest.raises(DomainError):
            brownian_transform(0, 1.0, "standard")
        with pytest.raises(ConfigurationError):
            brownian_transform(4, 1.0, "cholesky")


class TestNormalVectors:
    """Each replicate's normals, as pricing draws them."""

    @staticmethod
    def draw(gen, d, n, seed, rep):
        return finance._replicate_draws([gen], d, seed, range(rep, rep + 1),
                                        None)(n)[gen]

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_shape_and_determinism(self, gen):
        Z = self.draw(gen, 5, 64, 1, 0)
        assert Z.shape == (64, 5)
        np.testing.assert_array_equal(Z, self.draw(gen, 5, 64, 1, 0))
        assert np.any(Z != self.draw(gen, 5, 64, 1, 1))
        assert np.any(Z != self.draw(gen, 5, 64, 2, 0))

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_stack_matches_single_replicates(self, gen):
        # a pool task's stacked draw is its replicates' draws, bitwise
        stack = finance._replicate_draws([gen], 5, 1, range(2, 5),
                                         None)(64)[gen]
        np.testing.assert_array_equal(
            stack, np.concatenate([self.draw(gen, 5, 64, 1, r)
                                   for r in range(2, 5)]))

    def test_generators_share_one_draw(self):
        # the QMC generators transform one Sobol' stream per replicate;
        # drawn together, every generator's normals are its own, bitwise
        together = finance._replicate_draws(GENERATORS, 5, 1, range(2, 5),
                                            None)(64)
        assert list(together) == list(GENERATORS)
        for gen in GENERATORS:
            np.testing.assert_array_equal(
                together[gen], finance._replicate_draws(
                    [gen], 5, 1, range(2, 5), None)(64)[gen])

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_moments(self, gen):
        Z = np.concatenate([self.draw(gen, 4, 4096, 0, r) for r in range(8)])
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=0.02)
        np.testing.assert_allclose(np.cov(Z.T), np.eye(4), atol=0.03)

    def test_qmc_needs_power_of_two(self):
        with pytest.raises(ConfigurationError):
            price_option(SPEC, "standard", "sobol_inverse_normal", 100, 1,
                         seed=0)
        # plain Monte Carlo has no such restriction
        assert price_option(SPEC, "standard", "mc", 100, 1,
                            seed=0).n_points == 100

    def test_unknown_generator(self):
        with pytest.raises(ConfigurationError):
            price_option(SPEC, "standard", "halton", 64, 1, seed=0)

    def test_no_points_rejected(self):
        with pytest.raises(ConfigurationError, match="n_points >= 1"):
            price_option(SPEC, "standard", "mc", 0, 4, seed=0)


class TestOptionSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            OptionSpec(-1.0, 100.0, 1.0, 0.2, 0.05, 30)
        with pytest.raises(DomainError):
            OptionSpec(100.0, 100.0, 1.0, -0.2, 0.05, 30)
        with pytest.raises(ConfigurationError):
            OptionSpec(100.0, 100.0, 1.0, 0.2, 0.05, 30, kind="lookback")
        with pytest.raises(DomainError):
            OptionSpec(100.0, 100.0, 1.0, 0.2, 0.05, 30, kind="barrier",
                       barrier_b=90.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["S0", "K_strike", "T", "sigma", "r",
                                       "barrier_b"])
    def test_non_finite_rejected(self, field, value):
        # NaN passed every comparison and inf priced to nan or 0
        with pytest.raises(DomainError, match=f"{field}.*got {value}"):
            dataclasses.replace(BARRIER, **{field: value})


def degenerate_price(spec):
    """sigma = 0: the path is deterministic, the price is closed form."""
    dt = spec.T / spec.d_steps
    t = dt * np.arange(1, spec.d_steps + 1)
    S = spec.S0 * np.exp(spec.r * t)
    disc = math.exp(-spec.r * spec.T)
    mean_s = S.mean()
    if spec.kind == "asian":
        return disc * max(mean_s - spec.K_strike, 0.0)
    if spec.kind == "barrier":
        alive = S.max() < spec.barrier_b
        return disc * alive * max(mean_s - spec.K_strike, 0.0)
    return disc * float(mean_s > spec.K_strike)


class TestPricing:
    @pytest.mark.parametrize("gen", GENERATORS)
    @pytest.mark.parametrize("con", CONSTRUCTIONS)
    def test_degenerate_sigma_zero(self, gen, con):
        for base in (SPEC, BARRIER, DIGITAL):
            spec = OptionSpec(base.S0, base.K_strike, base.T, 0.0, base.r,
                              base.d_steps, kind=base.kind,
                              barrier_b=base.barrier_b)
            est = price_option(spec, con, gen, 16, 2, seed=0)
            assert est.mean == pytest.approx(degenerate_price(spec),
                                             abs=1e-12)
            assert est.std_dev_across_replicates == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_far_barrier_equals_asian(self):
        far = OptionSpec(100.0, 100.0, 1.0, 0.2, 0.05, 30, kind="barrier",
                         barrier_b=1e9)
        a = price_option(SPEC, "standard", "mc", 512, 4, seed=3)
        b = price_option(far, "standard", "mc", 512, 4, seed=3)
        assert a.mean == pytest.approx(b.mean, abs=1e-12)

    def test_barrier_below_asian(self):
        a = price_option(SPEC, "standard", "mc", 2048, 8, seed=4)
        b = price_option(BARRIER, "standard", "mc", 2048, 8, seed=4)
        assert b.mean < a.mean

    def test_digital_bounded(self):
        est = price_option(DIGITAL, "pca", "sobol_inverse_normal", 512, 8,
                           seed=5)
        assert 0.0 <= est.mean <= math.exp(-DIGITAL.r * DIGITAL.T)

    def test_constructions_agree_in_distribution(self):
        # same generator, different path constructions: equal prices in
        # expectation (the path law is identical)
        a = price_option(SPEC, "standard", "mc", 4096, 32, seed=6)
        b = price_option(SPEC, "pca", "mc", 4096, 32, seed=7)
        tol = 3 * math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) < tol

    def test_generators_agree_in_distribution(self):
        a = price_option(SPEC, "standard", "sobol_inverse_normal", 1024, 16,
                         seed=8)
        b = price_option(SPEC, "standard", "sphere_normal", 1024, 16, seed=9)
        tol = 4 * math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) < tol

    def test_martingale_property(self):
        # the discounted terminal price has expectation S0
        Z = finance._replicate_draws(["mc"], 30, 10, range(1),
                                     None)(2**17)["mc"]
        A = brownian_transform(30, 1.0, "standard")
        t = np.arange(1, 31) / 30.0
        S = SPEC.S0 * np.exp((SPEC.r - SPEC.sigma**2 / 2) * t
                             + SPEC.sigma * (Z @ A.T))
        disc_st = math.exp(-SPEC.r * SPEC.T) * S[:, -1]
        se = disc_st.std() / math.sqrt(len(disc_st))
        assert abs(disc_st.mean() - SPEC.S0) < 4 * se

    def test_std_error_is_sd_over_sqrt_reps(self):
        est = price_option(SPEC, "standard", "mc", 256, 16, seed=11)
        assert est.std_error == pytest.approx(
            est.std_dev_across_replicates / 4.0, rel=1e-14)

    def test_mc_reference_consistency(self):
        [(ref, se)] = mc_reference_price([SPEC], n_paths=2**18, seed=12)
        est = price_option(SPEC, "standard", "mc", 2048, 32, seed=13)
        assert abs(ref - est.mean) < 4 * math.hypot(se, est.std_error)

    def test_qmc_beats_mc_variance(self):
        mc = price_option(SPEC, "standard", "mc", 1024, 32, seed=14)
        qmc = price_option(SPEC, "pca", "sobol_inverse_normal", 1024, 32,
                           seed=14)
        assert qmc.std_dev_across_replicates < mc.std_dev_across_replicates

    def test_mc_error_scaling(self):
        # replicate spread of plain Monte Carlo decays like N^{-1/2}
        sds = []
        for n in (256, 4096):
            sds.append(price_option(SPEC, "standard", "mc", n, 64,
                                    seed=15).std_dev_across_replicates)
        slope = math.log(sds[1] / sds[0]) / math.log(4096 / 256)
        assert slope == pytest.approx(-0.5, abs=0.12)


class TestExperimentTable:
    def test_shape_and_divisibility(self):
        header, rows = experiment_table(SPEC, [256, 512], seed=0,
                                        n_replicates=128)
        assert header[0] == "N" and len(header) == 6
        assert len(rows) == 2 and all(len(r) == 6 for r in rows)
        assert rows[0][0] == 256.0
        assert all(v > 0 for r in rows for v in r[1:])
        with pytest.raises(ConfigurationError):
            experiment_table(SPEC, [100], seed=0)

    @pytest.mark.parametrize("spec", [SPEC, BARRIER, DIGITAL],
                             ids=["asian", "barrier", "digital"])
    def test_rows_equal_price_option(self, spec):
        # one draw per generator must price exactly like a draw per column
        N_list, reps, seed = [64, 128], 8, 4
        _, rows = experiment_table(spec, N_list, seed, n_replicates=reps)
        for N, row in zip(N_list, rows):
            assert row == [float(N)] + [
                price_option(spec, c, g, N // reps, reps, seed).std_error
                for g, c in TABLE_COLUMNS]

    def test_columns_keep_order_and_share_draws(self, monkeypatch):
        # non-adjacent columns, and both QMC generators, share one
        # scrambled stream per (seed, replicate), and the mc columns one
        # pseudo-random draw per replicate; on one worker, so that the
        # recording lists see every stream and generator built
        monkeypatch.setattr(_pool, "_worker_count", lambda: 1)
        columns = [("sphere_normal", "pca"), ("mc", "standard"),
                   ("sphere_normal", "standard"),
                   ("sobol_inverse_normal", "pca"), ("mc", "pca")]
        builds, rngs = [], []
        stream, rng = finance.SobolStream, finance._rng

        def counted_stream(*args, **kwargs):
            builds.append((kwargs["seed"], kwargs["replicate"]))
            return stream(*args, **kwargs)

        def counted_rng(*args):
            rngs.append(args)
            return rng(*args)

        monkeypatch.setattr(finance, "SobolStream", counted_stream)
        monkeypatch.setattr(finance, "_rng", counted_rng)
        [ests] = finance._price_columns([SPEC], columns, 64, 6, seed=2)
        assert sorted(builds) == [(2, rep) for rep in range(6)]
        assert sorted(rngs) == [(2, rep) for rep in range(6)]
        assert [(e.generator, e.construction) for e in ests] == columns
        assert ests == [price_option(SPEC, c, g, 64, 6, seed=2)
                        for g, c in columns]

    def test_specs_share_paths(self):
        # kinds priced from one set of paths price as each kind alone
        specs = [SPEC, BARRIER, DIGITAL]
        assert finance._price_columns(specs, TABLE_COLUMNS, 64, 6,
                                      seed=2) == [
            finance._price_columns([spec], TABLE_COLUMNS, 64, 6, seed=2)[0]
            for spec in specs]

    @pytest.mark.parametrize("field", ["S0", "T", "sigma", "r", "d_steps"])
    def test_specs_need_equal_paths(self, field):
        other = dataclasses.replace(SPEC, **{field: 2 * getattr(SPEC, field)})
        calls = [lambda specs: finance._price_columns(specs, TABLE_COLUMNS,
                                                      64, 2, seed=0),
                 lambda specs: mc_reference_price(specs, 2**10)]
        for call in calls:
            with pytest.raises(ConfigurationError, match="equal S0, T"):
                call([SPEC, other])
            with pytest.raises(ConfigurationError, match="at least one"):
                call([])


class TestReplicateThreads:
    """Replicates run on a pool of worker processes; results must not
    depend on its size, and no process or thread may outlive a call."""

    def run_with_workers(self, monkeypatch, workers, fn):
        monkeypatch.setattr(_pool, "_worker_count", lambda: workers)
        return fn()

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_prices_independent_of_workers(self, monkeypatch, gen):
        for spec in (SPEC, BARRIER, DIGITAL):
            ests = [self.run_with_workers(
                monkeypatch, w,
                lambda: price_option(spec, "pca", gen, 128, 9, seed=3))
                for w in (1, 3)]
            assert ests[0] == ests[1]

    def test_table_independent_of_workers(self, monkeypatch):
        tables = [self.run_with_workers(
            monkeypatch, w,
            lambda: experiment_table(SPEC, [256, 512], seed=1,
                                     n_replicates=8))
            for w in (1, 3)]
        assert tables[0] == tables[1]

    def test_no_thread_outlives_a_call(self, monkeypatch):
        monkeypatch.setattr(_pool, "_worker_count", lambda: 3)
        before = threading.active_count()
        price_option(SPEC, "standard", "sobol_inverse_normal", 64, 8, seed=0)
        experiment_table(SPEC, [256], seed=0, n_replicates=8)
        assert threading.active_count() == before
        assert_no_child_left()

    def test_worker_error_propagates(self, monkeypatch):
        # the sphere lift needs d >= 2; each replicate task raises
        monkeypatch.setattr(_pool, "_worker_count", lambda: 3)
        before = threading.active_count()
        one_step = OptionSpec(100.0, 100.0, 1.0, 0.2, 0.05, 1)
        with pytest.raises(DomainError):
            price_option(one_step, "standard", "sphere_normal", 16, 4, 0)
        assert threading.active_count() == before
        assert_no_child_left()


class TestReferencePrice:
    """One serial stream of paths prices every spec, chunk by chunk."""

    def test_specs_share_one_stream(self):
        specs = [SPEC, BARRIER, DIGITAL]
        assert mc_reference_price(specs, 2**17 + 5, seed=3) == [
            mc_reference_price([spec], 2**17 + 5, seed=3)[0]
            for spec in specs]

    @pytest.mark.parametrize("n_paths", [0, -5, 2.5])
    def test_bad_path_count(self, n_paths):
        with pytest.raises(DomainError, match="n_paths must be a positive"):
            mc_reference_price([SPEC], n_paths)

    def test_tiles_do_not_change_prices(self, monkeypatch):
        # a chunk drawn and priced in tiles sums to the bits of the chunk
        # drawn whole, also for a last chunk and tile cut short
        monkeypatch.setattr(finance, "_REFERENCE_CHUNK", 2**15)
        runs = []
        for tile in (2**12, 2**15):
            monkeypatch.setattr(finance, "_PATH_TILE", tile)
            runs.append(mc_reference_price([SPEC, BARRIER, DIGITAL],
                                           3 * 2**15 + 1000, seed=4))
        assert runs[0] == runs[1]


class TestPathTiles:
    """A pricing task draws and prices its replicates in tiles of at most
    _PATH_TILE rows, from streams opened once per task."""

    @pytest.mark.parametrize("generators, n_points, n_replicates, tile", [
        (["mc"], 2**12 + 100, 2, 2**10),
        (["sobol_inverse_normal", "sphere_normal"], 2**12, 2, 2**10 + 100),
        (list(GENERATORS), 64, 8, 100),
        (list(GENERATORS), 8, 200, 100)],
        ids=["mc-long", "qmc-long", "task-of-8", "rows-of-1"])
    def test_tiles_do_not_change_prices(self, monkeypatch, generators,
                                        n_points, n_replicates, tile):
        # replicates longer than a tile, or a task of several replicates
        # wider than one, with a last tile cut short or tiles of one row
        # per replicate, price to the bits of the replicates drawn
        # whole, for every kind
        columns = [(g, c) for g in generators for c in CONSTRUCTIONS]
        runs = []
        for t in (tile, 2**16):
            monkeypatch.setattr(finance, "_PATH_TILE", t)
            runs.append(finance._price_columns([SPEC, BARRIER, DIGITAL],
                                               columns, n_points,
                                               n_replicates, seed=6))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("n_points, n_replicates, tile", [
        (64, 24, 2**16), (64, 24, 100), (2**10, 3, 2**16)],
        ids=["short", "short-tile-100", "long"])
    def test_grouping_does_not_change_prices(self, monkeypatch, n_points,
                                             n_replicates, tile):
        # a replicate prices to the same bits alone in its task, in a
        # task of some of the others or in one task of all; at a tile of
        # 100 rows a task of 8 replicates draws tiles of 12 rows and a
        # last one of 4
        columns = [(g, c) for g in GENERATORS for c in CONSTRUCTIONS]
        monkeypatch.setattr(finance, "_PATH_TILE", tile)
        runs = []
        for task_rows in (1, 2**9, 2**14):
            monkeypatch.setattr(finance, "_TASK_ROWS", task_rows)
            runs.append(finance._price_columns([SPEC, BARRIER, DIGITAL],
                                               columns, n_points,
                                               n_replicates, seed=6))
        assert runs[0] == runs[1] == runs[2]

    def test_long_replicate_memory_is_bounded(self):
        # a replicate of four tiles holds one tile's draws and paths and
        # its 8-byte payoff per path, not the whole replicate's draws:
        # its peak stays within a tenth of one tile's peak plus the
        # payoffs, where a replicate drawn whole peaks near four times
        # one tile's
        peaks = []
        for n_points in (finance._PATH_TILE, 4 * finance._PATH_TILE):
            tracemalloc.start()
            try:
                price_option(SPEC, "standard", "sobol_inverse_normal",
                             n_points, 1, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0] + 8 * 4 * finance._PATH_TILE
