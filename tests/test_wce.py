import math
import os
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special
from scipy.spatial.distance import cdist, pdist, squareform
from itertools import permutations

from spherecone.errors import ConfigurationError, DomainError
from spherecone.lds import _rng
from spherecone.specfun import reg_gamma_p, reg_gamma_q
from spherecone.spheremap import (SpacePoints, equal_area_partition_s2,
                                  radial_shells, stratified_sample)
from spherecone import wce
from spherecone.wce import (KernelParams, expected_wce_sq_permutation,
                            lambda_k, mc_cone_discrepancy_oracle, phi_cdf,
                            rms_wce_fixed_directions, rms_wce_iid,
                            sphere_constants, stratified_expected_wce_sq,
                            w_kernel, w_kr_psi, wce_nakagami)
from oracles import (kernel_K, kernel_psi_integral, phi_psi_integral,
                     psi_density, radial_discrepancy, wce_isotropic_general,
                     wce_sphere_cap)

P232 = KernelParams(mu=1.5, A=1.5, B=3.0, d=2)
P_LIST = [P232,
          KernelParams(mu=1.0, A=0.5, B=2.0, d=2),
          KernelParams(mu=3.0, A=2.0, B=2.5, d=1)]


def random_points(p, n, seed):
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, p.d + 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.sqrt((p.B / p.mu) * rng.gamma(p.mu, size=n))
    return SpacePoints(dirs, radii)


class TestConstants:
    def test_d1(self):
        c = sphere_constants(1)
        assert c.C_d == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert c.W_Sd == pytest.approx(4.0 / math.pi, rel=1e-14)
        assert c.W_KS == pytest.approx(1.0 - 4.0 / math.pi**2, rel=1e-13)

    def test_d2(self):
        c = sphere_constants(2)
        assert c.C_d == pytest.approx(0.25, rel=1e-14)
        assert c.W_Sd == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert c.W_KS == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_mean_distance_oracle(self):
        # Monte Carlo mean pairwise distance on S^3
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200_000, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y = rng.standard_normal((200_000, 4))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        d = np.linalg.norm(x - y, axis=1)
        assert sphere_constants(3).W_Sd == pytest.approx(
            d.mean(), abs=4 * d.std() / math.sqrt(200_000))

    def test_w_ks_positive_and_decreasing_product(self):
        prods = [sphere_constants(d).C_d * sphere_constants(d).W_Sd
                 for d in range(1, 21)]
        assert all(0 < v < 1 for v in prods)
        assert all(a > b for a, b in zip(prods, prods[1:]))


class TestRadialKernel:
    def test_phi_is_a_cdf(self):
        for p in P_LIST:
            rho = np.linspace(0, 50, 500)
            v = phi_cdf(p, rho)
            assert v[0] == 0.0
            assert np.all(np.diff(v) >= 0)
            assert v[-1] == pytest.approx(1.0, abs=1e-10)

    def test_w_kr_quadrature_oracle(self):
        for p in P_LIST:
            def inner(r):
                tail = wce.psi_tail(p, r)
                return 2.0 * phi_cdf(p, r) * psi_density(p, r) * tail
            ref, _ = integrate.quad(inner, 0, np.inf, limit=200,
                                    epsabs=1e-12)
            assert w_kr_psi(p) == pytest.approx(ref, rel=1e-9)

    def test_phi_psi_integral_quadrature(self):
        p = P232
        for rho in (0.5, 1.3, 4.0):
            ref, _ = integrate.quad(
                lambda r: phi_cdf(p, r) * psi_density(p, r), 0, rho)
            assert phi_psi_integral(p, rho) == pytest.approx(
                ref, rel=1e-10)

    def test_total_phi_psi_mass(self):
        for p in P_LIST:
            full = phi_psi_integral(p, 1e6)
            assert full == pytest.approx(1.0 - (p.A / p.B)**p.mu, rel=1e-8)


class TestKernel:
    def test_anchored_at_origin(self):
        y = SpacePoints(np.array([[0.0, 1.0, 0.0]]), [2.0])
        origin = np.zeros((1, 3))
        assert kernel_K(P232, origin, y) == 0.0

    def test_symmetry_and_value(self):
        x = SpacePoints(np.array([[1.0, 0.0, 0.0]]), [1.0])
        y = SpacePoints(np.array([[0.0, 1.0, 0.0]]), [2.0])
        v = kernel_K(P232, x, y)
        assert v == kernel_K(P232, y, x)
        expect = phi_cdf(P232, 1.0) * (1 - 0.25 * math.sqrt(2.0))
        assert v == pytest.approx(expect, rel=1e-14)

    def test_indexed_rows_within_set_tolerance(self):
        # rows of a set that SpacePoints accepted index and evaluate
        pts = SpacePoints([[1 + 5e-11, 0, 0], [0, 1, 0]], [1.0, 2.0])
        v = kernel_K(P232, pts[0], pts[1])
        assert v == pytest.approx(
            phi_cdf(P232, 1.0) * (1 - 0.25 * math.sqrt(2.0)), rel=1e-10)

    def test_kernel_psi_integral_quadrature(self):
        # average K(x, y0) over psi-distributed x by Monte Carlo
        p = P232
        y0 = SpacePoints(np.array([[0.0, 0.0, 1.0]]), [1.2])
        rng = np.random.default_rng(1)
        n = 200_000
        dirs = rng.standard_normal((n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = np.sqrt((p.B / p.mu) * rng.gamma(p.mu, size=n))
        vals = phi_cdf(p, np.minimum(radii, 1.2)) * (
            1 - 0.25 * np.linalg.norm(dirs - y0.directions[0], axis=1))
        ref = vals.mean()
        se = vals.std() / math.sqrt(n)
        assert kernel_psi_integral(p, 1.2) == pytest.approx(
            ref, abs=4 * se)


class TestWce:
    def test_origin_closed_case(self):
        report = wce_nakagami(P232, np.zeros((1, 3)))
        assert report.wce == pytest.approx(math.sqrt(w_kernel(P232)),
                                           rel=1e-13)
        assert report.n_points == 1

    def test_report_decomposition(self):
        pts = random_points(P232, 10, seed=2)
        r = wce_nakagami(P232, pts)
        assert r.wce**2 == pytest.approx(
            r.double_sum_term - r.single_sum_term, abs=1e-14)
        assert r.W_K == pytest.approx(w_kernel(P232), rel=1e-14)

    def test_raw_square_kept_when_clamped(self):
        # one point at the origin with w_kr = 0: the double sum is 0 and
        # the single sum 2 W(K_S) 1e-8, so the square is -1.3e-8
        zero = np.zeros((1, 1))
        with pytest.warns(RuntimeWarning):
            r, = wce._wce_reports(2, 0.0, zero, zero, zero + 1e-8,
                                  np.array([[[0.0, 0.0, 1.0]]]))
        assert r.wce == 0.0
        assert r.double_sum_term == 0.0
        assert r.wce_sq_raw == -r.single_sum_term < -1e-9

    @pytest.mark.parametrize("p", P_LIST)
    def test_matches_general_quadrature_route(self, p):
        pts = random_points(p, 8, seed=3)
        closed = wce_nakagami(p, pts)
        general = wce_isotropic_general(
            lambda r: phi_cdf(p, r), lambda r: float(psi_density(p, r)),
            p.d, pts)
        assert closed.wce == pytest.approx(general.wce, rel=1e-7, abs=1e-9)

    def test_translation_invariance_of_kernel_constant(self):
        # adding a constant to the kernel leaves the squared wce
        # unchanged: double-sum, cross and W(K) shifts cancel
        p = P232
        pts = random_points(p, 6, seed=4)
        shift = 17.3
        n = len(pts)
        kmat = np.array([[kernel_K(p, pts[i], pts[j]) for j in range(n)]
                         for i in range(n)])
        cross = np.array([kernel_psi_integral(p, r) for r in pts.radii])
        base = kmat.mean() - 2 * cross.mean() + w_kernel(p)
        shifted = ((kmat + shift).mean() - 2 * (cross + shift).mean()
                   + (w_kernel(p) + shift))
        assert base == pytest.approx(shifted, abs=1e-12)
        assert wce_nakagami(p, pts).wce**2 == pytest.approx(base, abs=1e-12)

    def test_mc_cone_oracle_agrees(self):
        p = P232
        pts = random_points(p, 12, seed=5)
        closed = wce_nakagami(p, pts).wce**2
        est, se = mc_cone_discrepancy_oracle(p, pts, 200_000, seed=6)
        assert abs(est - closed) < 4 * se

    @pytest.mark.parametrize("d", [3, 6])
    @pytest.mark.parametrize("chi", [False, True], ids=["psi-1.5", "chi"])
    def test_mc_cone_oracle_agrees_above_d2(self, d, chi):
        # the closed form in the dimensions the lift and pricing use, for
        # the fixed psi (1.5, 1.5, 3) and for psi = chi(d + 1)
        if chi:
            p = KernelParams(mu=(d + 1) / 2.0, A=(d + 1) / 2.0, B=d + 1.0,
                             d=d)
        else:
            p = KernelParams(mu=1.5, A=1.5, B=3.0, d=d)
        pts = random_points(p, 20, seed=30 + d)
        closed = wce_nakagami(p, pts).wce**2
        est, se = mc_cone_discrepancy_oracle(p, pts, 200_000, seed=40 + d)
        assert abs(est - closed) < 3 * se

    def test_mc_oracle_variance_shrinks(self):
        p = P232
        pts = random_points(p, 5, seed=7)
        _, se1 = mc_cone_discrepancy_oracle(p, pts, 20_000, seed=8)
        _, se2 = mc_cone_discrepancy_oracle(p, pts, 80_000, seed=8)
        assert se2 < se1

    @pytest.mark.parametrize("n, n_samples, seed", [(12, 200_000, 6),
                                                    (5, 80_000, 8)])
    def test_mc_oracle_blocks_match_unblocked(self, monkeypatch, n,
                                              n_samples, seed):
        # the default tile splits each 10^5-sample chunk into ragged
        # column blocks; counts are integers, so the result is bitwise
        # that of one block per chunk
        pts = random_points(P232, n, seed=seed - 1)
        blocked = mc_cone_discrepancy_oracle(P232, pts, n_samples, seed)
        monkeypatch.setattr(wce, "_TILE_ELEMS", 2**40)
        assert mc_cone_discrepancy_oracle(P232, pts, n_samples,
                                          seed) == blocked

    def test_mc_oracle_memory_bound(self):
        # unblocked, one 10^5-sample chunk at N = 1024 held 1024 x 10^5
        # doubles (0.8 GB) plus as many booleans
        pts = random_points(P232, 1024, seed=24)
        tracemalloc.start()
        try:
            mc_cone_discrepancy_oracle(P232, pts, 100_000, seed=25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_mc_oracle_needs_samples(self):
        with pytest.raises(ConfigurationError):
            mc_cone_discrepancy_oracle(P232, np.eye(3), 100, seed=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            wce_nakagami(P232, np.eye(4))

    @pytest.mark.parametrize("empty", [[], np.empty((0, 3))])
    def test_empty_point_set(self, empty):
        with pytest.raises(DomainError, match="must not be empty"):
            wce_nakagami(P232, empty)

    def test_isotropic_general_validates_inputs(self):
        pts = np.eye(3)
        with pytest.raises(ConfigurationError):
            wce_isotropic_general(lambda r: 0.5, lambda r: math.exp(-r),
                                  2, pts)
        with pytest.raises(ConfigurationError):
            wce_isotropic_general(lambda r: phi_cdf(P232, r),
                                  lambda r: 2 * math.exp(-r), 2, pts)


def dense_sums(p, pts, c_d):
    """sum_ij Phi(min{r_i, r_j}), sum_ij Phi(min{r_i, r_j}) (1 - c_d
    ||x_i - x_j||) and sum_ij ||x_i - x_j|| from the full N x N matrices:
    the reference for the tiled O(N)-memory core."""
    n = len(pts)
    dist = (squareform(pdist(pts.directions)) if n > 1
            else np.zeros((1, 1)))
    kr = phi_cdf(p, np.minimum.outer(pts.radii, pts.radii))
    return kr.sum(), (kr * (1.0 - c_d * dist)).sum(), dist.sum()


def triu_row_sums_loop(X):
    """sum_{j > i} ||x_i - x_j|| for one set X (n, D) by the one-set tile
    loop, a row block against column blocks from its diagonal on, with
    np.triu on each diagonal block: the reference for the stacked
    _upper_distance_row_sums."""
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)[:, None]
    one = np.ones_like(sq)
    left = np.hstack([-2.0 * X, one, sq])
    right = np.ascontiguousarray(np.hstack([X, sq, one]).T)
    k = left.shape[1]
    cols = min(n, wce._GEMM_SIZE // k)
    rows = min(cols, wce._GEMM_SIZE // (cols * k))
    out = np.zeros(n)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        for c in range(a, n, cols):
            d = np.sqrt(np.maximum(left[a:b] @ right[:, c:c + cols], 0.0))
            if c == a:
                d[:, :b - a] = np.triu(d[:, :b - a], 1)
            out[a:b] += d.sum(axis=1)
    return out


def strata_draws_peak():
    """tracemalloc peak of 200 stratified draws at M = 64 (512 points)."""
    tracemalloc.start()
    try:
        wce.strata_scaling(P232, [64], 3, 200)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTiledCore:
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 1000])
    @pytest.mark.parametrize("rows", [1, 3, 7, None])
    def test_matches_dense(self, monkeypatch, n, rows):
        # rows per tile: 3 and 7 leave a ragged last tile at n = 50 and
        # 1000, 1 runs one tile per row; None keeps the module's tile size
        if rows is not None:
            monkeypatch.setattr(wce, "_GEMM_SIZE", rows * n * 5)
        p = P232
        pts = random_points(p, n, seed=20 + n)
        c_d = sphere_constants(p.d).C_d
        phi = phi_cdf(p, pts.radii)
        ref_radial, ref_kernel, ref_dist = dense_sums(p, pts, c_d)
        assert wce._kernel_sum(pts.radii[None], phi[None])[0] == \
            pytest.approx(ref_radial, rel=1e-12)
        assert wce._kernel_sum(pts.radii[None], phi[None],
                               pts.directions[None], c_d)[0] == \
            pytest.approx(ref_kernel, rel=1e-12)
        assert wce._mean_distance(pts.directions) == pytest.approx(
            ref_dist / n**2, rel=1e-12, abs=0)

    def test_gram_distances_match_cdist(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((300, 4))
        # off unit length within SpacePoints' 1e-10 tolerance
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        X *= 1.0 + rng.uniform(-5e-11, 5e-11, size=(300, 1))
        X[7] = X[3]  # a coincident pair: the clamp keeps it finite
        ref = np.triu(cdist(X, X), 1).sum(axis=1)
        got = wce._upper_distance_row_sums(X[None])[0]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-7)
        np.testing.assert_allclose(np.delete(got, 3), np.delete(ref, 3),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("sets, n, tile", [
        (60, 50, None),   # 20 sets of 50 per tile
        (7, 20, 3 * 400),  # 3 sets per tile: a ragged last tile
        (3, 1000, None),  # 52 rows of one set per tile
        (4, 9, 4 * 9),    # 4 rows per tile, ragged at the end of each set
        (2, 300, 128),    # one row by 128 columns: ragged column blocks
        (5, 1, None)])
    def test_stack_matches_per_set_loop(self, monkeypatch, sets, n, tile):
        # each set's row sums are bitwise the one-set tile loop's, which
        # keeps the diagonal block's strict upper triangle by np.triu;
        # tile is the distances a tile holds, (D + 2) per multiply-add
        if tile is not None:
            monkeypatch.setattr(wce, "_GEMM_SIZE", tile * 5)
        rng = np.random.default_rng(sets * n)
        X = rng.standard_normal((sets, n, 3))
        X /= np.linalg.norm(X, axis=-1, keepdims=True)
        got = wce._upper_distance_row_sums(X)
        for b in range(sets):
            np.testing.assert_array_equal(got[b], triu_row_sums_loop(X[b]))
            np.testing.assert_array_equal(
                got[b], wce._upper_distance_row_sums(X[b:b + 1])[0])

    @pytest.mark.parametrize("sets, n", [(1, 1), (128, 64), (16, 512),
                                         (2, 1000), (1, 8192)])
    def test_tile_matmul_below_blas_threading(self, monkeypatch, sets, n):
        # OpenBLAS runs a gemm of more than 4 * 65536 multiply-adds on its
        # own threads, which would compete with the worker pool's
        shapes = []
        matmul = np.matmul

        def recorded(a, b):
            shapes.append((a.shape[-2], a.shape[-1], b.shape[-1]))
            return matmul(a, b)

        monkeypatch.setattr(np, "matmul", recorded)
        X = np.random.default_rng(n).standard_normal((sets, n, 3))
        wce._upper_distance_row_sums(X)
        assert shapes
        assert max(m * k * c for m, k, c in shapes) <= 2**18

    def test_stacked_kernel_sums_match_per_set(self):
        pts = [random_points(P232, 40, seed) for seed in (27, 28, 29)]
        radii = np.stack([q.radii for q in pts])
        radii[1] = np.round(radii[1], 1)  # ties keep their order
        dirs = np.stack([q.directions for q in pts])
        phi = phi_cdf(P232, radii)
        c_d = sphere_constants(2).C_d
        stacked = wce._kernel_sum(radii, phi, dirs, c_d)
        radial = wce._kernel_sum(radii, phi)
        for b in range(3):
            assert stacked[b] == wce._kernel_sum(
                radii[b:b + 1], phi[b:b + 1], dirs[b:b + 1], c_d)[0]
            assert radial[b] == wce._kernel_sum(radii[b:b + 1],
                                                phi[b:b + 1])[0]

    def test_strata_draws_memory_bound(self):
        # one batch per M held 22.6 MB; the batches of
        # _STRATA_BATCH_POINTS points stay near the one-draw-at-a-time
        # peak (1.8 MB)
        assert strata_draws_peak() < 8e6

    def test_strata_draws_memory_bound_four_workers(self, monkeypatch):
        # no more batches are in flight than workers, each about 1.8 MB
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(4)))
        assert strata_draws_peak() < 8e6

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), seed=st.integers(0, 10**6),
           ties=st.booleans())
    def test_permutation_invariance(self, data, n, seed, ties):
        p = P232
        pts = random_points(p, n, seed)
        radii = np.round(pts.radii, 1) if ties else pts.radii
        perm = np.array(data.draw(st.permutations(range(n))))
        a = wce_nakagami(p, SpacePoints(pts.directions, radii))
        b = wce_nakagami(p, SpacePoints(pts.directions[perm], radii[perm]))
        assert b.double_sum_term == pytest.approx(a.double_sum_term,
                                                  rel=1e-12, abs=1e-15)
        assert b.single_sum_term == pytest.approx(a.single_sum_term,
                                                  rel=1e-12, abs=1e-15)

    def test_memory_bound(self):
        p = P232
        pts = random_points(p, 2**14, seed=22)
        tracemalloc.start()
        try:
            wce_nakagami(p, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256e6

    @pytest.mark.parametrize("p", P_LIST)
    @pytest.mark.parametrize("n", [1, 2, 17, 64])
    def test_general_route_closed_forms(self, p, n):
        pts = random_points(p, n, seed=23 + n)
        closed = wce_nakagami(p, pts)
        general = wce_isotropic_general(
            lambda r: phi_cdf(p, r), lambda r: float(psi_density(p, r)),
            p.d, pts, psi_tail_fn=lambda r: float(wce.psi_tail(p, r)),
            phi_psi_integral_fn=lambda r: phi_psi_integral(p, r),
            w_kr=w_kr_psi(p))
        assert general.double_sum_term == pytest.approx(
            closed.double_sum_term, rel=1e-12)
        assert general.single_sum_term == pytest.approx(
            closed.single_sum_term, rel=1e-12)


class TestSphereCap:
    def test_single_direction(self):
        c = sphere_constants(2)
        v = wce_sphere_cap(2, np.array([[0.0, 0.0, 1.0]]))
        assert v == pytest.approx(math.sqrt(c.C_d * c.W_Sd), rel=1e-13)

    def test_antipodal_pair_on_circle(self):
        # mean pairwise distance of {e, -e} is (0 + 2 + 2 + 0)/4 = 1
        c = sphere_constants(1)
        v = wce_sphere_cap(1, np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert v == pytest.approx(math.sqrt(c.C_d * (c.W_Sd - 1.0)),
                                  rel=1e-13)

    def test_better_spread_is_smaller(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((64, 3))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        ang = 2 * np.pi * np.arange(64) / 64
        # well spread beats clustered even across dimensions of freedom
        clustered = y * 0.0 + np.array([0.0, 0.0, 1.0])
        assert wce_sphere_cap(2, y) < wce_sphere_cap(2, clustered)
        circle = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        assert wce_sphere_cap(1, circle) < wce_sphere_cap(
            1, np.atleast_2d(circle[0]))

    def test_validates_unit_norm(self):
        with pytest.raises(DomainError):
            wce_sphere_cap(2, np.array([[1.0, 1.0, 0.0]]))


DIRECTION_LAWS = [
    lambda p, Y: wce_sphere_cap(p.d, Y),
    rms_wce_fixed_directions,
    lambda p, Y: expected_wce_sq_permutation(p, Y, 1.0 + np.arange(len(Y))),
]


@pytest.mark.parametrize("law", DIRECTION_LAWS,
                         ids=["sphere_cap", "fixed_directions", "permutation"])
class TestDirectionInputs:
    def test_wrong_ambient_dimension(self, law):
        rng = np.random.default_rng(26)
        Y = rng.standard_normal((4, 5))
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        with pytest.raises(ConfigurationError):
            law(P232, Y)

    def test_non_unit_directions(self, law):
        with pytest.raises(DomainError):
            law(P232, np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))

    def test_within_tolerance_accepted(self, law):
        Y = np.eye(3) * (1.0 + 5e-11)
        assert law(P232, Y) >= 0.0


class TestExpectedValueLaws:
    def test_iid_constant_positive(self):
        for p in P_LIST:
            assert rms_wce_iid(p) > 0

    def test_iid_law_sampling(self):
        p = P232
        n = 16
        draws = 300
        vals = np.array([wce_nakagami(p, random_points(p, n, 100 + i)).wce**2
                         for i in range(draws)])
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(vals.mean() - rms_wce_iid(p) / n) < 4 * se

    def test_fixed_directions_law_sampling(self):
        p = P232
        rng = np.random.default_rng(10)
        Y = rng.standard_normal((8, 3))
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        expect = rms_wce_fixed_directions(p, Y)
        draws = 300
        vals = np.empty(draws)
        for i in range(draws):
            radii = np.sqrt((p.B / p.mu) * rng.gamma(p.mu, size=8))
            vals[i] = wce_nakagami(p, SpacePoints(Y, radii)).wce**2
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(vals.mean() - expect) < 4 * se

    def test_fixed_directions_single_point_matches_iid(self):
        # one point: the fixed-direction law must equal the iid law,
        # directions do not matter for N = 1
        p = P232
        v = rms_wce_fixed_directions(p, np.array([[1.0, 0.0, 0.0]]))
        assert v == pytest.approx(rms_wce_iid(p), rel=1e-12)

    def test_permutation_exhaustive_n3(self):
        p = P232
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((3, 3))
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        radii = np.array([0.4, 1.1, 2.3])
        vals = [wce_nakagami(p, SpacePoints(Y, radii[list(perm)])).wce**2
                for perm in permutations(range(3))]
        assert expected_wce_sq_permutation(p, Y, radii) == pytest.approx(
            float(np.mean(vals)), abs=1e-12)

    def test_permutation_single_point(self):
        p = P232
        Y = np.array([[0.0, 1.0, 0.0]])
        v = expected_wce_sq_permutation(p, Y, [1.3])
        assert v == pytest.approx(
            wce_nakagami(p, SpacePoints(Y, [1.3])).wce**2, rel=1e-12)

    def test_permutation_rejects_ties(self):
        Y = np.eye(3)
        with pytest.raises(DomainError):
            expected_wce_sq_permutation(P232, Y, [1.0, 1.0, 2.0])
        with pytest.raises(DomainError):
            expected_wce_sq_permutation(
                P232, np.array([[1, 0, 0], [1, 0, 0.]]), [1.0, 2.0])
        with pytest.raises(DomainError):
            expected_wce_sq_permutation(P232, Y[:1], [0.0])


class TestRadialDiscrepancy:
    def test_zero_radius(self):
        # a single zero radius contributes nothing: the squared value is
        # the full kernel mean
        p = P232
        assert radial_discrepancy(p, [0.0])**2 == pytest.approx(
            w_kr_psi(p), rel=1e-12)

    def test_quantile_radii_beat_random(self):
        p = P232
        k = 32
        quantile = radial_shells(p.mu, p.B, k).sample_radius(
            np.arange(1, k + 1), 0.5)
        rng = np.random.default_rng(12)
        rand_vals = [radial_discrepancy(
            p, np.sqrt((p.B / p.mu) * rng.gamma(p.mu, size=k)))
            for _ in range(20)]
        assert radial_discrepancy(p, quantile) < min(rand_vals)

    def test_mc_oracle(self):
        # the radial discrepancy is the wce of a point set whose
        # directions all coincide, minus the sphere factor; check it via
        # the one-dimensional L2 form by direct quadrature
        p = P232
        radii = np.array([0.3, 0.9, 1.7, 2.6])
        # weight is the Phi' density: 2 mu (1/A - 1/B) rho e^{-...}
        scale = p.mu * (1 / p.A - 1 / p.B)

        def integrand(rho):
            emp = np.mean(radii >= rho)
            w = 2 * scale * rho * math.exp(-scale * rho**2)
            return (emp - wce.psi_tail(p, rho))**2 * w

        # the empirical tail jumps at each radius: integrate piecewise
        pieces = np.concatenate([[0.0], radii, [np.inf]])
        ref = sum(integrate.quad(integrand, lo, hi, limit=200,
                                 epsabs=1e-13, epsrel=1e-11)[0]
                  for lo, hi in zip(pieces[:-1], pieces[1:]))
        assert radial_discrepancy(p, radii)**2 == pytest.approx(
            ref, rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            radial_discrepancy(P232, [])
        with pytest.raises(DomainError):
            radial_discrepancy(P232, [-1.0])


class TestStratifiedPrediction:
    def test_trivial_strata_match_iid(self):
        # one cell, one shell: stratified sampling is a single iid point
        p = P232
        part = equal_area_partition_s2(1)
        shells = radial_shells(p.mu, p.B, 1)
        pred = stratified_expected_wce_sq(p, part, shells)
        assert pred.value == pytest.approx(rms_wce_iid(p), rel=0, abs=1e-12)

    def test_sampling_agreement(self):
        p = P232
        part = equal_area_partition_s2(9)
        shells = radial_shells(p.mu, p.B, 3)
        pred = stratified_expected_wce_sq(p, part, shells)
        draws = 200
        vals = np.array([
            wce_nakagami(p, stratified_sample(part, shells, 500 + i)).wce**2
            for i in range(draws)])
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(vals.mean() - pred.value) < 4 * se

    @pytest.mark.parametrize("M, K", [(1, 1), (9, 3), (16, 4), (64, 8),
                                      (256, 16), (1024, 32), (4096, 64)])
    def test_matches_shell_quadrature(self, M, K):
        pred = stratified_expected_wce_sq(
            P232, equal_area_partition_s2(M), radial_shells(1.5, 3.0, K))
        want = stratified_shell_quad_ref(P232, M, K, pred.mean_cell_distance)
        np.testing.assert_allclose(
            (pred.value, pred.radial_term, pred.angular_term), want,
            rtol=1e-11, atol=0)

    @pytest.mark.parametrize("M, K", [(9, 3), (4096, 64)])
    def test_radial_term_matches_mpmath(self, M, K):
        pred = stratified_expected_wce_sq(
            P232, equal_area_partition_s2(M), radial_shells(1.5, 3.0, K))
        want = radial_term_mpmath(P232, M, K)
        assert abs(pred.radial_term / float(want) - 1.0) <= 1e-12

    def test_terms_nonnegative(self):
        p = P232
        pred = stratified_expected_wce_sq(
            p, equal_area_partition_s2(16), radial_shells(p.mu, p.B, 4))
        assert pred.radial_term >= 0 and pred.angular_term >= 0
        assert pred.value == pred.radial_term + pred.angular_term

    def test_shell_mismatch_rejected(self):
        p = P232
        with pytest.raises(ConfigurationError):
            stratified_expected_wce_sq(
                p, equal_area_partition_s2(4), radial_shells(2.0, p.B, 2))

    @pytest.mark.parametrize("M_list, draws", [
        ([], 0), ([16, 16], 0), ([64, 16, 64], 2), ([16], 1), ([16], -1)])
    def test_strata_scaling_rejects(self, M_list, draws):
        with pytest.raises(ConfigurationError):
            wce.strata_scaling(P232, M_list, seed=0, draws=draws)

    def test_strata_scaling_single_m(self):
        rows, slope = wce.strata_scaling(P232, [9], seed=0, draws=2)
        assert slope is None
        assert [(r["M"], r["K"], r["N"]) for r in rows] == [(9, 3, 27)]
        assert rows[0]["formula"] == pytest.approx(
            STRATIFIED_PINS[(9, 3)][0], rel=1e-13, abs=0)
        assert rows[0]["empirical_se"] > 0

    @pytest.mark.parametrize("M", [1, 2, 9, 16, 64])
    @pytest.mark.parametrize("batch", [None, 5])
    def test_strata_batches_match_per_draw_loop(self, monkeypatch, M, batch):
        # 37 draws: ragged last batches of 16 at M = 64 by default, and
        # of 5 draws at every M with the batch patched
        if batch is not None:
            K = max(1, int(round(math.sqrt(M))))
            monkeypatch.setattr(wce, "_STRATA_BATCH_POINTS", batch * M * K)
        (row,), _ = wce.strata_scaling(P232, [M], seed=4, draws=37)
        part = equal_area_partition_s2(M)
        shells = radial_shells(P232.mu, P232.B, row["K"])
        vals = [wce_nakagami(P232, stratified_sample(part, shells,
                                                     4 + 1000 + i)).wce**2
                for i in range(37)]
        assert row["empirical"] == float(np.mean(vals))
        assert row["empirical_se"] == float(np.std(vals, ddof=1)
                                            / math.sqrt(37))

    def test_d_restriction(self):
        p = KernelParams(1.0, 0.5, 1.0, d=1)
        with pytest.raises(ConfigurationError):
            stratified_expected_wce_sq(
                p, equal_area_partition_s2(4), radial_shells(1.0, 1.0, 2))


def stratified_shell_quad_ref(p, M, K, mean_dist):
    """(value, radial_term, angular_term) of the stratified E[wce^2] from
    one adaptive quadrature per radial shell, given the mean cell chord.

    In x = (mu/B) rho^2 each shell k has H_k = 1 - F_k, with
    F_k = 2 K^2 (I1_k - (1 - k/K) dPA_k), I1_k the shell integral of
    (1 - Phi) psi and dPA_k the shell's (A/B)^mu-weighted P(mu, (B/A) x)
    mass, and G_k = K int_shell Phi psi - H_k; radial = mean(G) / (M K)
    and angular = C_2 mean(H) mean_dist / (M K)."""
    ba = p.B / p.A
    abmu = (p.A / p.B)**p.mu
    bounds = radial_shells(p.mu, p.B, K).boundaries
    xs = np.concatenate([[0.0], (p.mu / p.B) * bounds**2, [np.inf]])
    G = np.empty(K)
    H = np.empty(K)
    for k in range(1, K + 1):
        lo, hi = xs[k - 1], xs[k]
        I1, _ = integrate.quad(
            lambda x: x**(p.mu - 1.0) * np.exp(-ba * x)
            * reg_gamma_q(p.mu, x) / math.gamma(p.mu),
            lo, hi, limit=200, epsabs=1e-12, epsrel=1e-10)
        p_hi = reg_gamma_p(p.mu, ba * hi) if np.isfinite(hi) else 1.0
        dPA = abmu * (p_hi - reg_gamma_p(p.mu, ba * lo))
        H[k - 1] = 1.0 - 2.0 * K**2 * (I1 - (1.0 - k / K) * dPA)
        rho_lo = math.sqrt((p.B / p.mu) * lo)
        phi_hi = (phi_psi_integral(p, math.sqrt((p.B / p.mu) * hi))
                  if np.isfinite(hi) else 1.0 - abmu)
        G[k - 1] = K * (phi_hi - phi_psi_integral(p, rho_lo)) - H[k - 1]
    radial = float(np.mean(G)) / (M * K)
    angular = (sphere_constants(2).C_d / (M * K) * float(np.mean(H))
               * mean_dist)
    return radial + angular, radial, angular


def radial_term_mpmath(p, M, K, dps=30):
    """The closed-form radial term (A/B)^mu (2 g - 1/K) / M,
    g = Lambda_K - I_{A/(A+B)}(mu, mu), at dps digits: each shell
    boundary Q^{-1}(mu, k/K) is an mpmath root started at scipy's."""
    with mpmath.workdps(dps):
        mu, A, B = mpmath.mpf(p.mu), mpmath.mpf(p.A), mpmath.mpf(p.B)

        def q(x):
            return mpmath.gammainc(mu, x, mpmath.inf, regularized=True)

        total = mpmath.mpf(1)  # k = K: Q^{-1}(mu, 1) = 0
        for k in range(1, K):
            x = mpmath.findroot(lambda x: q(x) - mpmath.mpf(k) / K,
                                float(special.gammainccinv(p.mu, k / K)))
            total += q(B / A * x)
        g = total / K - mpmath.betainc(mu, mu, 0, A / (A + B),
                                       regularized=True)
        return (A / B)**mu * (2 * g - mpmath.mpf(1) / K) / M


def cell_mean_distance_ref(t0, t1, phi_width, rng, n_samples):
    """Monte Carlo mean of ||x - y|| over n_samples pairs of independent
    uniform points of the cell [t0, t1] x [0, phi_width], from Cartesian
    points and a norm, and the variance of that mean."""
    ct = np.cos(t0) + rng.random((2, n_samples)) * (np.cos(t1) - np.cos(t0))
    st = np.sqrt(np.maximum(0.0, 1.0 - ct**2))
    ph = rng.random((2, n_samples)) * phi_width
    x = np.stack([st[0] * np.cos(ph[0]), st[0] * np.sin(ph[0]), ct[0]])
    y = np.stack([st[1] * np.cos(ph[1]), st[1] * np.sin(ph[1]), ct[1]])
    dist = np.linalg.norm(x - y, axis=0)
    return float(dist.mean()), float(dist.var(ddof=1) / n_samples)


def full_circle_mean_chord_ref(t0, t1):
    """Mean chord of the full-circle band [t0, t1] by nested adaptive
    quadrature in the colatitude cosines x, y, with the azimuth integral
    in closed form:
    int_0^2pi sqrt(A - B cos d) dd = 4 sqrt(A + B) E(2B / (A + B)),
    A = 2 - 2xy, B = 2 sqrt(1 - x^2) sqrt(1 - y^2).  E has a log
    singularity on x = y, which the inner quadrature is told of."""
    from scipy.special import ellipe
    lo, hi = math.cos(t1), math.cos(t0)

    def f(y, x):
        a = 2.0 - 2.0 * x * y
        b = 2.0 * math.sqrt((1.0 - x) * (1.0 + x) * (1.0 - y) * (1.0 + y))
        if a + b == 0.0:
            return 0.0
        return 4.0 * math.sqrt(a + b) * ellipe(min(1.0, 2.0 * b / (a + b)))

    def inner(x):
        points = [x] if lo < x < hi else None
        return integrate.quad(f, lo, hi, args=(x,), points=points,
                              epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    total = integrate.quad(inner, lo, hi, epsabs=1e-15, epsrel=1e-13,
                           limit=200)[0]
    return 2.0 * math.pi * total / (2.0 * math.pi * (hi - lo))**2


def sector_mean_chord_ref(t0, t1, m):
    """Mean chord of a sector of width w = 2 pi / m by nquad over the
    azimuth difference d (density (w - |d|) / w^2, folded onto d >= 0)
    and the colatitude cosines, the chord from the dot product."""
    w = 2.0 * math.pi / m
    lo, hi = math.cos(t1), math.cos(t0)

    def f(y, x, d):
        dot = x * y + math.sqrt(1 - x * x) * math.sqrt(1 - y * y) * math.cos(d)
        return (w - d) * math.sqrt(max(0.0, 2.0 - 2.0 * dot))

    total = integrate.nquad(f, [[lo, hi], [lo, hi], [0.0, w]],
                            opts={"epsabs": 1e-13, "limit": 200})[0]
    return 2.0 * total / ((hi - lo) * w)**2


# (M, K): value, radial_term, angular_term and mean_cell_distance of
# stratified_expected_wce_sq(P232, ...): shell terms in closed form, band
# mean chords by quadrature
STRATIFIED_PINS = {
    (1, 1): (0.313632675713277, 0.14722570886655229, 0.1664069668467247,
             1.3333333333333335),
    (9, 3): (0.005384070148893047, 0.0019374828031623438,
             0.003446587345730703, 0.6265103055818755),
    (16, 4): (0.001711891491451801, 0.0006194955748852855,
              0.0010923959165665155, 0.46086661997073075),
    (64, 8): (0.00010992370792851884, 3.9437167116040646e-05,
              7.048654081247819e-05, 0.23050751903254574),
    (4096, 64): (2.759204437959129e-08, 9.856826415397659e-09,
                 1.7735217964193634e-08, 0.028883058249242102),
}

# (M, K): the radial term at 40 digits (mpmath), and the factor
# 2 (Lambda_K + I) / (2 g - 1/K) by which it amplifies relative errors of
# Lambda_K and I.  At K = 64 that factor is 1.04e4, so a last-bit change
# of Lambda_K moves the radial term, and the value, by some 1e-12; the
# radial term is checked against the 40-digit value to the factor times
# 1e-16 (Lambda_K and I within about one ulp), the value as the sum of
# its terms.
STRATIFIED_RADIAL_REF = {
    (4096, 64): (9.856826415394654155976e-09, 1.04e4),
}

# (M, K, seed): mean_cell_distance and its standard error from the Monte
# Carlo estimate with 100,000 pairs per band that the quadrature replaced
MC_DISTANCE_PINS = {
    (1, 1, 0): (1.3353465520933743, 0.0014877010232202143),
    (1, 1, 3): (1.3354107516637692, 0.001487540101968938),
    (1, 1, 7): (1.3309427509810072, 0.0014876969370949953),
    (9, 3, 0): (0.6263909338006403, 0.0005710253348623268),
    (9, 3, 3): (0.6267221836799113, 0.0005704609174403418),
    (9, 3, 7): (0.625211845291244, 0.0005711138375051055),
    (16, 4, 0): (0.46037818535260094, 0.0004390417844228883),
    (16, 4, 3): (0.4611093470544031, 0.0004383374901867974),
    (16, 4, 7): (0.46029308045128203, 0.0004396120935806343),
    (64, 8, 0): (0.23066342419648822, 0.00014379983436386238),
    (64, 8, 3): (0.23043883049984729, 0.00014402075949520034),
    (64, 8, 7): (0.23036185408621274, 0.00014397128105492248),
    (4096, 64, 0): (0.02889195771340362, 6.3807830865607305e-06),
    (4096, 64, 3): (0.028884271796421997, 6.384415033433553e-06),
    (4096, 64, 7): (0.028884682672649944, 6.38327956676558e-06),
}


class TestCellMeanDistance:
    # a polar cap, a thin collar near the equator at M = 4096, the two
    # hemispheres and the whole sphere, as (t0, t1, cells in the band)
    BANDS = [equal_area_partition_s2(64).bands[0],
             equal_area_partition_s2(4096).bands[29],
             (0.0, math.pi / 2, 1), (math.pi / 2, math.pi, 1),
             (0.0, math.pi, 1)]

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_matches_cartesian_estimator(self, band, seed):
        t0, t1, m = band
        mean, var = cell_mean_distance_ref(t0, t1, 2.0 * math.pi / m,
                                           _rng(seed), 100_000)
        assert abs(wce._band_mean_chords([band])[0] - mean) \
            <= 3.0 * math.sqrt(var)

    @pytest.mark.parametrize("key", MC_DISTANCE_PINS)
    def test_stratified_prediction_pinned(self, key):
        M, K, seed = key
        pred = stratified_expected_wce_sq(
            P232, equal_area_partition_s2(M), radial_shells(1.5, 3.0, K))
        got = (pred.value, pred.radial_term, pred.angular_term,
               pred.mean_cell_distance)
        pin = STRATIFIED_PINS[(M, K)]
        if (M, K) in STRATIFIED_RADIAL_REF:
            ref, factor = STRATIFIED_RADIAL_REF[(M, K)]
            assert abs(pred.radial_term - ref) <= factor * 1e-16 * ref
            assert pred.value == pred.radial_term + pred.angular_term
            got, pin = got[2:], pin[2:]
        np.testing.assert_allclose(got, pin, rtol=1e-13, atol=0)
        assert (pred.M, pred.K) == (M, K)
        mc_mean, mc_se = MC_DISTANCE_PINS[key]
        assert abs(pred.mean_cell_distance - mc_mean) <= 3.0 * mc_se


class TestBandMeanChords:
    def test_whole_sphere(self):
        got = wce._band_mean_chords([(0.0, math.pi, 1)])[0]
        assert got == pytest.approx(4.0 / 3.0, rel=1e-14, abs=0)

    @pytest.mark.parametrize("band", [equal_area_partition_s2(64).bands[0],
                                      (0.0, math.pi / 2, 1),
                                      (math.pi / 2, math.pi, 1)])
    def test_full_circle_matches_elliptic_quadrature(self, band):
        want = full_circle_mean_chord_ref(band[0], band[1])
        assert wce._band_mean_chords([band])[0] == pytest.approx(
            want, rel=1e-13, abs=0)

    def test_thin_collar_matches_nquad(self):
        band = equal_area_partition_s2(4096).bands[29]
        assert band[2] > 1
        assert wce._band_mean_chords([band])[0] == pytest.approx(
            sector_mean_chord_ref(*band), rel=0, abs=1e-12)

    @pytest.mark.parametrize("M", [2, 16, 64, 4096])
    def test_mirror_bands_equal(self, M):
        # these partitions are symmetric about the equator
        bands = equal_area_partition_s2(M).bands
        assert [b[2] for b in bands] == [b[2] for b in bands[::-1]]
        got = wce._band_mean_chords(bands)
        np.testing.assert_allclose(got, got[::-1], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("M", [1, 2, 9, 16, 64, 4096])
    def test_converged_in_node_count(self, monkeypatch, M):
        bands = equal_area_partition_s2(M).bands
        got = wce._band_mean_chords(bands)
        monkeypatch.setattr(wce, "_CHORD_NODES", 32)
        np.testing.assert_allclose(got, wce._band_mean_chords(bands),
                                   rtol=1e-13, atol=0)

    def test_bands_evaluated_in_tiles(self, monkeypatch):
        # the tile bound changes how many bands share a pass, not results
        bands = equal_area_partition_s2(1024).bands
        got = wce._band_mean_chords(bands)
        monkeypatch.setattr(wce, "_TILE_ELEMS", 1)
        np.testing.assert_allclose(wce._band_mean_chords(bands), got,
                                   rtol=1e-15, atol=0)


class TestLambdaK:
    def test_exact_identity_mu1_c2(self):
        # Q(1, 2 Q^{-1}(1, p)) = p^2, so the mean telescopes to
        # 1/3 + 1/(2K) + 1/(6K^2) exactly
        for K in (4, 64, 1024):
            assert lambda_k(1.0, 2.0, K) == pytest.approx(
                1 / 3 + 1 / (2 * K) + 1 / (6 * K**2), rel=1e-13)

    def test_limit_value(self):
        from spherecone.specfun import reg_beta_i
        for mu, c in ((1.5, 3.0), (3.0, 1.5)):
            lim = reg_beta_i(1.0 / (1.0 + c), mu, mu)
            v = lambda_k(mu, c, 4096)
            assert v == pytest.approx(lim + 1 / (2 * 4096), abs=5e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            lambda_k(1.0, 0.9, 16)
        with pytest.raises(DomainError):
            lambda_k(-1.0, 2.0, 16)
        with pytest.raises(DomainError):
            lambda_k(1.0, 2.0, 0)


class TestKernelParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            KernelParams(mu=0.0, A=1.0, B=2.0, d=2)
        with pytest.raises(DomainError):
            KernelParams(mu=1.0, A=2.0, B=1.0, d=2)
        with pytest.raises(DomainError):
            KernelParams(mu=1.0, A=1.0, B=2.0, d=0)
