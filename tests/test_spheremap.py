import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from spherecone import spheremap
from spherecone.errors import ConfigurationError, DomainError
from spherecone.lds import SobolStream
from spherecone.spheremap import (RadialShells, SpacePoints,
                                  _stratified_draws, cap_measure,
                                  equal_area_partition_s2, lift_to_space,
                                  map_to_sphere, radial_shells,
                                  stratified_sample)
from oracles import cell_area, shell_mass, sphere_height_tail_mpmath


def map_to_sphere_loop(x):
    """The map one height at a time, each from betaincinv, shrinking the
    earlier coordinates by sqrt(1 - t^2): the reference for map_to_sphere."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ang = 2.0 * np.pi * x[:, 0]
    y = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    for q in range(2, x.shape[1] + 1):
        if q == 2:
            t = 1.0 - 2.0 * x[:, 1]
        else:
            t = 1.0 - 2.0 * sp.betaincinv(q / 2.0, q / 2.0, x[:, q - 1])
        scale = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        y = np.concatenate([y * scale[:, None], t[:, None]], axis=1)
    return y


class TestMapToSphere:
    def test_circle(self):
        np.testing.assert_allclose(map_to_sphere([0.0]), [1.0, 0.0],
                                   atol=1e-15)
        np.testing.assert_allclose(map_to_sphere([0.25]), [0.0, 1.0],
                                   atol=1e-15)
        np.testing.assert_allclose(map_to_sphere([0.5]), [-1.0, 0.0],
                                   atol=1e-15)

    def test_s2(self):
        np.testing.assert_allclose(map_to_sphere([0.0, 0.5]), [1, 0, 0],
                                   atol=1e-15)
        np.testing.assert_allclose(map_to_sphere([0.0, 0.0]), [0, 0, 1],
                                   atol=1e-15)
        np.testing.assert_allclose(map_to_sphere([0.25, 0.5]), [0, 1, 0],
                                   atol=1e-15)

    def test_s3(self):
        # the last cube coordinate becomes the final height: x_3 = 0.5
        # gives height 0, x_2 = 0 pins the previous height at 1
        np.testing.assert_allclose(map_to_sphere([0.0, 0.0, 0.5]),
                                   [0, 0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(map_to_sphere([0.0, 0.5, 0.5]),
                                   [1, 0, 0, 0], atol=1e-12)

    def test_unit_norm_batch(self):
        rng = np.random.default_rng(0)
        for s in (1, 2, 5, 15):
            x = rng.random((200, s))
            y = map_to_sphere(x)
            assert y.shape == (200, s + 1)
            np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0,
                                       atol=1e-12)

    def test_single_matches_batch(self):
        rng = np.random.default_rng(1)
        x = rng.random(4)
        np.testing.assert_array_equal(map_to_sphere(x),
                                      map_to_sphere(x[None, :])[0])

    def test_domain(self):
        with pytest.raises(DomainError):
            map_to_sphere([1.0, 0.2])
        with pytest.raises(DomainError):
            map_to_sphere([-0.1])
        with pytest.raises(DomainError, match="at least one coordinate"):
            map_to_sphere(np.empty((3, 0)))

    def test_domain_rejects_nan(self):
        with pytest.raises(DomainError):
            map_to_sphere([math.nan, 0.3])
        with pytest.raises(DomainError):
            map_to_sphere([[0.2, 0.3, 0.4], [0.1, math.nan, 0.5]])
        with pytest.raises(DomainError):
            lift_to_space([[math.nan, 0.2, 0.3]])

    @pytest.mark.parametrize("s", range(1, 30))
    def test_matches_loop(self, s):
        # bitwise on S^1; from S^2 on the scales are taken without the
        # loop's sqrt(1 - t^2) (1.2e-10 off near the poles on S^2, up to
        # 4.4e-11 from S^3 on) and the later heights come from the
        # Student-t quantile, within 1e-13 of the loop
        x = np.random.default_rng(20 + s).random((300, s))
        x[:3] = np.array([0.0, 0.5, 2.0**-32])[:, None]
        x[3, :] = 1.0 - 2.0**-32
        got, ref = map_to_sphere(x), map_to_sphere_loop(x)
        if s == 1:
            np.testing.assert_array_equal(got, ref)
        else:
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("x2", [2.0**-32, 1e-9, 0.5, 1.0 - 2.0**-32])
    def test_s2_scale_matches_mpmath(self, x2):
        # the S^2 scale sqrt(1 - t^2) = 2 sqrt(x (1 - x)) keeps its
        # relative accuracy at the poles
        with mpmath.workdps(50):
            x = mpmath.mpf(x2)
            want = 2 * mpmath.sqrt(x * (1 - x))
            got = map_to_sphere([0.0, x2])
            assert abs((got[0] - want) / want) < 4e-16
            assert got[1] == 0.0
            assert got[2] == 1.0 - 2.0 * x2

    def test_height_above_the_grid_against_mpmath(self):
        # a 300-dimensional point takes heights up to q = 300, above the
        # grid's q = 192; betainc(a, a, x) put the q = 193 height 1.6e-7
        # off at a coordinate of 2^-53.  The later coordinates at 1/2
        # give heights 0 and scales 1, so that y[193] is that height and
        # the norm of y[:193] its scale
        x = np.full(300, 0.5)
        x[:192] = np.random.default_rng(31).random(192)
        x[192] = 2.0**-53
        y = map_to_sphere(x)
        t_ref, scale_ref = sphere_height_tail_mpmath(2.0**-53, 193 / 2.0)
        assert abs(y[193] - t_ref) <= 2e-15
        assert abs(np.linalg.norm(y[:193]) / scale_ref - 1) <= 1e-14
        assert not y[194:].any()

    def test_zero_coordinate_is_the_north_pole(self):
        # a zero later coordinate gives height +1, not the opposite pole
        for s in range(2, 12):
            y = map_to_sphere([0.3] * (s - 1) + [0.0])
            assert y[-1] == 1.0
            np.testing.assert_array_equal(y[:-1], 0.0)

    def test_median_heights_are_positive_zero(self):
        # u = 1/2 gives height +0.0, so 17-digit output never reads "-0"
        for s in range(2, 12):
            y = map_to_sphere([0.0] + [0.5] * (s - 1))
            np.testing.assert_array_equal(y, np.eye(s + 1)[0])
            assert not np.signbit(y).any()

    def test_one_height_call_per_map(self, monkeypatch):
        calls = []
        real = spheremap.sphere_height

        def counted(u, a):
            calls.append(np.shape(u))
            return real(u, a)

        monkeypatch.setattr(spheremap, "sphere_height", counted)
        map_to_sphere(np.random.default_rng(5).random((10, 12)))
        assert calls == [(10, 10)]
        map_to_sphere(np.random.default_rng(5).random((10, 2)))
        assert calls == [(10, 10)]

    def test_pushes_uniform_to_uniform_moments(self):
        # uniform cube input gives a uniform sphere distribution: each
        # coordinate has mean 0 and variance 1/(s+1)
        rng = np.random.default_rng(2)
        s = 4
        y = map_to_sphere(rng.random((200_000, s)))
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=0.01)
        np.testing.assert_allclose((y**2).mean(axis=0), 1.0 / (s + 1),
                                   atol=0.01)

    def test_cap_mass_preserved(self):
        # empirical mass of a few caps against the closed form
        rng = np.random.default_rng(3)
        y = map_to_sphere(rng.random((200_000, 2)))
        for t in (-0.7, 0.0, 0.4, 0.9):
            z = rng.standard_normal(3)
            z /= np.linalg.norm(z)
            p = cap_measure(2, t)
            emp = float(np.mean(y @ z >= t))
            assert abs(emp - p) < 5.0 * math.sqrt(p * (1 - p) / 200_000)


class TestLift:
    def test_single_and_batch(self):
        # a single vector gives a one-row set
        pt = lift_to_space(np.array([0.25, 0.5]))
        assert isinstance(pt, SpacePoints) and len(pt) == 1
        np.testing.assert_allclose(pt.directions[0], [0.0, 1.0], atol=1e-15)
        pts = lift_to_space(np.array([[0.25, 0.5], [0.0, 0.9]]))
        assert isinstance(pts, SpacePoints) and len(pts) == 2
        np.testing.assert_allclose(pts[0].cartesian, pt.cartesian)

    def test_radius_median(self):
        # u = 0.5 gives the chi(2) median sqrt(2 ln 2)
        pt = lift_to_space(np.array([0.1, 0.5]))
        assert pt.radii[0] == pytest.approx(math.sqrt(2 * math.log(2)),
                                            rel=1e-12)

    def test_u_one_is_capped_not_infinite(self):
        pt = lift_to_space(np.array([0.1, 1.0 - 2.0**-40]))
        assert math.isfinite(pt.radii[0])

    def test_uniform_input_gives_standard_normal(self):
        rng = np.random.default_rng(4)
        d = 3
        x = lift_to_space(rng.random((400_000, d))).cartesian
        np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=0.01)
        cov = np.cov(x.T)
        np.testing.assert_allclose(cov, np.eye(d), atol=0.01)
        # third moments vanish, fourth are 3
        np.testing.assert_allclose((x**3).mean(axis=0), 0.0, atol=0.03)
        np.testing.assert_allclose((x**4).mean(axis=0), 3.0, atol=0.06)

    def test_low_discrepancy_input(self):
        x = lift_to_space(SobolStream(5, seed=1, scramble=True).take(4096))
        assert len(x) == 4096
        np.testing.assert_allclose(x.cartesian.mean(axis=0), 0.0, atol=0.02)

    def test_needs_two_coordinates(self):
        with pytest.raises(DomainError):
            lift_to_space(np.array([0.5]))


class TestCapMeasure:
    def test_trivial(self):
        for m in (1, 2, 3, 15):
            assert cap_measure(m, -1.0) == pytest.approx(1.0)
            assert cap_measure(m, 1.0) == pytest.approx(0.0, abs=1e-15)
            assert cap_measure(m, 0.0) == pytest.approx(0.5)

    def test_circle_closed_form(self):
        # on S^1 the cap is an arc: measure arccos(t) / pi
        for t in (-0.5, 0.2, 0.8):
            assert cap_measure(1, t) == pytest.approx(
                math.acos(t) / math.pi, rel=1e-12)

    def test_s2_closed_form(self):
        # on S^2 the cap mass is (1 - t) / 2
        for t in (-0.3, 0.0, 0.6):
            assert cap_measure(2, t) == pytest.approx((1 - t) / 2, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            cap_measure(2, 1.5)
        with pytest.raises(DomainError):
            cap_measure(0, 0.5)


class TestRadialShells:
    def test_equal_masses(self):
        shells = radial_shells(1.5, 3.0, 8)
        assert shells.boundaries.shape == (7,)
        assert np.all(np.diff(shells.boundaries) > 0)
        for k in range(1, 9):
            assert shell_mass(shells, k) == pytest.approx(1 / 8, rel=1e-12)

    def test_single_shell(self):
        shells = radial_shells(2.0, 1.0, 1)
        assert shells.boundaries.size == 0
        assert shell_mass(shells, 1) == pytest.approx(1.0)

    def test_sample_radius_within_shell(self):
        shells = radial_shells(1.5, 3.0, 5)
        rng = np.random.default_rng(5)
        for k in range(1, 6):
            r = shells.sample_radius(k, rng.random(100))
            lo = 0.0 if k == 1 else shells.boundaries[k - 2]
            hi = np.inf if k == 5 else shells.boundaries[k - 1]
            assert np.all(r >= lo) and np.all(r <= hi)

    def test_sample_radius_quantile(self):
        # u = 0 at shell 1 is the zero radius, u -> 1 at the boundary
        shells = radial_shells(1.0, 2.0, 4)
        assert shells.sample_radius(1, 0.0) == 0.0
        assert shells.sample_radius(2, 1.0) == pytest.approx(
            shells.boundaries[1], rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            radial_shells(0.0, 1.0, 4)
        with pytest.raises(DomainError):
            radial_shells(1.0, 1.0, 0)


def band_diameter(theta0, theta1, dphi, n_arc=96):
    """Diameter of a band-sector cell by discretizing its boundary."""
    thetas = np.linspace(theta0, theta1, n_arc)
    phis = np.linspace(0.0, dphi, n_arc)
    pts = [np.stack([np.sin(thetas) * np.cos(0.0 * thetas),
                     np.sin(thetas) * np.sin(0.0 * thetas),
                     np.cos(thetas)], axis=1),
           np.stack([np.sin(thetas) * np.cos(dphi),
                     np.sin(thetas) * np.sin(dphi),
                     np.cos(thetas)], axis=1)]
    for th in (theta0, theta1):
        pts.append(np.stack([np.sin(th) * np.cos(phis),
                             np.sin(th) * np.sin(phis),
                             np.full_like(phis, np.cos(th))], axis=1))
    P = np.concatenate(pts, axis=0)
    diff = P[:, None, :] - P[None, :, :]
    return float(np.sqrt((diff**2).sum(-1)).max())


def diameter_constant(part):
    """Largest cell diameter of a partition times sqrt(M)."""
    if part.M <= 2:
        # a whole sphere or a hemisphere: diameter 2
        return 2.0 * np.sqrt(part.M)
    return max(band_diameter(t0, t1, 2.0 * np.pi / m)
               for t0, t1, m in part.bands) * np.sqrt(part.M)


# diameter constants of these partitions as first computed, pinned so
# that any change to the partition's cells shows
DIAMETER_PINS = {1: 2.0, 2: 2.8284271247461903, 5: 4.098780306383839,
                 100: 5.102940328869229, 1000: 5.008873833031112}


class TestPartition:
    @pytest.mark.parametrize("M", [1, 2, 3, 10, 33, 100, 1000])
    def test_equal_areas(self, M):
        part = equal_area_partition_s2(M)
        assert part.M == M and part.cells.shape == (M, 4)
        areas = np.array([cell_area(part, i) for i in range(M)])
        np.testing.assert_allclose(areas, 1.0 / M, rtol=1e-9)

    @pytest.mark.parametrize("M", [1, 2, 5, 10, 100, 1000, 5000])
    def test_diameter_bound(self, M):
        c = diameter_constant(equal_area_partition_s2(M))
        assert c <= 7.0
        if M in DIAMETER_PINS:
            assert c == DIAMETER_PINS[M]

    def test_bands_cover_cells(self, ):
        part = equal_area_partition_s2(57)
        assert sum(b[2] for b in part.bands) == 57

    def test_cells_tile_the_sphere(self):
        # random sphere points each land in exactly one cell
        part = equal_area_partition_s2(40)
        rng = np.random.default_rng(6)
        y = rng.standard_normal((500, 3))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        theta = np.arccos(np.clip(y[:, 2], -1, 1))
        phi = np.mod(np.arctan2(y[:, 1], y[:, 0]), 2 * np.pi)
        t0, t1, p0, p1 = part.cells.T
        hits = ((theta[:, None] >= t0) & (theta[:, None] < t1)
                & (phi[:, None] >= p0) & (phi[:, None] < p1))
        assert np.all(hits.sum(axis=1) == 1)

    def test_domain(self):
        with pytest.raises(DomainError):
            equal_area_partition_s2(0)


def stratified_sample_loop(partition, shells, rng_seed):
    """Per-point stratified sampler: the reference for the vectorized
    stratified_sample."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([int(rng_seed)])))
    M, K = partition.M, shells.K
    dirs = np.empty((M * K, 3))
    radii = np.empty(M * K)
    for m in range(M):
        t0, t1, p0, p1 = partition.cells[m]
        u = rng.random((K, 2))
        ct = np.cos(t0) + u[:, 0] * (np.cos(t1) - np.cos(t0))
        st = np.sqrt(np.maximum(0.0, 1.0 - ct**2))
        phi = p0 + u[:, 1] * (p1 - p0)
        for k in range(K):
            i = m * K + k
            dirs[i] = (st[k] * np.cos(phi[k]), st[k] * np.sin(phi[k]), ct[k])
            radii[i] = shells.sample_radius(k + 1, rng.random())
    return dirs, radii


class TestStratifiedSample:
    @pytest.mark.parametrize("M, K", [(1, 1), (2, 3), (16, 4), (64, 8),
                                      (300, 17)])
    def test_matches_loop(self, M, K):
        part = equal_area_partition_s2(M)
        shells = radial_shells(1.5, 3.0, K)
        pts = stratified_sample(part, shells, rng_seed=M + K)
        dirs, radii = stratified_sample_loop(part, shells, M + K)
        np.testing.assert_array_equal(pts.directions, dirs)
        np.testing.assert_array_equal(pts.radii, radii)

    @pytest.mark.parametrize("M, K", [(1, 1), (2, 3), (16, 4), (64, 8)])
    def test_stacked_draws_match_per_seed(self, M, K):
        part = equal_area_partition_s2(M)
        shells = radial_shells(1.5, 3.0, K)
        seeds = [7, 3, 1004, 7]
        dirs, radii = _stratified_draws(part, shells, seeds)
        assert dirs.shape == (4, M * K, 3) and radii.shape == (4, M * K)
        for b, seed in enumerate(seeds):
            pts = stratified_sample(part, shells, seed)
            np.testing.assert_array_equal(dirs[b], pts.directions)
            np.testing.assert_array_equal(radii[b], pts.radii)

    def test_shapes_and_determinism(self):
        part = equal_area_partition_s2(12)
        shells = radial_shells(1.5, 3.0, 4)
        pts = stratified_sample(part, shells, rng_seed=9)
        assert len(pts) == 48
        pts2 = stratified_sample(part, shells, rng_seed=9)
        np.testing.assert_array_equal(pts.cartesian, pts2.cartesian)
        assert np.any(pts.cartesian
                      != stratified_sample(part, shells, 10).cartesian)

    def test_points_in_their_strata(self):
        part = equal_area_partition_s2(12)
        shells = radial_shells(1.5, 3.0, 4)
        pts = stratified_sample(part, shells, rng_seed=1)
        bounds = np.concatenate([[0.0], shells.boundaries, [np.inf]])
        for m in range(12):
            t0, t1, p0, p1 = part.cells[m]
            for k in range(4):
                d = pts.directions[m * 4 + k]
                r = pts.radii[m * 4 + k]
                theta = math.acos(min(max(d[2], -1), 1))
                phi = math.atan2(d[1], d[0]) % (2 * math.pi)
                assert t0 - 1e-9 <= theta <= t1 + 1e-9
                if p1 - p0 < 2 * math.pi - 1e-9:
                    assert p0 - 1e-9 <= phi <= p1 + 1e-9
                assert bounds[k] <= r <= bounds[k + 1]

    def test_directions_uniform_within_cell(self):
        # the full-sphere cell reduces to plain uniform sampling
        part = equal_area_partition_s2(1)
        shells = radial_shells(1.0, 2.0, 1)
        pts = SpacePoints(
            np.vstack([stratified_sample(part, shells, s).directions
                       for s in range(4000)]),
            np.ones(4000))
        np.testing.assert_allclose(pts.directions.mean(axis=0), 0.0,
                                   atol=0.03)


class TestSpacePointTypes:
    def test_validation(self):
        # one direction and radius make a one-row set
        with pytest.raises(DomainError):
            SpacePoints(np.array([1.0, 1.0]), 1.0)
        with pytest.raises(DomainError):
            SpacePoints(np.array([1.0, 0.0]), -0.5)
        with pytest.raises(ConfigurationError):
            SpacePoints(np.eye(3), [1.0, 2.0])

    def test_overflowing_direction_rejected_without_warning(self):
        # the squares of 1e308 overflow: the norm is inf, not 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                SpacePoints(np.array([1e308, 1.5, 1e-308]), 1.0)

    def test_indexing_gives_one_row_set(self):
        pts = SpacePoints(np.eye(3), [1.0, 2.0, 3.0])
        pt = pts[1]
        assert isinstance(pt, SpacePoints) and len(pt) == 1
        np.testing.assert_array_equal(pt.directions, [[0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(pt.radii, [2.0])
        np.testing.assert_array_equal(pt.cartesian, [[0.0, 2.0, 0.0]])

    def test_indexing_keeps_the_set_tolerance(self):
        # a direction 5e-11 off unit length is inside the one tolerance
        # of the set, so its rows index too
        pts = SpacePoints([[1 + 5e-11, 0, 0]], [1.0])
        assert pts[0].directions[0, 0] == 1 + 5e-11
        with pytest.raises(DomainError):
            SpacePoints([[1 + 5e-10, 0, 0]], [1.0])

    def test_from_cartesian_roundtrip(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 4))
        pts = SpacePoints.from_cartesian(x)
        np.testing.assert_allclose(pts.cartesian, x, atol=1e-12)

    def test_nan_direction_rejected(self):
        with pytest.raises(DomainError):
            SpacePoints([[math.nan, 0.0, 0.0]], [1.0])

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, radius):
        # NaN compares False against 0, so the sign check alone lets it in
        with pytest.raises(DomainError, match="radii must be finite"):
            SpacePoints([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, radius])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_from_cartesian_rejects_non_finite(self, value):
        with pytest.raises(DomainError,
                           match="point coordinates must be finite"):
            SpacePoints.from_cartesian([[0.5, 1.0, 0.2], [value, 0.2, 0.3]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_from_cartesian_rescales_overflowing_rows(self):
        # a row whose sum of squares overflows gets its norm and unit
        # direction; every other row keeps the bits of a plain norm
        small = np.array([[0.5, 1.0, 0.2], [0.0, 3.0, -4.0]])
        huge = np.array([[3e300, 0.0, -4e300], [1e200, 1e200, 0.0]])
        pts = SpacePoints.from_cartesian(np.vstack([small[:1], huge,
                                                    small[1:]]))
        plain = SpacePoints.from_cartesian(small)
        np.testing.assert_array_equal(pts.radii[[0, 3]], plain.radii)
        np.testing.assert_array_equal(pts.directions[[0, 3]],
                                      plain.directions)
        np.testing.assert_allclose(pts.radii[1:3],
                                   [5e300, math.sqrt(2.0) * 1e200],
                                   rtol=1e-15)
        np.testing.assert_allclose(pts.directions[1:3],
                                   [[0.6, 0.0, -0.8],
                                    [math.sqrt(0.5), math.sqrt(0.5), 0.0]],
                                   rtol=1e-15)

    @pytest.mark.parametrize("empty", [[], [[]], np.empty((0, 3))])
    def test_from_cartesian_rejects_empty(self, empty):
        with pytest.raises(DomainError, match="must not be empty"):
            SpacePoints.from_cartesian(empty)

    def test_origin_gets_default_direction(self):
        pts = SpacePoints.from_cartesian(np.zeros((1, 3)))
        assert pts.radii[0] == 0.0
        np.testing.assert_array_equal(pts.directions[0], [1.0, 0.0, 0.0])


class TestTrialIntegral:
    @pytest.mark.parametrize("gen", ["inverse_beta", "inverse_normal",
                                     "random"])
    @pytest.mark.parametrize("dim", [2, 6, 16])
    def test_prefixes_of_one_draw_match_single_draws(self, gen, dim):
        # N_list unsorted and with a repeat: each error is bitwise that of
        # a draw of exactly N points
        n_list = [1000, 3, 4096, 1, 100, 3]
        got = spheremap.trial_integral_errors(dim, n_list, gen, 5)
        assert got == [spheremap.trial_integral_errors(dim, [n], gen, 5)[0]
                       for n in n_list]

    def test_empty_list(self):
        assert spheremap.trial_integral_errors(4, [], "random", 0) == []
