import hashlib

import numpy as np
import pytest
from scipy.stats import qmc

from spherecone import lds
from spherecone.errors import ConfigurationError, ExhaustionError
from spherecone.finance import OptionSpec, mc_reference_price
from spherecone.lds import DirectionNumberTable, SobolStream, _rng


def scramble_loop(V, rng):
    """Per-dimension, per-digit Matousek scramble: the reference for the
    vectorized SobolStream._scramble_vectors."""
    dim, nbits = V.shape
    out = np.empty_like(V)
    diag = np.uint32(1) << np.arange(nbits - 1, -1, -1, dtype=np.uint32)
    upper_mask = np.zeros(nbits, dtype=np.uint32)
    for i in range(1, nbits):
        upper_mask[i] = (0xFFFFFFFF << (32 - i)) & 0xFFFFFFFF
    for j in range(dim):
        below = rng.integers(0, 2**32, size=nbits, dtype=np.uint32)
        rows = (below & upper_mask) | diag
        y = np.zeros(nbits, dtype=np.uint32)
        for i in range(nbits):
            bits = np.bitwise_count(rows[i] & V[j]).astype(np.uint32) & 1
            y |= bits << np.uint32(31 - i)
        out[j] = y
    return out


def take_loop(stream, count):
    """One masked pass per bit of gray(i): the reference for
    SobolStream.take.  Reads the stream's state and does not advance it."""
    idx = np.arange(stream.index, stream.index + count, dtype=np.uint32)
    gray = idx ^ (idx >> np.uint32(1))
    X = np.zeros((count, stream.dimension), dtype=np.uint32)
    for k in range(32):
        active = ((gray >> np.uint32(k)) & np.uint32(1)).astype(bool)
        if active.any():
            X[active] ^= stream._V[:, k]
    X ^= stream._shift
    return X.astype(np.float64) * 2.0**-32


def vectors_of(table, j):
    """Direction vectors of 0-based dimension j of table as 32 Python
    ints, one dimension at a time: the reference for the table's
    expansion."""
    if j == 0:
        # dimension 1: van der Corput, m_k = 1 for all k
        return [1 << (31 - k) for k in range(32)]
    s = int(table.degrees[j - 1])
    a = int(table.poly_coeffs[j - 1])
    m = table.m_init[j - 1]
    v = [int(m[k]) << (31 - k) for k in range(min(s, 32))]
    for k in range(s, 32):
        x = v[k - s] ^ (v[k - s] >> s)
        for i in range(1, s):
            if (a >> (s - 1 - i)) & 1:
                x ^= v[k - i]
        v.append(x)
    return v


def philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


class TestUnscrambled:
    def test_first_points_dim1(self):
        s = SobolStream(1)
        pts = s.take(7)[:, 0]
        np.testing.assert_allclose(
            pts, [0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125])

    def test_first_points_dim2(self):
        s = SobolStream(2)
        pts = s.take(3)
        np.testing.assert_allclose(pts[0], [0.5, 0.5])
        np.testing.assert_allclose(pts[1], [0.75, 0.25])
        np.testing.assert_allclose(pts[2], [0.25, 0.75])

    @pytest.mark.parametrize("dim", [2, 5, 16, 64, 192])
    def test_matches_reference_generator(self, dim):
        # scipy uses the same canonical direction numbers; its index-0
        # point is the origin, which this stream skips
        mine = SobolStream(dim).take(256)
        ref = qmc.Sobol(dim, scramble=False).random(257)[1:]
        np.testing.assert_array_equal(mine, ref)

    def test_seed_irrelevant_without_scrambling(self):
        a = SobolStream(3, seed=1).take(10)
        b = SobolStream(3, seed=99).take(10)
        np.testing.assert_array_equal(a, b)

    def test_take_is_stateful(self):
        s = SobolStream(2)
        a = s.take(4)
        b = s.take(4)
        both = SobolStream(2).take(8)
        np.testing.assert_array_equal(np.vstack([a, b]), both)


class TestScrambled:
    def test_deterministic_per_seed_and_replicate(self):
        a = SobolStream(4, seed=7, scramble=True, replicate=3).take(32)
        b = SobolStream(4, seed=7, scramble=True, replicate=3).take(32)
        np.testing.assert_array_equal(a, b)
        c = SobolStream(4, seed=7, scramble=True, replicate=4).take(32)
        d = SobolStream(4, seed=8, scramble=True, replicate=3).take(32)
        assert np.any(a != c) and np.any(a != d)

    def test_range(self):
        pts = SobolStream(6, seed=1, scramble=True).take(512)
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_aligned_block_equidistribution(self, seed):
        # indices 2^m .. 2^{m+1}-1 form an aligned dyadic block: every
        # coordinate hits each interval [j/2^m, (j+1)/2^m) exactly once
        m = 5
        s = SobolStream(8, seed=seed, scramble=True)
        s.take(2**m - 1)  # advance to index 2^m
        pts = s.take(2**m)
        for j in range(8):
            counts = np.bincount((pts[:, j] * 2**m).astype(int),
                                 minlength=2**m)
            assert np.all(counts == 1)

    def test_leading_block_near_equidistribution(self):
        # the stream starts at index 1, so the first 2^m points are the
        # perfect block 0..2^m-1 with one point swapped out: per interval
        # counts are 0, 1 or 2 and at most two intervals are off
        m = 5
        for seed in range(3):
            pts = SobolStream(8, seed=seed, scramble=True).take(2**m)
            for j in range(8):
                counts = np.bincount((pts[:, j] * 2**m).astype(int),
                                     minlength=2**m)
                assert counts.max() <= 2
                assert np.sum(counts == 1) >= 2**m - 2

    @pytest.mark.parametrize("dim", [1, 3, 30])
    def test_scramble_matches_loop(self, dim):
        V = DirectionNumberTable.default().direction_vectors(dim)
        rng, ref_rng = philox(4, 2), philox(4, 2)
        np.testing.assert_array_equal(SobolStream._scramble_vectors(V, rng),
                                      scramble_loop(V, ref_rng))
        # the digital shift drawn next comes from the same stream position
        np.testing.assert_array_equal(
            rng.integers(0, 2**32, size=dim, dtype=np.uint32),
            ref_rng.integers(0, 2**32, size=dim, dtype=np.uint32))

    @pytest.mark.parametrize("dim, seed, replicate, count, digest", [
        (30, 21, 5, 64,
         "14e6fba81db41ac2884659b3ef08a9019850b8e0391ca13c94a922995e3739f6"),
        (192, 3, 0, 8,
         "dffba72518b3b687ab0e7b386f42962099341d62ebc2b9359f64724d3c1ae1d5"),
    ])
    def test_golden_digest(self, dim, seed, replicate, count, digest):
        # exact: every coordinate is an integer multiple of 2^-32
        pts = SobolStream(dim, seed=seed, scramble=True,
                          replicate=replicate).take(count)
        assert hashlib.sha256(pts.tobytes()).hexdigest() == digest

    def test_scrambled_mean_is_uniform(self):
        pts = SobolStream(5, seed=3, scramble=True).take(4096)
        np.testing.assert_allclose(pts.mean(axis=0), 0.5, atol=0.02)

    def test_replicate_means_concentrate(self):
        streams = [SobolStream(2, seed=5, scramble=True, replicate=r)
                   for r in range(16)]
        means = np.array([s.take(256).mean(axis=0) for s in streams])
        # scrambled-net means are much tighter than iid (sd ~ 0.018)
        assert np.all(np.abs(means - 0.5) < 0.02)


class TestTakeMatchesLoop:
    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 30, 192])
    @pytest.mark.parametrize("scramble", [False, True])
    def test_counts(self, dim, scramble):
        s = SobolStream(dim, seed=dim, scramble=scramble, replicate=1)
        for count in (0, 1, 2, 3, 31, 256, 1000):
            ref = take_loop(s, count)
            assert s.take(count).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("start", [0, 5, 2**20 - 3])
    def test_any_start(self, start):
        s = SobolStream(4, seed=2, scramble=True)
        s.index = start
        ref = take_loop(s, 64)
        assert s.take(64).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("scramble", [False, True])
    def test_stream_end(self, scramble):
        # the last point the stream can give has index 2^31 - 1
        s = SobolStream(5, seed=6, scramble=scramble)
        s.index = 2**31 - 100
        ref = take_loop(s, 100)
        assert s.take(100).tobytes() == ref.tobytes()


class TestExhaustion:
    def test_raises_past_limit(self):
        s = SobolStream(1)
        s.index = 2**31 - 2
        s.take(2)
        with pytest.raises(ExhaustionError):
            s.take(1)

    @pytest.mark.parametrize("random", [False, True])
    def test_cube_points_bound(self, monkeypatch, random):
        # the random cube points keep a stream's bound, raised before any
        # draw (a request of 2^31 points by 2 would ask for 32 GB)
        def no_draw(*keys):
            raise AssertionError("a random stream was opened")

        monkeypatch.setattr(lds, "_rng", no_draw)
        with pytest.raises(ExhaustionError, match="index 1 \\+ 2147483648"):
            lds._cube_points(2**31, 2, 0, random=random)
        with pytest.raises(ConfigurationError, match="count must be >= 0"):
            lds._cube_points(-1, 2, 0, random=random)

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            SobolStream(0)
        with pytest.raises(ConfigurationError):
            SobolStream(2).take(-1)


class TestSeedKeys:
    def test_negative_key_is_configuration_error(self):
        # SeedSequence refuses negative entropy with an untyped ValueError;
        # the one seeding helper raises the typed error, naming the key
        for keys in [(-1,), (3, -2)]:
            with pytest.raises(ConfigurationError,
                               match=f"got {keys[-1]}$"):
                _rng(*keys)
        spec = OptionSpec(100.0, 100.0, 1.0, 0.2, 0.05, 30)
        with pytest.raises(ConfigurationError, match="got -1$"):
            mc_reference_price([spec], 2**10, seed=-1)


class TestDirectionNumberTable:
    def test_default_covers_192(self):
        t = DirectionNumberTable.default()
        assert t.max_dimensions >= 192
        V = t.direction_vectors(2)
        # dimension 1 is van der Corput: v_k = 2^{32-k}
        assert V[0, 0] == 2**31 and V[0, 1] == 2**30

    def test_from_lines_roundtrip(self):
        lines = ["d s a m_i", "2 1 0 1", "3 2 1 1 3"]
        t = DirectionNumberTable.from_lines(lines)
        assert t.max_dimensions == 3
        ref = DirectionNumberTable.default()
        np.testing.assert_array_equal(t.direction_vectors(3),
                                      ref.direction_vectors(3))

    def test_from_file(self, tmp_path):
        f = tmp_path / "dirs.txt"
        f.write_text("d s a m_i\n2 1 0 1\n")
        t = DirectionNumberTable.from_file(f)
        assert t.max_dimensions == 2

    def test_env_override(self, tmp_path, monkeypatch):
        f = tmp_path / "dirs.txt"
        f.write_text("d s a m_i\n2 1 0 1\n")
        monkeypatch.setenv("SPHERECONE_DIRFILE", str(f))
        pts = SobolStream(2).take(4)
        ref = SobolStream(2, table=DirectionNumberTable.default()).take(4)
        np.testing.assert_array_equal(pts, ref)
        with pytest.raises(ConfigurationError):
            SobolStream(3).take(1)

    @pytest.mark.parametrize("degrees, polys, m_init, message", [
        ([2], [1], [[1]], "expected 2 initial direction integers, got 1"),
        ([2], [1], [[1, 2]], "must be odd"),
        # these built, and then failed on use with an IndexError or, for
        # the short m_init, dropped a dimension
        ([1, 2], [0], [[1], [1, 1]], "got 2, 1 and 2"),
        ([1], [0, 1], [[1], [1, 1]], "got 1, 2 and 2"),
        ([1, 2], [0, 1], [[1]], "got 2, 2 and 1"),
        ([1, 0], [0, 0], [[1], []], "degrees must be >= 1, got 0"),
    ], ids=["count", "even", "polys", "degrees", "m-init", "zero-degree"])
    def test_bad_initial_integers(self, degrees, polys, m_init, message):
        with pytest.raises(ConfigurationError, match=message):
            DirectionNumberTable(degrees, polys, m_init)

    def test_direction_vectors_need_a_dimension(self):
        with pytest.raises(ConfigurationError, match="got 0$"):
            DirectionNumberTable.default().direction_vectors(0)

    def test_direction_vectors_cached_read_only(self):
        t = DirectionNumberTable.default()
        V5 = t.direction_vectors(5)
        V9 = t.direction_vectors(9)
        np.testing.assert_array_equal(t.direction_vectors(5), V5)
        np.testing.assert_array_equal(V9[:5], V5)
        np.testing.assert_array_equal(
            V9, DirectionNumberTable.default().direction_vectors(9))
        for V in (V5, V9, t.direction_vectors(3)):
            with pytest.raises(ValueError):
                V[0, 0] = 1

    @pytest.mark.parametrize("table", ["embedded", "synthetic"])
    def test_matches_recurrence(self, table):
        # every dimension's vectors, expanded together, bitwise equal the
        # per-dimension recurrence: on the embedded table, and on 3000
        # random valid dimensions of every degree from 1 to 18
        if table == "embedded":
            t = DirectionNumberTable.default()
        else:
            rng = philox(28)
            s = rng.integers(1, 19, 3000)
            a = rng.integers(0, 2**(s - 1))
            m = [rng.integers(0, 2**np.arange(k)) * 2 + 1 for k in s]
            t = DirectionNumberTable(s, a, m)
            assert set(s) == set(range(1, 19))
        V = t.direction_vectors(t.max_dimensions)
        ref = [vectors_of(t, j) for j in range(t.max_dimensions)]
        assert V.tobytes() == np.array(ref, dtype=np.uint32).tobytes()

    def test_validation(self):
        with pytest.raises(ConfigurationError):  # even m
            DirectionNumberTable.from_lines(["2 1 0 2"])
        with pytest.raises(ConfigurationError):  # m_k >= 2^k
            DirectionNumberTable.from_lines(["2 1 0 3"])
        with pytest.raises(ConfigurationError):  # out of order
            DirectionNumberTable.from_lines(["3 2 1 1 3"])
        with pytest.raises(ConfigurationError):  # wrong count
            DirectionNumberTable.from_lines(["2 2 1 1"])
        with pytest.raises(ConfigurationError):  # zero degree
            DirectionNumberTable.from_lines(["2 1 0 1", "3 0 0"])
        with pytest.raises(ConfigurationError):  # empty
            DirectionNumberTable.from_lines(["d s a m_i"])

    def test_dimension_limit(self):
        t = DirectionNumberTable.from_lines(["2 1 0 1"])
        with pytest.raises(ConfigurationError):
            t.direction_vectors(3)
