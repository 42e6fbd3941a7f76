"""Sobol' sequence generation with digital scrambling.

Gray-code construction with 32 output bits per coordinate.  Direction
numbers come from an embedded table in the standard text format
("d s a m_1 ... m_s", one line per dimension >= 2); dimension 1 is the
van der Corput sequence in base 2.

The canonical point at index 0 (all zeros) is skipped: streams start at
index 1, so the first unscrambled coordinate in dimension 1 is 0.5.

Scrambling is Matousek random linear scrambling: a random lower
triangular bit matrix with unit diagonal is applied to the direction
vectors of each coordinate, followed by a random digital shift.  Scramble
randomness comes from a Philox counter-based generator seeded with
(seed, replicate), so replicate streams are reproducible.
"""

from __future__ import annotations

import functools
import os
import threading
from importlib import resources

import numpy as np

from .errors import ConfigurationError, ExhaustionError

__all__ = ["DirectionNumberTable", "SobolStream"]

_NBITS = 32
_MAX_INDEX = 2**31


def _rng(*keys):
    """Philox generator seeded with the integer key sequence ``keys``;
    every seeded random stream of the package comes from here.  A
    negative key raises ConfigurationError."""
    keys = [int(k) for k in keys]
    for k in keys:
        if k < 0:
            raise ConfigurationError(
                f"seed keys must be non-negative integers, got {k}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(keys)))


class DirectionNumberTable:
    """Primitive polynomials and initial direction integers per dimension.

    Attributes
    ----------
    degrees, poly_coeffs : arrays indexed by dimension-2 (dimension 1 is
        the implicit van der Corput sequence).
    m_init : list of integer arrays, the odd initial values m_1..m_s.
    """

    def __init__(self, degrees, poly_coeffs, m_init):
        self.degrees = np.asarray(degrees, dtype=np.int64)
        self.poly_coeffs = np.asarray(poly_coeffs, dtype=np.int64)
        self.m_init = [np.asarray(m, dtype=np.int64) for m in m_init]
        self.max_dimensions = 1 + len(self.m_init)
        self._vectors = np.empty((0, _NBITS), dtype=np.uint32)
        self._lock = threading.Lock()
        for s, m in zip(self.degrees, self.m_init):
            if len(m) != s:
                raise ConfigurationError(
                    f"expected {s} initial direction integers, got {len(m)}")
            k = np.arange(1, s + 1)
            if np.any(m % 2 == 0) or np.any(m >= 2**k):
                raise ConfigurationError(
                    "initial direction integers must be odd and m_k < 2^k")

    @classmethod
    def from_lines(cls, lines):
        degrees, polys, m_init = [], [], []
        expected_d = 2
        for line in lines:
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if not parts[0].isdigit():
                continue  # header line
            vals = [int(p) for p in parts]
            d, s, a = vals[0], vals[1], vals[2]
            if d != expected_d:
                raise ConfigurationError(
                    f"direction-number lines must cover dimensions 2,3,... "
                    f"in order; expected {expected_d}, got {d}")
            if len(vals) != 3 + s:
                raise ConfigurationError(
                    f"dimension {d}: expected {s} initial values, "
                    f"got {len(vals) - 3}")
            degrees.append(s)
            polys.append(a)
            m_init.append(vals[3:])
            expected_d += 1
        if not degrees:
            raise ConfigurationError("no direction-number lines found")
        return cls(degrees, polys, m_init)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_lines(fh)

    @classmethod
    def default(cls):
        """The table every stream without an explicit one uses.

        The file named by the env var SPHERECONE_DIRFILE, parsed afresh on
        each call; without it the embedded table (Joe-Kuo style,
        dimensions up to 192), parsed once per process.
        """
        override = os.environ.get("SPHERECONE_DIRFILE")
        if override:
            return cls.from_file(override)
        return _embedded_table()

    def direction_vectors(self, dimension):
        """Read-only (dimension, 32) uint32 array of direction vectors
        v_k = m_k 2^{32-k}.

        Each dimension is built once per table; later calls return a view
        of the cached array.  Concurrent calls build under one lock, so
        the cache only grows and every caller gets its own dimension.
        """
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
        if dimension > self.max_dimensions:
            raise ConfigurationError(
                f"table supports at most {self.max_dimensions} dimensions, "
                f"requested {dimension}")
        with self._lock:
            V = self._vectors
            built = V.shape[0]
            if dimension > built:
                V = np.empty((dimension, _NBITS), dtype=np.uint32)
                V[:built] = self._vectors
                for j in range(built, dimension):
                    V[j] = self._vectors_of(j)
                V.flags.writeable = False
                self._vectors = V
        return V[:dimension]

    def _vectors_of(self, j):
        """Direction vectors of 0-based dimension j as 32 Python ints."""
        if j == 0:
            # dimension 1: van der Corput, m_k = 1 for all k
            return [1 << (_NBITS - 1 - k) for k in range(_NBITS)]
        s = int(self.degrees[j - 1])
        a = int(self.poly_coeffs[j - 1])
        m = self.m_init[j - 1]
        v = [int(m[k]) << (_NBITS - 1 - k) for k in range(min(s, _NBITS))]
        for k in range(s, _NBITS):
            x = v[k - s] ^ (v[k - s] >> s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    x ^= v[k - i]
            v.append(x)
        return v


@functools.cache
def _embedded_table():
    text = (resources.files("spherecone.data")
            .joinpath("direction-numbers.txt").read_text())
    return DirectionNumberTable.from_lines(text.splitlines())


# row i of a scramble matrix (output digit i, most significant first) may
# only mix in more significant digits, and its diagonal bit is set
_ROW_LOWER = np.array([0] + [(0xFFFFFFFF << (_NBITS - i)) & 0xFFFFFFFF
                             for i in range(1, _NBITS)], dtype=np.uint32)
_DIGIT_SHIFT = np.arange(_NBITS - 1, -1, -1, dtype=np.uint32)
_ROW_DIAG = np.uint32(1) << _DIGIT_SHIFT


class SobolStream:
    """Stateful Sobol' generator over [0,1)^dimension.

    Same (seed, dimension, scramble) always reproduces the same sequence.
    With scramble=False the output is the canonical sequence starting at
    index 1 regardless of seed.
    """

    def __init__(self, dimension, seed=0, scramble=False, table=None,
                 replicate=0):
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        self.seed = int(seed)
        self.scramble = bool(scramble)
        self.replicate = int(replicate)
        self.index = 1
        if table is None:
            table = DirectionNumberTable.default()
        V = table.direction_vectors(self.dimension)
        if scramble:
            rng = _rng(self.seed, self.replicate)
            V = self._scramble_vectors(V, rng)
            self._shift = rng.integers(0, 2**_NBITS, size=self.dimension,
                                       dtype=np.uint32)
        else:
            self._shift = np.zeros(self.dimension, dtype=np.uint32)
        self._V = V

    @staticmethod
    def _scramble_vectors(V, rng):
        """Apply a random lower-triangular unit-diagonal bit matrix per dim.

        Row i of the matrix (digit i of the output, most significant
        first) is stored as a 32-bit mask; output digit i is the parity
        of (row_mask & v).  Applying the matrix to the direction vectors
        is equivalent to applying it to every generated point, since the
        construction is linear over GF(2).
        """
        dim = V.shape[0]
        rows = ((rng.integers(0, 2**_NBITS, size=(dim, _NBITS),
                              dtype=np.uint32) & _ROW_LOWER) | _ROW_DIAG)
        # bits[j, i, k]: digit i of the scrambled direction vector v_k
        bits = np.bitwise_count(rows[:, :, None] & V[:, None, :]) & 1
        return np.bitwise_or.reduce(
            bits.astype(np.uint32) << _DIGIT_SHIFT[:, None], axis=1)

    def take(self, count):
        """Next `count` points as a (count, dimension) float64 array."""
        _check_count(self.index, count)
        # point i is the shift xor the direction vectors of the set bits of
        # gray(i); gray(i) differs from gray(i - 1) in bit ctz(i) only, so
        # row 0 holds the first point, row r > 0 the vector that bit
        # flips, and an xor scan down the rows gives every point
        X = np.empty((count, self.dimension), dtype=np.uint32)
        if count:
            gray = self.index ^ (self.index >> 1)
            bits = [bool(gray >> k & 1) for k in range(_NBITS)]
            X[0] = np.bitwise_xor.reduce(self._V[:, bits], axis=1)
            X[0] ^= self._shift
            i = np.arange(self.index + 1, self.index + count, dtype=np.int64)
            X[1:] = self._V.T[np.bitwise_count((i & -i) - 1)]
            np.bitwise_xor.accumulate(X, axis=0, out=X)
        self.index += count
        return X.astype(np.float64) * 2.0**-_NBITS


def _check_count(index, count):
    """Raise unless count >= 0 points from index fit in a stream."""
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    if index + count > _MAX_INDEX:
        raise ExhaustionError(
            f"stream exhausted: index {index} + {count} exceeds 2^31")


def _cube_points(n, dimension, seed, random=False, scramble=False,
                 table=None):
    """The first n points of [0,1)^dimension: Philox uniforms of seed
    when random, else a Sobol' stream's, scrambled by seed if asked;
    either as many as a stream holds from its first index, 1, at most."""
    _check_count(1, n)
    if random:
        return _rng(seed).random((n, dimension))
    return SobolStream(dimension, seed=seed, scramble=scramble,
                       table=table).take(n)
