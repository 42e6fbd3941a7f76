"""Sobol' sequence generation with digital scrambling.

Gray-code construction with 32 output bits per coordinate.  Direction
numbers come from an embedded table in the standard text format
("d s a m_1 ... m_s", one line per dimension >= 2); dimension 1 is the
van der Corput sequence in base 2.  A table is validated and expanded
once, when it is made, and does not change afterwards.

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
        self.degrees = s = np.asarray(degrees, dtype=np.int64)
        self.poly_coeffs = np.asarray(poly_coeffs, dtype=np.int64)
        self.m_init = [np.asarray(m, dtype=np.int64) for m in m_init]
        self.max_dimensions = 1 + len(self.m_init)
        count = np.fromiter(map(len, self.m_init), np.int64)
        if s.shape != count.shape or self.poly_coeffs.shape != count.shape:
            raise ConfigurationError(
                f"need one degree, polynomial and m_init entry per dimension, "
                f"got {s.size}, {self.poly_coeffs.size} and {count.size}")
        if np.any(s < 1):
            raise ConfigurationError(
                f"polynomial degrees must be >= 1, got {s.min()}")
        wrong = np.flatnonzero(count != s)
        if wrong.size:
            j = wrong[0]
            raise ConfigurationError(
                f"dimension {j + 2}: expected {s[j]} initial direction "
                f"integers, got {count[j]}")
        # m_1..m_s of each dimension in a row, padded with 1s, which pass
        # the checks and which the expansion overwrites
        k = np.arange(s.max(initial=1))
        m = np.ones((s.size, k.size), dtype=np.int64)
        m[k < s[:, None]] = np.concatenate(self.m_init or [[]])
        if np.any((m % 2 == 0) | (m >> (k + 1) != 0)):
            raise ConfigurationError(
                "initial direction integers must be odd and 0 < m_k < 2^k")
        self._vectors = _expand(s, self.poly_coeffs, m[:, :_NBITS])

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
        v_k = m_k 2^{32-k}: a view of the first rows of the table's,
        expanded for every dimension when the table was made."""
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
        if dimension > self.max_dimensions:
            raise ConfigurationError(
                f"table supports at most {self.max_dimensions} dimensions, "
                f"requested {dimension}")
        return self._vectors[:dimension]


def _expand(s, a, m):
    """Read-only (1 + dimensions, 32) uint32 direction vectors: dimension
    1's (van der Corput), then those of degrees s, polynomials a and
    initial integers m (dimensions, <= 32).  v_k = m_k 2^{32-k} up to the
    degree, then v_k = v_{k-s} ^ (v_{k-s} >> s) ^ the v_{k-i}, 0 < i < s,
    whose bit s-1-i of a is set: one step per bit k and tap i, each over
    every dimension."""
    d, w = m.shape
    V = np.zeros((_NBITS, d), dtype=np.uint32)  # row k: bit k's vectors
    V[:w] = (m << _DIGIT_SHIFT[:w]).T
    i = np.arange(1, w)[:, None]
    tap = ((a >> np.maximum(s - 1 - i, 0)) & (i < s)).astype(np.uint32)
    for k in range(1, _NBITS):
        prev = V[np.maximum(k - s, 0), np.arange(d)]
        x = prev ^ (prev >> s.astype(np.uint32))
        for i in range(1, min(k, w)):
            x ^= V[k - i] * tap[i - 1]
        np.copyto(V[k], x, where=s <= k)
    vectors = np.vstack([_ROW_DIAG, V.T])  # m_k = 1 in dimension 1
    vectors.flags.writeable = False
    return vectors


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
