"""Randomised quasi-Monte Carlo (Owen 2013, ch. 17): the point set of
the conditional estimator (``montecarlo.conditional_max_mc``).

``block_means`` runs an integrand over K >= 16 blocks of the same
unscrambled Sobol points (``_block_layout``), each under its own random
digital shift (``_block_draws``).  The blocks are independent and
unbiased, so an estimate is the mean of their means and its standard
error their sample standard deviation over sqrt(K) (``_merge_blocks``).
A block past 2^16 points runs one 2^16-point chunk at a time, each the
first 2^16 points under one more shift (``_chunk_shifts``; Gray-code
order, Antonov & Saleev 1979).  The normals are a Taylor polynomial of
the inverse normal about the 2^16 lattice cells (``_lattice_ndtri``).

Determinism: a block's shift and bits come from ``default_rng`` (PCG64)
on a grandchild of its first chunk's seed (``model._chunks``), and its
mean is the fsum of its units' means, bit-identical for any schedule.
"""

import functools
import math
import zipfile
from pathlib import Path

import numpy as np
import scipy
from scipy.special import ndtri

from . import _kernels
from .model import SAMPLE_CHUNK, _chunks

# The digit lattice has 2^_SOBOL_BITS = SAMPLE_CHUNK cells: a chunk
# holds whole blocks of up to that many Sobol points, or one lattice-sized
# piece of a larger block.  Below the lattice's digits the digital shift
# has _OFFSET_BITS more.  An estimate has at least _MIN_BLOCKS blocks
# behind its standard error.
_SOBOL_BITS = SAMPLE_CHUNK.bit_length() - 1
_OFFSET_BITS = 36
_MIN_BLOCKS = 16
# Joe-Kuo direction numbers as shipped with scipy; read by path, because
# importing scipy.stats costs about half a second and 19 MB.
_DIRECTION_NUMBERS = (Path(scipy.__file__).parent / "stats"
                      / "_sobol_direction_numbers.npz")
# The lattice inverse normal uses exact ndtri in the cells where the first
# Taylor term can reach this size (|x| > 2.35, 1.9% of the cells);
# elsewhere the degree-4 remainder is below 2e-17.
_TAYLOR_CUTOFF = 3e-4


def block_means(d: int, n: int, seed: int, integrand, run
                ) -> tuple[list[float], int]:
    """The K block means of ``integrand`` over n d-dim RQMC points from
    ``seed``, and the draws made, K * block.

    ``integrand(e, bits, out, first, block)`` writes into ``out`` its
    values at points first to first + m of a block of ``block`` points,
    with (d, m) normals ``e`` and d mixture bits ``bits``.
    ``run(parts, task)`` returns [task(*part) for part in parts] in
    order, on any schedule; a part holds the units of 2^16 draws.
    """
    block, blocks = _block_layout(n)
    # the units of ``size`` points, ``per_block`` a block
    size = min(block, SAMPLE_CHUNK)
    per_block = block // size
    # built here, before any pool thread reads them
    base = _lattice_digits(d)[:, :size]
    tables = _ndtri_tables(_lattice_classes(size))
    # each block's shift and bits, from a grandchild of its first chunk
    draws = [_block_draws(grandchild, d)
             for i, (child, m) in enumerate(_chunks(blocks * block, seed))
             if i % per_block == 0
             for grandchild in child.spawn(max(1, m // block))]
    # unit c of a block: its shift XOR chunk c's, its bits, its first point
    units = [(shift ^ x, bits, c * size) for shift, bits in draws
             for c, x in enumerate(_chunk_shifts(d, per_block))]

    def task(part):
        # One buffer for the normals and the cell values, then for the
        # integrand's: freed whole, it stays in glibc's heap from task to
        # task, where separate buffers cost 184,832 page faults per
        # table1_cond pass (see ``_kernels``; no test watches this).
        buf = np.empty((d + 1, size))
        e, w = buf[:d], buf[d]
        means = []
        for shift, bits, first in part:
            _lattice_ndtri(base, shift, tables, out=e, cells=w)
            integrand(e, bits, w, first, block)
            means.append(float(np.mean(w)))
        return means

    step = SAMPLE_CHUNK // size  # units per part
    parts = [(units[i:i + step],) for i in range(0, len(units), step)]
    means = [x for part in run(parts, task) for x in part]
    return [math.fsum(means[i:i + per_block]) / per_block
            for i in range(0, len(means), per_block)], blocks * block


def _block_layout(n: int) -> tuple[int, int]:
    """(block, K): block is the largest power of two that still leaves
    ceil(n / block) >= 16 blocks (the largest < n/15), at least 1, and
    K = max(16, ceil(n / block)); beyond 16 points the rounding adds
    under one block, so under n/15 draws.  A block past SAMPLE_CHUNK
    points is run one chunk at a time, each under the block's shift XOR
    the chunk's (``_chunk_shifts``), so its size costs no memory."""
    block = 1 << max(0, ((n - 1) // (_MIN_BLOCKS - 1)).bit_length() - 1)
    return block, max(_MIN_BLOCKS, -(-n // block))


def _block_draws(block_seed: np.random.SeedSequence, d: int):
    """A block's digital shift, as a (d, 1) uint64 column of 52-digit
    words, and its d mixture bits, from the block's seed.  A word is
    h 2^36 + k: its 16 lattice digits h and the 36 below them k are drawn
    apart, h < 2^16 and then k < 2^36."""
    rng = np.random.default_rng(block_seed)
    h = rng.integers(0, 1 << _SOBOL_BITS, size=(d, 1), dtype=np.uint16)
    k = rng.integers(0, 1 << _OFFSET_BITS, size=(d, 1))
    shift = h.astype(np.uint64) << np.uint64(_OFFSET_BITS) | k.astype(np.uint64)
    return shift, rng.integers(0, 2, size=d)


@functools.lru_cache(maxsize=8)
def _direction_numbers(dim: int) -> np.ndarray:
    """(dim, 52) uint64 Sobol direction numbers v_rk = m_rk 2^-(k+1) in
    units of 2^-52, the 16 lattice digits and the 36 of the offset below
    them: m_rk * 2^(51-k), from the Joe-Kuo primitive polynomials and
    initial numbers by the Bratley-Fox recurrence, as
    scipy.stats.qmc.Sobol builds them.  The first 16 give the lattice
    points of ``_sobol_base``; from v_16 on they have digits below the
    lattice, and they place the chunks of larger blocks
    (``_chunk_shifts``)."""
    bits = _SOBOL_BITS + _OFFSET_BITS
    with zipfile.ZipFile(_DIRECTION_NUMBERS) as archive:
        poly = _leading_rows(archive, "poly.npy", dim).tolist()
        vinit = _leading_rows(archive, "vinit.npy", dim).tolist()
    m = [[1] * bits]
    for r in range(1, dim):
        p = poly[r]
        deg = p.bit_length() - 1
        row = vinit[r][:deg]
        for k in range(deg, bits):
            value = row[k - deg]
            for i in range(1, deg + 1):
                if (p >> (deg - i)) & 1:
                    value ^= row[k - i] << i
            row.append(value)
        m.append(row)
    v = np.array([[x << (bits - 1 - k) for k, x in enumerate(row)] for row in m],
                 dtype=np.uint64)
    v.setflags(write=False)
    return v


def _leading_rows(archive: zipfile.ZipFile, name: str, rows: int) -> np.ndarray:
    """The first ``rows`` rows of the 1-D or 2-D ``.npy`` member ``name`` of
    an npz ``archive``, read from its stream without loading the rest: in
    C order they are its first bytes, in Fortran order (scipy's ``vinit``)
    the first bytes of each column, the rest of which is read past in
    small pieces."""
    with archive.open(name) as fh:
        version = np.lib.format.read_magic(fh)
        shape, fortran, dtype = (np.lib.format.read_array_header_1_0(fh)
                                 if version == (1, 0) else
                                 np.lib.format.read_array_header_2_0(fh))
        if not fortran:
            size = rows * math.prod(shape[1:]) * dtype.itemsize
            return np.frombuffer(fh.read(size), dtype).reshape(rows, *shape[1:])
        out = np.empty((shape[1], rows), dtype)
        for column in out:
            column[:] = np.frombuffer(fh.read(rows * dtype.itemsize), dtype)
            rest = (shape[0] - rows) * dtype.itemsize
            while rest:
                rest -= len(fh.read(min(rest, 1 << 14)))
        return out.T


def _sobol_base(dim: int) -> np.ndarray:
    """The first 2^16 unscrambled Sobol points in ``dim`` dimensions as
    (dim, 2^16) uint16 digits: point i has coordinates base[:, i] / 2^16,
    in the Gray-code order of scipy.stats.qmc.Sobol."""
    v = (_direction_numbers(dim)[:, :_SOBOL_BITS] >> _OFFSET_BITS).astype(np.uint16)
    base = np.zeros((dim, 1 << _SOBOL_BITS), dtype=np.uint16)
    h = 1
    for k in range(_SOBOL_BITS):
        # Reflected Gray code: point h + i is point h - 1 - i with v_k added.
        np.bitwise_xor(base[:, h - 1::-1], v[:, k:k + 1], out=base[:, h:2 * h])
        h *= 2
    return base


@functools.lru_cache(maxsize=8)
def _lattice_digits(dim: int) -> np.ndarray:
    """``_sobol_base(dim)`` mirror-encoded (``_mirror``), read-only: the
    digits ``_lattice_ndtri`` takes, and the only copy of the base kept."""
    digits = _sobol_base(dim)
    for row in digits:  # in place, a row's temporaries at a time
        row[:] = _mirror(row)
    digits.setflags(write=False)
    return digits


def _chunk_shifts(dim: int, chunks: int) -> np.ndarray:
    """(chunks, dim, 1) uint64: Sobol point c 2^16 as words of 52 digits,
    as ``_block_draws`` packs a shift.

    In the Gray-code order point p is the XOR of v_j over the set bits j
    of gray(p) = p XOR (p >> 1), which is linear in p; for i < 2^16,
    c 2^16 + i = c 2^16 XOR i.  So chunk c of a block, its points
    c 2^16 + i, is the first 2^16 points under one more digital shift,
    word c, which XORs into the block's own (word 0 is zero).
    """
    v = _direction_numbers(dim)
    x = np.zeros((chunks, dim), dtype=np.uint64)
    for c in range(1, chunks):
        p = c << _SOBOL_BITS
        gray = p ^ (p >> 1)
        x[c] = np.bitwise_xor.reduce(
            v[:, [j for j in range(gray.bit_length()) if gray >> j & 1]], axis=1)
    return x[:, :, None]


@functools.lru_cache(maxsize=1)
def _ndtri_tables(classes: int):
    """Taylor coefficients of ndtri about the midpoints p_j = (j + 1/2) 2^-16
    of the lower half of the 2^16 cells (j < 2^15; the upper half mirrors
    it), and the number of tail cells at each end.

    The cells are stored by residue class mod ``classes`` (a power of two
    <= 2^15) and in order within each class: cell j is at (j % classes) *
    (2^15 / classes) + j // classes, so the cells a block uses are
    contiguous.  With x = ndtri(p_j) and phi the normal density,
    ndtri(p_j + delta) = x + c1 delta + c2 delta^2 + c3 delta^3 + c4 delta^4
    + O(delta^5), with c1 = 1/phi, c2 = x/(2 phi^2), c3 = (1 + 2x^2)/(6 phi^3)
    and c4 = x(7 + 6x^2)/(24 phi^4).  Outside the tail |c3 delta^3| < 1e-10
    and |c4 delta^4| < 1e-13 for |delta| <= 2^-17, so c3 and c4 are kept in
    float32 (which costs under 1e-17).  Returned as a float64 (3, 2^15)
    stack of x, c1, c2, a float32 (2, 2^15) stack of c3, c4 and the tail
    count, so ``_lattice_ndtri`` evaluates a cell's polynomial as two
    products with the stacks; together they take 1 MiB, are built in
    place, are read-only and are cached for one ``classes`` at a time.
    """
    wide = np.empty((3, 1 << (_SOBOL_BITS - 1)))
    narrow = np.empty((2, wide.shape[1]), dtype=np.float32)
    x, c1, work = wide
    # cell j = i classes + c at (c, i) of x as a (classes, 2^15 / classes)
    np.add.outer(np.arange(classes) + 0.5, np.arange(0, len(x), classes),
                 out=x.reshape(classes, -1))
    x *= 2.0 ** -_SOBOL_BITS
    ndtri(x, out=x)
    np.square(x, out=c1)
    c1 *= 0.5
    np.exp(c1, out=c1)
    c1 *= math.sqrt(2.0 * math.pi)
    np.square(x, out=work)
    work *= 6.0
    work += 7.0
    work *= x
    for _ in range(4):
        work *= c1
    work /= 24.0
    narrow[1] = work
    np.square(x, out=work)
    work *= 2.0
    work += 1.0
    for _ in range(3):
        work *= c1
    work /= 6.0
    narrow[0] = work
    np.multiply(x, c1, out=work)
    work *= c1
    work *= 0.5
    # c1 falls towards the middle, so the tail cells are the first cells of
    # the lower half and, mirrored, the last cells of the upper half.
    tail = int(np.count_nonzero(c1 * 2.0 ** -17 > _TAYLOR_CUTOFF))
    wide.setflags(write=False)
    narrow.setflags(write=False)
    return wide, narrow, tail


def _lattice_classes(block: int) -> int:
    """The residue classes of ``_ndtri_tables`` for blocks of ``block``
    points: the 2^(16-b) classes of the block's cells, at most 2^15."""
    return min(1 << (_SOBOL_BITS - 1), (1 << _SOBOL_BITS) // block)


def _mirror(digits):
    """Mirror-encoded lattice digits, of a Python int or a uint16 array:
    D XOR 0x7FFF where D >= 2^15, else D.  For a shift h and the cell
    j = D XOR h, _mirror(D) XOR _mirror(h) is j below 2^15 and
    2^15 + (2^16 - 1 - j), the mirror cell moved up by 2^15, above it."""
    return digits ^ (digits >> (_SOBOL_BITS - 1)) * 0x7FFF


def _lattice_ndtri(rows: np.ndarray, shift: np.ndarray, tables,
                   out: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """ndtri((D XOR h + (k + 1/2) 2^-36) 2^-16), row by row, for rows holding
    the mirror-encoded digits _mirror(D) of the first 2^b Sobol points
    (``_lattice_digits``), as (len(rows), 2^b) float64 in ``out``, with
    ``tables`` from ``_ndtri_tables(_lattice_classes(2^b))`` and each
    row's shift word h 2^36 + k from the (len(rows), 1) uint64 ``shift``
    (see ``_block_draws``).  ``cells`` is a float64 buffer of 2^b for the
    cell values.

    That is a digital shift: h flips the 16 digits and k < 2^36 fills
    those below, so every point is uniform on (0, 1) (never 0 or 1, where
    ndtri is infinite) while the block keeps its net structure.  Such a
    row holds each of the digits i 2^(16-b) once, so after the XOR its
    cells j = D XOR h are exactly the 2^b cells j = h mod 2^(16-b), and
    every point lies at the same offset (k + 1/2) 2^-36 inside its cell.
    The Taylor polynomial of ``_ndtri_tables`` in the one shared delta is
    evaluated once on those cells (exact ndtri in the tail cells): the
    cells of the lower half first, then those of the upper half as their
    mirror cells 2^16 - 1 - j in the same order (cell j mirrors to
    2^16 - 1 - j, delta to -delta, and ndtri(1 - p) = -ndtri(p)).  The
    powers (1, delta, delta^2) and (delta^3, delta^4), with the odd
    ones' signs flipped for the upper half, multiply the tables' float64
    and float32 stacks: one product of each when the halves read the
    same cells (b = 16), one per half otherwise.  The values are
    gathered by (_mirror(D) XOR _mirror(h)) >> (16-b).
    """
    wide, narrow, tail = tables
    half = wide.shape[1]
    m = rows.shape[1]
    s = _SOBOL_BITS - (m.bit_length() - 1)
    step = 1 << s
    classes = _lattice_classes(m)
    per_class = half // classes
    # the gather takes a kernel pass of points at a time, so its index
    # buffer is not as long as a chunk
    idx = np.empty(min(m, _kernels._PASS), dtype=np.intp)
    for row, word, dest in zip(rows, shift[:, 0].tolist(), out):
        h, k = divmod(word, 1 << _OFFSET_BITS)
        r = h & (step - 1)
        offset = (k + 0.5) * 2.0 ** -36
        delta = (offset - 0.5) * 2.0 ** -_SOBOL_BITS
        d2 = delta * delta
        powers = np.array([[1.0, delta, d2], [-1.0, delta, -d2]])
        high = np.array([[d2 * delta, d2 * d2], [d2 * delta, -d2 * d2]],
                        dtype=np.float32)
        # the float32 terms go into dest, which the gather overwrites
        small = dest.view(np.float32)[:m]
        # (residue, first position, end) of the used cells of the lower
        # half and of the mirror cells of the upper half; a block of one
        # point has its one cell in one of them
        mid = (half - r + step - 1) >> s
        halves = ((r, 0, mid), (step - 1 - r, mid, m))
        if s == 0:
            # both halves read every cell of the tables: one (2, 3) and one
            # (2, 2) product read them once, in 2/3 of the time of the
            # loop's products one half at a time
            np.matmul(powers, wide, out=cells.reshape(2, -1))
            np.matmul(high, narrow, out=small.reshape(2, -1))
        else:
            for upper, (res, lo, hi) in enumerate(halves):
                first = (res % classes) * per_class
                used = slice(first, first + hi - lo)
                np.matmul(powers[upper], wide[:, used], out=cells[lo:hi])
                np.matmul(high[upper], narrow[:, used], out=small[lo:hi])
        cells += small
        # The tail cells come first in each half: i 2^s + res < tail.
        for upper, (res, lo, hi) in enumerate(halves):
            count = min(hi - lo, max(0, (tail - res + step - 1) >> s))
            if count:
                j = (np.arange(count) << s) + res
                if upper:
                    j = (1 << _SOBOL_BITS) - 1 - j
                cells[lo:lo + count] = ndtri((j + offset) * 2.0 ** -_SOBOL_BITS)
        h = _mirror(h)
        for a in range(0, m, len(idx)):
            np.bitwise_xor(row[a:a + len(idx)], h, out=idx)
            if s:  # a shift by 0 would still pass over idx
                idx >>= s
            np.take(cells, idx, out=dest[a:a + len(idx)], mode="clip")
    return out


def _merge_blocks(means: list[float]) -> tuple[float, float]:
    """Mean and standard error of independent block means, divided by the
    largest before squaring (so nothing underflows far below 1e-154) and
    summed in block order with fsum (so the worker count cannot matter)."""
    g = max(means)
    if g == 0.0:
        return 0.0, 0.0
    k = len(means)
    scaled = [mean / g for mean in means]
    mean = math.fsum(scaled) / k
    var = math.fsum((x - mean) ** 2 for x in scaled) / (k - 1)
    return g * mean, g * math.sqrt(var / k)
