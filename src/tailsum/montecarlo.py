"""Ground-truth estimation of P(S(u) > u) for the aggregated risk.

Two estimators:

* ``crude_mc``            -- empirical frequency of {sum > u} over model
  draws; works for every radial law.
* ``conditional_max_mc``  -- the conditional largest-claim decomposition

      P(S > u) = sum_j E[ P(X_j > max(M_j, u - S_j) | X_-j) ],

  with M_j / S_j the maximum / sum of the other margins and the
  conditional exceedance probability evaluated in closed form from the
  Gaussian copula of the log-risks (so it needs the ChiOfDim radial).
  The conditioning vectors are drawn from a defensive mixture of the
  nominal law and a mean-shifted copy (shift located by a deterministic
  optimization of the integrand), and reweighted by the exact likelihood
  ratio.  This keeps the estimator unbiased while cutting the variance
  by orders of magnitude for strongly positive correlation, where the
  plain decomposition is dominated by rare conditioning draws.  The
  shift search runs once per distinct set of margin inputs, so
  exchangeable margins share one search, and its line scan evaluates
  the integrand on all scan points in one vectorised call.
  Its 2d coordinates per draw (d normals, d mixture uniforms) come from
  randomised quasi-Monte Carlo: K >= 16 blocks of the same unscrambled
  Sobol points, each under its own random digital shift.  The integrand
  is smooth in the normals, so a block mean is far more precise than the
  mean of as many independent draws; the blocks are independent and
  unbiased, so the estimate is their mean and the standard error is
  their sample standard deviation over sqrt(K).  n is rounded up to
  K * block, with block the largest power of two <= min(2^16, n/16).
  In one block and one row every point sits at the same offset inside
  its cell of the 2^16-cell digit lattice, so the normals come from a
  Taylor polynomial of the inverse normal about the cell midpoints,
  evaluated once per used cell (exact ndtri in the tail cells).

Determinism: work is split into fixed-size chunks with per-chunk
generators spawned from the seed (and, for the conditional estimator,
one child per block); results are merged in index order with exact
(fsum) accumulation, so estimates are bit-identical for any worker
count.
"""

from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy
from scipy import optimize
from scipy.special import log_ndtr, ndtri

from . import _kernels
from .errors import DomainError, InvalidParams, WrongRadialLaw
from .model import SAMPLE_CHUNK, ModelSpec, _draw_chunk, marginal_tail
from .numerics import check_threshold

__all__ = ["MCEstimate", "crude_mc", "conditional_max_mc", "mc_table",
           "get_estimator", "worker_count", "ESTIMATOR_CRUDE",
           "ESTIMATOR_CONDITIONAL"]

ESTIMATOR_CRUDE = "crude"
ESTIMATOR_CONDITIONAL = "conditional_max"

# Defensive-mixture weight of the mean-shifted component.  Bounds the
# likelihood ratio by 1/(1-mix), so a misplaced shift can at most double
# the second moment relative to the plain estimator.
DEFAULT_MIX = 0.5

_U64 = (1 << 64) - 1

# A randomised block holds at most 2^_SOBOL_BITS Sobol points (=
# SAMPLE_CHUNK, so a chunk holds whole blocks); an estimate has at least
# _MIN_BLOCKS blocks behind its standard error.
_SOBOL_BITS = 16
_MIN_BLOCKS = 16
# Joe-Kuo direction numbers as shipped with scipy; read by path, because
# importing scipy.stats costs about half a second and 19 MB.
_DIRECTION_NUMBERS = (Path(scipy.__file__).parent / "stats"
                      / "_sobol_direction_numbers.npz")
# The lattice inverse normal uses exact ndtri in the cells where the first
# Taylor term can reach this size (|x| > 2.35, 1.9% of the cells);
# elsewhere the degree-4 remainder is below 2e-17.
_TAYLOR_CUTOFF = 3e-4


@dataclass(frozen=True)
class MCEstimate:
    """An unbiased estimate with its standard error and provenance."""

    value: float
    stderr: float
    n: int
    estimator: str
    seed: int
    elapsed: float


def worker_count(workers: int | None = None) -> int:
    """Resolve the worker count: explicit arg, then TAILSUM_THREADS, then 1.

    The count only affects wall time; estimates are identical for any
    value by construction.
    """
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("TAILSUM_THREADS")
    if env:
        return max(1, int(env))
    return 1


def _run_chunks(n: int, seed: int, workers: int | None, task):
    """Run task(child_seed_sequence, chunk_size) over fixed-size chunks.

    Returns the list of chunk results in chunk order regardless of the
    execution schedule.
    """
    n_chunks = (n + SAMPLE_CHUNK - 1) // SAMPLE_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [SAMPLE_CHUNK] * (n_chunks - 1) + [n - SAMPLE_CHUNK * (n_chunks - 1)]
    w = worker_count(workers)
    if w == 1 or n_chunks == 1:
        return [task(c, m) for c, m in zip(children, sizes)]
    with ThreadPoolExecutor(max_workers=w) as pool:
        return list(pool.map(task, children, sizes))


def crude_mc(spec: ModelSpec, u: float, n: int, seed: int,
             workers: int | None = None) -> MCEstimate:
    """Empirical frequency of {sum of risks > u} over n model draws.

    Uses the same chunked draw scheme as ``model.sample``, so the hit
    count equals the frequency over that batch.
    """
    if n < 1:
        raise InvalidParams(f"sample size must be >= 1, got {n}")
    check_threshold(u, -math.inf)
    start = time.perf_counter()
    chol = spec.sigma.cholesky()
    bg = spec.beta * spec.gamma

    def task(child, m):
        rng = np.random.default_rng(child)
        return _kernels.crude_chunk(_draw_chunk(spec, rng, m, chol), u,
                                    spec.lam, bg)

    hits = sum(_run_chunks(n, seed, workers, task))
    p = hits / n
    # With no hits (or all hits at u > 0) the binomial stderr is 0; report
    # the stderr of one hit, sqrt((1/n)(1 - 1/n)/n), the scale of the bound
    # on what n draws can resolve.  u <= 0 always hits: 1 +- 0 is exact.
    q = p if 0 < hits < n or u <= 0.0 else 1.0 / n
    stderr = math.sqrt(q * (1.0 - q) / n)
    return MCEstimate(value=p, stderr=stderr, n=n, estimator=ESTIMATOR_CRUDE,
                      seed=seed, elapsed=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Conditional largest-claim estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _ConditionalPlan:
    """Per-margin constants of the conditional estimator at one (spec, u)."""

    others: np.ndarray      # (d, d-1) indices of the other margins
    alpha: np.ndarray       # (d, d-1) conditional-mean coefficients
    cond_sd: np.ndarray     # (d,)
    shift: np.ndarray       # (d, d-1) importance mean shifts
    tilt_vec: np.ndarray    # (d, d-1) Sigma_{-j}^{-1} shift_j
    tilt_const: np.ndarray  # (d,) 0.5 * shift_j' Sigma_{-j}^{-1} shift_j
    mix: float


def _conditional_plan(spec: ModelSpec, u: float, tilt: bool,
                      mix: float) -> _ConditionalPlan:
    d = spec.d
    sig = spec.sigma.entries
    others = np.empty((d, d - 1), dtype=np.int64)
    alpha = np.empty((d, d - 1))
    cond_sd = np.empty(d)
    shift = np.zeros((d, d - 1))
    tilt_vec = np.zeros((d, d - 1))
    tilt_const = np.zeros(d)
    any_shift = False
    # Exact bytes of the inputs of margin j's shift search -> its shift, so
    # exchangeable margins share one search (with the same result).
    shifts: dict[bytes, np.ndarray] = {}
    for j in range(d):
        oth = np.array([i for i in range(d) if i != j], dtype=np.int64)
        others[j] = oth
        sub = sig[np.ix_(oth, oth)]
        cross = sig[oth, j]
        a = np.linalg.solve(sub, cross)
        alpha[j] = a
        s2 = 1.0 - float(cross @ a)
        if s2 <= 0.0:
            raise DomainError("degenerate conditional law (sigma too close "
                              "to singular for the conditional estimator)")
        cond_sd[j] = math.sqrt(s2)
        if tilt:
            key = np.concatenate(([spec.lam[j], spec.beta[j]], spec.lam[oth],
                                  spec.beta[oth], sub.ravel(), cross)).tobytes()
            if key not in shifts:
                shifts[key] = _find_shift(spec, u, j, oth, a, cond_sd[j], sub)
            m = shifts[key]
            if np.any(m != 0.0):
                any_shift = True
                shift[j] = m
                tv = np.linalg.solve(sub, m)
                tilt_vec[j] = tv
                tilt_const[j] = 0.5 * float(m @ tv)
    return _ConditionalPlan(others=others, alpha=alpha, cond_sd=cond_sd,
                            shift=shift, tilt_vec=tilt_vec,
                            tilt_const=tilt_const,
                            mix=mix if (tilt and any_shift) else 0.0)


def _integrand_log(spec: ModelSpec, u: float, j: int, oth: np.ndarray,
                   alpha: np.ndarray, sd: float, sub: np.ndarray):
    """log of (conditional exceedance prob * conditioning density kernel),
    as a function of an (m, d-1) array of points y, one value per row."""
    sub_inv = np.linalg.inv(sub)
    lam_o = spec.lam[oth]
    bg_o = spec.beta[oth] * spec.gamma
    bg_j = spec.beta[j] * spec.gamma
    lam_j = spec.lam[j]

    def h(y: np.ndarray) -> np.ndarray:
        # The products are stacked 1-D ones (a row times alpha, a row
        # times sub_inv times the row): a point rounds the same alone as
        # in a batch, and the same as the scalar dot products did.
        rows = y[:, None, :]
        with np.errstate(over="ignore"):
            x = lam_o * np.exp(bg_o * y)
        # x >= 0 and u > 0, so the threshold lies in (0, inf]; where exp
        # overflowed at an extreme scan point it is inf, so z is inf and
        # the value -inf.
        threshold = np.maximum(np.maximum.reduce(x, axis=1),
                               u - np.add.reduce(x, axis=1))
        z = (np.log(threshold / lam_j) / bg_j - (rows @ alpha)[:, 0]) / sd
        return log_ndtr(-z) - 0.5 * ((rows @ sub_inv) @ y[:, :, None])[:, 0, 0]

    return h


def _find_shift(spec: ModelSpec, u: float, j: int, oth: np.ndarray,
                alpha: np.ndarray, sd: float, sub: np.ndarray) -> np.ndarray:
    """Locate the mean shift at the mode of the conditional integrand.

    Deterministic: a coarse line scan along two candidate directions
    (the regression direction and the all-ones direction) picks a start,
    then Nelder-Mead polishes it.  Falls back to no shift when nothing
    beats the origin.
    """
    k = len(oth)
    h = _integrand_log(spec, u, j, oth, alpha, sd, sub)
    h0 = h(np.zeros((1, k)))[0]
    t_max = max(math.log(u / np.min(spec.lam[oth])) / np.min(spec.beta[oth] * spec.gamma), 1.0) + 4.0
    directions = [np.ones(k)]
    reg = sub @ alpha
    norm = float(np.max(np.abs(reg)))
    if norm > 1e-12:
        directions.append(reg / norm)
        directions.append(-reg / norm)
    ts = np.linspace(-3.0, t_max, 121)
    scan = (ts[None, :, None] * np.array(directions)[:, None, :]).reshape(-1, k)
    vals = h(scan)
    best = int(np.argmax(vals))  # the first of the largest, in scan order
    best_y, best_h = (scan[best], vals[best]) if vals[best] > h0 else (np.zeros(k), h0)
    res = optimize.minimize(lambda y: -h(y[None, :])[0], best_y,
                            method="Nelder-Mead",
                            options={"maxiter": 400 * k, "xatol": 1e-6,
                                     "fatol": 1e-10})
    if -res.fun > best_h:
        best_h, best_y = -res.fun, res.x
    if best_h <= h0 + 1e-9:
        return np.zeros(k)
    return best_y


def conditional_max_mc(spec: ModelSpec, u: float, n: int, seed: int,
                       workers: int | None = None, tilt: bool = True,
                       mix: float = DEFAULT_MIX) -> MCEstimate:
    """Conditional largest-claim estimate of P(sum of risks > u).

    Unbiased for any u.  ``tilt=False`` selects the plain decomposition
    (no importance sampling); the default tilted form is required for
    usable precision at strong positive correlation or deep thresholds.
    Needs the ChiOfDim radial (Gaussian copula of the log-risks).  The
    draws are randomised Sobol blocks (see the module docstring), so n
    is rounded up to a whole number of blocks; the returned ``n`` is the
    number of draws made.
    """
    if n < 1:
        raise InvalidParams(f"sample size must be >= 1, got {n}")
    if not 0.0 <= mix < 1.0:
        raise InvalidParams(f"mix must lie in [0, 1), got {mix}")
    if not spec.is_gaussian_copula():
        raise WrongRadialLaw(
            "conditional_max_mc needs the ChiOfDim radial matching the "
            f"dimension (got {spec.radial!r} with d={spec.d}); "
            "use crude_mc instead"
        )
    check_threshold(u)
    start = time.perf_counter()
    if spec.d == 1:
        value = _check_underflow(marginal_tail(spec, 0, u), u)
        return MCEstimate(value=value, stderr=0.0, n=n,
                          estimator=ESTIMATOR_CONDITIONAL, seed=seed,
                          elapsed=time.perf_counter() - start)
    plan = _conditional_plan(spec, u, tilt, mix)
    chol = spec.sigma.cholesky()
    bg = spec.beta * spec.gamma
    d = spec.d
    block, blocks = _block_layout(n)
    base = _sobol_base(2 * d)[:, :block]
    # built here, before any pool thread reads them
    tables = _ndtri_tables(_lattice_classes(block))

    def task(child, m):
        means = []
        for block_seed in child.spawn(m // block):
            rng = np.random.default_rng(block_seed)
            e = _lattice_ndtri(base[:d], *_draw_shift(d, rng), tables)
            y = (chol @ e).T
            del e  # freed before the mixture rows: peak memory as with PCG
            umix = (_shift_rows(base[d:], *_draw_shift(d, rng)).T
                    if plan.mix > 0.0 else None)
            w = np.empty(block)
            _kernels.conditional_chunk(y, umix, w, u, spec.lam, bg, plan.others,
                                       plan.alpha, plan.cond_sd, plan.shift,
                                       plan.tilt_vec, plan.tilt_const, plan.mix)
            means.append(float(np.mean(w)))
        return means

    parts = _run_chunks(blocks * block, seed, workers, task)
    value, stderr = _merge_blocks([mean for part in parts for mean in part])
    return MCEstimate(value=_check_underflow(value, u), stderr=stderr,
                      n=blocks * block, estimator=ESTIMATOR_CONDITIONAL,
                      seed=seed, elapsed=time.perf_counter() - start)


def _check_underflow(value: float, u: float) -> float:
    """value, unless it underflowed to 0.0 (the exact probability is > 0)."""
    if value == 0.0:
        raise DomainError(
            f"P(S > u) at u={u!r} underflows to 0.0 in double precision; "
            "use the log-space asymptotic forms (asymptotics.log_first_order "
            "or approximate(spec, u).log_second_order)")
    return value


def _block_layout(n: int) -> tuple[int, int]:
    """(block, K): block is the largest power of two <= min(2^16, n/16),
    at least 1, and K = max(16, ceil(n / block)) blocks."""
    block = 1 << min(_SOBOL_BITS, max(0, (n // _MIN_BLOCKS).bit_length() - 1))
    return block, max(_MIN_BLOCKS, -(-n // block))


def _direction_numbers(dim: int) -> np.ndarray:
    """(dim, 16) uint16 Sobol direction numbers m_rk * 2^(15-k), from the
    Joe-Kuo primitive polynomials and initial numbers by the Bratley-Fox
    recurrence, as scipy.stats.qmc.Sobol builds them."""
    with np.load(_DIRECTION_NUMBERS) as table:
        poly = table["poly"][:dim].tolist()
        vinit = table["vinit"][:dim, :_SOBOL_BITS].tolist()
    m = [[1] * _SOBOL_BITS]
    for r in range(1, dim):
        p = poly[r]
        deg = p.bit_length() - 1
        row = vinit[r][:min(deg, _SOBOL_BITS)]
        for k in range(deg, _SOBOL_BITS):
            value = row[k - deg]
            for i in range(1, deg + 1):
                if (p >> (deg - i)) & 1:
                    value ^= row[k - i] << i
            row.append(value)
        m.append(row)
    shifts = _SOBOL_BITS - 1 - np.arange(_SOBOL_BITS)
    return (np.array(m, dtype=np.uint32) << shifts).astype(np.uint16)


@functools.lru_cache(maxsize=8)
def _sobol_base(dim: int) -> np.ndarray:
    """The first 2^16 unscrambled Sobol points in ``dim`` dimensions as
    (dim, 2^16) uint16 digits: point i has coordinates base[:, i] / 2^16,
    in the Gray-code order of scipy.stats.qmc.Sobol."""
    v = _direction_numbers(dim)
    base = np.zeros((dim, 1 << _SOBOL_BITS), dtype=np.uint16)
    h = 1
    for k in range(_SOBOL_BITS):
        # Reflected Gray code: point h + i is point h - 1 - i with v_k added.
        np.bitwise_xor(base[:, h - 1::-1], v[:, k:k + 1], out=base[:, h:2 * h])
        h *= 2
    base.setflags(write=False)
    return base


def _draw_shift(rows: int, rng: np.random.Generator):
    """A random digital shift for ``rows`` rows: 16-bit XOR masks h and
    in-cell offsets k < 2^36, each (rows, 1)."""
    h = rng.integers(0, 1 << _SOBOL_BITS, size=(rows, 1), dtype=np.uint16)
    k = rng.integers(0, 1 << 36, size=(rows, 1))
    return h, k


def _shift_rows(rows: np.ndarray, h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(rows XOR h + (k + 1/2) 2^-36) 2^-16 as float64, row by row.

    A digital shift: h flips the 16 digits the points carry and k < 2^36
    fills the digits below them, so each point is uniform on (0, 1) while
    the block keeps its net structure.  Every sum is exact and lies in
    [2^-53, 1 - 2^-53]; a uniform offset in [0, 1) added to the digits
    could round up to 1.0, where ndtri is inf.
    """
    x = np.bitwise_xor(rows, h).astype(np.float64)
    x += (k + 0.5) * 2.0 ** -36
    x *= 2.0 ** -_SOBOL_BITS
    return x


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
    float32 (which costs under 1e-17); the five read-only tables take
    1 MiB, are built in place and are cached for one ``classes`` at a time.
    """
    x = np.arange(1 << (_SOBOL_BITS - 1), dtype=np.float64)
    x = x.reshape(-1, classes).T.ravel()
    x += 0.5
    x *= 2.0 ** -_SOBOL_BITS
    ndtri(x, out=x)
    c1 = np.square(x)
    c1 *= 0.5
    np.exp(c1, out=c1)
    c1 *= math.sqrt(2.0 * math.pi)
    work = np.square(x)
    work *= 6.0
    work += 7.0
    work *= x
    for _ in range(4):
        work *= c1
    work /= 24.0
    c4 = work.astype(np.float32)
    np.square(x, out=work)
    work *= 2.0
    work += 1.0
    for _ in range(3):
        work *= c1
    work /= 6.0
    c3 = work.astype(np.float32)
    np.multiply(x, c1, out=work)
    work *= c1
    work *= 0.5
    # c1 falls towards the middle, so the tail cells are the first cells of
    # the lower half and, mirrored, the last cells of the upper half.
    tail = int(np.count_nonzero(c1 * 2.0 ** -17 > _TAYLOR_CUTOFF))
    for table in (x, c1, work, c3, c4):
        table.setflags(write=False)
    return x, c1, work, c3, c4, tail


def _lattice_classes(block: int) -> int:
    """The residue classes of ``_ndtri_tables`` for blocks of ``block``
    points: the 2^(16-b) classes of the block's cells, at most 2^15."""
    return min(1 << (_SOBOL_BITS - 1), (1 << _SOBOL_BITS) // block)


def _lattice_ndtri(rows: np.ndarray, h: np.ndarray, k: np.ndarray,
                   tables) -> np.ndarray:
    """ndtri(_shift_rows(rows, h, k)), for rows holding the digits of the
    first 2^b Sobol points, as (len(rows), 2^b) float64, with ``tables``
    from ``_ndtri_tables(_lattice_classes(2^b))``.

    Such a row holds each of the digits i 2^(16-b) once, so after the XOR
    its cells j = D XOR h are exactly the 2^b cells j = h mod 2^(16-b), and
    every point lies at the same offset (k + 1/2) 2^-36 inside its cell.
    The Taylor polynomial of ``_ndtri_tables`` in the one shared delta is
    evaluated once on those cells (exact ndtri in the tail cells) and
    gathered by (D XOR h) >> (16-b).
    """
    x, c1, c2, c3, c4, tail = tables
    m = rows.shape[1]
    s = _SOBOL_BITS - (m.bit_length() - 1)
    step = 1 << s
    classes = _lattice_classes(m)
    per_class = len(x) // classes
    out = np.empty(rows.shape)
    cells = np.empty(m)
    idx = np.empty(m, dtype=np.intp)
    for row, hr, kr, dest in zip(rows, h[:, 0].tolist(), k[:, 0].tolist(), out):
        r = hr & (step - 1)
        offset = (kr + 0.5) * 2.0 ** -36
        delta = (offset - 0.5) * 2.0 ** -_SOBOL_BITS
        # The used cells of the lower half come first.  Those of the upper
        # half mirror them in reverse: cell j mirrors to 2^16 - 1 - j, the
        # offset to -delta, and ndtri(1 - p) = -ndtri(p), so their values
        # are sign * P(sign * delta) on the mirror cells with sign = -1.
        mid = (len(x) - r + step - 1) >> s
        for res, sign, part in ((r, 1.0, cells[:mid]),
                                (step - 1 - r, -1.0, cells[mid:][::-1])):
            first = (res % classes) * per_class
            used = slice(first, first + len(part))
            add = np.add if sign > 0.0 else np.subtract
            np.multiply(c4[used], sign * delta, out=part, dtype=np.float64)
            part += c3[used]
            part *= delta
            add(part, c2[used], out=part)
            part *= delta
            part += c1[used]
            part *= delta
            add(part, x[used], out=part)
        # Positions i of the tail cells i 2^s + r < tail and >= 2^16 - tail.
        low = max(0, (tail - r + step - 1) >> s)
        high = ((1 << _SOBOL_BITS) - tail - r + step - 1) >> s
        for lo, hi in ((0, low), (max(high, low), m)):
            if lo < hi:
                j = (np.arange(lo, hi) << s) + r
                cells[lo:hi] = ndtri((j + offset) * 2.0 ** -_SOBOL_BITS)
        np.bitwise_xor(row, hr, out=idx)
        idx >>= s
        np.take(cells, idx, out=dest, mode="clip")
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


def mc_table(spec: ModelSpec, u_list: Sequence[float], n: int, seed: int,
             estimator: str = ESTIMATOR_CONDITIONAL,
             workers: int | None = None) -> list[MCEstimate]:
    """One estimate per threshold, with per-threshold seeds seed XOR index."""
    if len(u_list) == 0:
        raise InvalidParams("u_list must not be empty")
    run = get_estimator(estimator)
    return [run(spec, u, n, (seed ^ idx) & _U64, workers=workers)
            for idx, u in enumerate(u_list)]


# Estimator name -> function name.  The function is looked up on this
# module at call time, so a wrapper installed on the module attribute
# (as perfbench's tracer does) sees every call.
_ESTIMATORS = {ESTIMATOR_CRUDE: "crude_mc",
               ESTIMATOR_CONDITIONAL: "conditional_max_mc"}


def get_estimator(name: str):
    """The estimator function registered under ``name``; InvalidParams for
    an unknown name."""
    if name not in _ESTIMATORS:
        raise InvalidParams(f"unknown estimator {name!r}; expected one of "
                            f"{sorted(_ESTIMATORS)}")
    return globals()[_ESTIMATORS[name]]
