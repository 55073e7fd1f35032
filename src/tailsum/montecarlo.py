"""Ground-truth estimation of P(S(u) > u) for the aggregated risk.

Two estimators:

* ``crude_mc``            -- empirical frequency of {sum > u} over model
  draws; works for every radial law.
* ``conditional_max_mc``  -- the conditional largest-claim decomposition

      P(S > u) = sum_j E[ P(X_j > max(M_j, u - S_j) | X_-j) ],

  with M_j / S_j the maximum / sum of the other margins and the
  conditional exceedance probability evaluated in closed form from the
  Gaussian copula of the log-risks (so it needs the ChiOfDim(d) radial).
  The conditioning vectors are drawn from a defensive mixture of the
  nominal law and a copy shifted to the mode of each margin's integrand
  (Hesterberg 1995; Owen & Zhou 2000): for each margin the shifted copy
  has a share s of the draws, 7/8 at d >= 3 where the shift is far
  (``_kernels.shifted_share``: the shifted law and the integrand's mode
  both well away from the nominal law and the origin), where a nominal
  half buys back almost no variance, and 1/2 elsewhere and at d = 2.
  The two components are weighted by the power heuristic (Veach &
  Guibas 1995, exponent 2) on the exact likelihood ratio r and the
  mixture proportions: with a0 = 1 - s and R = s r / a0,
  1 / (a0 (1 + R^2)) on nominal draws (at most 1/a0: 2 on halves, 8 at
  7/8) and R / (a0 (1 + R^2)) on shifted ones (at most 1 / (2 a0)).
  Still unbiased, and orders of magnitude less variance for strongly
  positive correlation, where the plain decomposition is dominated by
  rare conditioning draws.  The shift
  search (``_find_shift``) is deterministic and vectorised, and runs
  once per distinct set of margin inputs.
  Its d normals per draw come from randomised quasi-Monte Carlo: K >= 16
  blocks of the same unscrambled Sobol points, each under its own random
  digital shift.  The mixture is stratified: in each block every margin
  draws from the shifted component on a run of s of the points in Sobol
  order (the first or the last, picked by a fair bit per margin and
  block) and from the nominal law on the rest.  The estimator draws the
  bits, and its plan sets each margin's share; the kernel
  (``_kernels.conditional_chunk``) owns the runs and their weights
  (blocks under 8 points keep halves).  Each run
  is a union of shifted nets, so a
  block mean is far more precise than the mean of as many independent
  draws; the blocks are independent and unbiased, so the estimate is
  their mean and the standard error is their sample standard deviation
  over sqrt(K).  n is rounded up to K * block, with block the largest
  power of two that leaves K >= 16 (the largest < n/15), so the rounding
  adds under n/15 draws: n = 1e6 makes 16 blocks of 2^16 and n = 2e6 16
  of 2^17.  A digital shift is one word of 52 digits per coordinate,
  the 16 of the lattice over the 36 below them.  A block past 2^16
  points is never held whole.  In the Gray-code order (Antonov & Saleev
  1979) a point is linear in its index, so its chunk c of 2^16 points is
  the first 2^16 points XOR point c 2^16, a word that XORs into the
  block's shift; so each chunk is run alone, and the block mean is the
  mean of its chunk means.
  Each margin's term is drawn through its own conditional factor: margin
  j's conditioning vector y_-j ~ N(0, Sigma_-j) is chol(Sigma_-j) applied
  to the d - 1 Sobol coordinates other than j, not d - 1 rows of one
  draw chol(Sigma) e.  Its term depends on y_-j alone, so it sees a net
  in d - 1 dimensions rather than a slanted projection of the d-dim one
  (at d = 2 a 1-D shifted net), which lowers its effective dimension
  (Caflisch, Morokoff & Owen 1997).  At Sigma = I the two agree.
  In one chunk and one row every point sits at the same offset inside
  its cell of the 2^16-cell digit lattice, so the normals come from a
  Taylor polynomial of the inverse normal about the cell midpoints,
  evaluated once per used cell (exact ndtri in the tail cells) as a
  product of the offset's powers with a stack of its coefficients.  The
  upper half of the lattice is the lower half mirrored, so it reads the
  same coefficients with the odd powers' signs flipped, and the points
  find their cells through digits encoded once so that both halves are
  laid out in the same order.

Determinism: work is split into fixed-size chunks, each with a child
seed spawned from the seed.  ``crude_mc`` draws each chunk as
``model.sample`` does: an SFC64 generator on the child and one (d, m)
block of normals, a draw per column.  The conditional estimator spawns
one grandchild per block (per block of more than one chunk, one from
its first chunk) and keeps numpy's ``default_rng`` (PCG64) for its
digital shift and mixture bits.  It lists its units of at most 2^16
points up front (a block, or a chunk of a larger one), each with its
shift word, its bits and its first point in the block, and runs each
chunk's units as one task.  Results are merged in index order
with exact (fsum) accumulation, so estimates are bit-identical for any
worker count.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import time
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy
from scipy.special import log_ndtr, ndtri

from . import _kernels
from .errors import DomainError, InvalidParams, Underflow
from .model import (SAMPLE_CHUNK, ModelSpec, _chunk_rng, _chunks, _draw_chunk,
                    marginal_tail)
from .numerics import check_draws, check_threshold, is_integer_at_least

__all__ = ["MCEstimate", "crude_mc", "conditional_max_mc", "mc_table",
           "get_estimator", "worker_count", "ESTIMATOR_CRUDE",
           "ESTIMATOR_CONDITIONAL"]

ESTIMATOR_CRUDE = "crude"
ESTIMATOR_CONDITIONAL = "conditional_max"

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
# Shift search: points per line-search round, the bracket width at which
# a line search stops, the gain in the log-integrand below which a step
# counts as no improvement, the most Newton steps or rounds, and the
# finite-difference step of the Newton model.
_GRID = 129
_UNIT_GRID = np.linspace(0.0, 1.0, _GRID)
_LINE_TOL = 1e-10
_GAIN_TOL = 1e-12
_MAX_STEPS = 50
_FD_STEP = 1e-4
# Pieces of the threshold within this distance of the largest, in log
# space, are tried as a kink: a Newton search that straddles a kink can
# stall 1e-5 short of it.
_KINK_TOL = 1e-3


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
    value by construction.  InvalidParams unless the count given is a
    positive integer by the integer rule (2.0 is not one); the variable
    is parsed as an integer literal ("2", not "2.5").
    """
    source, given = "workers", workers
    if workers is None:
        given = os.environ.get("TAILSUM_THREADS")
        if not given:
            return 1
        source = "TAILSUM_THREADS"
        try:
            workers = int(given)
        except ValueError:
            pass
    if not is_integer_at_least(workers, 1):
        raise InvalidParams(f"{source} must be a positive integer, "
                            f"got {given!r}")
    return operator.index(workers)


def _run_chunks(parts: list[tuple], workers: int | None, task):
    """Run task(*part) for each of ``parts``, one chunk of draws each
    (``model._chunks``, or a chunk's units of the conditional estimator).

    Returns the list of results in the order of ``parts`` regardless of
    the execution schedule.
    """
    w = worker_count(workers)
    if w == 1 or len(parts) == 1:
        return [task(*part) for part in parts]
    with ThreadPoolExecutor(max_workers=w) as pool:
        return list(pool.map(task, *zip(*parts)))


def crude_mc(spec: ModelSpec, u: float, n: int, seed: int,
             workers: int | None = None) -> MCEstimate:
    """Empirical frequency of {sum of risks > u} over n model draws.

    Uses the same chunked draw scheme as ``model.sample``: per chunk an
    SFC64 generator from the chunk's spawned seed and one (d, m) block of
    normals, so the hit count equals the frequency over that batch.
    """
    n, seed = check_draws(n, seed, least=2)  # one draw has no stderr
    check_threshold(u, -math.inf)
    workers = worker_count(workers)
    start = time.perf_counter()
    chol = spec.sigma.cholesky()
    bg = spec.beta * spec.gamma

    def task(child, m):
        return _kernels.crude_chunk(_draw_chunk(spec, _chunk_rng(child), m, chol),
                                    u, spec.lam, bg)

    hits = sum(_run_chunks(_chunks(n, seed), workers, task))
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

    shift: np.ndarray       # (d, d-1) importance mean shifts
    tilt_vec: np.ndarray    # (d, d-1) Sigma_{-j}^{-1} shift_j
    tilt_const: np.ndarray  # (d,) 0.5 * shift_j' Sigma_{-j}^{-1} shift_j
    kernel_args: tuple      # _kernels.conditional_chunk's arguments after out


def _conditional_plan(spec: ModelSpec, u: float) -> _ConditionalPlan:
    d = spec.d
    sig = spec.sigma.entries
    others = np.empty((d, d - 1), dtype=np.int64)
    factor = np.zeros((d, d - 1, d))
    alpha = np.empty((d, d - 1))
    cond_sd = np.empty(d)
    shift = np.empty((d, d - 1))
    tilt_vec = np.empty((d, d - 1))
    tilt_const = np.empty(d)
    gain = np.empty(d)
    # Margin j's constants depend only on lam_j, beta_j, lam and beta of
    # the others, Sigma_-j and the covariances with j; keyed by the exact
    # bytes of those, exchangeable margins share them and one shift search.
    constants: dict[bytes, tuple] = {}
    for j in range(d):
        oth = np.flatnonzero(np.arange(d) != j)
        others[j] = oth
        sub = sig[np.ix_(oth, oth)]
        cross = sig[oth, j]
        key = np.concatenate(([spec.lam[j], spec.beta[j]], spec.lam[oth],
                              spec.beta[oth], sub.ravel(), cross)).tobytes()
        if key not in constants:
            a = np.linalg.solve(sub, cross)
            s2 = 1.0 - float(cross @ a)
            if s2 <= 0.0:
                raise DomainError("degenerate conditional law (sigma too close "
                                  "to singular for the conditional estimator)")
            sd = math.sqrt(s2)
            m, g = _find_shift(spec, u, j, oth, a, sd, sub)
            tv = np.linalg.solve(sub, m)
            constants[key] = (np.linalg.cholesky(sub), a, sd, m, tv,
                              0.5 * float(m @ tv), g)
        (factor[j][:, oth], alpha[j], cond_sd[j], shift[j], tilt_vec[j],
         tilt_const[j], gain[j]) = constants[key]
    return _ConditionalPlan(
        shift=shift, tilt_vec=tilt_vec, tilt_const=tilt_const,
        kernel_args=_kernels.conditional_coefficients(
            u, spec.lam, spec.beta * spec.gamma, others, factor, alpha,
            cond_sd, shift, tilt_vec, tilt_const, gain))


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


def _line_search(h, y: np.ndarray, v: np.ndarray, best: float,
                 lo: float, hi: float) -> tuple[np.ndarray, float]:
    """The best point y + t v found from the bracket t in [lo, hi], and
    its value, or (y, best) when no point beats ``best`` = h(y).

    Each round evaluates _GRID evenly spaced points of the bracket in one
    call of h.  The next bracket spans the grid neighbours of the best
    point seen, so it narrows (_GRID - 1) / 2 times per round; when the
    best point is a new one at an end of the grid it doubles instead and
    centres on it.  It stops once the next bracket is narrower than
    _LINE_TOL (so a unimodal h has its maximum within _LINE_TOL / 2 of
    the point returned), or once both neighbours of the best grid point
    lie within _GAIN_TOL of it (then, on a concave stretch, nothing
    between them is better by more).  Only values are compared, so it
    closes in on a kink of h as well as on a smooth mode.
    """
    t = 0.0
    while hi - lo > _LINE_TOL:
        ts = lo + (hi - lo) * _UNIT_GRID
        vals = h(y + ts[:, None] * v)
        i = int(vals.argmax())  # the first of the largest
        half = (hi - lo) / (_GRID - 1)
        if vals[i] > best:
            t, best = float(ts[i]), float(vals[i])
            if i in (0, _GRID - 1):
                half = hi - lo
        elif 0 < i < _GRID - 1 and vals[i] - min(vals[i - 1], vals[i + 1]) <= _GAIN_TOL:
            break
        lo, hi = t - half, t + half
    return y + t * v, best


def _newton_search(h, q: np.ndarray, best: float) -> tuple[np.ndarray, float]:
    """Climb h from q (with ``best`` = h(q)) by Newton steps, each followed
    by ``_line_search`` over [0, 2] step (t = 1 is the Newton point).

    Gradient and Hessian are central differences with step _FD_STEP from
    one call of h on the 1 + n(n + 3)/2 points q, q +- s e_a and
    q + s (e_a + e_b), a < b.  Where the Hessian is not negative definite
    the step is the gradient instead.  Next to a kink the model is poor,
    but the line search keeps only real gains.  Stops once a step gains
    at most _GAIN_TOL.
    """
    n = len(q)
    eye = _FD_STEP * np.eye(n)
    a, b = np.triu_indices(n, 1)
    offsets = np.vstack([np.zeros((1, n)), eye, -eye, eye[a] + eye[b]])
    for _ in range(_MAX_STEPS):
        vals = h(q + offsets)
        if not np.all(np.isfinite(vals)):
            break
        f0, up, down = vals[0], vals[1:n + 1], vals[n + 1:2 * n + 1]
        grad = (up - down) / (2.0 * _FD_STEP)
        hess = np.diag(up - 2.0 * f0 + down)
        hess[a, b] = hess[b, a] = vals[2 * n + 1:] - up[a] - up[b] + f0
        hess /= _FD_STEP ** 2
        try:
            np.linalg.cholesky(-hess)
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            step = grad / max(float(np.max(np.abs(grad))), 1e-300)
        start = best
        q, best = _line_search(h, q, step, best, 0.0, 2.0)
        if best - start <= _GAIN_TOL:
            break
    return q, best


def _kink_map(u: float, lam_o: np.ndarray, bg_o: np.ndarray,
              on_max: np.ndarray, on_rest: bool):
    """The map from free parameters q to the points y at which the flagged
    pieces of the threshold max(x_1, ..., x_k, u - sum x) are equal, with
    x_i = lam_i exp(bg_i y_i): every flagged x_i equals T, and so does
    u - sum x when ``on_rest``.

    A flagged x_i = T fixes y_i = (log T - log lam_i) / bg_i.  With
    ``on_rest`` the free parameters are the unflagged y_F and
    T = (u - sum x_F) / (1 + number flagged); otherwise they are
    (log T, y_F).  Where u - sum x_F <= 0 no such T exists; q then maps
    to a point far below, where h is low but still its true value.
    """
    m, f = np.flatnonzero(on_max), np.flatnonzero(~on_max)
    log_lam, bg_m = np.log(lam_o[m]), bg_o[m]

    def embed(q: np.ndarray) -> np.ndarray:
        y = np.empty((len(q), len(lam_o)))
        if on_rest:
            y[:, f] = q
            with np.errstate(over="ignore"):
                rest = u - np.add.reduce(lam_o[f] * np.exp(bg_o[f] * q), axis=1)
            log_t = np.log(np.maximum(rest, 1e-300) / (len(m) + 1))
        else:
            log_t = q[:, 0]
            y[:, f] = q[:, 1:]
        y[:, m] = (log_t[:, None] - log_lam) / bg_m
        return y

    return embed


def _find_shift(spec: ModelSpec, u: float, j: int, oth: np.ndarray,
                alpha: np.ndarray, sd: float, sub: np.ndarray
                ) -> tuple[np.ndarray, float]:
    """Locate the mean shift at the mode of the conditional integrand, and
    the log-integrand's gain there over the origin.

    Deterministic and vectorised: every step evaluates h on a batch of
    points in one call.  It starts with a line search along the all-ones
    direction over t in [-t_max, t_max], with t_max past the point where
    one other margin alone reaches u.  When the other margins are
    exchangeable (equal lam and beta, equicorrelated Sigma_-j, equal
    covariances with margin j; always so at d = 2) the integrand is
    symmetric in them and this is the result; at d = 2 the mode is
    usually the kink x = u - x.  Otherwise ``_climb`` runs from that
    point and, as the climb is local, from the best point of a line
    search along the regression direction Sigma_-j alpha and along each
    coordinate axis; the highest mode is kept (the earliest unless a
    later one is higher by more than _GAIN_TOL).  No shift, and a gain
    of 0, unless the mode beats the origin by more than 1e-9.
    """
    k = len(oth)
    h = _integrand_log(spec, u, j, oth, alpha, sd, sub)
    lam_o, bg_o = spec.lam[oth], spec.beta[oth] * spec.gamma
    t_max = max(math.log(u / lam_o.min()) / bg_o.min(), 1.0) + 4.0
    # The first round of the all-ones line search is done here: its grid
    # is symmetric about t = 0, so its middle value is h at the origin.
    ones = np.ones(k)
    ts = t_max * (2.0 * _UNIT_GRID - 1.0)
    vals = h(ts[:, None] * ones)
    i = int(vals.argmax())
    h0, step = float(vals[_GRID // 2]), ts[1] - ts[0]
    y, best = _line_search(h, ts[i] * ones, ones, float(vals[i]), -step, step)
    exchangeable = all(len(set(part.tolist())) <= 1 for part in (
        lam_o, bg_o, sub[~np.eye(k, dtype=bool)], spec.sigma.entries[oth, j]))
    if not exchangeable:
        y, best = _climb(h, u, lam_o, bg_o, y, best)
        reg = sub @ alpha
        for v in (reg / max(float(np.max(np.abs(reg))), 1e-300), *np.eye(k)):
            y_v, h_v = _climb(h, u, lam_o, bg_o, *_line_search(
                h, np.zeros(k), v, h0, -t_max, t_max))
            if h_v > best + _GAIN_TOL:  # not one mode reached twice
                y, best = y_v, h_v
    if best <= h0 + 1e-9:
        return np.zeros(k), 0.0
    return y, best - h0


def _climb(h, u: float, lam_o: np.ndarray, bg_o: np.ndarray, y: np.ndarray,
           best: float) -> tuple[np.ndarray, float]:
    """The point reached, and its value, by rounds from y (``best`` = h(y))
    until one gains at most _GAIN_TOL.  A round runs ``_newton_search`` on
    h.  The mode usually sits on a kink, where two or more pieces of the
    threshold max(x_1, ..., x_k, u - sum x) are equal, and no straight
    line climbs along a curved kink.  So the round then runs it in the
    parameters of ``_kink_map`` (where h is smooth) for the pieces within
    _KINK_TOL of the largest, and for each set with one piece fewer when
    there are more than two."""
    k = len(y)
    for _ in range(_MAX_STEPS):
        start = best
        y, best = _newton_search(h, y, best)
        log_x = np.log(lam_o) + bg_o * y
        rest = u - float(np.sum(np.exp(log_x)))
        log_t = np.append(log_x, math.log(rest) if rest > 0.0 else -math.inf)
        active = np.flatnonzero(log_t >= np.max(log_t) - _KINK_TOL)
        kinks = [active]
        if len(active) > 2:
            kinks += [np.delete(active, n) for n in range(len(active))]
        for kink in kinks:
            on_max = np.isin(np.arange(k), kink)
            on_rest = k in kink
            if len(kink) < 2 or (on_rest and on_max.all()):
                continue  # no kink, or a single point
            embed = _kink_map(u, lam_o, bg_o, on_max, on_rest)
            q = y[~on_max]
            if not on_rest:
                q = np.append(np.max(log_t[kink]), q)
            q, value = _newton_search(lambda p: h(embed(p)), q,
                                      float(h(embed(q[None, :]))[0]))
            if value > best:
                y, best = embed(q[None, :])[0], value
        if best - start <= _GAIN_TOL:
            break
    return y, best


def conditional_max_mc(spec: ModelSpec, u: float, n: int, seed: int,
                       workers: int | None = None) -> MCEstimate:
    """Conditional largest-claim estimate of P(sum of risks > u).

    Unbiased wherever the probability is representable in double
    precision.  Where the merged value underflows to 0.0 (probabilities
    far below 1e-300) it raises Underflow, a DomainError, instead; the
    log-space forms ``asymptotics.log_first_order`` and
    ``approximate(spec, u).log_second_order`` reach deeper.  The
    conditioning draws come from a defensive mixture of the nominal law
    and its copy shifted to the mode of each margin's integrand, each on a
    fixed run of every block: the shifted copy on 7/8 of it for a margin
    whose shift is far at d >= 3 (on blocks of 8 or more points), and on
    half of it otherwise.  The runs are weighted by the power heuristic
    with the mixture proportions: at most 1 / a0 on the nominal run (2 on
    a half, 8 on an eighth) and at most 1 / (2 a0) on the shifted one, a0
    being the nominal share.  Where that mode is the origin the shift is
    zero, the share is a half and every weight is exactly 1.
    Needs the ChiOfDim(d) radial (Gaussian copula of the log-risks).  The
    draws are randomised Sobol blocks (see the module docstring), so n
    (an integer >= 1; seed is one >= 0) is rounded up to a whole number
    of blocks; the returned ``n`` is the number of draws made.
    """
    n, seed = check_draws(n, seed)
    spec.require_gaussian_copula("conditional_max_mc")
    check_threshold(u)
    workers = worker_count(workers)
    start = time.perf_counter()
    if spec.d == 1:
        value = _check_underflow(marginal_tail(spec, 0, u), u)
        return MCEstimate(value=value, stderr=0.0, n=n,
                          estimator=ESTIMATOR_CONDITIONAL, seed=seed,
                          elapsed=time.perf_counter() - start)
    plan = _conditional_plan(spec, u)
    d = spec.d
    block, blocks = _block_layout(n)
    # a block past SAMPLE_CHUNK points is run one chunk at a time: the
    # estimate is run in units of ``size`` points, ``per_block`` a block
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
        # One buffer for the normals and the lattice's cell values, whose
        # row then takes the kernel's output: freed as one chunk, it stays
        # in malloc's heap from task to task instead of going back to the
        # system to be faulted in again (see ``_kernels``).  That rests on
        # glibc's malloc state, which no test watches: separate buffers
        # cost 184,832 page faults per table1_cond pass once nothing in
        # the process freed a large array to raise the mmap threshold.
        buf = np.empty((d + 1, size))
        e, w = buf[:d], buf[d]
        means = []
        for shift, bits, first in part:
            _lattice_ndtri(base, shift, tables, out=e, cells=w)
            _kernels.conditional_chunk(e, bits, w, *plan.kernel_args,
                                       start=first, block=block)
            means.append(float(np.mean(w)))
        return means

    # one task per chunk of SAMPLE_CHUNK draws
    step = SAMPLE_CHUNK // size
    parts = [(units[i:i + step],) for i in range(0, len(units), step)]
    means = [x for part in _run_chunks(parts, workers, task) for x in part]
    value, stderr = _merge_blocks([math.fsum(means[i:i + per_block]) / per_block
                                   for i in range(0, len(means), per_block)])
    return MCEstimate(value=_check_underflow(value, u), stderr=stderr,
                      n=blocks * block, estimator=ESTIMATOR_CONDITIONAL,
                      seed=seed, elapsed=time.perf_counter() - start)


def _check_underflow(value: float, u: float) -> float:
    """value, unless it underflowed to 0.0 (the exact probability is > 0)."""
    if value == 0.0:
        raise Underflow(
            f"P(S > u) at u={u!r} underflows to 0.0 in double precision; "
            "use the log-space asymptotic forms (asymptotics.log_first_order "
            "or approximate(spec, u).log_second_order)")
    return value


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


def mc_table(spec: ModelSpec, u_list: Sequence[float], n: int, seed: int,
             estimator: str = ESTIMATOR_CONDITIONAL,
             workers: int | None = None) -> list[MCEstimate]:
    """One estimate per threshold, with per-threshold seeds seed XOR index."""
    if len(u_list) == 0:
        raise InvalidParams("u_list must not be empty")
    run = get_estimator(estimator)
    seed = check_draws(n, seed)[1]
    return [run(spec, u, n, seed ^ idx, workers=workers)
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
