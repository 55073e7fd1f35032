"""Ground-truth estimation of P(S(u) > u) for the aggregated risk.

Two estimators:

* ``crude_mc``            -- empirical frequency of {sum > u} over model
  draws; works for every radial law.
* ``conditional_max_mc``  -- the conditional largest-claim decomposition

      P(S > u) = sum_j E[ P(X_j > max(M_j, u - S_j) | X_-j) ],

  with M_j / S_j the maximum / sum of the other margins and the
  conditional exceedance probability evaluated in closed form from the
  Gaussian copula of the log-risks (so it needs the ChiOfDim(d) radial).
  The conditioning vectors are drawn from a defensive mixture, weight
  1/2, of the nominal law and a copy shifted to the mode of each
  margin's integrand (Hesterberg 1995), and reweighted by the exact
  likelihood ratio: still unbiased, and orders of magnitude less
  variance for strongly positive correlation, where the plain
  decomposition is dominated by rare conditioning draws.  The shift
  search (``_find_shift``) is deterministic and vectorised, and runs
  once per distinct set of margin inputs.
  Its d normals per draw come from randomised quasi-Monte Carlo: K >= 16
  blocks of the same unscrambled Sobol points, each under its own random
  digital shift.  The mixture is stratified: in each block every margin
  draws from the shifted component on one half of the points (in Sobol
  order, the half picked by a fair bit per margin and block) and from
  the nominal law on the other.  Each half is itself a shifted net, so a
  block mean is far more precise than the mean of as many independent
  draws; the blocks are independent and unbiased, so the estimate is
  their mean and the standard error is their sample standard deviation
  over sqrt(K).  n is rounded up to K * block, with block the largest
  power of two <= min(2^16, n/16).
  Each margin's term is drawn through its own conditional factor: margin
  j's conditioning vector y_-j ~ N(0, Sigma_-j) is chol(Sigma_-j) applied
  to the d - 1 Sobol coordinates other than j, not d - 1 rows of one
  draw chol(Sigma) e.  Its term depends on y_-j alone, so it sees a net
  in d - 1 dimensions rather than a slanted projection of the d-dim one
  (at d = 2 a 1-D shifted net), which lowers its effective dimension
  (Caflisch, Morokoff & Owen 1997).  At Sigma = I the two agree.
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
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy
from scipy.special import log_ndtr, ndtri

from . import _kernels
from .errors import DomainError, InvalidParams
from .model import SAMPLE_CHUNK, ModelSpec, _draw_chunk, marginal_tail
from .numerics import check_draws, check_threshold, is_integer_at_least

__all__ = ["MCEstimate", "crude_mc", "conditional_max_mc", "mc_table",
           "get_estimator", "worker_count", "ESTIMATOR_CRUDE",
           "ESTIMATOR_CONDITIONAL"]

ESTIMATOR_CRUDE = "crude"
ESTIMATOR_CONDITIONAL = "conditional_max"

# Defensive-mixture weight of the mean-shifted component, which
# ``_shifted_halves`` gives half of each block.  Bounds the likelihood
# ratio by 1/(1-mix): a misplaced shift at most doubles the second moment.
_MIX = 0.5

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
    n, seed = check_draws(n, seed, least=2)  # one draw has no stderr
    check_threshold(u, -math.inf)
    workers = worker_count(workers)
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
    factor: np.ndarray      # (d, d-1, d) chol(Sigma_-j) in columns others[j]
    alpha: np.ndarray       # (d, d-1) conditional-mean coefficients
    cond_sd: np.ndarray     # (d,)
    shift: np.ndarray       # (d, d-1) importance mean shifts
    tilt_vec: np.ndarray    # (d, d-1) Sigma_{-j}^{-1} shift_j
    tilt_const: np.ndarray  # (d,) 0.5 * shift_j' Sigma_{-j}^{-1} shift_j


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
            m = _find_shift(spec, u, j, oth, a, sd, sub)
            tv = np.linalg.solve(sub, m)
            constants[key] = (np.linalg.cholesky(sub), a, sd, m, tv,
                              0.5 * float(m @ tv))
        (factor[j][:, oth], alpha[j], cond_sd[j], shift[j], tilt_vec[j],
         tilt_const[j]) = constants[key]
    return _ConditionalPlan(others=others, factor=factor, alpha=alpha,
                            cond_sd=cond_sd, shift=shift, tilt_vec=tilt_vec,
                            tilt_const=tilt_const)


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
                alpha: np.ndarray, sd: float, sub: np.ndarray) -> np.ndarray:
    """Locate the mean shift at the mode of the conditional integrand.

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
    later one is higher by more than _GAIN_TOL).  No shift unless the
    mode beats the origin by more than 1e-9.
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
        return np.zeros(k)
    return y


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
    far below 1e-300) it raises DomainError instead; the log-space forms
    ``asymptotics.log_first_order`` and
    ``approximate(spec, u).log_second_order`` reach deeper.  The
    conditioning draws come from a defensive mixture, weight 1/2, of the
    nominal law and its copy shifted to the mode of each margin's
    integrand, each on a fixed half of every block; where that mode is the
    origin the shift is zero and every weight is exactly 1.
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
    bg = spec.beta * spec.gamma
    d = spec.d
    block, blocks = _block_layout(n)
    base = _sobol_base(d)[:, :block]
    # built here, before any pool thread reads them
    tables = _ndtri_tables(_lattice_classes(block))

    def task(child, m):
        means = []
        for block_seed in child.spawn(m // block):
            rng = np.random.default_rng(block_seed)
            h = rng.integers(0, 1 << _SOBOL_BITS, size=(d, 1), dtype=np.uint16)
            k = rng.integers(0, 1 << 36, size=(d, 1))  # the digital shift
            e = _lattice_ndtri(base, h, k, tables)
            shifted = _shifted_halves(block, rng.integers(0, 2, size=d))
            w = np.empty(block)
            _kernels.conditional_chunk(e, shifted, w, u, spec.lam, bg,
                                       plan.others, plan.factor, plan.alpha,
                                       plan.cond_sd, plan.shift, plan.tilt_vec,
                                       plan.tilt_const, _MIX)
            means.append(float(np.mean(w)))
        return means

    parts = _run_chunks(blocks * block, seed, workers, task)
    value, stderr = _merge_blocks([mean for part in parts for mean in part])
    return MCEstimate(value=_check_underflow(value, u), stderr=stderr,
                      n=blocks * block, estimator=ESTIMATOR_CONDITIONAL,
                      seed=seed, elapsed=time.perf_counter() - start)


def _shifted_halves(block: int, bits: np.ndarray) -> list[slice]:
    """Per margin, the rows of a block drawn from the shifted component:
    the first half (in Sobol order) where its bit is 0, else the second;
    a one-row block is its first half.  Each half of the first 2^b Sobol
    points is a net (the second is the first XOR one direction number),
    so under the block's digital shift every row is uniform."""
    mid = (block + 1) // 2
    return [slice(mid, block) if bit else slice(0, mid) for bit in bits.tolist()]


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
    """ndtri((rows XOR h + (k + 1/2) 2^-36) 2^-16), row by row, for rows
    holding the digits of the first 2^b Sobol points, as (len(rows), 2^b)
    float64, with ``tables`` from ``_ndtri_tables(_lattice_classes(2^b))``.

    That is a digital shift: h flips the 16 digits and k < 2^36 fills
    those below, so every point is uniform on (0, 1) (never 0 or 1, where
    ndtri is infinite) while the block keeps its net structure.  Such a
    row holds each of the digits i 2^(16-b) once, so after the XOR its
    cells j = D XOR h are exactly the 2^b cells j = h mod 2^(16-b), and
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
