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
  (Hesterberg 1995; Owen & Zhou 2000), the shifted copy with a share s
  of the draws (``_kernels.shifted_share``: 7/8 at d >= 3 where the
  shift is far, where a nominal half buys back almost no variance, else
  1/2), the two weighted by the power heuristic (Veach & Guibas 1995,
  exponent 2) on the exact likelihood ratio and the mixture proportions
  (``_kernels.conditional_chunk``).  Still unbiased, and orders of
  magnitude less variance for strongly positive correlation, where the
  plain decomposition is dominated by rare conditioning draws.  The
  shift search (``_find_shift``) is deterministic and vectorised, and
  runs once per distinct set of margin inputs.
  Its d normals per draw are randomised quasi-Monte Carlo (``rqmc``),
  and the mixture is stratified: in each block every margin draws from
  the shifted component on a run of s of the points in Sobol order (the
  first or the last, by a fair bit per margin and block) and from the
  nominal law on the rest.  Each run is a union of shifted nets, so a
  block mean is far more precise than as many independent draws.
  Each margin's term is drawn through its own conditional factor: margin
  j's conditioning vector y_-j ~ N(0, Sigma_-j) is chol(Sigma_-j) applied
  to the d - 1 Sobol coordinates other than j, not d - 1 rows of one
  draw chol(Sigma) e.  Its term depends on y_-j alone, so it sees a net
  in d - 1 dimensions rather than a slanted projection of the d-dim one
  (at d = 2 a 1-D shifted net), which lowers its effective dimension
  (Caflisch, Morokoff & Owen 1997).  At Sigma = I the two agree.

Determinism: work is split into fixed-size chunks, each with a child
seed spawned from the seed.  ``crude_mc`` draws each chunk as
``model.sample`` does: an SFC64 generator on the child and one (d, m)
block of normals, a draw per column; the conditional estimator's are
``rqmc``'s.  Results are merged in index order with exact (fsum)
accumulation, so estimates are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import log_ndtr

from . import _kernels
from .errors import DomainError, InvalidParams, Underflow
from .model import ModelSpec, _chunk_rng, _chunks, _draw_chunk, marginal_tail
from .numerics import check_draws, check_threshold, is_integer_at_least
from .rqmc import _merge_blocks, block_means

__all__ = ["MCEstimate", "crude_mc", "conditional_max_mc", "mc_table",
           "get_estimator", "worker_count", "ESTIMATOR_CRUDE",
           "ESTIMATOR_CONDITIONAL"]

ESTIMATOR_CRUDE = "crude"
ESTIMATOR_CONDITIONAL = "conditional_max"

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
    (``model._chunks``, or a chunk's units of ``rqmc.block_means``).

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
    draws are randomised Sobol blocks (see ``rqmc``), so n
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
    args = _conditional_plan(spec, u).kernel_args
    means, n = block_means(
        spec.d, n, seed,
        lambda e, bits, out, first, block: _kernels.conditional_chunk(
            e, bits, out, *args, start=first, block=block),
        lambda parts, task: _run_chunks(parts, workers, task))
    value, stderr = _merge_blocks(means)
    return MCEstimate(value=_check_underflow(value, u), stderr=stderr,
                      n=n, estimator=ESTIMATOR_CONDITIONAL,
                      seed=seed, elapsed=time.perf_counter() - start)


def _check_underflow(value: float, u: float) -> float:
    """value, unless it underflowed to 0.0 (the exact probability is > 0)."""
    if value == 0.0:
        raise Underflow(
            f"P(S > u) at u={u!r} underflows to 0.0 in double precision; "
            "use the log-space asymptotic forms (asymptotics.log_first_order "
            "or approximate(spec, u).log_second_order)")
    return value


def mc_table(spec: ModelSpec, u_list: Sequence[float], n: int, seed: int,
             estimator: str = ESTIMATOR_CONDITIONAL, workers: int | None = None,
             skip_underflow: bool = False) -> list[MCEstimate | None]:
    """One estimate per threshold, with per-threshold seeds seed XOR index;
    None where it raises Underflow if ``skip_underflow``."""
    if len(u_list) == 0:
        raise InvalidParams("u_list must not be empty")
    run = get_estimator(estimator)
    seed = check_draws(n, seed)[1]
    estimates = []
    for idx, u in enumerate(u_list):
        try:
            estimates.append(run(spec, u, n, seed ^ idx, workers=workers))
        except Underflow:
            if not skip_underflow:
                raise
            estimates.append(None)
    return estimates


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
